(* In-memory spans for the traced run.

   A span is a name, a start and end on the monotonic clock, the span that
   was open when it started (its parent, per domain) and the identifier of
   the request or rotation it belongs to. Spans stay in per-domain buffers
   while the run is measured and are only aggregated, or written out, at the
   end. A span's self time is its duration minus the durations of its direct
   children. With [enabled] false, [span] is a plain call. *)

type span = { name : string; id : int; parent : int; req : int; t0 : int64; t1 : int64 }

type dstate = { mutable stack : int list; mutable spans : span list; mutable req : int }

let enabled = ref false
let next_id = Atomic.make 1
let next_req = Atomic.make 1
let states_lock = Mutex.create ()
let states : dstate list ref = ref []

let dls =
  Domain.DLS.new_key (fun () ->
      let st = { stack = []; spans = []; req = 0 } in
      Mutex.lock states_lock;
      states := st :: !states;
      Mutex.unlock states_lock;
      st)

(* Start a new request (or rotation): spans opened from now on, on this
   domain, share its identifier. *)
let request () = if !enabled then (Domain.DLS.get dls).req <- Atomic.fetch_and_add next_req 1

let span name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get dls in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match st.stack with p :: _ -> p | [] -> 0 in
    st.stack <- id :: st.stack;
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      st.stack <- List.tl st.stack;
      st.spans <- { name; id; parent; req = st.req; t0; t1 } :: st.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let all_spans () =
  Mutex.lock states_lock;
  let l = List.concat_map (fun st -> st.spans) !states in
  Mutex.unlock states_lock;
  l

let reset () =
  Mutex.lock states_lock;
  List.iter (fun st -> st.spans <- []) !states;
  Mutex.unlock states_lock

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Per span name: the self time of every span with that name, in ns. *)
let self_times () =
  let spans = all_spans () in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let buf =
        match Hashtbl.find_opt by_name s.name with
        | Some b -> b
        | None ->
          let b = Clock.samples () in
          Hashtbl.replace by_name s.name b;
          b
      in
      Clock.add buf self)
    spans;
  by_name

(* Median self time of the named span in ns. *)
let self_median tbl name =
  match Hashtbl.find_opt tbl name with
  | Some b when Clock.count b > 0 -> Some (Clock.summary b).Clock.median
  | _ -> None

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_ns\tend_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.req s.name s.t0 s.t1)
        (List.rev (all_spans ())))
