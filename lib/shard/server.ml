(* The serving front-end: one accept loop on a Unix-domain socket,
   connections handed to the domain pool, requests executed against a
   sharded key/value collection. Admission control bounds the requests in
   flight across all connections; anything over the cap is answered with
   an explicit [Shed] frame instead of queueing without bound — the client
   can tell overload from failure and retry.

   Counter discipline (checked by [Obs_check.check_shard]): every decoded
   request frame is answered exactly one way — [srv_requests] =
   [srv_replies] + [srv_errors] + [srv_shed]. *)

open Smc_offheap
module C = Smc.Collection
module Pool = Smc_parallel.Pool

let kv_layout = Layout.create ~name:"kv" [ ("k", Layout.Int); ("v", Layout.Int) ]

let kv_shard ?shards ?slots_per_block () =
  Shard.create ?shards ~name:"kv" ~layout:kv_layout ?slots_per_block ()

type t = {
  shard : Shard.t;
  fk : Layout.field;
  fv : Layout.field;
  sock : Unix.file_descr;
  path : string;
  pool : Pool.t;
  own_pool : bool;
  obs : Smc_obs.t;
  max_inflight : int;
  inflight : int Atomic.t;
  stopping : bool Atomic.t;
  mutable accept_d : unit Domain.t option;
  conns_lock : Mutex.t;
  mutable conns : unit Pool.promise list;
}

let field layout name =
  match Layout.field_opt layout name with
  | Some f when f.Layout.ftype = Layout.Int -> f
  | _ ->
    invalid_arg
      (Printf.sprintf "Server.start: layout %S has no int field %S — the server speaks the \
                       key/value vocabulary (see Server.kv_layout)"
         layout.Layout.type_name name)

(* ------------------------------------------------------------------ *)
(* Request execution — runs on the pool worker serving the connection. *)

let execute t (req : Wire.request) : Wire.reply =
  let sh = t.shard in
  let check_shard s = s >= 0 && s < Shard.n_shards sh in
  match req with
  | Wire.Ping -> Wire.Ok_unit
  | Wire.Add { key; value } ->
    let r =
      Shard.add sh ~key ~init:(fun blk slot ->
          Smc.Field.set_int t.fk blk slot key;
          Smc.Field.set_int t.fv blk slot value)
    in
    Wire.Ok_pair (Shard.sref_shard r, Smc.Ref.to_packed (Shard.sref_ref r))
  | Wire.Get { shard; packed } ->
    if not (check_shard shard) then Wire.Err "no such shard"
    else begin
      let coll = Shard.collection sh shard in
      C.with_read coll (fun () ->
          match C.deref_opt coll (Smc.Ref.of_packed packed) with
          | None -> Wire.Err "null reference"
          | Some (blk, slot) ->
            Wire.Ok_pair (Smc.Field.get_int t.fk blk slot, Smc.Field.get_int t.fv blk slot))
    end
  | Wire.Remove { shard; packed } ->
    if not (check_shard shard) then Wire.Err "no such shard"
    else
      Wire.Ok_int
        (if Shard.remove sh { Shard.sr_shard = shard; sr_ref = Smc.Ref.of_packed packed }
         then 1
         else 0)
  | Wire.Store { shard; packed; value } ->
    if not (check_shard shard) then Wire.Err "no such shard"
    else begin
      match
        Shard.store sh
          { Shard.sr_shard = shard; sr_ref = Smc.Ref.of_packed packed }
          ~word:t.fv.Layout.word ~value
      with
      | () -> Wire.Ok_unit
      | exception Constants.Null_reference -> Wire.Err "null reference"
    end
  | Wire.Txn_put pairs -> (
    match
      Shard.transact sh (fun tx ->
          List.iter
            (fun (key, value) ->
              Shard.stage_add tx ~key ~init:(fun blk slot ->
                  Smc.Field.set_int t.fk blk slot key;
                  Smc.Field.set_int t.fv blk slot value))
            pairs)
    with
    | Shard.Committed refs ->
      Wire.Ok_refs
        (List.map
           (fun r -> (Shard.sref_shard r, Smc.Ref.to_packed (Shard.sref_ref r)))
           refs)
    | Shard.Conflict -> Wire.Err "conflict")
  | Wire.Count -> Wire.Ok_int (Shard.count sh)
  | Wire.Sum ->
    Wire.Ok_int
      (Shard.fold sh ~init:0
         ~f:(fun _ coll ->
           C.fold coll ~init:0 ~f:(fun acc blk slot -> acc + Smc.Field.get_int t.fv blk slot))
         ~combine:( + ))

(* ------------------------------------------------------------------ *)
(* Connection handling *)

let handle_request t req =
  Smc_obs.incr t.obs Smc_obs.c_srv_requests;
  (* Admission: claim an in-flight slot before executing; over the cap, the
     request is shed without touching the shards. *)
  let claimed = Atomic.fetch_and_add t.inflight 1 in
  let reply =
    if claimed >= t.max_inflight then Wire.Shed
    else match execute t req with r -> r | exception e -> Wire.Err (Printexc.to_string e)
  in
  ignore (Atomic.fetch_and_add t.inflight (-1) : int);
  (match reply with
  | Wire.Shed -> Smc_obs.incr t.obs Smc_obs.c_srv_shed
  | Wire.Err _ -> Smc_obs.incr t.obs Smc_obs.c_srv_errors
  | Wire.Ok_unit | Wire.Ok_int _ | Wire.Ok_pair _ | Wire.Ok_refs _ ->
    Smc_obs.incr t.obs Smc_obs.c_srv_replies);
  reply

let serve_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec loop () =
        match Wire.read_frame fd with
        | None -> () (* client disconnected *)
        | Some payload ->
          let reply =
            match Wire.decode_request payload with
            | req -> handle_request t req
            | exception Wire.Protocol_error msg ->
              Smc_obs.incr t.obs Smc_obs.c_srv_requests;
              Smc_obs.incr t.obs Smc_obs.c_srv_errors;
              Wire.Err ("protocol error: " ^ msg)
          in
          Wire.write_frame fd (Wire.encode_reply reply);
          loop ()
      in
      try loop () with Wire.Protocol_error _ | Unix.Unix_error _ -> ())

let accept_loop t =
  let rec loop () =
    match Unix.accept t.sock with
    | exception Unix.Unix_error _ -> () (* listener closed by [stop] *)
    | fd, _ ->
      if Atomic.get t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Smc_obs.incr t.obs Smc_obs.c_srv_conns;
        let p = Pool.submit t.pool (fun () -> serve_conn t fd) in
        Mutex.lock t.conns_lock;
        t.conns <- p :: t.conns;
        Mutex.unlock t.conns_lock;
        loop ()
      end
  in
  loop ();
  (* This domain ran connection handlers inline when the pool has no
     workers; hand back the epoch thread slots it registered on the shard
     runtimes, like pool workers do on shutdown. *)
  Epoch.release_current_domain ()

let start ?(max_inflight = 64) ?pool ~path shard =
  if max_inflight < 0 then invalid_arg "Server.start: max_inflight must be >= 0";
  let fk = field (Shard.layout shard) "k" in
  let fv = field (Shard.layout shard) "v" in
  let pool, own_pool =
    match pool with Some p -> (p, false) | None -> (Pool.create (), true)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      shard;
      fk;
      fv;
      sock;
      path;
      pool;
      own_pool;
      obs = Shard.obs shard;
      max_inflight;
      inflight = Atomic.make 0;
      stopping = Atomic.make false;
      accept_d = None;
      conns_lock = Mutex.create ();
      conns = [];
    }
  in
  t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Closing the listener does not wake a thread already parked in
       accept(2) on Linux; poke the acceptor awake with a throwaway
       connection — it sees [stopping] set and drops it — and also
       shut the listener down, which covers the path having been
       unlinked or replaced underneath us (the connect would then miss
       the live listener). *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () -> try Unix.connect fd (Unix.ADDR_UNIX t.path) with Unix.Unix_error _ -> ())
     with Unix.Unix_error _ -> ());
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.accept_d with None -> () | Some d -> Domain.join d);
    t.accept_d <- None;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_lock;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.conns_lock;
    List.iter (fun p -> try Pool.await p with _ -> ()) conns;
    if t.own_pool then Pool.shutdown t.pool;
    try Unix.unlink t.path with Unix.Unix_error _ -> ()
  end
