(* What one run reports: operations attempted and failed, the gates that
   tripped, the mechanism checks, and named metrics with their units.

   [metric] records a figure that goes into the final JSON line (the
   end-to-end set with tracing off, the per-layer set with tracing on);
   [detail] records a figure that is only printed, with its median and
   sample count, in the human-readable table before the JSON line. *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let lock = Mutex.create ()
let gates : string list ref = ref []
let metrics : (string * string * float) list ref = ref []
let details : (string * string * float * int) list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* One operation: [ok] false counts it failed. [why] names the gate. *)
let op ?why ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    match why with
    | Some w -> with_lock (fun () -> if List.length !gates < 50 then gates := w :: !gates)
    | None -> ()
  end

(* A correctness gate or mechanism check run once: each violation message
   is reported; the gate counts as one operation, failed if any tripped. *)
let gate name violations =
  op ~why:name (violations = []);
  List.iteri
    (fun i v -> if i < 5 then with_lock (fun () -> gates := (name ^ ": " ^ v) :: !gates))
    violations

let check name ok detail = gate name (if ok then [] else [ detail ])

let metric name unit v = with_lock (fun () -> metrics := (name, unit, v) :: !metrics)
let detail name unit v n = with_lock (fun () -> details := (name, unit, v, n) :: !details)

(* Record a summary as detail rows: median and tail, with the count. *)
let detail_summary name unit (s : Clock.summary) =
  detail (name ^ ".p50") unit s.Clock.median s.Clock.n;
  if s.Clock.tail_p > 50.0 then
    detail (Printf.sprintf "%s.p%g" name s.Clock.tail_p) unit s.Clock.tail s.Clock.n

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print ~workload ~trace =
  Printf.printf "== %s (trace %d): %d attempted, %d failed\n" workload
    (if trace then 1 else 0) (Atomic.get attempted) (Atomic.get failed);
  List.iter (fun g -> Printf.printf "   gate tripped: %s\n" g) (List.rev !gates);
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "   %-28s %14.4f %-6s n=%d\n" name v unit n)
    (List.rev !details);
  List.iter
    (fun (name, unit, v) -> Printf.printf "   %-28s %14.4f %s\n" name v unit)
    (List.rev !metrics);
  let ms =
    List.rev_map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      !metrics
  in
  let failed = Atomic.get failed in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (Atomic.get attempted) failed (String.concat ", " ms)
