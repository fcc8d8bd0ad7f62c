(* Monotonic clock and sample summaries.

   Every figure the benchmark reports comes from [now_ns] (bechamel's
   CLOCK_MONOTONIC stub), never from the wall clock. A [samples] buffer
   collects one float per timed operation after warm-up; [summary] turns it
   into the median, the quartiles (Smc_util.Stats.percentile) and the
   tail: the highest percentile of the ladder that still has at least ten
   samples beyond it. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let elapsed_s t0 = now_s () -. t0

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

(* Merge per-domain buffers into one. *)
let concat ss =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add out s.data.(i) done) ss;
  out

let tail_ladder = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 99.99; 99.999 ]

(* The highest ladder percentile with at least ten samples above it. *)
let tail_percentile n =
  List.fold_left
    (fun best p -> if float n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else best)
    50.0 tail_ladder

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  tail_p : float;
  tail : float;
}

let summary s =
  let a = Array.sub s.data 0 s.n in
  let tail_p = tail_percentile s.n in
  let p = Smc_util.Stats.percentile a in
  { n = s.n; median = p 50.0; q1 = p 25.0; q3 = p 75.0; tail_p; tail = p tail_p }
