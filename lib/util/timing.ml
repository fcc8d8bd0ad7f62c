let now_ns () = Monotonic_clock.now ()

let time_it f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, Int64.to_float (Int64.sub t1 t0) /. 1e6)

let time_ms f = snd (time_it f)

let repeat ?(warmup = 1) n f =
  for _ = 1 to warmup do f () done;
  Array.init n (fun _ -> time_ms f)

let throughput_per_sec ~ops ~ms =
  if ms <= 0.0 then 0.0 else float_of_int ops /. (ms /. 1000.0)
