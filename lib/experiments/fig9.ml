open Smc_util

type point = {
  variant : string;
  size : int;
  max_timeout_ms : float;
  full_gc_ms : float;
  workload_ms : float;
}

(* The paper pairs an allocating thread with a 1 ms-sleeper thread and
   records the sleeper's overshoot. On this reproduction's single-core
   container, cross-thread sleep overshoot measures scheduler preemption
   rather than garbage collection, so the adaptation times the allocating
   workload itself: the workload runs in fixed small units, and the longest
   unit is the observed worst-case stall. GC pauses (growing with the number
   of heap-resident objects) dominate that maximum exactly as they dominate
   the paper's timer overshoot. *)

let churn_unit window g i =
  for k = 0 to 199 do
    let n = 1 + ((i + k) mod 20) in
    let cell = List.init n (fun j -> Bytes.create (16 + ((j * 7) mod 48))) in
    window.((i + k) land 4095) <- cell
  done;
  ignore g

(* Runs a fixed number of allocation units and, at the midpoint, one full
   (blocking) major collection — the deterministic equivalent of .NET's
   batch-mode gen2 collection, whose duration the paper's Figure 9 tracks.
   Reports the longest single unit (worst-case incremental stall), the
   duration of the forced full collection (growing with the traced heap),
   and the total elapsed time (the throughput stolen by collection — the
   paper's "interactive" effect). *)
let measure_spikes ~batch ~units =
  let saved = Gc.get () in
  if batch then
    Gc.set { saved with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      let window = Array.make 4096 [] in
      let g = Prng.create ~seed:9L () in
      let max_ms = ref 0.0 in
      (* Three forced majors spaced across the workload; the minimum is the
         noise-robust estimate of the blocking-collection duration. *)
      let full_ms = ref infinity in
      let q1 = units / 4 and q2 = units / 2 and q3 = 3 * units / 4 in
      let total =
        Timing.time_ms (fun () ->
            for u = 0 to units - 1 do
              let dt = Timing.time_ms (fun () -> churn_unit window g (u * 200)) in
              if dt > !max_ms then max_ms := dt;
              if u = q1 || u = q2 || u = q3 then begin
                let gc_ms = Timing.time_ms Gc.major in
                if gc_ms < !full_ms then full_ms := gc_ms
              end
            done)
      in
      ignore (Sys.opaque_identity window);
      (!max_ms, !full_ms, total))

let measure_managed ~batch ~size ~units =
  let order, part, supplier = Dbgen_shared.make () in
  let g = Prng.create ~seed:31L () in
  let population =
    Array.init size (fun _ : Smc_tpch.Row.lineitem ->
        {
          Smc_tpch.Row.l_order = order;
          l_part = part;
          l_supplier = supplier;
          l_linenumber = 1;
          l_quantity = Prng.int_in g 1 50;
          l_extendedprice = Prng.int_in g 100000 10000000;
          l_discount = 0;
          l_tax = 0;
          l_returnflag = 'N';
          l_linestatus = 'O';
          l_shipdate = 0;
          l_commitdate = 0;
          l_receiptdate = 0;
          l_shipinstruct = "NONE";
          l_shipmode = "MAIL";
          l_comment = Printf.sprintf "row %d" (Prng.int g 1000000);
        })
  in
  Gc.compact ();
  let result = measure_spikes ~batch ~units in
  ignore (Sys.opaque_identity population);
  result

let measure_smc ~batch ~size ~units =
  let _rt, coll = Workload.lineitem_collection () in
  let g = Prng.create ~seed:31L () in
  for _ = 1 to size do
    ignore (Workload.add_lineitem coll g : Smc.Ref.t)
  done;
  Gc.compact ();
  let result = measure_spikes ~batch ~units in
  ignore (Sys.opaque_identity coll);
  result

let run ?(sizes = [ 100_000; 400_000; 1_600_000 ]) ?(duration_s = 2.0) () =
  (* duration_s sets the workload size: units calibrated at roughly 0.5 ms
     of allocation work each. *)
  let units = max 200 (int_of_float (duration_s *. 2000.0)) in
  List.concat_map
    (fun size ->
      List.map
        (fun (variant, f) ->
          Gc.compact ();
          let max_timeout_ms, full_gc_ms, workload_ms = f ~size ~units in
          { variant; size; max_timeout_ms; full_gc_ms; workload_ms })
        [
          ("Managed (batch)", measure_managed ~batch:true);
          ("Managed (interactive)", measure_managed ~batch:false);
          ("Self-managed (batch)", measure_smc ~batch:true);
          ("Self-managed (interactive)", measure_smc ~batch:false);
        ])
    sizes

let table points =
  let t =
    Table.create
      ~title:"Figure 9: GC impact of parked objects (fixed allocation workload)"
      ~columns:
        [ "variant"; "collection size"; "max stall (ms)"; "full major GC (ms)";
          "workload total (ms)" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.variant;
          string_of_int p.size;
          Printf.sprintf "%.2f" p.max_timeout_ms;
          Printf.sprintf "%.2f" p.full_gc_ms;
          Printf.sprintf "%.1f" p.workload_ms;
        ])
    points;
  t
