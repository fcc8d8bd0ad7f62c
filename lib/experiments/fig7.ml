open Smc_util

type point = { variant : string; threads : int; mallocs_per_sec : float }

(* Shared referents so a fresh lineitem record only allocates the record
   itself plus its strings, as in the paper's default-constructor test. *)
let dummy_rows = lazy (Dbgen_shared.make ())

(* The batch collector analogue: a large minor heap and relaxed space
   overhead trade pause frequency for throughput. Settings are applied
   inside each domain (OCaml 5 GC parameters are per-domain). *)
let gc_batch () = Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 }

let make_lineitem g : Smc_tpch.Row.lineitem =
  let order, part, supplier = Lazy.force dummy_rows in
  {
    Smc_tpch.Row.l_order = order;
    l_part = part;
    l_supplier = supplier;
    l_linenumber = Prng.int_in g 1 7;
    l_quantity = Smc_decimal.Decimal.of_int (Prng.int_in g 1 50);
    l_extendedprice = Smc_decimal.Decimal.of_cents (Prng.int_in g 100000 10000000);
    l_discount = Smc_decimal.Decimal.of_cents (Prng.int_in g 0 10);
    l_tax = Smc_decimal.Decimal.of_cents (Prng.int_in g 0 8);
    l_returnflag = 'N';
    l_linestatus = 'O';
    l_shipdate = Smc_tpch.Spec.start_date + Prng.int g 2000;
    l_commitdate = Smc_tpch.Spec.start_date + Prng.int g 2000;
    l_receiptdate = Smc_tpch.Spec.start_date + Prng.int g 2000;
    l_shipinstruct = "NONE";
    l_shipmode = "MAIL";
    l_comment = "batch allocation bench row";
  }

let timed_domains threads body =
  Timing.time_ms (fun () -> Workload.domains_run threads body)

let pure_alloc ~batch ~threads ~per_thread =
  let sinks = Array.make threads [||] in
  let ms =
    timed_domains threads (fun i ->
        if batch then gc_batch ();
        let g = Prng.create ~seed:(Int64.of_int (i + 1)) () in
        let sink = Array.make per_thread (make_lineitem g) in
        for j = 0 to per_thread - 1 do
          Array.unsafe_set sink j (make_lineitem g)
        done;
        sinks.(i) <- sink)
  in
  ignore (Sys.opaque_identity sinks);
  ms

let bag_alloc ~batch ~threads ~per_thread =
  let bag = Smc_managed.Concurrent_bag.create () in
  timed_domains threads (fun i ->
      if batch then gc_batch ();
      let g = Prng.create ~seed:(Int64.of_int (i + 1)) () in
      for _ = 1 to per_thread do
        Smc_managed.Concurrent_bag.add bag (make_lineitem g)
      done)

let dict_alloc ~batch ~threads ~per_thread =
  let dict = Smc_managed.Concurrent_dictionary.create ~capacity:(threads * per_thread) () in
  timed_domains threads (fun i ->
      if batch then gc_batch ();
      let g = Prng.create ~seed:(Int64.of_int (i + 1)) () in
      let base = i * per_thread in
      for j = 0 to per_thread - 1 do
        Smc_managed.Concurrent_dictionary.add dict ~key:(base + j) (make_lineitem g)
      done)

let smc_alloc ~threads ~per_thread =
  let _rt, coll = Workload.lineitem_collection () in
  timed_domains threads (fun i ->
      let g = Prng.create ~seed:(Int64.of_int (i + 1)) () in
      for _ = 1 to per_thread do
        ignore (Workload.add_lineitem coll g : Smc.Ref.t)
      done)

let run ?(per_thread = 300_000) ?(thread_counts = [ 1; 2; 4 ]) () =
  let variants =
    [
      ("pure alloc (interactive)", fun threads -> pure_alloc ~batch:false ~threads ~per_thread);
      ("pure alloc (batch)", fun threads -> pure_alloc ~batch:true ~threads ~per_thread);
      ("C. Bag (interactive)", fun threads -> bag_alloc ~batch:false ~threads ~per_thread);
      ("C. Bag (batch)", fun threads -> bag_alloc ~batch:true ~threads ~per_thread);
      ("C. Dictionary (interactive)", fun threads -> dict_alloc ~batch:false ~threads ~per_thread);
      ("C. Dictionary (batch)", fun threads -> dict_alloc ~batch:true ~threads ~per_thread);
      ("SMC (any)", fun threads -> smc_alloc ~threads ~per_thread);
    ]
  in
  List.concat_map
    (fun threads ->
      List.map
        (fun (variant, f) ->
          Gc.full_major ();
          let ms = f threads in
          let total = threads * per_thread in
          { variant; threads; mallocs_per_sec = Timing.throughput_per_sec ~ops:total ~ms })
        variants)
    thread_counts

let table points =
  let t =
    Table.create ~title:"Figure 7: batch allocation throughput (millions of allocations/s)"
      ~columns:[ "variant"; "threads"; "M allocs/s" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ p.variant; string_of_int p.threads; Printf.sprintf "%.2f" (p.mallocs_per_sec /. 1e6) ])
    points;
  t
