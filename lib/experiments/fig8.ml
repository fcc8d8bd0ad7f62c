open Smc_util

type point = { variant : string; threads : int; streams_per_min : float }

let measure ops ~lock ~threads ~pairs_per_thread ~batch =
  let ms =
    Timing.time_ms (fun () ->
        Workload.domains_run threads (fun i ->
            let prng = Prng.create ~seed:(Int64.of_int (i + 17)) () in
            for _ = 1 to pairs_per_thread do
              match lock with
              | Some m ->
                Mutex.lock m;
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock m)
                  (fun () -> Smc_tpch.Refresh.run_stream_pair ops ~prng ~batch)
              | None -> Smc_tpch.Refresh.run_stream_pair ops ~prng ~batch
            done))
  in
  let streams = float_of_int (2 * pairs_per_thread * threads) in
  streams /. (ms /. 60_000.0)

let run ?(sf = 0.02) ?(pairs_per_thread = 3) ?(thread_counts = [ 1; 2; 4 ]) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let initial = Array.length ds.Smc_tpch.Row.lineitems in
  let batch = max 1 (initial / 1000) in
  List.concat_map
    (fun threads ->
      (* Fresh stores per thread count so wear does not accumulate across
         configurations. *)
      let configs =
        [
          ("List", Smc_tpch.Refresh.vector_ops ds, Some (Mutex.create ()));
          ("C. Dictionary", Smc_tpch.Refresh.dict_ops ds, None);
          ("SMC", Smc_tpch.Refresh.smc_ops (Smc_tpch.Db_smc.load ds) ds, None);
          (* Beyond the paper: the same stream pairs as atomic multi-op
             transactions (docs/transactions.md) — the price of all-or-
             nothing refresh halves relative to bare SMC ops. *)
          ("SMC txn", Smc_tpch.Refresh.smc_txn_ops (Smc_tpch.Db_smc.load ds) ds, None);
        ]
      in
      List.map
        (fun (variant, ops, lock) ->
          Gc.full_major ();
          let streams_per_min = measure ops ~lock ~threads ~pairs_per_thread ~batch in
          { variant; threads; streams_per_min })
        configs)
    thread_counts

let table points =
  let t =
    Table.create ~title:"Figure 8: refresh stream throughput (streams per minute)"
      ~columns:[ "variant"; "threads"; "streams/min" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ p.variant; string_of_int p.threads; Printf.sprintf "%.1f" p.streams_per_min ])
    points;
  t
