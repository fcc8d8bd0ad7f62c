open Smc_util

type point = { query : string; variant : string; domains : int; ms : float; speedup : float }

let samples f = Timing.repeat ~warmup:2 5 (fun () -> ignore (Sys.opaque_identity (f ())))

(* Minimum of several runs, as in Fig 11: the most noise-robust point
   estimate for a deterministic computation on a shared machine. *)
let best_ms f = Stats.min (samples f)

let run ?(sf = 0.05) ?(domain_counts = [ 1; 2; 4; 8 ]) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  (* One pool sized for the widest configuration, shared by every run — the
     whole point of the pool is that queries reuse its domains, so the
     measurements exclude [Domain.spawn]. *)
  let max_domains = List.fold_left max 1 domain_counts in
  let pool = Smc_parallel.Pool.create ~size:(max_domains - 1) () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let queries =
        [
          ( "Q1",
            (fun () -> ignore (Smc_tpch.Q_smc.q1 ~unsafe:true db : Smc_tpch.Results.q1)),
            fun domains ->
              ignore (Smc_tpch.Q_smc.q1_par ~pool ~domains db : Smc_tpch.Results.q1) );
          ( "Q6",
            (fun () -> ignore (Smc_tpch.Q_smc.q6 ~unsafe:true db : Smc_tpch.Results.q6)),
            fun domains ->
              ignore (Smc_tpch.Q_smc.q6_par ~pool ~domains db : Smc_tpch.Results.q6) );
        ]
      in
      let kernels =
        List.concat_map
          (fun (query, seq, par) ->
            let seq_ms = best_ms seq in
            { query; variant = "SMC (unsafe, seq)"; domains = 1; ms = seq_ms; speedup = 1.0 }
            :: List.map
                 (fun domains ->
                   let ms = best_ms (fun () -> par domains) in
                   { query; variant = "SMC (parallel)"; domains; ms; speedup = seq_ms /. ms })
                 domain_counts)
          queries
      in
      (* The same queries as plans through the planner on each batch
         engine, over a source whose group-bys run on [domains] workers:
         the median of the samples (printed with [Stats.summarize]), and
         the speedup over the same engine at the first domain count. *)
      let engines =
        Smc_query.
          [
            ("Vector", fun plan -> fun () -> ignore (Vector.collect plan));
            ("Fuse", fun plan -> fun () -> ignore (Fuse.collect plan));
            ( "Compiled",
              fun plan ->
                let run, _ = Codegen.prepare plan in
                fun () -> run ignore );
          ]
      in
      let planned =
        List.concat_map
          (fun (query, mk) ->
            List.concat_map
              (fun (engine, runner) ->
                let one = ref 0.0 in
                List.map
                  (fun domains ->
                    let src = Linq_vs_compiled.lineitem_source ~pool ~domains db in
                    let xs = samples (runner (Smc_query.Planner.choose_access_paths (mk src))) in
                    Printf.printf "  %s %s, %d domain(s): %s ms\n%!" query engine domains
                      (Stats.summarize xs);
                    let ms = Stats.median xs in
                    if !one = 0.0 then one := ms;
                    let speedup = !one /. ms in
                    { query; variant = engine ^ " (planner, median)"; domains; ms; speedup })
                  domain_counts)
              engines)
          [ ("Q1", Linq_vs_compiled.q1_plan); ("Q6", Linq_vs_compiled.q6_plan) ]
      in
      kernels @ planned)

let table points =
  let t =
    Table.create
      ~title:
        "Query scaling: parallel Q1/Q6 kernels vs the sequential unsafe kernels (min of 5), \
         then the planned queries per engine (median of 5, speedup vs the first count)"
      ~columns:[ "query"; "variant"; "domains"; "ms"; "speedup" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.query;
          p.variant;
          string_of_int p.domains;
          Printf.sprintf "%.2f" p.ms;
          Printf.sprintf "%.2f" p.speedup;
        ])
    points;
  t
