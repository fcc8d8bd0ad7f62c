(* The benchmark program.

     smc_perf run --workload olap|htap|serve --seed N --seconds S --trace 0|1
     smc_perf server --sock PATH --wal-dir DIR --stats FILE

   [run] prints a human-readable report and, as its last line, one JSON
   object: operations attempted and failed, and the end-to-end metrics
   (trace 0) or the per-layer metrics (trace 1). [server] is the serve
   workload's server process. Scratch files go under .bench_run/ in the
   working directory. *)

let sf = 0.03
let side_sf = 0.01
let serve_rows = 200_000
let side_rows = 20_000
let side_seconds = 3.0

(* Every per-layer metric, with its unit, in report order. *)
let per_layer =
  [
    ("offheap.alloc_us", "us");
    ("offheap.free_us", "us");
    ("offheap.deref_ns", "ns");
    ("offheap.crit_ns", "ns");
    ("offheap.compact_ms", "ms");
    ("offheap.objects_moved", "count");
    ("offheap.compact_aborts", "count");
    ("offheap.reloc_helps", "count");
    ("offheap.reloc_bails", "count");
    ("offheap.epoch_adv_ok_ratio", "ratio");
    ("offheap.slot_recycle_ratio", "ratio");
    ("query.plan_us", "us");
    ("query.fill_ms", "ms");
    ("query.vector_self_ms", "ms");
    ("query.fuse_self_ms", "ms");
    ("query.compiled_self_ms", "ms");
    ("query.filter_keep_ratio", "ratio");
    ("query.batch_rows_avg", "rows");
    ("query.compile_ms", "ms");
    ("index.probe_us", "us");
    ("index.hits_per_probe", "hits/probe");
    ("text.probe_us", "us");
    ("text.hit_ratio", "ratio");
    ("text.rebuilds", "count");
    ("matview.read_us", "us");
    ("matview.rescan_ratio", "ratio");
    ("matview.applied", "count");
    ("persist.flush_ms", "ms");
    ("persist.appends_per_sync", "ratio");
    ("persist.log_bytes_per_row", "B");
    ("shard.route_ns", "ns");
    ("shard.txn_us", "us");
    ("shard.multi_ratio", "ratio");
    ("shard.conflict_ratio", "ratio");
    ("wire.codec_ns", "ns");
    ("server.transport_us", "us");
    ("server.shed_ratio", "ratio");
    ("refresh.insert_ms", "ms");
    ("refresh.remove_ms", "ms");
    ("trace.heavy_ratio", "ratio");
    ("trace.light_ratio", "ratio");
  ]

(* Per-layer figures come from the workload's own traced run; a layer the
   workload never reaches is measured on a small side fixture that does,
   and the report says which fixture each figure came from. *)
let traced workload ~seed ~seconds =
  let tpch ~label ~sf ~seconds ~writer () =
    (label, Tpch_wl.layers ~workload:label ~sf ~seed ~seconds ~writer)
  in
  let kv ~label ~rows ~seconds () =
    (label, Serve_wl.layers ~seed ~seconds ~preload_rows:rows)
  in
  let fixtures =
    match workload with
    | "olap" ->
      [
        tpch ~label:"olap" ~sf ~seconds ~writer:false;
        tpch ~label:"side htap sf0.01" ~sf:side_sf ~seconds:side_seconds ~writer:true;
        kv ~label:"side serve 20k" ~rows:side_rows ~seconds:side_seconds;
      ]
    | "htap" ->
      [
        tpch ~label:"htap" ~sf ~seconds ~writer:true;
        kv ~label:"side serve 20k" ~rows:side_rows ~seconds:side_seconds;
      ]
    | _ ->
      [
        kv ~label:"serve" ~rows:serve_rows ~seconds;
        tpch ~label:"side htap sf0.01" ~sf:side_sf ~seconds:side_seconds ~writer:true;
      ]
  in
  let results =
    List.map
      (fun run ->
        let r = run () in
        Gc.full_major ();
        r)
      fixtures
  in
  List.iter
    (fun (name, unit) ->
      match List.find_opt (fun (_, tbl) -> Hashtbl.mem tbl name) results with
      | Some (label, tbl) ->
        let v = Hashtbl.find tbl name in
        Report.detail (Printf.sprintf "%s [%s]" name label) unit v 1;
        Report.metric name unit v
      | None ->
        Report.check ("per-layer metric measured: " ^ name) false "no fixture measured it";
        Report.metric name unit 0.0)
    per_layer

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run ~workload ~seed ~seconds ~trace =
  mkdir_p ".bench_run/cg";
  if Sys.getenv_opt "SMC_CG_TMPDIR" = None then
    Unix.putenv "SMC_CG_TMPDIR" (Filename.concat (Sys.getcwd ()) ".bench_run/cg");
  Printf.printf "smc_perf: workload %s, seed %d, %.0f s, trace %d, nproc %d\n%!" workload seed
    seconds (if trace then 1 else 0) (Domain.recommended_domain_count ());
  (match (workload, trace) with
  | ("olap" | "htap" | "serve"), true -> traced workload ~seed ~seconds
  | "olap", false -> Tpch_wl.run ~workload ~sf ~seed ~seconds ~writer:false
  | "htap", false -> Tpch_wl.run ~workload ~sf ~seed ~seconds ~writer:true
  | "serve", false -> Serve_wl.run ~seed ~seconds ~preload_rows:serve_rows
  | w, _ ->
    prerr_endline ("smc_perf: unknown workload " ^ w);
    exit 2);
  Report.print ~workload ~trace

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let sock = ref "" and wal_dir = ref "" and stats = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "olap|htap|serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--sock", Arg.Set_string sock, "server: socket path");
      ("--wal-dir", Arg.Set_string wal_dir, "server: WAL directory");
      ("--stats", Arg.Set_string stats, "server: counter file written at exit");
    ]
  in
  let cmd = ref "" in
  Arg.parse spec (fun a -> cmd := a) "smc_perf run|server [options]";
  match !cmd with
  | "run" ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | "server" -> Serve_wl.server_main ~sock:!sock ~wal_dir:!wal_dir ~stats:!stats
  | c ->
    prerr_endline ("smc_perf: expected run or server, got " ^ c);
    exit 2
