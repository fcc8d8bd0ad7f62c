(* Experiment runner: regenerates every table/figure of the paper's
   evaluation section as a plain-text table. `smc_bench all` runs the whole
   battery; individual figures have their own subcommands. *)

open Cmdliner
module E = Smc_experiments

(* Every table printed through [print_table] is also collected, so a run
   can be written out as a JSON artifact with [--json FILE]. The plain-text
   output is unchanged either way. *)
let collected : Smc_util.Table.t list ref = ref []

let print_table t =
  collected := t :: !collected;
  Smc_util.Table.print t

(* Run metadata carried by --json artifacts so BENCH_*.json files form a
   comparable trajectory across revisions: command, timestamp, git rev,
   plus whatever knobs the subcommand registers (scale factor, domain
   counts, variant flags). Values are stored pre-encoded as JSON. *)
let run_meta : (string * string) list ref = ref []
let add_meta k v = run_meta := (k, v) :: !run_meta

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let meta_num k v = add_meta k (Printf.sprintf "%g" v)
let meta_int k v = add_meta k (string_of_int v)
let meta_bool k v = add_meta k (string_of_bool v)

(* The commit the binary ran from: SMC_GIT_REV when the caller knows best
   (CI), otherwise read from .git found upward of the cwd — no subprocess.
   A branch ref is a loose .git/<ref> file until `git pack-refs`/`git gc`
   moves it into .git/packed-refs, so both are consulted. *)
let git_rev () =
  match Sys.getenv_opt "SMC_GIT_REV" with
  | Some r -> r
  | None ->
    let with_file f k = try In_channel.with_open_text f k with _ -> "" in
    let read_line_of f = with_file f (fun ic -> String.trim (input_line ic)) in
    let packed_ref gitdir target =
      with_file (Filename.concat gitdir "packed-refs") (fun ic ->
          let rec find () =
            match String.split_on_char ' ' (String.trim (input_line ic)) with
            | [ rev; name ] when String.equal name target -> rev
            | _ -> find ()
          in
          find ())
    in
    let rec find_git dir =
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists cand then Some cand
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else find_git parent
    in
    let rev =
      match find_git (Sys.getcwd ()) with
      | None -> ""
      | Some gitdir ->
        let head = read_line_of (Filename.concat gitdir "HEAD") in
        let prefix = "ref: " in
        if String.starts_with ~prefix head then
          let n = String.length prefix in
          let target = String.sub head n (String.length head - n) in
          match read_line_of (Filename.concat gitdir target) with
          | "" -> packed_ref gitdir target
          | rev -> rev
        else head
    in
    if String.equal rev "" then "unknown" else rev

let write_json name file =
  let tables = List.rev !collected in
  let meta =
    [
      ("command", json_string name);
      ("timestamp", Printf.sprintf "%.3f" (Unix.gettimeofday ()));
      ("git_rev", json_string (git_rev ()));
    ]
    @ List.rev !run_meta
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"meta\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then output_string oc ",";
          output_string oc (json_string k);
          output_string oc ":";
          output_string oc v)
        meta;
      output_string oc "},\"tables\":[";
      List.iteri
        (fun i t ->
          if i > 0 then output_string oc ",";
          output_string oc (Smc_util.Table.to_json t))
        tables;
      output_string oc "]}\n")

let with_json name json stats thunk =
  collected := [];
  run_meta := [];
  thunk ();
  (* The counter table is printed (and collected) last, so a --json artifact
     carries the run's full event history alongside its figures. *)
  if stats then
    print_table
      (Smc_obs.to_table ~title:"obs counters" (Smc_obs.process_snapshot ()));
  Option.iter (write_json name) json

let json_arg =
  let doc =
    "Also write this run as a JSON object to $(docv): a $(b,meta) object \
     (command, timestamp, git rev, and the run's knobs) plus a $(b,tables) \
     array (one object per table: title, columns, rows)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Append a merged Obs counter snapshot (every runtime created by this \
     run) as a final table; it is included in any $(b,--json) artifact."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let sf_arg default =
  let doc = "TPC-H scale factor (fraction of the official 1.0 scale)." in
  Arg.(value & opt float default & info [ "sf" ] ~docv:"SF" ~doc)

let quick_arg =
  let doc = "Reduced problem sizes for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let run_fig6 quick =
  meta_bool "quick" quick;
  let n = if quick then 50_000 else 200_000 in
  print_table (E.Fig6.table (E.Fig6.run ~n ()))

let run_fig7 quick =
  meta_bool "quick" quick;
  let per_thread = if quick then 100_000 else 300_000 in
  print_table (E.Fig7.table (E.Fig7.run ~per_thread ()))

let run_fig8 sf quick =
  meta_num "sf" sf;
  meta_bool "quick" quick;
  let pairs = if quick then 2 else 3 in
  print_table (E.Fig8.table (E.Fig8.run ~sf ~pairs_per_thread:pairs ()))

let run_fig9 quick =
  meta_bool "quick" quick;
  let sizes = if quick then [ 50_000; 200_000 ] else [ 100_000; 400_000; 1_600_000 ] in
  let duration_s = if quick then 1.0 else 2.0 in
  print_table (E.Fig9.table (E.Fig9.run ~sizes ~duration_s ()))

let run_fig10 sf quick =
  meta_num "sf" sf;
  meta_bool "quick" quick;
  let wear = if quick then 10 else 20 in
  print_table (E.Fig10.table (E.Fig10.run ~sf ~wear_pairs:wear ()))

let with_sf sf run =
  meta_num "sf" sf;
  run sf

let run_fig11 sf = with_sf sf (fun sf -> print_table (E.Fig11.table (E.Fig11.run ~sf ())))
let run_fig12 sf = with_sf sf (fun sf -> print_table (E.Fig12.table (E.Fig12.run ~sf ())))
let run_fig13 sf = with_sf sf (fun sf -> print_table (E.Fig13.table (E.Fig13.run ~sf ())))

let run_linq sf =
  with_sf sf (fun sf -> print_table (E.Linq_vs_compiled.table (E.Linq_vs_compiled.run ~sf ())))

let run_ablations sf = with_sf sf (fun sf -> E.Ablations.print_all ~sf ())
let run_ext sf = with_sf sf (fun sf -> print_table (E.Ext_queries.table (E.Ext_queries.run ~sf ())))

let run_qscale sf quick domain_counts =
  meta_num "sf" sf;
  meta_bool "quick" quick;
  add_meta "domains"
    (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int domain_counts)));
  let sf = if quick then Float.min sf 0.01 else sf in
  print_table (E.Query_scaling.table (E.Query_scaling.run ~sf ~domain_counts ()))

(* The self-checking drivers below (and [run_stats]) return every
   violation they found, parity mismatches included: print the run's
   table, then any violation is fatal. *)
let checked table violations =
  print_table table;
  if violations <> [] then begin
    prerr_endline (Smc_check.Audit.report violations);
    exit 1
  end

(* Indexed vs full-scan access paths, doubling as the index self-check
   workload: indexed plans must return the scan plans' exact rows, key
   churn exercises staleness, and the index audit plus the runtime
   audit/balance sweeps close the run. *)
let run_index quick rows sf =
  meta_bool "quick" quick;
  meta_int "rows" rows;
  meta_num "sf" sf;
  let rows = if quick then min rows 50_000 else rows in
  let sf = if quick then Float.min sf 0.005 else sf in
  let points, violations = E.Index_paths.run ~rows ~sf () in
  checked (E.Index_paths.table points) violations

(* Text access paths, doubling as the suffix-array self-check workload:
   TextScan plans must return the scan plans' exact rows on all four
   engines, the high-selectivity probe must clear a speedup floor, and
   rows churn through remove/store/rebuild before the text-index audit
   plus the runtime audit/balance sweeps. *)
let run_text quick rows =
  meta_bool "quick" quick;
  meta_int "rows" rows;
  let rows = if quick then min rows 50_000 else rows in
  let points, violations = E.Text_bench.run ~rows () in
  checked (E.Text_bench.table points) violations

(* Materialized views, doubling as the view-maintenance self-check:
   ViewRead plans must return the GroupBy scan plans' exact rows on all
   four engines after every churn phase (bare ops, transactional batches,
   a WAL crash-recovery replay into a fresh view), the repeated-read
   workload must clear a speedup floor, and the view audit plus the
   runtime audit/balance sweeps run on both runtimes. *)
let run_matview quick rows =
  meta_bool "quick" quick;
  meta_int "rows" rows;
  let rows = if quick then min rows 50_000 else rows in
  let points, violations = E.Matview_bench.run ~rows () in
  checked (E.Matview_bench.table points) violations

(* Persistence throughput, doubling as the durability self-check: the
   recovered collection must pass the full audit sweep and answer Q1/Q6
   bit-identically to the original. Artifacts default to a temporary
   directory and are removed afterwards; pass --dir to keep the
   .smcsnap/.wal files. *)
let run_persist quick sf dir =
  meta_bool "quick" quick;
  meta_num "sf" sf;
  let sf = if quick then Float.min sf 0.01 else sf in
  let points, violations = E.Persist_bench.run ~sf ?dir () in
  checked (E.Persist_bench.table points) violations

(* Four-engine Q1/Q6 comparison, doubling as the vectorized/compiled-path
   self-check: every engine must answer bit-identically to Volcano and the
   run ends with the audit + counter-balance sweep. *)
let run_vectorized quick sf =
  meta_bool "quick" quick;
  meta_num "sf" sf;
  let sf = if quick then Float.min sf 0.02 else sf in
  let points, violations = E.Vector_bench.run ~sf () in
  checked (E.Vector_bench.table points) violations

(* Sharded scaling sweep, doubling as the sharding self-check: every shard
   count must answer the probe queries on all four engines bit-identically
   to an unsharded collection, restore must reproduce the live rows (WAL
   tails included), and every shard runtime must pass the audit + balance
   sweeps plus the coordinator's shard/request partitions. Speedups vs the
   1-shard baseline are reported in the table; commit throughput scales
   with overlapped per-shard log syncs, so the WALs run with sync=Always. *)
let run_shard quick shard_counts dir =
  meta_bool "quick" quick;
  add_meta "shards"
    (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int shard_counts)));
  let txns = if quick then 96 else 240 in
  meta_int "txns" txns;
  let points, violations = E.Shard_bench.run ~shard_counts ~txns ?dir () in
  checked (E.Shard_bench.table points) violations

(* The whole battery. Fig 8 and the ablations run at no more than their
   own subcommands' default scale factor (0.02); --quick also trims the
   qscale sweep to 1 and 2 domains. *)
let run_all sf quick =
  meta_num "sf" sf;
  meta_bool "quick" quick;
  let small_sf = Float.min sf 0.02 in
  (* Compact between figures: off-heap Bigarrays of dropped databases are
     only returned to the OS on finalisation. *)
  let seq fs = List.iter (fun f -> f (); Gc.compact ()) fs in
  seq
    [
      (fun () -> run_fig6 quick);
      (fun () -> run_fig7 quick);
      (fun () -> run_fig8 small_sf quick);
      (fun () -> run_fig9 quick);
      (fun () -> run_fig10 sf quick);
      (fun () -> run_fig11 sf);
      (fun () -> run_fig12 sf);
      (fun () -> run_fig13 sf);
      (fun () -> run_linq sf);
      (fun () -> run_ext sf);
      (fun () -> run_qscale sf quick (if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]));
      (fun () -> run_vectorized quick sf);
      (fun () -> run_ablations small_sf);
    ]

(* A self-checking observability workload: populate a lineitem collection,
   churn it, scan it, compact it, then run the structural audit and the
   derived counter balances over the result. The counter table is always
   printed; any violation is fatal (exit 1), which makes the [stats]
   subcommand a cheap end-to-end smoke of the Obs layer. *)
let run_stats quick =
  meta_bool "quick" quick;
  let rt, coll =
    E.Workload.lineitem_collection ~slots_per_block:256 ~reclaim_threshold:0.2 ()
  in
  let prng = Smc_util.Prng.create ~seed:42L () in
  let n = if quick then 20_000 else 100_000 in
  let refs = Array.init n (fun _ -> E.Workload.add_lineitem coll prng) in
  E.Workload.churn coll ~refs ~prng ~fraction:0.3 ~rounds:(if quick then 3 else 6);
  ignore (E.Workload.scan_sum coll : int);
  (* Thin the collection so compaction actually forms groups and the
     balance check exercises its limbo-drop and relocation terms. *)
  Array.iter
    (fun r -> if Smc_util.Prng.int prng 4 <> 0 then ignore (Smc.Collection.remove coll r : bool))
    refs;
  ignore
    (Smc_offheap.Compaction.run coll.Smc.Collection.ctx ~occupancy_threshold:0.6 ()
      : Smc_offheap.Compaction.report);
  let contexts = [ coll.Smc.Collection.ctx ] in
  let violations =
    Smc_check.Audit.check_once rt ~contexts @ Smc_check.Obs_check.check rt ~contexts
  in
  checked
    (Smc_obs.to_table ~title:"obs counters" (Smc_obs.snapshot rt.Smc_offheap.Runtime.obs))
    violations

(* Commands evaluate to a thunk so the [--json]/[--stats] wrapper can
   bracket the whole run with collection and artifact writing. *)
let cmd name doc term =
  let wrapped = with_json name in
  Cmd.v (Cmd.info name ~doc) Term.(const wrapped $ json_arg $ stats_arg $ term)

let fig6_cmd =
  cmd "fig6" "Reclamation-threshold sensitivity"
    Term.(const (fun quick () -> run_fig6 quick) $ quick_arg)

let fig7_cmd =
  cmd "fig7" "Batch allocation throughput"
    Term.(const (fun quick () -> run_fig7 quick) $ quick_arg)

let fig8_cmd =
  cmd "fig8" "Refresh stream throughput"
    Term.(const (fun sf quick () -> run_fig8 sf quick) $ sf_arg 0.02 $ quick_arg)

let fig9_cmd =
  cmd "fig9" "GC pause vs collection size"
    Term.(const (fun quick () -> run_fig9 quick) $ quick_arg)

let fig10_cmd =
  cmd "fig10" "Enumeration performance (fresh/worn)"
    Term.(const (fun sf quick () -> run_fig10 sf quick) $ sf_arg 0.05 $ quick_arg)

let fig11_cmd =
  cmd "fig11" "TPC-H Q1-Q6 vs List" Term.(const (fun sf () -> run_fig11 sf) $ sf_arg 0.05)

let fig12_cmd =
  cmd "fig12" "Direct pointers & columnar"
    Term.(const (fun sf () -> run_fig12 sf) $ sf_arg 0.05)

let fig13_cmd =
  cmd "fig13" "Comparison to RDBMS columnstore"
    Term.(const (fun sf () -> run_fig13 sf) $ sf_arg 0.05)

let linq_cmd =
  cmd "linq" "LINQ (Volcano) vs compiled" Term.(const (fun sf () -> run_linq sf) $ sf_arg 0.05)

let ext_cmd =
  cmd "ext" "Extension queries Q7/Q10/Q12/Q14/Q19"
    Term.(const (fun sf () -> run_ext sf) $ sf_arg 0.05)

let ablations_cmd =
  cmd "ablations" "Implementation design-choice ablations"
    Term.(const (fun sf () -> run_ablations sf) $ sf_arg 0.02)

let domains_arg =
  let doc = "Comma-separated domain counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "domains" ] ~docv:"N,.." ~doc)

let qscale_cmd =
  cmd "qscale" "Parallel query scaling (Q1/Q6 over the domain pool)"
    Term.(
      const (fun sf quick domains () -> run_qscale sf quick domains)
      $ sf_arg 0.05 $ quick_arg $ domains_arg)

let stats_cmd =
  cmd "stats" "Self-checking Obs counter workload (audit + balance check)"
    Term.(const (fun quick () -> run_stats quick) $ quick_arg)

let rows_arg =
  let doc = "Synthetic table size for the index comparison." in
  Arg.(value & opt int 1_000_000 & info [ "rows" ] ~docv:"N" ~doc)

let index_cmd =
  cmd "index" "Indexed vs full-scan access paths (self-checking: audits are fatal)"
    Term.(
      const (fun quick rows sf () -> run_index quick rows sf)
      $ quick_arg $ rows_arg $ sf_arg 0.01)

let text_rows_arg =
  let doc = "Document count for the text-index comparison." in
  Arg.(value & opt int 1_000_000 & info [ "rows" ] ~docv:"N" ~doc)

let text_cmd =
  cmd "text"
    "Suffix-array text access paths vs full scans (self-checking: parity mismatches \
     and audits are fatal)"
    Term.(const (fun quick rows () -> run_text quick rows) $ quick_arg $ text_rows_arg)

let mv_rows_arg =
  let doc = "Row count for the materialized-view comparison." in
  Arg.(value & opt int 1_000_000 & info [ "rows" ] ~docv:"N" ~doc)

let matview_cmd =
  cmd "matview"
    "Incremental materialized views vs re-aggregation (self-checking: parity \
     mismatches and audits are fatal)"
    Term.(const (fun quick rows () -> run_matview quick rows) $ quick_arg $ mv_rows_arg)

let dir_arg =
  let doc =
    "Directory to keep the snapshot/WAL artifacts in (default: a temporary \
     directory, removed after the run)."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let persist_cmd =
  cmd "persist" "Snapshot/restore/WAL-replay throughput (self-checking: audits are fatal)"
    Term.(
      const (fun quick sf dir () -> run_persist quick sf dir)
      $ quick_arg $ sf_arg 0.1 $ dir_arg)

let shards_arg =
  let doc = "Comma-separated shard counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "shards" ] ~docv:"N,.." ~doc)

let shard_cmd =
  cmd "shard"
    "Sharded collection scaling: per-shard WAL group commit, snapshot, restore \
     (self-checking: engine parity, restore equality, and audits are fatal)"
    Term.(
      const (fun quick shards dir () -> run_shard quick shards dir)
      $ quick_arg $ shards_arg $ dir_arg)

let vectorized_cmd =
  cmd "vectorized"
    "Vectorized + compiled engines vs Volcano/Fuse on Q1/Q6 (self-checking: parity \
     mismatches and audits are fatal)"
    Term.(const (fun quick sf () -> run_vectorized quick sf) $ quick_arg $ sf_arg 0.1)

let all_cmd =
  cmd "all" "Run every experiment"
    Term.(const (fun sf quick () -> run_all sf quick) $ sf_arg 0.05 $ quick_arg)

let () =
  let info = Cmd.info "smc_bench" ~doc:"Self-managed collections experiment harness" in
  let group =
    Cmd.group info
      [
        fig6_cmd; fig7_cmd; fig8_cmd; fig9_cmd; fig10_cmd; fig11_cmd; fig12_cmd; fig13_cmd;
        linq_cmd; ext_cmd; qscale_cmd; ablations_cmd; stats_cmd; index_cmd; text_cmd;
        matview_cmd; persist_cmd; vectorized_cmd; shard_cmd; all_cmd;
      ]
  in
  exit (Cmd.eval group)
