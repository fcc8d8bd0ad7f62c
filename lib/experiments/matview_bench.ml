(* Incremental materialized views vs from-scratch aggregation.

   A synthetic measurement table: [rows] rows spread over a fixed set of
   group keys, aggregated per key (count/sum/min/max/avg) by the same
   logical GroupBy plan run two ways — as written (full re-scan and
   re-aggregation) and through [Planner.choose_access_paths] (a ViewRead
   over the maintained view, O(groups) per read) — on all four engines,
   verifying the rewritten plan returns exactly the scan plan's rows.
   The repeated-read workload gates the view path on a speedup floor.

   Churn phases then drive every maintenance delta — bare removes, stores
   to the aggregate input (remove+add on one group), stores to the group
   key (contribution migration between groups), transactional batches of
   all three kinds, and extremum removals that force dirty-group
   re-scans — re-verifying four-engine parity after each phase. A WAL
   records the whole history; a crash-recovery phase replays it into a
   fresh collection whose view is attached *before* replay, so the
   recovered view is fed purely by replay deltas and must agree with the
   live one bit-for-bit. Matview.audit, Audit and Obs_check close the
   run: the returned violations list is empty iff every invariant held. *)

open Smc_util
module Q = Smc_query
module V = Smc_query.Value
module MV = Smc_matview.Matview
module Wal = Smc_persist.Wal
module Snapshot = Smc_persist.Snapshot

type point = {
  phase : string;
  engine : string;
  groups : int;
  scan_ms : float;
  view_ms : float;
  speedup : float;
  identical : bool;
}

let median_ms f =
  Stats.median (Timing.repeat ~warmup:1 3 (fun () -> ignore (Sys.opaque_identity (f ()))))

let sorted_rows rows = List.sort Stdlib.compare rows

let same_rows a b =
  List.equal (fun x y -> Array.for_all2 V.equal x y) (sorted_rows a) (sorted_rows b)

(* ---- fixture -------------------------------------------------------- *)

let n_groups = 64
let key_of i = (i * 2654435761) land (n_groups - 1)
let val_of i = 1 + ((i * 0x9E3779B1) land 0xFFFF)

let layout =
  Smc_offheap.Layout.create ~name:"meas"
    [ ("k", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Int) ]

let fk = Smc.Field.int layout "k"
let fv = Smc.Field.int layout "v"
let columns = [ ("k", Q.Source.C_int fk); ("v", Q.Source.C_int fv) ]
let keys = [ ("k", Q.Expr.Col "k") ]

let plan_aggs =
  [
    ("n", Q.Plan.Count);
    ("s", Q.Plan.Sum (Q.Expr.Col "v"));
    ("mn", Q.Plan.Min (Q.Expr.Col "v"));
    ("mx", Q.Plan.Max (Q.Expr.Col "v"));
    ("av", Q.Plan.Avg (Q.Expr.Col "v"));
  ]

let view_aggs = List.map (fun (n, a) -> (n, Q.Plan.view_agg_of_agg a)) plan_aggs

let add_meas coll k v =
  Smc.Collection.add coll ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot k;
      Smc.Field.set_int fv blk slot v)

(* ---- run ------------------------------------------------------------ *)

let run ?(rows = 1_000_000) ?dir () =
  let rt = Smc_offheap.Runtime.create () in
  let coll = Smc.Collection.create rt ~name:"meas" ~layout () in
  let own_dir = dir = None in
  let dir =
    match dir with
    | Some d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      d
    | None -> Filename.temp_file "smc_mv_bench" ""
  in
  if own_dir then begin
    Sys.remove dir;
    Sys.mkdir dir 0o700
  end;
  let wal_path = Filename.concat dir "meas.wal" in
  let snap_path = Filename.concat dir "meas.smcsnap" in
  let wal = Wal.create ~path:wal_path ~name:"meas" () in
  Wal.attach wal coll;
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap_path coll in
  let mv = MV.attach ~name:"meas_by_k" coll ~columns ~keys ~aggs:view_aggs () in
  let refs = Array.make rows Smc.Ref.null in
  for i = 0 to rows - 1 do
    refs.(i) <- add_meas coll (key_of i) (val_of i)
  done;
  let src_plain = Q.Source.of_smc coll ~columns in
  let src_mv = Q.Source.of_smc coll ~columns ~matviews:[ MV.info mv ] in
  let scan_plan = Q.Plan.group_by ~keys ~aggs:plan_aggs (Q.Plan.scan src_plain) in
  let view_plan =
    let p =
      Q.Planner.choose_access_paths
        (Q.Plan.group_by ~keys ~aggs:plan_aggs (Q.Plan.scan src_mv))
    in
    (match p with Q.Plan.ViewRead _ -> () | _ -> assert false);
    p
  in
  let engines =
    [
      ("Volcano", Q.Interp.collect);
      ("Fuse", Q.Fuse.collect);
      ("Vector", fun p -> Q.Vector.collect p);
      ("Compiled", Q.Codegen.collect);
    ]
  in
  let violations = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let points = ref [] in
  (* Four-engine parity at a phase boundary; the measured point rides the
     named engine so every phase contributes one timing row per engine. *)
  let phase_points phase =
    List.iter
      (fun (engine, collect) ->
        let scan_rows = collect scan_plan and view_rows = collect view_plan in
        let scan_ms = median_ms (fun () -> collect scan_plan) in
        let view_ms = median_ms (fun () -> collect view_plan) in
        let identical = same_rows scan_rows view_rows in
        if not identical then vf "view plan result mismatch: %s/%s" phase engine;
        points :=
          {
            phase;
            engine;
            groups = List.length view_rows;
            scan_ms;
            view_ms;
            speedup = (if view_ms > 0.0 then scan_ms /. view_ms else infinity);
            identical;
          }
          :: !points)
      engines
  in
  phase_points "build";
  (* The repeated-read gate: a query-dominated workload re-reads the same
     aggregate many times between mutations — the maintained O(groups)
     read must leave the O(rows) re-aggregation far behind. The floor
     scales down with the corpus like the other access-path gates. *)
  let repeated_reads = 50 in
  let view_rep =
    median_ms (fun () ->
        for _ = 1 to repeated_reads do
          ignore (Sys.opaque_identity (Q.Fuse.collect view_plan))
        done)
  in
  let scan_rep =
    median_ms (fun () ->
        for _ = 1 to repeated_reads do
          ignore (Sys.opaque_identity (Q.Fuse.collect scan_plan))
        done)
  in
  let rep_speedup = if view_rep > 0.0 then scan_rep /. view_rep else infinity in
  let floor = if rows >= 500_000 then 100.0 else 3.0 in
  if rep_speedup < floor then
    vf "repeated-read view speedup %.1fx below the %.0fx floor" rep_speedup floor;
  points :=
    {
      phase = "repeated reads";
      engine = "Fuse";
      groups = List.length (Q.Fuse.collect view_plan);
      scan_ms = scan_rep;
      view_ms = view_rep;
      speedup = rep_speedup;
      identical = true;
    }
    :: !points;
  (* ---- churn: every maintenance delta, parity after each phase ------ *)
  (* Bare removes (a stride, including group extrema → dirty re-scans). *)
  let i = ref 0 in
  while !i < rows do
    ignore (Smc.Collection.remove coll refs.(!i) : bool);
    i := !i + 97
  done;
  phase_points "removes";
  (* Stores to the aggregate input: remove+add deltas on one group. *)
  let i = ref 1 in
  while !i < rows do
    if !i mod 97 <> 0 then
      Smc.Collection.store coll refs.(!i) ~word:fv.Smc_offheap.Layout.word
        ~value:(1 + ((!i * 7919) land 0xFFFF));
    i := !i + 199
  done;
  phase_points "value stores";
  (* Stores to the group key: contributions migrate between groups. *)
  let i = ref 2 in
  while !i < rows do
    if !i mod 97 <> 0 then
      Smc.Collection.store coll refs.(!i) ~word:fk.Smc_offheap.Layout.word
        ~value:((!i * 31) land (n_groups - 1));
    i := !i + 211
  done;
  phase_points "key stores";
  (* Transactional batches: adds, removes and stores land as one delta
     batch under the commit lock. *)
  let i = ref 3 in
  while !i < rows do
    let tx = Smc.Collection.txn coll in
    let k = !i in
    Smc.Collection.stage_add tx ~init:(fun blk slot ->
        Smc.Field.set_int fk blk slot (key_of k);
        Smc.Field.set_int fv blk slot (val_of (k + 1)));
    if k mod 97 <> 0 && (k + 211) mod 97 <> 0 && k + 211 < rows then
      Smc.Collection.stage_remove tx refs.(k + 211);
    if k mod 97 <> 0 then
      Smc.Collection.stage_store tx refs.(k) ~word:fv.Smc_offheap.Layout.word
        ~value:(1 + (k land 0x7FFF));
    (match Smc.Collection.commit tx with
    | Smc.Collection.Committed _ -> ()
    | Smc.Collection.Conflict -> vf "unexpected transaction conflict at %d" k);
    i := !i + 1009
  done;
  phase_points "txn batches";
  (* ---- crash recovery: replay the full history into a fresh view ---- *)
  Wal.close wal;
  let rt2 = Smc_offheap.Runtime.create () in
  let coll2 = Smc.Collection.create rt2 ~name:"meas" ~layout () in
  let mv2 = MV.attach ~name:"meas_by_k" coll2 ~columns ~keys ~aggs:view_aggs () in
  let (_applied, torn) = Snapshot.replay_wal coll2 ~path:wal_path ~cut:(-1) in
  if torn <> 0 then vf "replay dropped %d torn-tail records from a clean close" torn;
  let mv2_rows =
    let out = ref [] in
    MV.read mv2 (fun row -> out := Array.copy row :: !out);
    !out
  in
  let live_rows = Q.Fuse.collect view_plan in
  if not (same_rows mv2_rows live_rows) then
    vf "recovered view diverges from the live view (%d vs %d groups)"
      (List.length mv2_rows) (List.length live_rows);
  let src2 = Q.Source.of_smc coll2 ~columns in
  let scratch2 =
    Q.Interp.collect (Q.Plan.group_by ~keys ~aggs:plan_aggs (Q.Plan.scan src2))
  in
  if not (same_rows mv2_rows scratch2) then
    vf "recovered view diverges from re-aggregating the recovered rows";
  points :=
    {
      phase = "recovery replay";
      engine = "Fuse";
      groups = List.length mv2_rows;
      scan_ms = 0.0;
      view_ms = 0.0;
      speedup = 1.0;
      identical = same_rows mv2_rows live_rows && same_rows mv2_rows scratch2;
    }
    :: !points;
  if own_dir then begin
    (try Sys.remove wal_path with Sys_error _ -> ());
    (try Sys.remove snap_path with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end;
  let final =
    !violations
    @ Smc_matview.Matview.audit mv
    @ Smc_matview.Matview.audit mv2
    @ Smc_check.Audit.check_once rt ~contexts:[ coll.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check rt ~contexts:[ coll.Smc.Collection.ctx ]
    @ Smc_check.Audit.check_once rt2 ~contexts:[ coll2.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check rt2 ~contexts:[ coll2.Smc.Collection.ctx ]
  in
  (List.rev !points, List.rev final)

let table points =
  let t =
    Table.create ~title:"Materialized views: maintained reads vs re-aggregation"
      ~columns:[ "phase"; "engine"; "groups"; "scan ms"; "view ms"; "speedup"; "identical" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.phase;
          p.engine;
          string_of_int p.groups;
          Printf.sprintf "%.3f" p.scan_ms;
          Printf.sprintf "%.3f" p.view_ms;
          Printf.sprintf "%.1fx" p.speedup;
          string_of_bool p.identical;
        ])
    points;
  t
