(* Indexed vs full-scan access paths.

   Workload 1 (synthetic, [rows] items): point selection on a unique int
   key, equi-selection on a 16-way duplicated group key, and a small-probe
   equi-join against the full table — each run twice from the same logical
   plan: once as written (full scan / hash join) and once through
   [Planner.choose_access_paths] (IndexScan / IndexJoin). Workload 2
   (TPC-H): lineitem ⋈ orders through an index on o_orderkey. Both check
   the indexed plan returns exactly the scan plan's rows, then a churn
   phase (remove / probe-removed / re-add / sweep) exercises staleness
   before the final audits — so a bench run is also the index self-check
   workload. *)

open Smc_util
module Q = Smc_query
module V = Smc_query.Value
module H = Smc_index.Hash_index

type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;
}

let median_ms f =
  Stats.median (Timing.repeat ~warmup:1 3 (fun () -> ignore (Sys.opaque_identity (f ()))))

let sorted_rows rows = List.sort Stdlib.compare rows

let same_rows a b =
  List.equal (fun x y -> Array.for_all2 V.equal x y) (sorted_rows a) (sorted_rows b)

let measure ~case ~engine ~collect ~scan_plan ~idx_plan =
  let scan_rows = collect scan_plan and idx_rows = collect idx_plan in
  let scan_ms = median_ms (fun () -> collect scan_plan) in
  let idx_ms = median_ms (fun () -> collect idx_plan) in
  {
    case;
    engine;
    rows_out = List.length idx_rows;
    scan_ms;
    idx_ms;
    speedup = (if idx_ms > 0.0 then scan_ms /. idx_ms else infinity);
    identical = same_rows scan_rows idx_rows;
  }

(* ---- synthetic items table ---------------------------------------- *)

let group_fanout = 16

let run_synthetic ~rows =
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"items"
      [ ("k", Smc_offheap.Layout.Int); ("grp", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Int) ]
  in
  let items = Smc.Collection.create rt ~name:"items" ~layout () in
  let fk = Smc.Field.int layout "k"
  and fg = Smc.Field.int layout "grp"
  and fv = Smc.Field.int layout "v" in
  let refs = Array.make rows Smc.Ref.null in
  for i = 0 to rows - 1 do
    refs.(i) <-
      Smc.Collection.add items ~init:(fun blk slot ->
          Smc.Field.set_int fk blk slot i;
          Smc.Field.set_int fg blk slot (i / group_fanout);
          Smc.Field.set_int fv blk slot (i * 3))
  done;
  let ix_k = H.attach ~name:"items_by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) items in
  let ix_g = H.attach ~name:"items_by_grp" ~key:(H.Int_key (Smc.Field.get_int fg)) items in
  let src =
    Q.Source.of_smc items
      ~indexes:[ ("k", ix_k); ("grp", ix_g) ]
      ~columns:[ ("k", Q.Source.C_int fk); ("grp", Q.Source.C_int fg); ("v", Q.Source.C_int fv) ]
  in
  let indexed plan =
    let p = Q.Planner.choose_access_paths plan in
    assert (Q.Planner.uses_index p);
    p
  in
  (* Point selection: one row out of [rows]. *)
  let point_plan = Q.Plan.(where Q.Expr.(Eq (Col "k", int (rows / 2))) (scan src)) in
  (* Equi-selection on the duplicated key plus a residual conjunct the
     index cannot answer — the rewrite must keep it as a filter. *)
  let equi_plan =
    Q.Plan.(
      where
        Q.Expr.(And (Eq (Col "grp", int (rows / (2 * group_fanout))), Ge (Col "v", int 0)))
        (scan src))
  in
  (* Small probe side joining against the full table. *)
  let probe_rows = min 1000 rows in
  let left =
    Q.Source.of_array ~name:"wanted" ~schema:[ "wk" ]
      (Array.init probe_rows (fun i -> [| V.Int (i * (rows / probe_rows)) |]))
  in
  let join_plan = Q.Plan.(join ~on:[ ("wk", "k") ] (scan left) (scan src)) in
  let points =
    [
      measure ~case:"point k=const" ~engine:"Fuse" ~collect:Q.Fuse.collect
        ~scan_plan:point_plan ~idx_plan:(indexed point_plan);
      measure ~case:"point k=const" ~engine:"Volcano" ~collect:Q.Interp.collect
        ~scan_plan:point_plan ~idx_plan:(indexed point_plan);
      measure ~case:"equi grp=const (+residual)" ~engine:"Fuse" ~collect:Q.Fuse.collect
        ~scan_plan:equi_plan ~idx_plan:(indexed equi_plan);
      measure ~case:"join wanted⋈items" ~engine:"Fuse" ~collect:Q.Fuse.collect
        ~scan_plan:join_plan ~idx_plan:(indexed join_plan);
    ]
  in
  (* Churn phase: remove ~1% of the keys, verify probes for removed keys
     miss (stale entries must never resurrect), re-add them with fresh
     rows, sweep, and audit. *)
  let resurrections = ref 0 in
  let step = 97 in
  let removed = ref [] in
  let i = ref 0 in
  while !i < rows do
    if Smc.Collection.remove items refs.(!i) then removed := !i :: !removed;
    i := !i + step
  done;
  List.iter
    (fun k -> if H.contains ix_k (H.K_int k) then incr resurrections)
    !removed;
  List.iter
    (fun k ->
      refs.(k) <-
        Smc.Collection.add items ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot k;
            Smc.Field.set_int fg blk slot (k / group_fanout);
            Smc.Field.set_int fv blk slot (k * 3)))
    !removed;
  H.sweep ix_k;
  H.sweep ix_g;
  let violations =
    (if !resurrections > 0 then
       [ Printf.sprintf "index items_by_k: %d probes of removed keys hit" !resurrections ]
     else [])
    @ Smc_index.Hash_index.audit ix_k
    @ Smc_index.Hash_index.audit ix_g
    @ Smc_check.Audit.check_once rt ~contexts:[ items.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check rt ~contexts:[ items.Smc.Collection.ctx ]
  in
  (points, violations)

(* ---- TPC-H: lineitem ⋈ orders through an orderkey index ------------ *)

let run_tpch ~sf =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  let orf = db.Smc_tpch.Db_smc.orf and lf = db.Smc_tpch.Db_smc.lf in
  let ix_ok =
    H.attach ~name:"orders_by_orderkey"
      ~key:(H.Int_key (Smc.Field.get_int orf.Smc_tpch.Db_smc.o_orderkey))
      db.Smc_tpch.Db_smc.orders
  in
  let orders_src =
    Q.Source.of_smc db.Smc_tpch.Db_smc.orders
      ~indexes:[ ("orderkey", ix_ok) ]
      ~columns:
        [
          ("orderkey", Q.Source.C_int orf.Smc_tpch.Db_smc.o_orderkey);
          ("odate", Q.Source.C_date orf.Smc_tpch.Db_smc.o_orderdate);
        ]
  in
  let li_src =
    Q.Source.of_smc db.Smc_tpch.Db_smc.lineitems
      ~columns:
        [
          ( "okey",
            Q.Source.C_fn
              (fun b s ->
                match
                  Smc.Field.follow lf.Smc_tpch.Db_smc.l_order
                    ~target:db.Smc_tpch.Db_smc.orders b s
                with
                | Some (ob, os) -> V.Int (Smc.Field.get_int orf.Smc_tpch.Db_smc.o_orderkey ob os)
                | None -> V.Null) );
          ("price", Q.Source.C_dec lf.Smc_tpch.Db_smc.l_extendedprice);
          ("sdate", Q.Source.C_date lf.Smc_tpch.Db_smc.l_shipdate);
        ]
  in
  (* Selective probe side (late shipdates) joined to orders: the classic
     shape where an index nested-loop join skips the build of the full
     orders hash table. *)
  let cutoff = Smc_util.Date.of_ymd 1998 9 1 in
  let join_plan =
    Q.Plan.(
      group_by ~keys:[]
        ~aggs:[ ("n", Count); ("sum_price", Sum (Q.Expr.Col "price")) ]
        (join
           ~on:[ ("okey", "orderkey") ]
           (where Q.Expr.(Ge (Col "sdate", Const (V.Date cutoff))) (scan li_src))
           (scan orders_src)))
  in
  let idx_plan = Q.Planner.choose_access_paths join_plan in
  assert (Q.Planner.uses_index idx_plan);
  let p =
    measure ~case:"tpch lineitem⋈orders" ~engine:"Fuse" ~collect:Q.Fuse.collect
      ~scan_plan:join_plan ~idx_plan
  in
  let contexts =
    List.map
      (fun (c : Smc.Collection.t) -> c.Smc.Collection.ctx)
      [
        db.Smc_tpch.Db_smc.regions;
        db.Smc_tpch.Db_smc.nations;
        db.Smc_tpch.Db_smc.suppliers;
        db.Smc_tpch.Db_smc.parts;
        db.Smc_tpch.Db_smc.partsupps;
        db.Smc_tpch.Db_smc.customers;
        db.Smc_tpch.Db_smc.orders;
        db.Smc_tpch.Db_smc.lineitems;
      ]
  in
  let violations =
    Smc_index.Hash_index.audit ix_ok
    @ Smc_check.Audit.check_once db.Smc_tpch.Db_smc.rt ~contexts
  in
  ([ p ], violations)

let run ?(rows = 1_000_000) ?(sf = 0.01) () =
  let syn_points, syn_violations = run_synthetic ~rows in
  let tpch_points, tpch_violations = run_tpch ~sf in
  let points = syn_points @ tpch_points in
  let mismatches =
    List.filter_map
      (fun p ->
        if p.identical then None
        else Some (Printf.sprintf "index plan result mismatch: %s/%s" p.case p.engine))
      points
  in
  (points, mismatches @ syn_violations @ tpch_violations)

let table points =
  let t =
    Table.create ~title:"Index access paths: indexed vs full-scan"
      ~columns:[ "case"; "engine"; "rows out"; "scan ms"; "index ms"; "speedup"; "identical" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.case;
          p.engine;
          string_of_int p.rows_out;
          Printf.sprintf "%.3f" p.scan_ms;
          Printf.sprintf "%.3f" p.idx_ms;
          Printf.sprintf "%.1fx" p.speedup;
          string_of_bool p.identical;
        ])
    points;
  t
