(* Tests for incremental materialized aggregate views: initial build and
   read parity against all four engines, planner rewrite of matching
   GroupBy shapes onto ViewRead, delta maintenance across every mutation
   path (bare ops, transactional commit, coordinated commit, WAL replay),
   Min/Max dirty-group re-scans, sum type-tag fidelity under mixed
   Int/Dec churn, loud invalidation with from-scratch fallback and
   re-validation, the exactly-once hook-firing contract per mutation
   path, view/index namespace separation, and the Obs_check/Matview.audit
   gates. *)

open Smc_offheap
module C = Smc.Collection
module MV = Smc_matview.Matview
module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal
module D = Smc_decimal.Decimal
open Smc_query

(* Obs_check's balances integrate the runtime's whole history, so counters
   must be on before any runtime in this file is created. *)
let () = Smc_obs.enabled := true

let check = Alcotest.check

let rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.fprintf fmt "%s"
        (String.concat ";"
           (List.map
              (fun row ->
                String.concat "," (Array.to_list (Array.map Value.to_string row)))
              rows)))
    (List.equal (fun a b -> Array.for_all2 Value.equal a b))

let sorted rows = List.sort Stdlib.compare rows
let clean = Alcotest.list Alcotest.string

let tmp ext =
  let f = Filename.temp_file "smc_mv_test" ext in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

(* ---- fixture: (k:int, v:int, d:dec) rows ---------------------------- *)

let kvd_layout =
  Layout.create ~name:"kvd" [ ("k", Layout.Int); ("v", Layout.Int); ("d", Layout.Dec) ]

let fk = Smc.Field.int kvd_layout "k"
let fv = Smc.Field.int kvd_layout "v"
let fd = Smc.Field.dec kvd_layout "d"

let columns =
  [ ("k", Source.C_int fk); ("v", Source.C_int fv); ("d", Source.C_dec fd) ]

let make () =
  let rt = Runtime.create () in
  let coll = C.create rt ~name:"kvd" ~layout:kvd_layout ~slots_per_block:32 () in
  (rt, coll)

let add_row coll k v =
  C.add coll ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot k;
      Smc.Field.set_int fv blk slot v;
      Smc.Field.set_dec fd blk slot (D.of_int v))

let mk_src ?matviews coll = Source.of_smc ?matviews coll ~columns

(* The reified shape most tests share: per-k count/sum/min/max/avg of v. *)
let keys = [ ("k", Expr.Col "k") ]

let plan_aggs =
  [
    ("n", Plan.Count);
    ("s", Plan.Sum (Expr.Col "v"));
    ("mn", Plan.Min (Expr.Col "v"));
    ("mx", Plan.Max (Expr.Col "v"));
    ("av", Plan.Avg (Expr.Col "v"));
  ]

let view_aggs = List.map (fun (n, a) -> (n, Plan.view_agg_of_agg a)) plan_aggs

let attach_kvd ?where coll =
  MV.attach ~name:"mv_k" coll ~columns ~keys ~aggs:view_aggs ?where ()

(* From-scratch reference: the same GroupBy evaluated by the Volcano
   engine over a plain scan source (no advertised views). *)
let scratch ?where coll =
  let src = mk_src coll in
  let input =
    match where with None -> Plan.scan src | Some p -> Plan.(where p (scan src))
  in
  sorted (Interp.collect (Plan.group_by ~keys ~aggs:plan_aggs input))

let view_rows mv =
  let out = ref [] in
  MV.read mv (fun row -> out := row :: !out);
  sorted !out

let assert_parity what ?where coll mv =
  check rows_testable (what ^ ": view matches from-scratch") (scratch ?where coll)
    (view_rows mv);
  check clean (what ^ ": audit clean") [] (MV.audit mv)

(* ---- all-engine parity helper (same shape as test_text's) ----------- *)

let all_engines name plan =
  let reference = sorted (Interp.collect plan) in
  List.iter
    (fun (engine, collect) ->
      check rows_testable
        (Printf.sprintf "%s: %s agrees with Volcano" name engine)
        reference
        (sorted (collect plan)))
    [
      ("Fuse", Fuse.collect);
      ("Vector", fun p -> Vector.collect p);
      ("Compiled", Codegen.collect);
    ];
  reference

(* ---- build + read --------------------------------------------------- *)

let test_build_and_read () =
  let _rt, coll = make () in
  List.iter (fun (k, v) -> ignore (add_row coll k v))
    [ (1, 10); (1, 20); (2, 5); (2, 5); (3, 7) ];
  let mv = attach_kvd coll in
  assert_parity "initial build" coll mv;
  let st = MV.stats mv in
  check Alcotest.int "3 groups" 3 st.MV.st_groups;
  check Alcotest.int "5 contributions" 5 st.MV.st_contributions;
  check Alcotest.int "no dirty groups" 0 st.MV.st_dirty_groups;
  check Alcotest.bool "valid" true (st.MV.st_invalid = None);
  check Alcotest.string "name" "mv_k" (MV.name mv);
  check Alcotest.bool "collection identity" true (MV.collection mv == coll);
  (* Attaching a second view under the same name is rejected. *)
  (match attach_kvd coll with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate view name must be rejected")

let test_filtered_view () =
  let _rt, coll = make () in
  List.iter (fun (k, v) -> ignore (add_row coll k v))
    [ (1, 10); (1, 2); (2, 50); (2, 3); (3, 1) ];
  let where = Expr.(Gt (Col "v", int 5)) in
  let mv = attach_kvd ~where coll in
  assert_parity "filtered build" ~where coll mv;
  (* Rows failing the filter contribute nothing. *)
  check Alcotest.int "2 contributions" 2 (MV.stats mv).MV.st_contributions;
  (* A store that moves a row across the filter boundary adds/removes its
     contribution. *)
  let r = add_row coll 3 100 in
  assert_parity "filter-passing add" ~where coll mv;
  C.store coll r ~word:fv.Layout.word ~value:4;
  assert_parity "store crossing out of the filter" ~where coll mv;
  C.store coll r ~word:fv.Layout.word ~value:40;
  assert_parity "store crossing back in" ~where coll mv

(* ---- planner rewrite + engine parity -------------------------------- *)

let test_planner_rewrite () =
  let _rt, coll = make () in
  List.iter (fun (k, v) -> ignore (add_row coll k v))
    [ (1, 10); (1, 20); (2, 5); (3, 7); (3, 9) ];
  let mv = attach_kvd coll in
  let src = mk_src ~matviews:[ MV.info mv ] coll in
  let plan = Plan.group_by ~keys ~aggs:plan_aggs (Plan.scan src) in
  (match Planner.choose_access_paths plan with
  | Plan.ViewRead { matview; _ } ->
    check Alcotest.string "routed to the view" "mv_k" matview.Source.mv_name
  | _ -> Alcotest.fail "matching GroupBy must rewrite to ViewRead");
  (* All four engines agree between the routed and the unrouted plan. *)
  let scan_rows = all_engines "groupby (scan)" plan in
  let routed = Planner.choose_access_paths plan in
  let view_rows' = all_engines "groupby (view)" routed in
  check rows_testable "routed matches scan" scan_rows view_rows';
  (* Shape mismatches stay as written: different aggregate list, *)
  let other = Plan.group_by ~keys ~aggs:[ ("n", Plan.Count) ] (Plan.scan src) in
  (match Planner.choose_access_paths other with
  | Plan.GroupBy _ -> ()
  | _ -> Alcotest.fail "different aggs must not match");
  (* different keys, *)
  let other_keys =
    Plan.group_by ~keys:[ ("v", Expr.Col "v") ] ~aggs:plan_aggs (Plan.scan src)
  in
  (match Planner.choose_access_paths other_keys with
  | Plan.GroupBy _ -> ()
  | _ -> Alcotest.fail "different keys must not match");
  (* and a filter the view does not maintain. *)
  let filtered =
    Plan.group_by ~keys ~aggs:plan_aggs
      Plan.(where Expr.(Gt (Col "v", int 5)) (Plan.scan src))
  in
  (match Planner.choose_access_paths filtered with
  | Plan.GroupBy _ -> ()
  | _ -> Alcotest.fail "unmaintained filter must not match");
  (* A filtered view matches the GroupBy-over-Where spelling exactly. *)
  let fpred = Expr.(Gt (Col "v", int 5)) in
  let fmv =
    MV.attach ~name:"mv_k_gt5" coll ~columns ~keys ~aggs:view_aggs ~where:fpred ()
  in
  let src2 = mk_src ~matviews:[ MV.info mv; MV.info fmv ] coll in
  let fplan =
    Plan.group_by ~keys ~aggs:plan_aggs (Plan.where fpred (Plan.scan src2))
  in
  (match Planner.choose_access_paths fplan with
  | Plan.ViewRead { matview; _ } ->
    check Alcotest.string "filtered shape routed" "mv_k_gt5" matview.Source.mv_name
  | _ -> Alcotest.fail "filtered GroupBy must rewrite to the filtered view");
  let f_scan = all_engines "filtered groupby (scan)" fplan in
  let f_view = all_engines "filtered groupby (view)" (Planner.choose_access_paths fplan) in
  check rows_testable "filtered routed matches scan" f_scan f_view;
  (* view_read's smart constructor rejects shapes no view advertises. *)
  (match
     Plan.view_read src2 ~keys:[ ("v", Expr.Col "v") ] ~aggs:plan_aggs ~where:None
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "view_read without a matching view must be rejected")

(* ---- incremental maintenance ---------------------------------------- *)

let test_incremental_churn () =
  let _rt, coll = make () in
  let refs = ref [] in
  let mv = attach_kvd coll in
  let f0 = MV.frontier mv in
  for i = 0 to 49 do
    refs := add_row coll (i mod 5) i :: !refs
  done;
  assert_parity "after 50 adds" coll mv;
  check Alcotest.bool "frontier advanced" true (MV.frontier mv > f0);
  (* Remove every third row. *)
  List.iteri (fun i r -> if i mod 3 = 0 then ignore (C.remove coll r)) !refs;
  assert_parity "after removes" coll mv;
  (* Bare stores move rows between groups?  No — k is the key and stores
     to key fields are the caller's contract to avoid for indexes, but a
     view keys on extracted values, so re-keying through remove+add works.
     Store to the aggregated field: *)
  List.iteri
    (fun i r -> if i mod 3 = 1 then C.store coll r ~word:fv.Layout.word ~value:(1000 + i))
    !refs;
  assert_parity "after stores to the aggregate input" coll mv;
  (* And to the key field: the contribution moves between groups. *)
  List.iteri
    (fun i r -> if i mod 3 = 2 then C.store coll r ~word:fk.Layout.word ~value:9)
    !refs;
  assert_parity "after stores to the group key" coll mv;
  (* Group collapse: empty groups disappear from the result. *)
  List.iter (fun r -> ignore (C.remove coll r)) !refs;
  assert_parity "after removing everything" coll mv;
  check Alcotest.int "no groups left" 0 (MV.stats mv).MV.st_groups;
  check Alcotest.int "no contributions left" 0 (MV.stats mv).MV.st_contributions

let test_minmax_dirty_rescan () =
  let rt, coll = make () in
  ignore (add_row coll 1 10);
  ignore (add_row coll 1 10);
  let hi = add_row coll 1 99 in
  let lo = add_row coll 1 3 in
  let mv = attach_kvd coll in
  (* Removing a duplicated extremum is O(1): the other copy keeps the
     cell exact, no dirty mark. *)
  let r10 = add_row coll 1 10 in
  ignore (C.remove coll r10);
  check Alcotest.int "duplicate extremum removal leaves no dirt" 0
    (MV.stats mv).MV.st_dirty_groups;
  (* Removing the unique max marks the group dirty; the next read runs
     one bounded re-scan and resolves it. *)
  ignore (C.remove coll hi);
  check Alcotest.int "unique max removal dirties the group" 1
    (MV.stats mv).MV.st_dirty_groups;
  let s0 = Smc_obs.snapshot rt.Runtime.obs in
  assert_parity "after losing the max" coll mv;
  let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) s0 in
  check Alcotest.bool "read classified as re-scan" true
    (Smc_obs.get d Smc_obs.c_mv_rescans >= 1);
  check Alcotest.int "dirt resolved" 0 (MV.stats mv).MV.st_dirty_groups;
  (* A clean read right after is a hit. *)
  let s1 = Smc_obs.snapshot rt.Runtime.obs in
  ignore (view_rows mv);
  let d1 = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) s1 in
  check Alcotest.int "clean read is a hit" 1 (Smc_obs.get d1 Smc_obs.c_mv_hits);
  (* Same dance on the min side. *)
  ignore (C.remove coll lo);
  assert_parity "after losing the min" coll mv

(* A row is valid in the collection before its add delta reaches the
   view: subscribers fire in attachment order, so one attached before the
   view and parked on a latch holds the delta back while the row is
   already visible to a scan. A read that re-scans a dirty group in that
   window must not fold the row, or its delta folds it a second time and
   the extremum's multiplicity is off by one: removing the true extremum
   then leaves a stale max. *)
let test_rescan_skips_parked_add () =
  let _rt, coll = make () in
  ignore (add_row coll 1 10);
  let mid = add_row coll 1 50 in
  let armed = Atomic.make false and parked = Atomic.make false in
  let release = Atomic.make false in
  let latch : C.op -> unit = function
    | C.Add _ when Atomic.get armed ->
      Atomic.set parked true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    | _ -> ()
  in
  C.subscribe coll { C.name = "latch"; on_commit = List.iter latch };
  let mv = attach_kvd coll in
  ignore (C.remove coll mid);
  check Alcotest.int "unique max removal dirties the group" 1
    (MV.stats mv).MV.st_dirty_groups;
  Atomic.set armed true;
  let adder = Domain.spawn (fun () -> add_row coll 1 99) in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  (* 99 is valid; its view delta is parked behind the latch *)
  ignore (view_rows mv);
  Atomic.set release true;
  let top = Domain.join adder in
  ignore (C.remove coll top);
  assert_parity "true extremum removed after a parked add" coll mv

let test_sum_tag_fidelity () =
  (* A computed column that yields Int on some rows and Dec on others: the
     maintained sum must carry the same type tag as a from-scratch fold —
     Int iff no Dec contribution is present — through arbitrary churn. *)
  let _rt, coll = make () in
  let mixed blk slot =
    let v = Smc.Field.get_int fv blk slot in
    if v mod 2 = 0 then Value.Int v else Value.Dec (D.of_int v)
  in
  let cols = ("m", Source.C_fn mixed) :: columns in
  let mkeys = [ ("k", Expr.Col "k") ] in
  let maggs = [ ("s", Plan.Sum (Expr.Col "m")); ("av", Plan.Avg (Expr.Col "m")) ] in
  let mv =
    MV.attach ~name:"mv_mixed" coll ~columns:cols ~keys:mkeys
      ~aggs:(List.map (fun (n, a) -> (n, Plan.view_agg_of_agg a)) maggs)
      ()
  in
  let parity what =
    let src = Source.of_smc coll ~columns:cols in
    let expect = sorted (Interp.collect (Plan.group_by ~keys:mkeys ~aggs:maggs (Plan.scan src))) in
    check rows_testable (what ^ ": tagged sum parity") expect (view_rows mv);
    check clean (what ^ ": audit clean") [] (MV.audit mv)
  in
  let a = add_row coll 1 2 in
  let _b = add_row coll 1 4 in
  parity "all-Int group";
  (match view_rows mv with
  | [ [| _; Value.Int 6; _ |] ] -> ()
  | rows ->
    Alcotest.failf "expected Int-tagged sum 6, got %s"
      (String.concat ";"
         (List.map
            (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r)))
            rows)));
  let c = add_row coll 1 3 in
  parity "mixed group";
  (match view_rows mv with
  | [ [| _; Value.Dec _; _ |] ] -> ()
  | _ -> Alcotest.fail "a Dec contribution must flip the sum tag to Dec");
  ignore (C.remove coll c);
  parity "Dec contribution removed";
  (match view_rows mv with
  | [ [| _; Value.Int 6; _ |] ] -> ()
  | _ -> Alcotest.fail "removing the only Dec contribution must restore the Int tag");
  ignore (C.remove coll a);
  parity "partial removal"

(* ---- transactional atomicity ---------------------------------------- *)

let test_txn_atomicity () =
  let _rt, coll = make () in
  let r1 = add_row coll 1 10 in
  let r2 = add_row coll 2 20 in
  let mv = attach_kvd coll in
  let before = view_rows mv in
  (* One transaction staging all three op kinds applies as one unit. *)
  let tx = C.txn coll in
  C.stage_add tx ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot 1;
      Smc.Field.set_int fv blk slot 30;
      Smc.Field.set_dec fd blk slot (D.of_int 30));
  C.stage_remove tx r2;
  C.stage_store tx r1 ~word:fv.Layout.word ~value:11;
  (match C.commit tx with
  | C.Committed _ -> ()
  | C.Conflict -> Alcotest.fail "unexpected Conflict");
  assert_parity "after mixed txn commit" coll mv;
  (* An aborted transaction leaves the view untouched. *)
  let before_abort = view_rows mv in
  let tx2 = C.txn coll in
  C.stage_add tx2 ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot 9;
      Smc.Field.set_int fv blk slot 900;
      Smc.Field.set_dec fd blk slot D.zero);
  C.stage_remove tx2 r1;
  C.abort tx2;
  check rows_testable "abort leaves the view unchanged" before_abort (view_rows mv);
  assert_parity "after abort" coll mv;
  check Alcotest.bool "the committed txn changed the result" true (before <> before_abort)

(* A bare store slipped in through [sib_rt]'s hook as [sib]'s transaction
   starts validating, so that member of a [commit_all] conflicts after the
   members before it validated. *)
let with_sibling_conflict sib_rt sib s f =
  Smc_check.Chaos.with_txn_hook sib_rt
    ~hook:(fun phase ->
      if phase = Runtime.Txn_staged then C.store sib s ~word:fv.Layout.word ~value:(-1))
    f

let test_two_phase_commit () =
  let rt, coll = make () in
  let r = add_row coll 1 10 in
  let mv = attach_kvd coll in
  let sib_rt, sib = make () in
  let s = add_row sib 5 50 in
  (* A two-collection commit_all publishes each member exactly like commit. *)
  let tx = C.txn coll in
  C.stage_store tx r ~word:fv.Layout.word ~value:42;
  C.stage_add tx ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot 2;
      Smc.Field.set_int fv blk slot 7;
      Smc.Field.set_dec fd blk slot (D.of_int 7));
  let stx = C.txn sib in
  C.stage_store stx s ~word:fv.Layout.word ~value:51;
  (match C.commit_all [ tx; stx ] with
  | Some [ [ _ ]; [] ] -> ()
  | _ -> Alcotest.fail "commit_all must validate, with one add ref on the first member");
  assert_parity "after commit_all" coll mv;
  (* A sibling's conflict applies nothing to the member that validated. *)
  let before = view_rows mv in
  let tx2 = C.txn coll in
  C.stage_store tx2 r ~word:fv.Layout.word ~value:500;
  let stx2 = C.txn sib in
  C.stage_store stx2 s ~word:fv.Layout.word ~value:52;
  check Alcotest.bool "the sibling conflicts" true
    (with_sibling_conflict sib_rt sib s (fun () -> C.commit_all [ tx2; stx2 ]) = None);
  check rows_testable "a sibling's conflict leaves the view unchanged" before (view_rows mv);
  assert_parity "after a sibling's conflict" coll mv;
  Alcotest.check_raises "two transactions on one collection"
    (Invalid_argument "Collection.commit_all: two transactions on \"kvd\"") (fun () ->
      ignore (C.commit_all [ C.txn coll; C.txn coll ] : Smc.Ref.t list list option));
  check clean "outcome balances hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx ])

(* ---- invalidation + fallback ---------------------------------------- *)

let test_invalidation_and_revalidation () =
  let rt, coll = make () in
  (* A computed column that reads Null for sentinel rows: Null aggregate
     inputs are outside the invertible algebra. *)
  let nullable blk slot =
    let v = Smc.Field.get_int fv blk slot in
    if v < 0 then Value.Null else Value.Int v
  in
  let cols = ("nv", Source.C_fn nullable) :: columns in
  let naggs = [ ("mn", Plan.Min (Expr.Col "nv")) ] in
  let mv =
    MV.attach ~name:"mv_null" coll ~columns:cols ~keys
      ~aggs:(List.map (fun (n, a) -> (n, Plan.view_agg_of_agg a)) naggs)
      ()
  in
  ignore (add_row coll 1 5);
  ignore (add_row coll 1 8);
  check Alcotest.bool "valid while inputs are clean" true
    ((MV.stats mv).MV.st_invalid = None);
  let s0 = Smc_obs.snapshot rt.Runtime.obs in
  let bad = add_row coll 1 (-1) in
  (match (MV.stats mv).MV.st_invalid with
  | Some _ -> ()
  | None -> Alcotest.fail "a Null aggregate input must invalidate the view");
  let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) s0 in
  check Alcotest.bool "invalidation counted" true
    (Smc_obs.get d Smc_obs.c_mv_invalidations >= 1);
  (* Reads still answer, bit-identical to the engines (Null sorts below
     everything, so the group min IS Null). *)
  let src = Source.of_smc coll ~columns:cols in
  let expect =
    sorted (Interp.collect (Plan.group_by ~keys ~aggs:naggs (Plan.scan src)))
  in
  check rows_testable "invalid view falls back to from-scratch" expect (view_rows mv);
  check Alcotest.bool "fallback read does not re-validate (input still bad)" true
    ((MV.stats mv).MV.st_invalid <> None);
  check clean "invalid view audits vacuously clean" [] (MV.audit mv);
  (* Once the offending row is gone, the next read rebuilds and the view
     is incremental again. *)
  ignore (C.remove coll bad);
  let expect2 =
    sorted (Interp.collect (Plan.group_by ~keys ~aggs:naggs (Plan.scan src)))
  in
  check rows_testable "re-derived result after the bad row left" expect2 (view_rows mv);
  check Alcotest.bool "read re-validated the view" true
    ((MV.stats mv).MV.st_invalid = None);
  (* And maintenance is live once more. *)
  ignore (add_row coll 2 3);
  let expect3 =
    sorted (Interp.collect (Plan.group_by ~keys ~aggs:naggs (Plan.scan src)))
  in
  check rows_testable "incremental again after re-validation" expect3 (view_rows mv);
  check clean "audit clean after re-validation" [] (MV.audit mv)

(* ---- WAL replay ------------------------------------------------------ *)

(* Counting subscriber: the exactly-once regression instrument for
   satellite audits — each mutation path must publish each op exactly once
   to each subscriber. *)
type counts = { mutable adds : int; mutable removes : int; mutable stores : int }

let count cnt : C.op -> unit = function
  | C.Add _ -> cnt.adds <- cnt.adds + 1
  | C.Remove _ -> cnt.removes <- cnt.removes + 1
  | C.Store _ -> cnt.stores <- cnt.stores + 1

let counting_sub cnt name = { C.name; on_commit = List.iter (count cnt) }

let test_wal_replay_rebuilds_view () =
  (* Live collection A logs its ops; a fresh collection B attaches a view
     and a counting hook FIRST, then replays the log: the replay must
     drive the view to parity through the same hook points, firing each
     exactly once per applied op. *)
  let _rtA, collA = make () in
  let wal_path = tmp ".wal" in
  let snap = tmp ".smcsnap" in
  let wal = Wal.create ~sync:Wal.Always ~path:wal_path ~name:"kvd" () in
  Wal.attach wal collA;
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap collA in
  let r1 = add_row collA 1 10 in
  let r2 = add_row collA 1 20 in
  let _r3 = add_row collA 2 5 in
  C.store collA r1 ~word:fv.Layout.word ~value:11;
  ignore (C.remove collA r2);
  let tx = C.txn collA in
  C.stage_add tx ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot 3;
      Smc.Field.set_int fv blk slot 30;
      Smc.Field.set_dec fd blk slot (D.of_int 30));
  C.stage_store tx r1 ~word:fv.Layout.word ~value:12;
  (match C.commit tx with
  | C.Committed _ -> ()
  | C.Conflict -> Alcotest.fail "unexpected Conflict");
  Wal.close wal;
  (* ops on the log: 4 adds, 1 remove, 2 stores *)
  let _rtB, collB = make () in
  let mv = attach_kvd collB in
  let cnt = { adds = 0; removes = 0; stores = 0 } in
  C.subscribe collB (counting_sub cnt "replay_counter");
  let applied, torn = Snapshot.replay_wal collB ~path:wal_path ~cut:(-1) in
  check Alcotest.int "no torn tail" 0 torn;
  check Alcotest.int "all logged ops applied" 7 applied;
  check Alcotest.int "replay fired add hooks exactly once each" 4 cnt.adds;
  check Alcotest.int "replay fired remove hooks exactly once each" 1 cnt.removes;
  check Alcotest.int "replay fired store hooks exactly once each" 2 cnt.stores;
  (* The replayed collection holds A's final rows, and the view — fed
     purely by replay deltas — agrees with a from-scratch aggregation of
     both collections. *)
  check rows_testable "replayed rows match the live collection" (scratch collA)
    (scratch collB);
  assert_parity "view maintained through replay" collB mv;
  check rows_testable "replayed view matches the live result" (scratch collA)
    (view_rows mv)

(* ---- exactly-once delivery per mutation path ------------------------ *)

(* A subscriber hears every unit once, as one op list: a bare op is a
   one-element unit, a commit one unit in staging order, and replay one
   unit per log record. Staging, aborts, dead removes and conflicting
   commits publish nothing. [shape] keeps what identifies an op across
   replay (an add's location does not survive it). *)
let shape = function
  | C.Add (r, _, _) -> ("add", (Smc.Ref.to_packed r, 0, 0))
  | C.Remove r -> ("remove", (Smc.Ref.to_packed r, 0, 0))
  | C.Store (r, w, v) -> ("store", (Smc.Ref.to_packed r, w, v))

let units_testable =
  Alcotest.(list (list (pair string (triple int int int))))

let recorder name =
  let units = ref [] in
  let on_commit ops = units := List.map shape ops :: !units in
  ({ C.name; on_commit }, fun () -> List.rev !units)

let test_hooks_fire_exactly_once () =
  let _rt, coll = make () in
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~sync:Wal.Always ~path:wal_path ~name:"kvd" () in
  Wal.attach wal coll;
  let sub, units = recorder "units" in
  C.subscribe coll sub;
  let word = fv.Layout.word in
  let p = Smc.Ref.to_packed in
  let heard what expect = check units_testable what expect (units ()) in
  (* Each bare op is one one-element unit; a dead remove publishes nothing. *)
  let r = add_row coll 1 10 in
  C.store coll r ~word ~value:11;
  check Alcotest.bool "remove frees" true (C.remove coll r);
  check Alcotest.bool "second remove is a no-op" false (C.remove coll r);
  heard "bare ops: one unit each, a dead remove none"
    [
      [ ("add", (p r, 0, 0)) ];
      [ ("store", (p r, word, 11)) ];
      [ ("remove", (p r, 0, 0)) ];
    ];
  (* A commit is exactly one unit, in staging order; staging publishes
     nothing. *)
  let keep = add_row coll 2 20 in
  let keep2 = add_row coll 3 30 in
  let before = units () in
  let tx = C.txn coll in
  C.stage_add tx ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot 4;
      Smc.Field.set_int fv blk slot 40;
      Smc.Field.set_dec fd blk slot D.zero);
  C.stage_store tx keep ~word ~value:21;
  C.stage_remove tx keep2;
  heard "staging publishes nothing" before;
  let added =
    match C.commit tx with
    | C.Committed [ a ] -> a
    | C.Committed _ -> Alcotest.fail "one staged add, one ref"
    | C.Conflict -> Alcotest.fail "unexpected Conflict"
  in
  let committed =
    before
    @ [ [ ("add", (p added, 0, 0)); ("store", (p keep, word, 21)); ("remove", (p keep2, 0, 0)) ] ]
  in
  heard "a commit is one unit, in staging order" committed;
  (* Aborts publish nothing. *)
  let tx2 = C.txn coll in
  C.stage_store tx2 keep ~word ~value:22;
  C.abort tx2;
  heard "an abort publishes nothing" committed;
  (* Coordinated path: one unit at publish, nothing at validation, and
     nothing when a sibling conflicts. *)
  let sib_rt, sib = make () in
  let s = add_row sib 9 90 in
  let tx3 = C.txn coll in
  C.stage_store tx3 keep ~word ~value:23;
  let stx = C.txn sib in
  C.stage_store stx s ~word ~value:91;
  let at_validation = ref [] in
  (* [coll]'s member has validated by the time the sibling's does. *)
  Smc_check.Chaos.with_txn_hook sib_rt
    ~hook:(fun phase -> if phase = Runtime.Txn_validated then at_validation := units ())
    (fun () -> ignore (C.commit_all [ tx3; stx ] : Smc.Ref.t list list option));
  heard "commit_all: one unit" (committed @ [ [ ("store", (p keep, word, 23)) ] ]);
  check units_testable "validation publishes nothing" committed !at_validation;
  let coordinated = units () in
  let tx4 = C.txn coll in
  C.stage_store tx4 keep ~word ~value:24;
  let stx2 = C.txn sib in
  C.stage_store stx2 s ~word ~value:92;
  check Alcotest.bool "the sibling conflicts" true
    (with_sibling_conflict sib_rt sib s (fun () -> C.commit_all [ tx4; stx2 ]) = None);
  heard "a sibling's conflict publishes nothing" coordinated;
  Wal.close wal;
  (* Replay hands a subscriber attached before it one unit per logged
     record, in log order: the units the live collection published. *)
  let _rtB, collB = make () in
  let subB, unitsB = recorder "units" in
  C.subscribe collB subB;
  let applied, torn = Snapshot.replay_wal collB ~path:wal_path ~cut:(-1) in
  check Alcotest.int "no torn tail" 0 torn;
  check Alcotest.int "every published op applied" (List.length (List.concat coordinated))
    applied;
  check units_testable "replay: one unit per record, in log order" coordinated (unitsB ())

(* ---- namespaces ------------------------------------------------------ *)

let test_subscriber_names () =
  let _rt, coll = make () in
  ignore (add_row coll 1 10);
  let mv = attach_kvd coll in
  check (Alcotest.list Alcotest.string) "view listed" [ "mv_k" ] (C.subscribers coll);
  (* Views, indexes and logs share one registry, so a name a view holds is
     taken. *)
  let cnt = { adds = 0; removes = 0; stores = 0 } in
  (match C.subscribe coll (counting_sub cnt "mv_k") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "subscribe must reject a name a view holds");
  MV.detach mv;
  check (Alcotest.list Alcotest.string) "view gone after detach" [] (C.subscribers coll);
  (* A detached view is frozen: mutations no longer reach it. *)
  let frozen = (MV.stats mv).MV.st_contributions in
  ignore (add_row coll 1 99);
  check Alcotest.int "detached view no longer maintained" frozen
    (MV.stats mv).MV.st_contributions;
  (match C.unsubscribe coll "mv_k" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double detach must be rejected")

(* ---- gates ----------------------------------------------------------- *)

let test_check_gates () =
  let rt, coll = make () in
  let mv = attach_kvd coll in
  let refs = ref [] in
  for i = 0 to 99 do
    refs := add_row coll (i mod 7) i :: !refs
  done;
  List.iteri (fun i r -> if i mod 4 = 0 then ignore (C.remove coll r)) !refs;
  List.iteri
    (fun i r -> if i mod 4 = 1 then C.store coll r ~word:fv.Layout.word ~value:(i * 3))
    !refs;
  ignore (view_rows mv);
  check clean "Matview.audit clean after churn" [] (MV.audit mv);
  check clean "Obs_check balances hold (incl. mv counters)" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx ]);
  (* The checker surfaces a violation when the tables are stale: fire a
     mutation past a detached view, reattach the hooks, and audit. *)
  MV.detach mv;
  ignore (add_row coll 1 1_000_000);
  check Alcotest.bool "stale view caught by the checker" true
    (MV.audit mv <> [])

let () =
  Alcotest.run "smc_matview"
    [
      ( "build",
        [
          Alcotest.test_case "build and read" `Quick test_build_and_read;
          Alcotest.test_case "filtered view" `Quick test_filtered_view;
        ] );
      ( "planner",
        [ Alcotest.test_case "GroupBy rewrites to ViewRead" `Quick test_planner_rewrite ] );
      ( "maintenance",
        [
          Alcotest.test_case "incremental churn parity" `Quick test_incremental_churn;
          Alcotest.test_case "min/max dirty re-scan" `Quick test_minmax_dirty_rescan;
          Alcotest.test_case "re-scan skips a parked add" `Quick test_rescan_skips_parked_add;
          Alcotest.test_case "sum type-tag fidelity" `Quick test_sum_tag_fidelity;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "txn atomicity" `Quick test_txn_atomicity;
          Alcotest.test_case "two-phase commit" `Quick test_two_phase_commit;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "invalidate loudly, fall back, re-validate" `Quick
            test_invalidation_and_revalidation;
        ] );
      ( "recovery",
        [ Alcotest.test_case "WAL replay rebuilds the view" `Quick test_wal_replay_rebuilds_view ] );
      ( "hooks",
        [
          Alcotest.test_case "exactly-once per mutation path" `Quick
            test_hooks_fire_exactly_once;
          Alcotest.test_case "view/index namespaces" `Quick test_subscriber_names;
        ] );
      ( "gates",
        [ Alcotest.test_case "Matview_check + Obs_check" `Quick test_check_gates ] );
    ]
