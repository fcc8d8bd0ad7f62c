(* Tests for hash-partitioned collections and the serving front-end:
   routing, four-engine query parity against an unsharded reference across
   storage configurations, cross-shard coordinated commit (atomicity on
   both the commit and the abort path, first committer wins from the
   transaction's opening), concurrent transfers, consistent views, per-shard WAL crash
   recovery diffed against the live state, a randomized stress round, and
   the wire protocol end to end (round trips, shed, malformed frames). *)

open Smc_offheap
module C = Smc.Collection
module Shard = Smc_shard.Shard
module Server = Smc_shard.Server
module Client = Smc_shard.Client
module Wire = Smc_shard.Wire
module Wal = Smc_persist.Wal
module Q = Smc_query
module V = Smc_query.Value

let check = Alcotest.check
let pairs = Alcotest.(list (pair int int))

let tmp_dir () =
  let d = Filename.temp_file "smc_shard_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  at_exit (fun () ->
      (try Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
       with Sys_error _ -> ());
      try Unix.rmdir d with Unix.Unix_error _ -> ());
  d

let kv_layout = Layout.create ~name:"kv" [ ("k", Layout.Int); ("v", Layout.Int) ]
let fk = Smc.Field.int kv_layout "k"
let fv = Smc.Field.int kv_layout "v"

let kv_init k v blk slot =
  Smc.Field.set_int fk blk slot k;
  Smc.Field.set_int fv blk slot v

let make ?(shards = 3) ?placement ?mode () =
  Shard.create ~shards ~name:"kv" ~layout:kv_layout ?placement ?mode ~slots_per_block:8 ()

let add sh k v = Shard.add sh ~key:k ~init:(kv_init k v)

let dump sh =
  Shard.fold sh ~init:[]
    ~f:(fun _ coll ->
      C.fold coll ~init:[] ~f:(fun acc blk slot ->
          (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot) :: acc))
    ~combine:( @ )
  |> List.sort compare

let audit sh =
  let out = ref [] in
  for i = 0 to Shard.n_shards sh - 1 do
    let rt = Shard.runtime sh i in
    let contexts = [ (Shard.collection sh i).C.ctx ] in
    out := Smc_check.Audit.check_once rt ~contexts @ Smc_check.Obs_check.check rt ~contexts @ !out
  done;
  Smc_check.Obs_check.check_shard (Shard.obs sh) @ !out

let no_violations name sh = check Alcotest.(list string) name [] (audit sh)

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_routing_basic () =
  let sh = make ~shards:4 () in
  let refs = List.init 100 (fun k -> (k, add sh k (10 * k))) in
  check Alcotest.int "count" 100 (Shard.count sh);
  List.iter
    (fun (k, r) ->
      check Alcotest.int "ref remembers its shard" (Shard.shard_of sh ~key:k)
        (Shard.sref_shard r);
      check Alcotest.bool "mem" true (Shard.mem sh r);
      match Shard.deref_opt sh r with
      | Some (blk, slot) -> check Alcotest.int "value" (10 * k) (Smc.Field.get_int fv blk slot)
      | None -> Alcotest.fail "deref_opt returned None")
    refs;
  (* SplitMix routing spreads even a dense key range over every shard. *)
  let per = Array.make 4 0 in
  List.iter (fun (_, r) -> per.(Shard.sref_shard r) <- per.(Shard.sref_shard r) + 1) refs;
  Array.iter (fun n -> check Alcotest.bool "every shard populated" true (n > 0)) per;
  let k0, r0 = List.hd refs in
  Shard.store sh r0 ~word:fv.Layout.word ~value:(-1);
  check pairs "store routed"
    ((k0, -1) :: List.filter_map (fun (k, _) -> if k = k0 then None else Some (k, 10 * k)) refs
    |> List.sort compare)
    (dump sh);
  check Alcotest.bool "remove routed" true (Shard.remove sh r0);
  check Alcotest.bool "second remove is a no-op" false (Shard.remove sh r0);
  check Alcotest.int "count after remove" 99 (Shard.count sh);
  no_violations "routing audit" sh

let test_single_shard_degenerate () =
  let sh = make ~shards:1 () in
  let r = add sh 7 70 in
  check Alcotest.int "everything on shard 0" 0 (Shard.sref_shard r);
  check Alcotest.int "count" 1 (Shard.count sh);
  no_violations "single-shard audit" sh

(* ------------------------------------------------------------------ *)
(* Four-engine parity against an unsharded reference *)

let columns = [ ("k", Q.Source.C_int fk); ("v", Q.Source.C_int fv) ]

let parity_plans src =
  let k = Q.Expr.Col "k" and v = Q.Expr.Col "v" in
  let g = Q.Expr.Sub (k, Q.Expr.Mul (Q.Expr.Div (k, Q.Expr.int 8), Q.Expr.int 8)) in
  [
    ( "groupby",
      Q.Plan.order_by
        [ (Q.Expr.Col "g", Q.Plan.Asc) ]
        (Q.Plan.group_by
           ~keys:[ ("g", g) ]
           ~aggs:[ ("n", Q.Plan.Count); ("sv", Q.Plan.Sum v) ]
           (Q.Plan.scan src)) );
    ( "filter",
      Q.Plan.order_by
        [ (k, Q.Plan.Asc) ]
        (Q.Plan.select
           [ ("k", k); ("v", v) ]
           (Q.Plan.where (Q.Expr.Lt (v, Q.Expr.int 0)) (Q.Plan.scan src))) );
  ]

let engines =
  [
    ("volcano", fun plan -> Q.Interp.collect plan);
    ("fuse", fun plan -> Q.Fuse.collect plan);
    ("vector", fun plan -> Q.Vector.collect plan);
    ( "compiled",
      fun plan ->
        let runner, _ = Q.Codegen.prepare plan in
        let out = ref [] in
        runner (fun row -> out := row :: !out);
        List.rev !out );
  ]

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 V.equal ra rb)
       a b

let parity_case ?placement ?mode () =
  let sh = make ~shards:3 ?placement ?mode () in
  for k = 0 to 199 do
    ignore (add sh k (((k * 37) land 255) - 100) : Shard.sref)
  done;
  let rt = Runtime.create () in
  let coll = C.create rt ~name:"kv_ref" ~layout:kv_layout ?placement ?mode ~slots_per_block:8 () in
  List.iter (fun (k, v) -> ignore (C.add coll ~init:(kv_init k v) : Smc.Ref.t)) (dump sh);
  let src_sh = Shard.source sh ~columns in
  let src_ref = Q.Source.of_smc coll ~columns in
  List.iter2
    (fun (pname, plan_sh) (_, plan_ref) ->
      let reference = Q.Interp.collect plan_ref in
      List.iter
        (fun (ename, run) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s bit-identical to unsharded" pname ename)
            true
            (rows_equal reference (run plan_sh)))
        engines)
    (parity_plans src_sh) (parity_plans src_ref);
  no_violations "parity audit" sh

let test_parity_default () = parity_case ()
let test_parity_columnar () = parity_case ~placement:Block.Columnar ()
let test_parity_direct () = parity_case ~mode:Context.Direct ()

(* ------------------------------------------------------------------ *)
(* Cross-shard commit *)

(* Keys guaranteed to live on distinct shards. *)
let keys_on_distinct_shards sh n =
  let found = Array.make (Shard.n_shards sh) None in
  let k = ref 0 and have = ref 0 in
  while !have < n do
    let s = Shard.shard_of sh ~key:!k in
    if found.(s) = None then begin
      found.(s) <- Some !k;
      incr have
    end;
    incr k
  done;
  Array.to_list found |> List.filter_map Fun.id

let test_cross_shard_commit () =
  let sh = make ~shards:3 () in
  let ks = keys_on_distinct_shards sh 3 in
  let result = Shard.transact sh (fun tx ->
      List.iter (fun k -> Shard.stage_add tx ~key:k ~init:(kv_init k (k + 1))) ks)
  in
  (match result with
  | Shard.Committed refs ->
    check Alcotest.int "one ref per staged add" (List.length ks) (List.length refs);
    List.iter2
      (fun k r ->
        check Alcotest.int "refs in staging order, routed" (Shard.shard_of sh ~key:k)
          (Shard.sref_shard r);
        match Shard.deref_opt sh r with
        | Some (blk, slot) -> check Alcotest.int "committed value" (k + 1) (Smc.Field.get_int fv blk slot)
        | None -> Alcotest.fail "committed ref does not deref")
      ks refs
  | Shard.Conflict -> Alcotest.fail "unexpected conflict");
  check Alcotest.int "all rows present" (List.length ks) (Shard.count sh);
  check Alcotest.int "multi-shard commit counted" 1
    (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_shard_txn_multi);
  no_violations "2pc commit audit" sh

let test_cross_shard_conflict_aborts_all () =
  let sh = make ~shards:3 () in
  let ks = keys_on_distinct_shards sh 2 in
  let ka, kb = (List.nth ks 0, List.nth ks 1) in
  let ra = add sh ka 1 in
  let before = dump sh in
  (* A chaos hook on ka's shard slips a bare store onto the staged row as
     the commit starts validating, so validation fails on that shard — the
     sibling shard's staged add must then never publish. *)
  let fired = ref false in
  let outcome =
    Smc_check.Chaos.with_txn_hook
      (Shard.runtime sh (Shard.sref_shard ra))
      ~hook:(fun phase ->
        if phase = Runtime.Txn_staged && not !fired then begin
          fired := true;
          Shard.store sh ra ~word:fv.Layout.word ~value:99
        end)
      (fun () ->
        Shard.transact sh (fun tx ->
            Shard.stage_store tx ra ~word:fv.Layout.word ~value:2;
            Shard.stage_add tx ~key:kb ~init:(kv_init kb 3)))
  in
  check Alcotest.bool "transaction conflicts" true (outcome = Shard.Conflict);
  check pairs "nothing published on any shard"
    (List.map (fun (k, v) -> if k = ka then (k, 99) else (k, v)) before)
    (dump sh);
  check Alcotest.int "conflict counted" 1
    (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_shard_txn_conflicts);
  check Alcotest.int "no multi-shard commit counted" 0
    (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_shard_txn_multi);
  no_violations "2pc abort audit" sh

let test_cross_shard_remove_store () =
  let sh = make ~shards:3 () in
  let ks = keys_on_distinct_shards sh 3 in
  let refs = List.map (fun k -> add sh k k) ks in
  let doomed = List.hd refs and updated = List.nth refs 1 in
  (match
     Shard.transact sh (fun tx ->
         Shard.stage_remove tx doomed;
         Shard.stage_store tx updated ~word:fv.Layout.word ~value:(-5))
   with
  | Shard.Committed [] -> ()
  | Shard.Committed _ -> Alcotest.fail "no adds staged, no refs expected"
  | Shard.Conflict -> Alcotest.fail "unexpected conflict");
  check Alcotest.bool "removed" false (Shard.mem sh doomed);
  (match Shard.deref_opt sh updated with
  | Some (blk, slot) -> check Alcotest.int "stored" (-5) (Smc.Field.get_int fv blk slot)
  | None -> Alcotest.fail "updated ref does not deref");
  no_violations "remove/store audit" sh

let test_txn_lifecycle () =
  let sh = make () in
  (match Shard.transact sh (fun _ -> ()) with
  | Shard.Committed [] -> ()
  | _ -> Alcotest.fail "empty transaction must commit with no refs");
  let tx = Shard.txn sh in
  Shard.stage_add tx ~key:1 ~init:(kv_init 1 1);
  Shard.abort tx;
  check Alcotest.int "abort leaves no trace" 0 (Shard.count sh);
  Alcotest.check_raises "staging on a finished txn rejected"
    (Invalid_argument "Shard.stage_add: transaction already committed or aborted") (fun () ->
      Shard.stage_add tx ~key:2 ~init:(kv_init 2 2));
  no_violations "lifecycle audit" sh;
  (match Shard.txn (make ~mode:Context.Direct ()) with
  | (_ : Shard.txn) -> Alcotest.fail "direct-mode shards must refuse to open a transaction"
  | exception Invalid_argument _ -> ())

(* A sharded transaction reads each shard's conflict frontier when it
   opens, so a bare store landing after its staging wins, as it does
   against a collection transaction. *)
let test_stage_then_bare_store_conflicts () =
  let sh = make ~shards:3 () in
  let r = add sh 1 10 in
  let tx = Shard.txn sh in
  Shard.stage_store tx r ~word:fv.Layout.word ~value:20;
  Shard.store sh r ~word:fv.Layout.word ~value:30;
  check Alcotest.bool "commit conflicts" true (Shard.commit tx = Shard.Conflict);
  check pairs "the bare store survives" [ (1, 30) ] (dump sh);
  no_violations "isolation audit" sh

(* ------------------------------------------------------------------ *)
(* Consistent views *)

let count_via_view sh view =
  let src = Shard.source ~view sh ~columns in
  let n = ref 0 in
  src.Q.Source.scan (fun _ -> incr n);
  !n

let test_view_consistency () =
  let sh = make ~shards:3 () in
  let ks = keys_on_distinct_shards sh 3 in
  ignore (add sh 1000 0 : Shard.sref);
  Shard.with_view sh (fun view ->
      check Alcotest.int "view sees the pre-commit state" 1 (count_via_view sh view);
      (match
         Shard.transact sh (fun tx ->
             List.iter (fun k -> Shard.stage_add tx ~key:k ~init:(kv_init k k)) ks)
       with
      | Shard.Committed _ -> ()
      | Shard.Conflict -> Alcotest.fail "unexpected conflict");
      (* The pinned view must see none of the cross-shard commit... *)
      check Alcotest.int "open view sees none of the new rows" 1 (count_via_view sh view);
      (* ...while a fresh frontier vector sees all of it. *)
      Shard.with_view sh (fun fresh ->
          check Alcotest.int "fresh view sees all of them" 4 (count_via_view sh fresh)));
  no_violations "view audit" sh

(* ------------------------------------------------------------------ *)
(* Concurrency *)

let read_v sh r =
  C.with_read (Shard.collection sh (Shard.sref_shard r)) (fun () ->
      match Shard.deref_opt sh r with
      | Some (blk, slot) -> Smc.Field.get_int fv blk slot
      | None -> Alcotest.fail "transfer row vanished")

(* Two domains move amounts between rows on different shards, each transfer
   one sharded transaction that reads both rows after it opens and retries
   on Conflict; a third checks that every consistent view sees the same
   total. A lost update breaks the total. *)
let test_concurrent_transfers () =
  let sh = make ~shards:4 () in
  let rows = Array.of_list (List.map (fun k -> add sh k 1000) (keys_on_distinct_shards sh 4)) in
  let n = Array.length rows in
  let total = 1000 * n in
  let transfers = 5000 in
  (* All three domains start together, so the writers overlap. *)
  let waiting = Atomic.make 3 and writers_left = Atomic.make 2 in
  let start () =
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do
      Domain.cpu_relax ()
    done
  in
  let writer seed () =
    let prng = Smc_util.Prng.create ~seed () in
    start ();
    for _ = 1 to transfers do
      let i = Smc_util.Prng.int prng n in
      let j = (i + 1 + Smc_util.Prng.int prng (n - 1)) mod n in
      let amount = 1 + Smc_util.Prng.int prng 10 in
      let rec attempt () =
        let tx = Shard.txn sh in
        let vi = read_v sh rows.(i) and vj = read_v sh rows.(j) in
        Shard.stage_store tx rows.(i) ~word:fv.Layout.word ~value:(vi - amount);
        Shard.stage_store tx rows.(j) ~word:fv.Layout.word ~value:(vj + amount);
        match Shard.commit tx with Shard.Committed _ -> () | Shard.Conflict -> attempt ()
      in
      attempt ()
    done;
    Atomic.decr writers_left
  in
  let reader () =
    let views = ref 0 and bad = ref [] in
    start ();
    while Atomic.get writers_left > 0 || !views = 0 do
      Shard.with_view sh (fun view ->
          let sum = ref 0 in
          (Shard.source ~view sh ~columns).Q.Source.scan (fun row ->
              match row.(1) with V.Int v -> sum := !sum + v | _ -> ());
          if !sum <> total then bad := !sum :: !bad);
      incr views
    done;
    !bad
  in
  let ws = [ Domain.spawn (writer 11L); Domain.spawn (writer 23L) ] in
  let r = Domain.spawn reader in
  List.iter Domain.join ws;
  check Alcotest.(list int) "every view saw the same total" [] (Domain.join r);
  check Alcotest.int "live total conserved" total
    (List.fold_left (fun acc (_, v) -> acc + v) 0 (dump sh));
  no_violations "transfer audit" sh

(* ------------------------------------------------------------------ *)
(* Per-shard persistence *)

let test_wal_crash_recovery () =
  let sh = make ~shards:3 () in
  let dir = tmp_dir () in
  let wals = Shard.attach_wals ~sync:Wal.Always sh ~dir in
  check Alcotest.int "one WAL per shard" 3 (Array.length wals);
  for k = 0 to 39 do
    ignore (add sh k k : Shard.sref)
  done;
  let manifests = Shard.snapshot sh ~dir in
  check Alcotest.int "one snapshot per shard" 3 (Array.length manifests);
  (* Post-cut history: bare ops and a cross-shard transaction, living only
     in the per-shard WAL tails. *)
  let r40 = add sh 40 40 in
  Shard.store sh r40 ~word:fv.Layout.word ~value:41;
  ignore (Shard.remove sh r40 : bool);
  (match
     Shard.transact sh (fun tx ->
         List.iter
           (fun k -> Shard.stage_add tx ~key:k ~init:(kv_init k (2 * k)))
           (keys_on_distinct_shards sh 3))
   with
  | Shard.Committed _ -> ()
  | Shard.Conflict -> Alcotest.fail "unexpected conflict");
  Array.iter Wal.flush wals;
  let live = dump sh in
  (* Recover from the files alone — the live sharding is the model. *)
  let r = Shard.restore ~dir ~name:"kv" ~shards:3 () in
  check pairs "recovered state equals the live model" live (dump r.Shard.r_shard);
  check Alcotest.bool "WAL tails replayed" true (r.Shard.r_replayed > 0);
  check Alcotest.int "no torn records on a clean flush" 0 r.Shard.r_torn_dropped;
  no_violations "recovered audit" r.Shard.r_shard;
  Array.iter Wal.close wals

let test_wal_torn_tail () =
  let sh = make ~shards:3 () in
  let dir = tmp_dir () in
  let wals = Shard.attach_wals ~sync:Wal.Always sh ~dir in
  for k = 0 to 19 do
    ignore (add sh k k : Shard.sref)
  done;
  ignore (Shard.snapshot sh ~dir : (Smc_persist.Snapshot.manifest * int) array);
  let expected = dump sh in
  (* One post-cut add, then tear its log record: recovery must drop the
     torn tail on that shard and keep every other shard intact. *)
  let k = 1_000 in
  let s = Shard.shard_of sh ~key:k in
  ignore (add sh k k : Shard.sref);
  Array.iter Wal.flush wals;
  let path = Filename.concat dir (Printf.sprintf "kv.%d.wal" s) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  let r = Shard.restore ~dir ~name:"kv" ~shards:3 () in
  check pairs "torn record dropped, rest intact" expected (dump r.Shard.r_shard);
  check Alcotest.bool "torn tail counted" true (r.Shard.r_torn_dropped > 0);
  Array.iter Wal.close wals

let test_restore_without_wals () =
  let sh = make ~shards:2 () in
  let dir = tmp_dir () in
  for k = 0 to 9 do
    ignore (add sh k (3 * k) : Shard.sref)
  done;
  ignore (Shard.snapshot sh ~dir : (Smc_persist.Snapshot.manifest * int) array);
  let r = Shard.restore ~dir ~name:"kv" ~shards:2 () in
  check pairs "snapshot-only restore" (dump sh) (dump r.Shard.r_shard);
  check Alcotest.int "nothing replayed" 0 r.Shard.r_replayed

(* ------------------------------------------------------------------ *)
(* Stress: randomized mixed operations diffed against a model *)

let test_stress_round () =
  let sh = make ~shards:4 () in
  let prng = Smc_util.Prng.create ~seed:7L () in
  (* model: key -> (value, ref); keys are unique by construction *)
  let model = Hashtbl.create 64 in
  let next_key = ref 0 in
  let fresh_key () =
    let k = !next_key in
    incr next_key;
    k
  in
  let random_live () =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
    match keys with
    | [] -> None
    | ks -> Some (List.nth ks (Smc_util.Prng.int prng (List.length ks)))
  in
  for _ = 1 to 600 do
    match Smc_util.Prng.int prng 5 with
    | 0 | 1 ->
      let k = fresh_key () in
      let r = add sh k k in
      Hashtbl.replace model k (k, r)
    | 2 -> (
      match random_live () with
      | Some k ->
        let _, r = Hashtbl.find model k in
        check Alcotest.bool "stress remove" true (Shard.remove sh r);
        Hashtbl.remove model k
      | None -> ())
    | 3 -> (
      match random_live () with
      | Some k ->
        let _, r = Hashtbl.find model k in
        let v = Smc_util.Prng.int prng 1000 in
        Shard.store sh r ~word:fv.Layout.word ~value:v;
        Hashtbl.replace model k (v, r)
      | None -> ())
    | _ ->
      (* a cross-shard transactional batch of adds *)
      let ks = List.init (1 + Smc_util.Prng.int prng 4) (fun _ -> fresh_key ()) in
      (match
         Shard.transact sh (fun tx ->
             List.iter (fun k -> Shard.stage_add tx ~key:k ~init:(kv_init k (k + 7))) ks)
       with
      | Shard.Committed refs ->
        List.iter2 (fun k r -> Hashtbl.replace model k (k + 7, r)) ks refs
      | Shard.Conflict -> Alcotest.fail "unexpected stress conflict")
  done;
  let expected =
    Hashtbl.fold (fun k (v, _) acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  check pairs "stress state matches the model" expected (dump sh);
  ignore (Shard.compact sh () : Compaction.report array);
  check pairs "state survives compaction" expected (dump sh);
  no_violations "stress audit" sh

(* ------------------------------------------------------------------ *)
(* The serving front-end *)

let tmp_sock () =
  let p = Filename.temp_file "smc_srv" ".sock" in
  Sys.remove p;
  p

let test_server_round_trip () =
  let sh = Server.kv_shard ~shards:2 () in
  let path = tmp_sock () in
  let srv = Server.start ~path sh in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Client.connect ~path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          check Alcotest.bool "ping" true (Client.request c Wire.Ping = Wire.Ok_unit);
          let refs =
            match Client.request c (Wire.Txn_put [ (1, 10); (2, 20); (3, 30) ]) with
            | Wire.Ok_refs refs -> refs
            | _ -> Alcotest.fail "txn_put did not return refs"
          in
          check Alcotest.int "three refs" 3 (List.length refs);
          List.iteri
            (fun i (shard, packed) ->
              match Client.request c (Wire.Get { shard; packed }) with
              | Wire.Ok_pair (k, v) ->
                check Alcotest.int "key round-trips" (i + 1) k;
                check Alcotest.int "value round-trips" (10 * (i + 1)) v
              | _ -> Alcotest.fail "get failed")
            refs;
          (match Client.request c (Wire.Add { key = 4; value = 40 }) with
          | Wire.Ok_pair (shard, packed) -> (
            check Alcotest.int "add routed like shard_of" (Shard.shard_of sh ~key:4) shard;
            match Client.request c (Wire.Store { shard; packed; value = 41 }) with
            | Wire.Ok_unit -> ()
            | _ -> Alcotest.fail "store failed")
          | _ -> Alcotest.fail "add failed");
          check Alcotest.bool "count" true (Client.request c Wire.Count = Wire.Ok_int 4);
          check Alcotest.bool "sum" true (Client.request c Wire.Sum = Wire.Ok_int 101);
          let shard, packed = List.hd refs in
          check Alcotest.bool "remove" true
            (Client.request c (Wire.Remove { shard; packed }) = Wire.Ok_int 1);
          (match Client.request c (Wire.Get { shard; packed }) with
          | Wire.Err _ -> ()
          | _ -> Alcotest.fail "removed row still readable");
          (match Client.request c (Wire.Get { shard = 99; packed }) with
          | Wire.Err _ -> ()
          | _ -> Alcotest.fail "out-of-range shard not rejected")));
  check Alcotest.(list string) "server counter balances" []
    (Smc_check.Obs_check.check_shard (Shard.obs sh));
  check Alcotest.bool "requests answered" true
    (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_srv_requests > 0)

let test_server_sheds_over_cap () =
  let sh = Server.kv_shard ~shards:2 () in
  let path = tmp_sock () in
  (* cap 0: every request is over the cap, so the shed path is exercised
     deterministically — frames still flow, shards are never touched *)
  let srv = Server.start ~max_inflight:0 ~path sh in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Client.connect ~path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for _ = 1 to 5 do
            check Alcotest.bool "shed frame" true
              (Client.request c (Wire.Add { key = 1; value = 1 }) = Wire.Shed)
          done));
  check Alcotest.int "nothing reached the shards" 0 (Shard.count sh);
  check Alcotest.int "sheds counted" 5 (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_srv_shed);
  check Alcotest.(list string) "balances still hold" []
    (Smc_check.Obs_check.check_shard (Shard.obs sh))

let test_server_malformed_frame () =
  let sh = Server.kv_shard ~shards:2 () in
  let path = tmp_sock () in
  let srv = Server.start ~path sh in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Wire.write_frame fd (Bytes.of_string "\255garbage");
          (match Wire.read_frame fd with
          | Some payload -> (
            match Wire.decode_reply payload with
            | Wire.Err msg ->
              check Alcotest.bool "explicit protocol error" true
                (String.length msg >= 14 && String.sub msg 0 14 = "protocol error")
            | _ -> Alcotest.fail "malformed frame must answer Err")
          | None -> Alcotest.fail "connection closed instead of answering");
          (* the connection survives a bad frame *)
          Wire.write_frame fd (Wire.encode_request Wire.Ping);
          match Wire.read_frame fd with
          | Some payload ->
            check Alcotest.bool "ping after bad frame" true (Wire.decode_reply payload = Wire.Ok_unit)
          | None -> Alcotest.fail "connection did not survive the bad frame"));
  check Alcotest.(list string) "balances include the error" []
    (Smc_check.Obs_check.check_shard (Shard.obs sh));
  check Alcotest.bool "error counted" true
    (Smc_obs.get (Smc_obs.snapshot (Shard.obs sh)) Smc_obs.c_srv_errors > 0)

let test_server_stop_survives_unlinked_socket () =
  (* A parked accept(2) is not woken by close(2); stop pokes the acceptor
     with a throwaway connection, but if the socket path was unlinked or
     replaced externally that connect misses the live listener — the
     listener shutdown(2) must then unblock it, or stop hangs forever. *)
  let sh = Server.kv_shard ~shards:2 () in
  let path = tmp_sock () in
  let srv = Server.start ~path sh in
  Unix.sleepf 0.05 (* let the acceptor park in accept(2) *);
  Sys.remove path;
  Server.stop srv;
  check Alcotest.bool "stop returned" true true

(* ------------------------------------------------------------------ *)

let () =
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "shard"
    [
      ( "routing",
        [
          qc "routed add/get/store/remove" test_routing_basic;
          qc "single shard degenerates cleanly" test_single_shard_degenerate;
        ] );
      ( "parity",
        [
          qc "four engines vs unsharded (row/indirect)" test_parity_default;
          qc "four engines vs unsharded (columnar)" test_parity_columnar;
          qc "four engines vs unsharded (direct mode)" test_parity_direct;
        ] );
      ( "2pc",
        [
          qc "cross-shard commit is atomic" test_cross_shard_commit;
          qc "conflict on one shard aborts all" test_cross_shard_conflict_aborts_all;
          qc "cross-shard remove + store" test_cross_shard_remove_store;
          qc "empty txn, abort, finished txn rejected" test_txn_lifecycle;
        ] );
      ("txn", [ qc "a bare store after staging conflicts" test_stage_then_bare_store_conflicts ]);
      ("views", [ qc "cross-shard commit is all-or-nothing to views" test_view_consistency ]);
      ("domains", [ qc "transfers conserve the total" test_concurrent_transfers ]);
      ( "persist",
        [
          qc "per-shard WAL crash recovery" test_wal_crash_recovery;
          qc "torn tail dropped on one shard only" test_wal_torn_tail;
          qc "snapshot-only restore" test_restore_without_wals;
        ] );
      ("stress", [ qc "randomized mixed ops vs model" test_stress_round ]);
      ( "server",
        [
          qc "round trip over the wire" test_server_round_trip;
          qc "admission control sheds over the cap" test_server_sheds_over_cap;
          qc "malformed frame answers Err, connection survives" test_server_malformed_frame;
          qc "stop survives an externally unlinked socket" test_server_stop_survives_unlinked_socket;
        ] );
    ]
