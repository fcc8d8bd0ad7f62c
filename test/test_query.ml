(* Tests for the generic query engine: Volcano interpreter vs fused
   pipelines must agree on every plan shape; expressions evaluate per SQL
   semantics. *)

open Smc_query

let check = Alcotest.check

let people_rows =
  [|
    [| Value.Int 1; Value.Str "alice"; Value.Int 30; Value.Dec (Smc_decimal.Decimal.of_int 10) |];
    [| Value.Int 2; Value.Str "bob"; Value.Int 25; Value.Dec (Smc_decimal.Decimal.of_int 20) |];
    [| Value.Int 3; Value.Str "carol"; Value.Int 35; Value.Dec (Smc_decimal.Decimal.of_int 30) |];
    [| Value.Int 4; Value.Str "dan"; Value.Int 25; Value.Dec (Smc_decimal.Decimal.of_int 40) |];
  |]

let people () =
  Source.of_array ~name:"people" ~schema:[ "id"; "name"; "age"; "balance" ] people_rows

let orders_rows =
  [|
    [| Value.Int 100; Value.Int 1; Value.Dec (Smc_decimal.Decimal.of_int 5) |];
    [| Value.Int 101; Value.Int 1; Value.Dec (Smc_decimal.Decimal.of_int 7) |];
    [| Value.Int 102; Value.Int 3; Value.Dec (Smc_decimal.Decimal.of_int 9) |];
    [| Value.Int 103; Value.Int 9; Value.Dec (Smc_decimal.Decimal.of_int 11) |];
  |]

let orders () =
  Source.of_array ~name:"orders" ~schema:[ "oid"; "person_id"; "total" ] orders_rows

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

let both_engines plan = (Interp.collect plan, Fuse.collect plan)

let check_agreement name plan =
  let volcano, fused = both_engines plan in
  check rows_testable (name ^ ": engines agree") volcano fused;
  volcano

let test_scan () =
  let rows = check_agreement "scan" (Plan.scan (people ())) in
  check Alcotest.int "all rows" 4 (List.length rows)

let test_where () =
  let plan = Plan.(where Expr.(Eq (Col "age", int 25)) (scan (people ()))) in
  let rows = check_agreement "where" plan in
  check Alcotest.int "two 25-year-olds" 2 (List.length rows)

let test_select () =
  let plan =
    Plan.(
      select
        [ ("n", Expr.Col "name"); ("double_age", Expr.(Mul (Col "age", int 2))) ]
        (scan (people ())))
  in
  let rows = check_agreement "select" plan in
  (match rows with
  | [| Value.Str "alice"; Value.Int 60 |] :: _ -> ()
  | _ -> Alcotest.fail "unexpected first row");
  check (Alcotest.array Alcotest.string) "schema" [| "n"; "double_age" |] (Plan.schema plan)

let test_join () =
  let plan =
    Plan.(join ~on:[ ("person_id", "id") ] (scan (orders ())) (scan (people ())))
  in
  let rows = check_agreement "join" plan in
  (* order 103 has no matching person: inner join drops it *)
  check Alcotest.int "three joined rows" 3 (List.length rows);
  check Alcotest.int "combined width" 7 (Array.length (List.hd rows))

let test_group_by () =
  let plan =
    Plan.(
      group_by
        ~keys:[ ("age", Expr.Col "age") ]
        ~aggs:
          [
            ("n", Count);
            ("total_balance", Sum (Expr.Col "balance"));
            ("min_id", Min (Expr.Col "id"));
            ("max_id", Max (Expr.Col "id"));
            ("avg_balance", Avg (Expr.Col "balance"));
          ]
        (scan (people ())))
  in
  let rows = check_agreement "group_by" plan in
  check Alcotest.int "three age groups" 3 (List.length rows);
  let row25 =
    List.find (fun row -> Value.equal row.(0) (Value.Int 25)) rows
  in
  check Alcotest.bool "count" true (Value.equal row25.(1) (Value.Int 2));
  check Alcotest.bool "sum" true
    (Value.equal row25.(2) (Value.Dec (Smc_decimal.Decimal.of_int 60)));
  check Alcotest.bool "avg" true
    (Value.equal row25.(5) (Value.Dec (Smc_decimal.Decimal.of_int 30)))

let test_order_by_limit () =
  let plan =
    Plan.(limit 2 (order_by [ (Expr.Col "age", Desc) ] (scan (people ()))))
  in
  let rows = check_agreement "order_by+limit" plan in
  check Alcotest.int "limit 2" 2 (List.length rows);
  match rows with
  | [ a; b ] ->
    check Alcotest.bool "carol first" true (Value.equal a.(1) (Value.Str "carol"));
    check Alcotest.bool "alice second" true (Value.equal b.(1) (Value.Str "alice"))
  | _ -> Alcotest.fail "expected two rows"

let test_join_multi_key_and_duplicates () =
  (* Multiple build rows per key and a two-column key. *)
  let left =
    Source.of_array ~name:"l" ~schema:[ "a"; "b" ]
      [| [| Value.Int 1; Value.Int 10 |]; [| Value.Int 2; Value.Int 20 |] |]
  in
  let right =
    Source.of_array ~name:"r" ~schema:[ "c"; "d"; "tag" ]
      [|
        [| Value.Int 1; Value.Int 10; Value.Str "x" |];
        [| Value.Int 1; Value.Int 10; Value.Str "y" |];
        [| Value.Int 2; Value.Int 99; Value.Str "z" |];
      |]
  in
  let plan = Plan.(join ~on:[ ("a", "c"); ("b", "d") ] (scan left) (scan right)) in
  let rows = check_agreement "multi-key join" plan in
  (* key (1,10) matches twice; (2,20) matches nothing *)
  check Alcotest.int "fanout" 2 (List.length rows)

let test_empty_inputs () =
  let empty = Source.of_array ~name:"e" ~schema:[ "x" ] [||] in
  check Alcotest.int "empty scan" 0 (List.length (check_agreement "empty" (Plan.scan empty)));
  let agg =
    Plan.(group_by ~keys:[] ~aggs:[ ("n", Count); ("s", Sum (Expr.Col "x")) ] (scan empty))
  in
  (* group-by over an empty input produces no groups (SQL semantics with
     GROUP BY (); here: no rows at all) *)
  check Alcotest.int "empty aggregation" 0 (List.length (check_agreement "empty agg" agg));
  let joined = Plan.(join ~on:[ ("x", "x2") ]
                       (scan empty)
                       (scan (Source.of_array ~name:"e2" ~schema:[ "x2" ] [| [| Value.Int 1 |] |]))) in
  check Alcotest.int "join with empty side" 0 (List.length (check_agreement "empty join" joined))

let test_distinct () =
  let dup_rows =
    Source.of_array ~name:"dups" ~schema:[ "x" ]
      [| [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 1 |]; [| Value.Int 3 |];
         [| Value.Int 2 |] |]
  in
  let plan = Plan.(distinct (scan dup_rows)) in
  let rows = check_agreement "distinct" plan in
  check Alcotest.int "three distinct" 3 (List.length rows);
  (* first-occurrence order preserved *)
  check Alcotest.bool "order" true
    (List.map (fun r -> r.(0)) rows = [ Value.Int 1; Value.Int 2; Value.Int 3 ])

let test_expr_semantics () =
  let schema = [| "x"; "s" |] in
  let row = [| Value.Dec (Smc_decimal.Decimal.of_string "2.50"); Value.Str "BRASS NICKEL" |] in
  let eval e = Expr.compile ~schema e row in
  check Alcotest.bool "between" true
    (Value.to_bool (eval Expr.(Between (Col "x", dec "2.00", dec "3.00"))));
  check Alcotest.bool "contains" true (Value.to_bool (eval Expr.(Contains (Col "s", "NICK"))));
  check Alcotest.bool "starts_with" true
    (Value.to_bool (eval Expr.(StartsWith (Col "s", "BRASS"))));
  check Alcotest.bool "mixed arith" true
    (Value.equal
       (eval Expr.(Mul (Col "x", int 2)))
       (Value.Dec (Smc_decimal.Decimal.of_int 5)));
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Expr.compile: unknown column nope") (fun () ->
      ignore (Expr.compile ~schema (Expr.Col "nope") : Value.t array -> Value.t))

let test_source_of_smc () =
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"kv" [ ("k", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Dec) ]
  in
  let coll = Smc.Collection.create rt ~name:"kv" ~layout () in
  let fk = Smc.Field.int layout "k" and fv = Smc.Field.dec layout "v" in
  for i = 1 to 10 do
    ignore
      (Smc.Collection.add coll ~init:(fun blk slot ->
           Smc.Field.set_int fk blk slot i;
           Smc.Field.set_dec fv blk slot (Smc_decimal.Decimal.of_int (i * i)))
        : Smc.Ref.t)
  done;
  let src =
    Source.of_smc coll
      ~columns:[ ("k", Source.C_int fk); ("v", Source.C_dec fv) ]
  in
  let plan =
    Plan.(
      group_by ~keys:[] ~aggs:[ ("total", Sum (Expr.Col "v")) ]
        (where Expr.(Gt (Col "k", int 5)) (scan src)))
  in
  let rows = check_agreement "smc source" plan in
  match rows with
  | [ [| total |] ] ->
    (* 36+49+64+81+100 = 330 *)
    check Alcotest.bool "sum of squares" true
      (Value.equal total (Value.Dec (Smc_decimal.Decimal.of_int 330)))
  | _ -> Alcotest.fail "expected a single aggregate row"

(* ---- secondary indexes: transparency and slot recycling ------------- *)

module H = Smc_index.Hash_index

let mk_ikv n =
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"ikv"
      [ ("k", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Int) ]
  in
  let coll = Smc.Collection.create rt ~name:"ikv" ~layout () in
  let fk = Smc.Field.int layout "k" and fv = Smc.Field.int layout "v" in
  let refs =
    Array.init n (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot i;
            Smc.Field.set_int fv blk slot (i * 7)))
  in
  (coll, fk, fv, refs)

let ikv_columns fk fv = [ ("k", Source.C_int fk); ("v", Source.C_int fv) ]

let sorted_rows rows = List.sort Stdlib.compare rows

let test_index_transparency () =
  (* Every plan shape the planner can rewrite must return exactly the
     rows of the unrewritten plan, in both engines, whether the source
     carries indexes or not. Rewrites preserve the bag, not the order,
     so compare sorted. *)
  let coll, fk, fv, _refs = mk_ikv 64 in
  let ix = H.attach ~name:"ikv_by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  let plain = Source.of_smc coll ~columns:(ikv_columns fk fv) in
  let indexed = Source.of_smc coll ~indexes:[ ("k", ix) ] ~columns:(ikv_columns fk fv) in
  let probe_side () =
    Source.of_array ~name:"wanted" ~schema:[ "wk" ]
      (Array.init 8 (fun i -> [| Value.Int (i * 9) |]))
  in
  let shapes src =
    [
      ("point", Plan.(where Expr.(Eq (Col "k", int 17)) (scan src)));
      ( "residual",
        Plan.(
          where Expr.(And (Eq (Col "k", int 17), Gt (Col "v", int 0))) (scan src)) );
      ("join", Plan.(join ~on:[ ("wk", "k") ] (scan (probe_side ())) (scan src)));
    ]
  in
  List.iter2
    (fun (name, p_plain) (_, p_idx) ->
      let rewritten = Planner.choose_access_paths p_idx in
      check Alcotest.bool (name ^ ": rewrite picked an index") true
        (Planner.uses_index rewritten);
      check Alcotest.bool (name ^ ": no index without indexes on source") false
        (Planner.uses_index (Planner.choose_access_paths p_plain));
      let expect = sorted_rows (Interp.collect p_plain) in
      check rows_testable (name ^ ": volcano, indexed") expect
        (sorted_rows (Interp.collect rewritten));
      check rows_testable (name ^ ": fused, indexed") expect
        (sorted_rows (Fuse.collect rewritten));
      check rows_testable (name ^ ": fused, detached") expect
        (sorted_rows (Fuse.collect p_plain)))
    (shapes plain) (shapes indexed);
  check (Alcotest.list Alcotest.string) "index audit clean" [] (H.audit ix)

let test_index_slot_recycling () =
  (* Remove a third of the rows, probe the removed keys (must miss —
     stale entries never resurrect), re-add the keys with fresh payloads
     into recycled slots, and verify probes now see exactly the new row. *)
  let coll, fk, fv, refs = mk_ikv 60 in
  let ix = H.attach ~name:"ikv_by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  let src = Source.of_smc coll ~indexes:[ ("k", ix) ] ~columns:(ikv_columns fk fv) in
  let probe_plan k =
    Planner.choose_access_paths Plan.(where Expr.(Eq (Col "k", int k)) (scan src))
  in
  let removed = ref [] in
  Array.iteri
    (fun i r ->
      if i mod 3 = 0 then begin
        check Alcotest.bool "remove succeeded" true (Smc.Collection.remove coll r);
        removed := i :: !removed
      end)
    refs;
  List.iter
    (fun k ->
      check Alcotest.bool (Printf.sprintf "removed key %d: contains misses" k) false
        (H.contains ix (H.K_int k));
      check Alcotest.int (Printf.sprintf "removed key %d: plan yields no rows" k) 0
        (List.length (Fuse.collect (probe_plan k))))
    !removed;
  List.iter
    (fun k ->
      ignore
        (Smc.Collection.add coll ~init:(fun blk slot ->
             Smc.Field.set_int fk blk slot k;
             Smc.Field.set_int fv blk slot (k * 1000))
          : Smc.Ref.t))
    !removed;
  List.iter
    (fun k ->
      match Interp.collect (probe_plan k) with
      | [ [| Value.Int k'; Value.Int v |] ] ->
        check Alcotest.int (Printf.sprintf "key %d re-added" k) k k';
        check Alcotest.int (Printf.sprintf "key %d sees fresh payload" k) (k * 1000) v
      | rows ->
        Alcotest.fail
          (Printf.sprintf "key %d: expected exactly one fresh row, got %d" k
             (List.length rows)))
    !removed;
  H.sweep ix;
  check (Alcotest.list Alcotest.string) "audit clean after churn" [] (H.audit ix)

let test_index_attach_detach () =
  let coll, fk, _fv, _refs = mk_ikv 8 in
  let ix = H.attach ~name:"by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  check (Alcotest.list Alcotest.string) "registered" [ "by_k" ]
    (Smc.Collection.subscribers coll);
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument
       "Collection.subscribe: subscriber \"by_k\" already attached to \"ikv\"")
    (fun () ->
      ignore (H.attach ~name:"by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll : H.t));
  H.detach ix;
  check (Alcotest.list Alcotest.string) "deregistered" []
    (Smc.Collection.subscribers coll);
  (* after detach the name is free again *)
  let ix2 = H.attach ~name:"by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  check Alcotest.bool "re-attached index answers probes" true
    (H.contains ix2 (H.K_int 3))

let test_source_rejects_mispaired_index () =
  (* of_smc validates the (column, index) association at construction: an
     index attached to another collection, or declared on a column the
     source does not expose, would otherwise silently answer queries from
     the wrong rows. *)
  let coll_a, fk_a, fv_a, _refs = mk_ikv 4 in
  let ix_a = H.attach ~name:"a_by_k" ~key:(H.Int_key (Smc.Field.get_int fk_a)) coll_a in
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"other"
      [ ("k", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Int) ]
  in
  let other = Smc.Collection.create rt ~name:"other" ~layout () in
  Alcotest.check_raises "foreign collection rejected"
    (Invalid_argument
       "Source.of_smc: index \"a_by_k\" is attached to collection \"ikv\", not \"other\"")
    (fun () ->
      ignore
        (Source.of_smc other ~indexes:[ ("k", ix_a) ] ~columns:(ikv_columns fk_a fv_a)
          : Source.t));
  Alcotest.check_raises "unknown column rejected"
    (Invalid_argument
       "Source.of_smc: index \"a_by_k\" declared on column \"nope\", which is not in the source schema")
    (fun () ->
      ignore
        (Source.of_smc coll_a ~indexes:[ ("nope", ix_a) ] ~columns:(ikv_columns fk_a fv_a)
          : Source.t))

let test_index_join_key_semantics () =
  (* A planner-chosen IndexJoin must match exactly what the HashJoin it
     replaces matches: structural equality on the key value. Key words
     alias across types (Date d is the day-number int d), and Null left
     keys are unindexable — neither may change the result through the
     index path. *)
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"events"
      [ ("d", Smc_offheap.Layout.Int); ("v", Smc_offheap.Layout.Int) ]
  in
  let coll = Smc.Collection.create rt ~name:"events" ~layout () in
  let fd = Smc.Field.int layout "d" and fv = Smc.Field.int layout "v" in
  for i = 0 to 15 do
    ignore
      (Smc.Collection.add coll ~init:(fun blk slot ->
           Smc.Field.set_int fd blk slot i;
           Smc.Field.set_int fv blk slot (i * 10))
        : Smc.Ref.t)
  done;
  let ix = H.attach ~name:"events_by_d" ~key:(H.Int_key (Smc.Field.get_int fd)) coll in
  let columns = [ ("d", Source.C_date fd); ("v", Source.C_int fv) ] in
  let src = Source.of_smc coll ~indexes:[ ("d", ix) ] ~columns in
  let left =
    Source.of_array ~name:"keys" ~schema:[ "ld" ]
      [| [| Value.Date 5 |]; [| Value.Int 5 |]; [| Value.Null |] |]
  in
  let plan = Plan.(join ~on:[ ("ld", "d") ] (scan left) (scan src)) in
  let rewritten = Planner.choose_access_paths plan in
  check Alcotest.bool "join rewrote to IndexJoin" true (Planner.uses_index rewritten);
  let expect = sorted_rows (Interp.collect plan) in
  check Alcotest.int "hash join matches only the exactly-typed key" 1 (List.length expect);
  check rows_testable "volcano index join agrees" expect
    (sorted_rows (Interp.collect rewritten));
  check rows_testable "fused index join agrees" expect
    (sorted_rows (Fuse.collect rewritten));
  check rows_testable "vectorized index join agrees" expect
    (sorted_rows (Vector.collect rewritten));
  (* the point-probe path re-checks types too: an Int constant shares the
     date-keyed index's key word but not the column value *)
  check Alcotest.int "index_scan Date const hits" 1
    (List.length (Fuse.collect (Plan.index_scan src ~column:"d" ~value:(Value.Date 5))));
  check Alcotest.int "index_scan Int const misses despite aliased key word" 0
    (List.length (Fuse.collect (Plan.index_scan src ~column:"d" ~value:(Value.Int 5))))

let test_index_rebuild_probe_race () =
  (* Regression: rebuild must fully populate the fresh store before
     publishing it. A lock-free probe racing the swap snapshots either the
     old store or the complete new one; a key live throughout must never
     read as absent. *)
  let coll, fk, _fv, _refs = mk_ikv 4096 in
  let ix = H.attach ~name:"ikv_by_k" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  let stop = Atomic.make false in
  let misses = Atomic.make 0 in
  let prober =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if not (H.contains ix (H.K_int 17)) then Atomic.incr misses
        done)
  in
  for _ = 1 to 200 do
    H.rebuild ix
  done;
  Atomic.set stop true;
  Domain.join prober;
  check Alcotest.int "no probe missed a continuously-live key across rebuilds" 0
    (Atomic.get misses);
  check (Alcotest.list Alcotest.string) "audit clean after rebuild storm" [] (H.audit ix)

let test_plan_validation () =
  (* Satellite: plans fail fast at construction, not at execution. *)
  let p = people () in
  Alcotest.check_raises "where: unknown column"
    (Invalid_argument
       "Plan.Where: unknown column \"nope\" (input columns: id, name, age, balance)")
    (fun () -> ignore (Plan.(where Expr.(Eq (Col "nope", int 1)) (scan p)) : Plan.t));
  Alcotest.check_raises "select: unknown column"
    (Invalid_argument
       "Plan.Select: unknown column \"missing\" (input columns: id, name, age, balance)")
    (fun () -> ignore (Plan.(select [ ("m", Expr.Col "missing") ] (scan p)) : Plan.t));
  Alcotest.check_raises "join: unknown right key"
    (Invalid_argument
       "Plan.HashJoin(right): unknown column \"wrong\" (input columns: id, name, age, balance)")
    (fun () ->
      ignore
        (Plan.(join ~on:[ ("person_id", "wrong") ] (scan (orders ())) (scan (people ())))
          : Plan.t));
  Alcotest.check_raises "index_scan: no such index"
    (Invalid_argument "Plan.index_scan: source people has no index on column \"id\"")
    (fun () ->
      ignore (Plan.index_scan (people ()) ~column:"id" ~value:(Value.Int 1) : Plan.t))

let test_codegen_renders () =
  let plan =
    Plan.(
      group_by
        ~keys:[ ("age", Expr.Col "age") ]
        ~aggs:[ ("n", Count) ]
        (where Expr.(Gt (Col "age", int 17)) (scan (people ()))))
  in
  let src = Codegen.to_ocaml_source plan in
  let contains needle =
    let n = String.length needle and h = String.length src in
    let rec go i = i + n <= h && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "emits a loadable plugin" true
    (String.length src > 0 && contains "let query" && contains "Codegen_abi.register");
  check Alcotest.bool "predicate is inlined, not a closure chain" true
    (contains "V.compare" && contains "K.id_of_boxed");
  check Alcotest.int "operator count" 3 (Codegen.operator_count plan);
  (* on a native host the compiled path must execute — not just render —
     and agree with the interpreter bit for bit; a native host that cannot
     compile fails below with the reason instead of skipping *)
  if Dynlink.is_native then begin
    let runner, outcome = Codegen.prepare plan in
    (match outcome with
    | Codegen.Native _ -> ()
    | Codegen.Fallback reason -> Alcotest.fail ("expected native execution: " ^ reason));
    let out = ref [] in
    runner (fun row -> out := row :: !out);
    check rows_testable "compiled = volcano" (Interp.collect plan) (List.rev !out);
    (* second prepare of the same shape must hit the plugin cache *)
    (match snd (Codegen.prepare plan) with
    | Codegen.Native _ -> ()
    | Codegen.Fallback reason -> Alcotest.fail ("expected cache hit: " ^ reason))
  end;
  (* IndexJoin is the documented fallback: executed by Fuse, never wrong *)
  let coll, fk, fv, _refs = mk_ikv 8 in
  let ix = H.attach ~name:"cg_ix" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  let src = Source.of_smc coll ~indexes:[ ("k", ix) ] ~columns:(ikv_columns fk fv) in
  let left = Source.of_array ~name:"lk" ~schema:[ "lk" ] [| [| Value.Int 3 |] |] in
  let ij = Plan.index_join ~on:("lk", "k") (Plan.scan left) src in
  (match snd (Codegen.prepare ij) with
  | Codegen.Fallback _ -> ()
  | Codegen.Native _ -> Alcotest.fail "IndexJoin should fall back to Fuse");
  check rows_testable "fallback path still answers" (Interp.collect ij)
    (Codegen.collect ij)

let test_codegen_shares_probe_plugins () =
  (* Probe keys ride in the leaf closures, not in the rendered source:
     point lookups that differ only in their key must share one plugin. *)
  let coll, fk, fv, _refs = mk_ikv 8 in
  let ix = H.attach ~name:"cg_eq" ~key:(H.Int_key (Smc.Field.get_int fk)) coll in
  let src = Source.of_smc coll ~indexes:[ ("k", ix) ] ~columns:(ikv_columns fk fv) in
  let probe k = Plan.index_scan src ~column:"k" ~value:(Value.Int k) in
  check Alcotest.string "same plugin source for different keys"
    (Codegen.to_ocaml_source (probe 3))
    (Codegen.to_ocaml_source (probe 5));
  check rows_testable "each key still gets its own rows"
    [ [| Value.Int 5; Value.Int 35 |] ]
    (Codegen.collect (probe 5))

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let prop_engines_agree_on_random_plans =
  (* Random Where/Select/GroupBy nests over a fixed source: Volcano and
     fused evaluation must produce identical bags. *)
  qtest "engines agree on random filter thresholds"
    QCheck.(pair (int_range 0 50) (int_range 0 3))
    (fun (threshold, shape) ->
      let base = Plan.(where Expr.(Ge (Col "age", int threshold)) (scan (people ()))) in
      let plan =
        match shape with
        | 0 -> base
        | 1 -> Plan.(select [ ("a", Expr.Col "age") ] base)
        | 2 ->
          Plan.(
            group_by ~keys:[ ("age", Expr.Col "age") ] ~aggs:[ ("n", Count) ] base)
        | _ -> Plan.(order_by [ (Expr.Col "id", Desc) ] base)
      in
      let volcano = Interp.collect plan and fused = Fuse.collect plan in
      List.equal (fun a b -> Array.for_all2 Value.equal a b) volcano fused)

let () =
  Alcotest.run "smc_query"
    [
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "where" `Quick test_where;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "order_by + limit" `Quick test_order_by_limit;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "multi-key join fanout" `Quick test_join_multi_key_and_duplicates;
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          prop_engines_agree_on_random_plans;
        ] );
      ( "expressions",
        [ Alcotest.test_case "semantics" `Quick test_expr_semantics ] );
      ( "sources",
        [ Alcotest.test_case "of_smc" `Quick test_source_of_smc ] );
      ( "indexes",
        [
          Alcotest.test_case "transparency" `Quick test_index_transparency;
          Alcotest.test_case "slot recycling" `Quick test_index_slot_recycling;
          Alcotest.test_case "attach/detach" `Quick test_index_attach_detach;
          Alcotest.test_case "mispaired source rejected" `Quick
            test_source_rejects_mispaired_index;
          Alcotest.test_case "join key semantics" `Quick test_index_join_key_semantics;
          Alcotest.test_case "rebuild/probe race" `Quick test_index_rebuild_probe_race;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "renders" `Quick test_codegen_renders;
          Alcotest.test_case "probe keys share a plugin" `Quick
            test_codegen_shares_probe_plugins;
        ] );
    ]
