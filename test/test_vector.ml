(* Vectorized-engine parity: {!Smc_query.Vector} must produce rows
   bit-identical to Volcano and Fuse — same values, same order — on every
   plan shape, across the four standard storage configs (row/columnar ×
   indirect/direct), on Null/decimal/date/char edge values, and under
   chunking extremes (single-row chunks, empty chunks, chunk-boundary
   limits). *)

open Smc_query
module Block = Smc_offheap.Block
module Context = Smc_offheap.Context
module D = Smc_decimal.Decimal

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

(* On a native host a compiled plan must run natively: when it cannot,
   fail with the reason instead of passing on the Fuse fallback. *)
let require_native plan =
  if Dynlink.is_native then
    match snd (Codegen.prepare plan) with
    | Codegen.Native _ -> ()
    | Codegen.Fallback reason -> Alcotest.fail ("compiled plan fell back to Fuse: " ^ reason)

(* Every engine, plus the vectorized engine at adversarial chunk sizes:
   1 (each row its own batch) and 3 (chunk boundaries misaligned with
   blocks). All six must agree exactly. *)
let check_parity name plan =
  let reference = Interp.collect plan in
  check rows_testable (name ^ ": fuse = volcano") reference (Fuse.collect plan);
  check rows_testable (name ^ ": vector = volcano") reference (Vector.collect plan);
  check rows_testable
    (name ^ ": vector[1] = volcano")
    reference
    (Vector.collect ~batch_rows:1 plan);
  check rows_testable
    (name ^ ": vector[3] = volcano")
    reference
    (Vector.collect ~batch_rows:3 plan);
  require_native plan;
  check rows_testable (name ^ ": compiled = volcano") reference (Codegen.collect plan);
  reference

let outcome collect plan =
  match collect plan with rows -> Ok rows | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* A collection with every column kind, plus a Null-bearing computed
   column; a third of the rows removed so selection vectors have holes. *)

let layout =
  Smc_offheap.Layout.create ~name:"vrow"
    [
      ("k", Smc_offheap.Layout.Int);
      ("d", Smc_offheap.Layout.Dec);
      ("dt", Smc_offheap.Layout.Date);
      ("c", Smc_offheap.Layout.Int);
      ("b", Smc_offheap.Layout.Bool);
      ("s", Smc_offheap.Layout.Str 12);
    ]

let fk = Smc.Field.int layout "k"
let fd = Smc.Field.dec layout "d"
let fdt = Smc.Field.date layout "dt"
let fc = Smc.Field.int layout "c"
let fb = Smc.Field.bool layout "b"
let fs = Smc.Field.str layout "s"

let build ~placement ~mode ~n () =
  let rt = Smc_offheap.Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"vrow" ~layout ~placement ~mode ~slots_per_block:16 ()
  in
  let refs =
    Array.init n (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot i;
            (* negatives and zero exercise sign handling in Dec kernels *)
            Smc.Field.set_dec fd blk slot (D.of_string (Printf.sprintf "%d.%02d" (i - 7) (i mod 100)));
            Smc.Field.set_date fdt blk slot (10000 + (i * 3 mod 97));
            Smc.Field.set_int fc blk slot (Char.code 'A' + (i mod 3));
            Smc.Field.set_bool fb blk slot (i mod 2 = 0);
            Smc.Field.set_string fs blk slot (Printf.sprintf "n%03d" (i mod 23))))
  in
  Array.iteri
    (fun i r -> if i mod 3 = 0 then ignore (Smc.Collection.remove coll r : bool))
    refs;
  (rt, coll)

let columns =
  [
    ("k", Source.C_int fk);
    ("d", Source.C_dec fd);
    ("dt", Source.C_date fdt);
    ("c", Source.C_char fc);
    ("b", Source.C_bool fb);
    ("s", Source.C_str fs);
    (* Null on every 5th k — the boxed escape hatch *)
    ( "opt",
      Source.C_fn
        (fun blk slot ->
          let k = Smc.Field.get_int fk blk slot in
          if k mod 5 = 0 then Value.Null else Value.Int (k * 2)) );
  ]

let configs =
  [
    ("row/indirect", Block.Row, Context.Indirect);
    ("row/direct", Block.Row, Context.Direct);
    ("columnar/indirect", Block.Columnar, Context.Indirect);
    ("columnar/direct", Block.Columnar, Context.Direct);
  ]

let with_configs f =
  List.iter
    (fun (cname, placement, mode) ->
      let _rt, coll = build ~placement ~mode ~n:100 () in
      f cname (Source.of_smc coll ~columns))
    configs

(* ------------------------------------------------------------------ *)
(* Plan shapes over SMC sources *)

let test_scan_parity () =
  with_configs (fun cname src ->
      let rows = check_parity (cname ^ " scan") (Plan.scan src) in
      check Alcotest.int (cname ^ " live rows") 66 (List.length rows))

let test_typed_filters () =
  with_configs (fun cname src ->
      (* date range + dec Between + dec-vs-int — the Q6 shape *)
      ignore
        (check_parity (cname ^ " q6-shape")
           Plan.(
             where
               Expr.(
                 And
                   ( And
                       ( Ge (Col "dt", Const (Value.Date 10010)),
                         Lt (Col "dt", Const (Value.Date 10080)) ),
                     And (Between (Col "d", dec "1.00", dec "55.00"), Lt (Col "d", int 50))
                   ))
               (scan src)));
      (* every comparison operator against typed columns, plus flipped
         const-on-the-left forms *)
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ("eq-int", Plan.(where Expr.(Eq (Col "k", int 17)) (scan src)));
          ("ne-int", Plan.(where Expr.(Ne (Col "k", int 17)) (scan src)));
          ("flip-lt", Plan.(where Expr.(Lt (int 50, Col "k")) (scan src)));
          ("flip-ge", Plan.(where Expr.(Ge (int 50, Col "k")) (scan src)));
          ("char-eq", Plan.(where Expr.(Eq (Col "c", str "B")) (scan src)));
          ("char-ne", Plan.(where Expr.(Ne (Col "c", str "B")) (scan src)));
          ("char-ge", Plan.(where Expr.(Ge (Col "c", str "B")) (scan src)));
          (* 2-char constant: length is the tiebreak *)
          ("char-vs-longer", Plan.(where Expr.(Le (Col "c", str "AZ")) (scan src)));
          ("char-vs-empty", Plan.(where Expr.(Gt (Col "c", str "")) (scan src)));
          ("bool-eq", Plan.(where Expr.(Eq (Col "b", bool true)) (scan src)));
          ("str-eq", Plan.(where Expr.(Eq (Col "s", str "n005")) (scan src)));
          ("col-col", Plan.(where Expr.(Lt (Col "k", Col "opt")) (scan src)));
          ("between-date", Plan.(where Expr.(Between (Col "dt", date "1997-05-15", date "1997-07-20")) (scan src)));
        ])

let test_null_semantics () =
  with_configs (fun cname src ->
      (* Null compares below everything and never raises; typed columns
         against Const Null take the constant-verdict path. *)
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ("null-col-lt", Plan.(where Expr.(Lt (Col "opt", int 40)) (scan src)));
          ("null-col-eq-null", Plan.(where Expr.(Eq (Col "opt", Const Value.Null)) (scan src)));
          ("typed-vs-null-gt", Plan.(where Expr.(Gt (Col "k", Const Value.Null)) (scan src)));
          ("typed-vs-null-le", Plan.(where Expr.(Le (Col "k", Const Value.Null)) (scan src)));
          ("null-select", Plan.(select [ ("o", Expr.Col "opt"); ("z", Expr.Const Value.Null) ] (scan src)));
        ])

let test_fallback_predicates () =
  with_configs (fun cname src ->
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ( "or",
            Plan.(
              where Expr.(Or (Eq (Col "c", str "A"), Gt (Col "k", int 90))) (scan src)) );
          ("not", Plan.(where Expr.(Not (Eq (Col "b", bool true))) (scan src)));
          ("contains", Plan.(where (Expr.Contains (Expr.Col "s", "00")) (scan src)));
          ("starts", Plan.(where (Expr.StartsWith (Expr.Col "s", "n01")) (scan src)));
          ( "arith-pred",
            (* guard first: And short-circuits in both engines, so the Add
               never sees the Null rows *)
            Plan.(
              where
                Expr.(
                  And
                    ( Not (Eq (Col "opt", Const Value.Null)),
                      Gt (Add (Col "k", Col "opt"), int 100) ))
                (scan src)) );
        ])

let test_select_arithmetic () =
  with_configs (fun cname src ->
      ignore
        (check_parity (cname ^ " select-arith")
           Plan.(
             select
               [
                 ("ik", Expr.Col "k");
                 ("mul_ii", Expr.(Mul (Col "k", int 3)));
                 ("mul_dd", Expr.(Mul (Col "d", Col "d")));
                 ("mix", Expr.(Mul (Col "d", Sub (dec "1.00", Col "d"))));
                 ("promote", Expr.(Add (Col "k", Col "d")));
                 ("div_ii", Expr.(Div (Col "k", int 7)));
                 ("div_dd", Expr.(Div (Col "d", dec "3.00")));
                 ("neg", Expr.(Neg (Col "d")));
                 ("const_s", Expr.str "tag");
                 ("const_b", Expr.bool false);
                 ("passthru_c", Expr.Col "c");
                 ("passthru_s", Expr.Col "s");
                 ("passthru_b", Expr.Col "b");
               ]
               (where Expr.(Gt (Col "k", int 20)) (scan src)))))

let test_group_by_shapes () =
  with_configs (fun cname src ->
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          (* char-packed keys *)
          ( "gb-char",
            Plan.(
              group_by
                ~keys:[ ("c", Expr.Col "c") ]
                ~aggs:
                  [
                    ("n", Count);
                    ("sum_d", Sum (Expr.Col "d"));
                    ("sum_k", Sum (Expr.Col "k"));
                    ("min_dt", Min (Expr.Col "dt"));
                    ("max_c", Max (Expr.Col "c"));
                    ("avg_k", Avg (Expr.Col "k"));
                    ("avg_d", Avg (Expr.Col "d"));
                  ]
                (scan src)) );
          (* int-array keys (mixed int-like kinds) *)
          ( "gb-int-date",
            Plan.(
              group_by
                ~keys:[ ("dt", Expr.Col "dt"); ("c", Expr.Col "c") ]
                ~aggs:[ ("n", Count); ("mx", Max (Expr.Col "d")) ]
                (scan src)) );
          (* boxed keys: strings and a Null-bearing column *)
          ( "gb-boxed",
            Plan.(
              group_by
                ~keys:[ ("s", Expr.Col "s"); ("opt", Expr.Col "opt") ]
                ~aggs:[ ("n", Count); ("mn", Min (Expr.Col "s")) ]
                (scan src)) );
          (* zero keys = single global group *)
          ( "gb-global",
            Plan.(
              group_by ~keys:[]
                ~aggs:[ ("n", Count); ("total", Sum Expr.(Mul (Col "d", Col "d"))) ]
                (scan src)) );
          (* empty input: no groups at all *)
          ( "gb-empty",
            Plan.(
              group_by ~keys:[ ("c", Expr.Col "c") ] ~aggs:[ ("n", Count) ]
                (where Expr.(Lt (Col "k", int 0)) (scan src))) );
          (* generic agg cells: Min/Max over strings, Sum over Null-bearing *)
          ( "gb-generic-cells",
            Plan.(
              group_by
                ~keys:[ ("c", Expr.Col "c") ]
                ~aggs:
                  [ ("mns", Min (Expr.Col "s")); ("mxs", Max (Expr.Col "s")) ]
                (scan src)) );
        ])

(* Vector aggregates a typed group-by a whole chunk at a time: one pass
   assigns group ids, then one loop per aggregate over its operand's
   words. These shapes take that path, so ids must stay first-seen across
   chunk boundaries, promotion must match [Value]'s, and the group-id
   table must grow without losing or reordering groups. *)
let q1_aggs =
  Plan.
    [
      ("sum_d", Sum (Expr.Col "d"));
      ("sum_k", Sum (Expr.Col "k"));
      ("disc", Sum Expr.(Mul (Col "d", Sub (dec "1.00", Col "d"))));
      ("disc_int", Sum Expr.(Mul (Col "d", Sub (int 1, Col "d"))));
      ("k_plus_d", Sum Expr.(Add (Col "k", Col "d")));
      ("avg_d", Avg (Expr.Col "d"));
      ("avg_k", Avg Expr.(Neg (Col "k")));
      ("n", Count);
    ]

let many_groups src =
  Plan.(
    group_by
      ~keys:[ ("k", Expr.Col "k") ]
      ~aggs:
        [
          ("n", Count);
          ("sum_d", Sum (Expr.Col "d"));
          ("mn_dt", Min (Expr.Col "dt"));
          ("mx_c", Max (Expr.Col "c"));
        ]
      (scan src))

let kernel_plans src =
  let col c = (c, Expr.Col c) in
  Plan.
    [
      ( "q1 shape",
        group_by ~keys:[ col "c"; col "kc" ] ~aggs:q1_aggs
          (where Expr.(Le (Col "dt", Const (Value.Date 10060))) (scan src)) );
      ("date key", group_by ~keys:[ col "dt" ] ~aggs:q1_aggs (scan src));
      ("typed zero-key", group_by ~keys:[] ~aggs:q1_aggs (scan src));
      ( "min/max under char keys",
        group_by
          ~keys:[ col "c"; col "kc" ]
          ~aggs:
            [
              ("mn_d", Min (Expr.Col "d"));
              ("mx_d", Max (Expr.Col "d"));
              ("mn_k", Min Expr.(Sub (Col "k", int 50)));
              ("mx_k", Max (Expr.Col "k"));
              ("mn_dt", Min (Expr.Col "dt"));
              ("mx_dt", Max (Expr.Col "dt"));
              ("mn_c", Min (Expr.Col "c"));
              ("mx_kc", Max (Expr.Col "kc"));
            ]
          (scan src) );
    ]

let test_group_kernels () =
  List.iter
    (fun (cname, placement, mode) ->
      let _rt, coll = build ~placement ~mode ~n:100 () in
      let src = Source.of_smc coll ~columns:(columns @ [ ("kc", Source.C_char fk) ]) in
      List.iter
        (fun (n, plan) ->
          let name = cname ^ " " ^ n in
          let reference = check_parity name plan in
          check rows_testable (name ^ ": vector[7] = volcano") reference
            (Vector.collect ~batch_rows:7 plan))
        (kernel_plans src))
    configs;
  (* one int key per row: the table grows from 16 slots past 5,000 groups *)
  let _rt, coll = build ~placement:Block.Columnar ~mode:Context.Indirect ~n:7600 () in
  let plan = many_groups (Source.of_smc coll ~columns) in
  let reference = check_parity "many groups" plan in
  check Alcotest.bool "many groups: more than 5,000" true (List.length reference > 5000);
  check rows_testable "many groups: vector[7] = volcano" reference
    (Vector.collect ~batch_rows:7 plan)

(* A grouped division by a zero column raises Division_by_zero on every
   engine, through the chunk loops too. *)
let group_div_by_zero ?pool ?(label = "") () =
  let dz =
    Smc_offheap.Layout.create ~name:"dz"
      [ ("k", Smc_offheap.Layout.Int); ("zero", Smc_offheap.Layout.Int); ("c", Smc_offheap.Layout.Int) ]
  in
  let zk = Smc.Field.int dz "k" and zz = Smc.Field.int dz "zero" and zc = Smc.Field.int dz "c" in
  let rt = Smc_offheap.Runtime.create () in
  let coll = Smc.Collection.create rt ~name:"dz" ~layout:dz ~slots_per_block:16 () in
  for i = 0 to 39 do
    ignore
      (Smc.Collection.add coll ~init:(fun blk slot ->
           Smc.Field.set_int zk blk slot (i + 1);
           Smc.Field.set_int zz blk slot 0;
           Smc.Field.set_int zc blk slot (Char.code 'a' + (i mod 4)))
        : Smc.Ref.t)
  done;
  let src =
    Source.of_smc ?pool coll
      ~columns:[ ("k", Source.C_int zk); ("zero", Source.C_int zz); ("c", Source.C_char zc) ]
  in
  let by_zero =
    [
      ("int", Expr.(Div (Col "k", Col "zero")));
      ("dec", Expr.(Div (Mul (Col "k", dec "1.50"), Col "zero")));
    ]
  in
  List.iter
    (fun (n, e) ->
      let plan =
        Plan.(group_by ~keys:[ ("c", Expr.Col "c") ] ~aggs:[ ("n", Count); ("s", Sum e) ] (scan src))
      in
      List.iter
        (fun (engine, collect) ->
          check
            (Alcotest.result rows_testable Alcotest.string)
            (Printf.sprintf "%s%s division by zero: %s" label n engine)
            (Error "Division_by_zero") (outcome collect plan))
        [
          ("volcano", Interp.collect);
          ("fuse", Fuse.collect);
          ("vector", fun p -> Vector.collect p);
          ("vector[7]", Vector.collect ~batch_rows:7);
          ("compiled", Codegen.collect);
        ])
    by_zero

let test_group_div_by_zero () = group_div_by_zero ()

let test_row_operators () =
  with_configs (fun cname src ->
      let mixed =
        Source.of_array ~name:"mixed" ~schema:[ "a" ] [| [| Value.Str "x" |]; [| Value.Int 1 |] |]
      in
      let right =
        Source.of_array ~name:"dim" ~schema:[ "dk"; "label" ]
          (Array.init 10 (fun i -> [| Value.Int (i * 7); Value.Str (Printf.sprintf "L%d" i) |]))
      in
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ( "order-limit",
            Plan.(
              limit 7
                (order_by
                   [ (Expr.Col "c", Asc); (Expr.Col "k", Desc) ]
                   (scan src))) );
          (* limit boundaries: across chunk edges, 0, and over-ask *)
          ("limit-0", Plan.(limit 0 (scan src)));
          (* a limit of 0 or less runs nothing: its input's filter, which
             raises on the first row, is never evaluated *)
          ("limit-0-runs-nothing", Plan.(limit 0 (where Expr.(Gt (Col "a", int 0)) (scan mixed))));
          ("limit-neg-runs-nothing", Plan.(limit (-1) (where Expr.(Gt (Col "a", int 0)) (scan mixed))));
          ("limit-1", Plan.(limit 1 (scan src)));
          ("limit-all", Plan.(limit 10_000 (scan src)));
          ("distinct", Plan.(distinct (select [ ("c", Expr.Col "c") ] (scan src))));
          ( "hash-join",
            Plan.(join ~on:[ ("k", "dk") ] (scan src) (scan right)) );
        ])

let test_of_array_sources () =
  (* No batch path, all-K_any kinds: everything routes through the
     re-batcher and the scalar fallbacks. *)
  let src =
    Source.of_array ~name:"mixed" ~schema:[ "a"; "b" ]
      [|
        [| Value.Int 1; Value.Str "x" |];
        [| Value.Null; Value.Str "y" |];
        [| Value.Int 3; Value.Str "x" |];
        [| Value.Dec (D.of_string "2.50"); Value.Str "z" |];
      |]
  in
  List.iter
    (fun (n, p) -> ignore (check_parity n p))
    [
      ("arr-scan", Plan.scan src);
      ("arr-filter", Plan.(where Expr.(Gt (Col "a", int 1)) (scan src)));
      ( "arr-group",
        Plan.(
          group_by
            ~keys:[ ("b", Expr.Col "b") ]
            ~aggs:[ ("n", Count); ("mx", Max (Expr.Col "a")) ]
            (scan src)) );
    ];
  (* empty source: no chunks at all *)
  let empty = Source.of_array ~name:"empty" ~schema:[ "x" ] [||] in
  let rows = check_parity "arr-empty" Plan.(where Expr.(Gt (Col "x", int 0)) (scan empty)) in
  check Alcotest.int "empty stays empty" 0 (List.length rows)

let test_error_parity () =
  (* Type errors must raise identically (message included) from the
     vectorized fallback. *)
  let src =
    Source.of_array ~name:"bad" ~schema:[ "a" ] [| [| Value.Str "x" |]; [| Value.Int 1 |] |]
  in
  let plan = Plan.(where Expr.(Gt (Col "a", int 0)) (scan src)) in
  let exn_of f = match f () with _ -> None | exception e -> Some (Printexc.to_string e) in
  let volcano = exn_of (fun () -> Interp.collect plan) in
  let vec = exn_of (fun () -> Vector.collect plan) in
  check Alcotest.bool "volcano raises" true (volcano <> None);
  check
    Alcotest.(option string)
    "same exception" volcano vec;
  (* division by zero through the typed kernel *)
  let kv =
    Source.of_array ~name:"z" ~schema:[ "a" ] [| [| Value.Int 4 |]; [| Value.Int 0 |] |]
  in
  let dplan = Plan.(select [ ("q", Expr.(Div (int 12, Col "a"))) ] (scan kv)) in
  check
    Alcotest.(option string)
    "div-by-zero parity"
    (exn_of (fun () -> Interp.collect dplan))
    (exn_of (fun () -> Vector.collect dplan))

(* A Where over a GroupBy meets the groups in Volcano's pull order: it
   raises on group 0 before group 1, a one-row Date group under Avg,
   finishes (Value.div raises there). Fuse and Compiled push each group as
   it is finished, so they raise Volcano's exception; Vector need only
   raise. *)
let test_group_raise_order () =
  let src =
    Source.of_array ~name:"ro" ~schema:[ "k"; "x" ]
      [| [| Value.Int 0; Value.Int 5 |]; [| Value.Int 1; Value.Date 3 |] |]
  in
  let plan =
    Plan.(
      where
        Expr.(Gt (Col "k", str "a"))
        (group_by ~keys:[ ("k", Expr.Col "k") ] ~aggs:[ ("a", Avg (Expr.Col "x")) ] (scan src)))
  in
  let reference = outcome Interp.collect plan in
  check Alcotest.bool "volcano raises" true (Result.is_error reference);
  let same what got =
    check (Alcotest.result rows_testable Alcotest.string) (what ^ " = volcano") reference got
  in
  same "fuse" (outcome Fuse.collect plan);
  require_native plan;
  same "compiled" (outcome Codegen.collect plan);
  check Alcotest.bool "vector raises" true (Result.is_error (outcome Vector.collect plan))

(* ------------------------------------------------------------------ *)
(* Snapshot views and parallel scans through the batch path *)

let test_view_frontier () =
  let _rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:60 () in
  Smc.Collection.with_view coll (fun view ->
      let src = Source.of_smc ~view coll ~columns in
      let before = Vector.collect (Plan.scan src) in
      (* mutate after the frontier: adds and removes must stay invisible *)
      let r =
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot 999;
            Smc.Field.set_dec fd blk slot (D.of_int 1);
            Smc.Field.set_date fdt blk slot 10001;
            Smc.Field.set_int fc blk slot (Char.code 'Z');
            Smc.Field.set_bool fb blk slot true;
            Smc.Field.set_string fs blk slot "zz")
      in
      ignore (r : Smc.Ref.t);
      let after = Vector.collect (Plan.scan src) in
      check rows_testable "view-pinned batch scan is stable" before after;
      check rows_testable "view: vector = volcano" (Interp.collect (Plan.scan src)) after;
      check rows_testable "view: vector = fuse" (Fuse.collect (Plan.scan src)) after);
  (* after closing: current state sees the new row *)
  let src = Source.of_smc coll ~columns in
  let k999 = Plan.(where Expr.(Eq (Col "k", int 999)) (scan src)) in
  check Alcotest.int "post-view scan sees the add" 1 (List.length (Vector.collect k999))

let test_parallel_batch_scan () =
  let _rt, coll = build ~placement:Block.Columnar ~mode:Context.Indirect ~n:300 () in
  let pool = Smc_parallel.Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let seq = Source.of_smc coll ~columns in
      let par = Source.of_smc ~pool ~domains:4 coll ~columns in
      (* row order across blocks is unspecified in the parallel case —
         compare as sorted bags, and compare aggregates exactly *)
      let sorted p = List.sort Stdlib.compare (Vector.collect p) in
      check rows_testable "parallel batch scan = sequential (sorted)"
        (sorted (Plan.scan seq))
        (sorted (Plan.scan par));
      let agg src =
        Vector.collect
          Plan.(
            group_by ~keys:[]
              ~aggs:[ ("n", Count); ("sum", Sum (Expr.Col "d")); ("mx", Max (Expr.Col "k")) ]
              (where Expr.(Gt (Col "k", int 5)) (scan src)))
      in
      check rows_testable "parallel aggregate agrees" (agg seq) (agg par))

(* ------------------------------------------------------------------ *)
(* A batch walk inside an outer critical section ([Collection.with_read])
   holds that section across all its blocks: a compaction group formed
   while the walk is inside its first block cannot complete before the
   walk ends, so the walk reads the group's remaining sources in place
   while the group is pending. It must still count every live row once. *)

let counter rt c = Smc_obs.get (Smc_obs.snapshot rt.Smc_offheap.Runtime.obs) c

let wait_until ~ms cond =
  let deadline = Int64.add (Smc_util.Timing.now_ns ()) (Int64.of_int (ms * 1_000_000)) in
  while (not (cond ())) && Int64.compare (Smc_util.Timing.now_ns ()) deadline < 0 do
    Domain.cpu_relax ()
  done

(* Eight 16-slot blocks. Compaction groups its candidates three at a time
   in snapshot order; thinning blocks 0, 4 and 5 makes one group of
   exactly those: formed while a walk is inside block 0, with two members
   still ahead. *)
let midwalk_fixture () =
  let rt = Smc_offheap.Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"walk" ~layout ~placement:Block.Row ~mode:Context.Indirect
      ~slots_per_block:16 ()
  in
  let refs =
    Array.init (16 * 8) (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot -> Smc.Field.set_int fk blk slot i))
  in
  let homes = Array.map (fun r -> fst (Smc.Collection.deref coll r)) refs in
  let blocks =
    Array.fold_left (fun acc b -> if List.memq b acc then acc else b :: acc) [] homes
    |> List.rev |> Array.of_list
  in
  check Alcotest.int "eight blocks" 8 (Array.length blocks);
  List.iter
    (fun b ->
      let kept = ref 0 in
      Array.iteri
        (fun i r ->
          if homes.(i) == blocks.(b) then
            if !kept < 3 then incr kept else ignore (Smc.Collection.remove coll r : bool))
        refs)
    [ 0; 4; 5 ];
  (rt, coll)

let test_midwalk_compaction () =
  let rt, coll = midwalk_fixture () in
  let expected = Smc.Collection.count coll in
  let completed = Atomic.make false in
  let src = Source.of_smc coll ~columns:[ ("k", Source.C_int fk) ] in
  let counted = ref 0 and chunks = ref 0 and compactor = ref None in
  Smc_check.Chaos.with_compaction_hook rt
    ~hook:(fun phase -> if phase = Smc_offheap.Runtime.Phase_completed then Atomic.set completed true)
    (fun () ->
      Smc.Collection.with_read coll @@ fun () ->
      Source.batches src ~rows:Batch.default_rows (fun bt ->
          counted := !counted + bt.Batch.len;
          incr chunks;
          if !chunks = 1 then begin
            (* paused inside block 0: compact on another domain *)
            compactor := Some (Domain.spawn (fun () -> Smc.Collection.compact coll ()));
            wait_until ~ms:300 (fun () -> Atomic.get completed)
          end
          else if !chunks <= 4 then
            (* Blocks 1-3: give a compaction that is not held back by the
               walk time to complete before the walk reaches block 4. *)
            wait_until ~ms:100 (fun () -> Atomic.get completed)));
  let report = Option.map Domain.join !compactor in
  check Alcotest.bool "compaction formed the group" true
    (match report with Some r -> r.Smc_offheap.Compaction.groups_formed >= 1 | None -> false);
  check Alcotest.int "walk counted every live row once" expected !counted;
  let rows = Vector.collect (Plan.scan src) in
  check Alcotest.int "a walk after the compaction agrees" expected (List.length rows)

(* The same group without the outer section: the walk's own critical
   section per block is all there is, so the group forms in block 0 and
   completes while the walk crosses blocks 1-3 (each boundary lets the
   pass take one epoch step). Blocks 4 and 5 are then dead sources whose
   rows sit in a target the walk's view does not hold; the walk must find
   them there, and must not count block 0's rows a second time. *)
let test_midwalk_compaction_per_block () =
  let rt, coll = midwalk_fixture () in
  let expected = Smc.Collection.count coll in
  let waiting = Atomic.make false and completed = Atomic.make false in
  let src = Source.of_smc coll ~columns:[ ("k", Source.C_int fk) ] in
  let counted = ref 0 and chunks = ref 0 and compactor = ref None in
  let moved0 = counter rt Smc_obs.c_walk_moved_ranges in
  Smc_check.Chaos.with_compaction_hook rt
    ~hook:(fun phase ->
      if phase = Smc_offheap.Runtime.Phase_waiting then Atomic.set waiting true;
      if phase = Smc_offheap.Runtime.Phase_completed then Atomic.set completed true)
    (fun () ->
      Source.batches src ~rows:64 (fun bt ->
          counted := !counted + bt.Batch.len;
          incr chunks;
          if !chunks = 1 then begin
            compactor := Some (Domain.spawn (fun () -> Smc.Collection.compact coll ()));
            wait_until ~ms:300 (fun () -> Atomic.get waiting)
          end
          else if !chunks <= 4 then wait_until ~ms:100 (fun () -> Atomic.get completed)));
  let report = Option.map Domain.join !compactor in
  check Alcotest.bool "compaction completed the group" true
    (match report with
    | Some r -> r.Smc_offheap.Compaction.groups_formed >= 1 && not r.Smc_offheap.Compaction.aborted
    | None -> false);
  check Alcotest.int "walk counted every live row once" expected !counted;
  check Alcotest.bool "moved rows were read through the target" true
    (counter rt Smc_obs.c_walk_moved_ranges > moved0)

(* [Collection.add] builds the row before the slot turns valid: while an
   [init] is parked on another domain, neither the row scan, the batch scan
   nor a snapshot view may emit the row. An [init] that raises leaves no
   row behind. *)
let test_init_before_valid () =
  let rt, coll = midwalk_fixture () in
  let ctx = coll.Smc.Collection.ctx in
  let live = Smc.Collection.count coll in
  let entered = Atomic.make false and release = Atomic.make false in
  let adder =
    Domain.spawn (fun () ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot (-7);
            Atomic.set entered true;
            wait_until ~ms:5000 (fun () -> Atomic.get release)))
  in
  wait_until ~ms:5000 (fun () -> Atomic.get entered);
  let seen = ref [] in
  let note what k = seen := (what, k) :: !seen in
  Smc.Collection.iter coll ~f:(fun blk slot -> note "iter" (Smc.Field.get_int fk blk slot));
  Source.batches (Source.of_smc coll ~columns:[ ("k", Source.C_int fk) ]) ~rows:64 (fun b ->
      match b.Batch.cols.(0) with
      | Batch.V_int a ->
        for i = 0 to b.Batch.len - 1 do
          note "batches" a.(Bigarray.Array1.get b.Batch.sel i)
        done
      | _ -> assert false);
  Smc.Collection.with_view coll (fun v ->
      Smc.Collection.view_iter v ~f:(fun blk slot ->
          note "view_iter" (Smc.Field.get_int fk blk slot)));
  Atomic.set release true;
  ignore (Domain.join adder : Smc.Ref.t);
  List.iter
    (fun what ->
      let ks = List.filter_map (fun (w, k) -> if w = what then Some k else None) !seen in
      check Alcotest.int (what ^ " emits the rows built before the add") live (List.length ks);
      check Alcotest.bool (what ^ " never emits the row under construction") false
        (List.mem (-7) ks))
    [ "iter"; "batches"; "view_iter" ];
  check Alcotest.int "the row is there once built" (live + 1) (Smc.Collection.count coll);
  (match Smc.Collection.add coll ~init:(fun _ _ -> failwith "init") with
  | _ -> Alcotest.fail "a raising init must propagate"
  | exception Failure _ -> ());
  check Alcotest.int "a failed init leaves no row" (live + 1) (Smc.Collection.count coll);
  check (Alcotest.list Alcotest.string) "runtime consistent after a failed init" []
    (List.map
       (fun (v : Smc_check.Audit.violation) -> Smc_check.Audit.report [ v ])
       (Smc_check.Audit.check_once rt ~contexts:[ ctx ]));
  check (Alcotest.list Alcotest.string) "counters balance after a failed init" []
    (Smc_check.Obs_check.check rt ~contexts:[ ctx ])

(* ------------------------------------------------------------------ *)
(* The batch scan's chunk fill against the row path: every chunk must hold
   exactly the rows [Collection.iter] (or [view_iter]) visits, in the same
   order, with each wanted column equal to [Source.extract_column]. Blocks
   hold 32 slots; the fixtures leave blocks 0 and 2 full (the fill skips
   their directory) and, when holed, remove rows from blocks 1 and 3. The
   char column stores words with bits above the byte, and bytes ≥ 0x80, so
   a fill that forgets the byte mask shows up in the raw chunk. *)

let fill_nslots = 32

let build_fill ~placement ~mode ~holed () =
  let rt = Smc_offheap.Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"fill" ~layout ~placement ~mode ~slots_per_block:fill_nslots ()
  in
  let refs =
    Array.init (4 * fill_nslots) (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot i;
            Smc.Field.set_dec fd blk slot (D.of_int (i - 50));
            Smc.Field.set_date fdt blk slot (9000 + i);
            Smc.Field.set_int fc blk slot (0x5a00 lor (((i * 37) + 0x80) land 0xFF));
            Smc.Field.set_bool fb blk slot (i mod 3 = 1);
            Smc.Field.set_string fs blk slot (Printf.sprintf "s%d" i)))
  in
  let homes = Array.map (fun r -> fst (Smc.Collection.deref coll r)) refs in
  let blocks =
    Array.fold_left (fun acc b -> if List.memq b acc then acc else b :: acc) [] homes
    |> List.rev |> Array.of_list
  in
  check Alcotest.int "four blocks" 4 (Array.length blocks);
  if holed then
    Array.iteri
      (fun i r ->
        if i mod 5 = 0 && (homes.(i) == blocks.(1) || homes.(i) == blocks.(3)) then
          ignore (Smc.Collection.remove coll r : bool))
      refs;
  (rt, coll, refs)

(* A char chunk holds the masked byte; compare it raw, as an Int. *)
let fill_value col v =
  match (col, v) with
  | Source.C_char _, Value.Str s -> Value.Int (Char.code s.[0])
  | _ -> v

let chunk_value vec i =
  match vec with Batch.V_char a -> Value.Int a.(i) | v -> Batch.box_vec v i

let check_fill name ~expected src ~rows ~mask =
  let want c = match mask with None -> true | Some m -> m.(c) in
  let got = ref [] in
  Source.batches src ~rows ?cols:mask (fun b ->
      if b.Batch.len > rows then Alcotest.failf "%s: chunk of %d rows > %d" name b.Batch.len rows;
      for i = 0 to b.Batch.len - 1 do
        let r = Bigarray.Array1.get b.Batch.sel i in
        let row = ref [] in
        Array.iteri (fun c vec -> if want c then row := chunk_value vec r :: !row) b.Batch.cols;
        got := Array.of_list (List.rev !row) :: !got
      done);
  let expected =
    List.map
      (fun row -> Array.of_list (List.filteri (fun c _ -> want c) (Array.to_list row)))
      expected
  in
  check rows_testable name expected (List.rev !got)

let masks =
  let n = List.length columns in
  let only names = Some (Array.of_list (List.map (fun (c, _) -> List.mem c names) columns)) in
  [
    ("all", None);
    ("words", only [ "k"; "c"; "dt" ]);
    ("non-words", only [ "b"; "s"; "opt" ]);
    ("mixed", only [ "d"; "b"; "c"; "opt" ]);
    ("none", Some (Array.make n false));
  ]

let expected_rows iter =
  let cols = Array.of_list (List.map snd columns) in
  let out = ref [] in
  iter (fun blk slot ->
      out := Array.map (fun col -> fill_value col (Source.extract_column col blk slot)) cols :: !out);
  List.rev !out

let fill_configs ~holed f =
  List.iter
    (fun (cname, placement, mode) ->
      let rt, coll, refs = build_fill ~placement ~mode ~holed () in
      f (Printf.sprintf "%s%s" cname (if holed then " holed" else " full")) rt coll refs)
    configs

(* Chunks of 1 and 7 rows, one larger than a block, and the default. *)
let check_fills name ~expected src =
  List.iter
    (fun rows ->
      List.iter
        (fun (mname, mask) ->
          check_fill (Printf.sprintf "%s rows=%d mask=%s" name rows mname) ~expected src ~rows ~mask)
        masks)
    [ 1; 7; 50; 1024 ]

let test_fill_parity () =
  List.iter
    (fun holed ->
      fill_configs ~holed (fun cname rt coll _refs ->
          let expected = expected_rows (fun f -> Smc.Collection.iter coll ~f) in
          check Alcotest.int (cname ^ " live rows")
            ((4 * fill_nslots) - if holed then 12 else 0)
            (List.length expected);
          let full0 = counter rt Smc_obs.c_vec_full_batches in
          check_fills cname ~expected (Source.of_smc coll ~columns);
          check Alcotest.bool (cname ^ ": full blocks skipped the directory") true
            (counter rt Smc_obs.c_vec_full_batches > full0);
          check (Alcotest.list Alcotest.string) (cname ^ ": obs invariants hold") []
            (Smc_check.Obs_check.check rt ~contexts:[ coll.Smc.Collection.ctx ])))
    [ false; true ]

(* Under a snapshot view every chunk tests visibility per slot: rows
   removed after the frontier stay in the chunks, rows added after it stay
   out, and no chunk takes the full-block path. *)
let test_fill_view () =
  fill_configs ~holed:false (fun cname rt coll refs ->
      Smc.Collection.with_view coll (fun view ->
          let expected = expected_rows (fun f -> Smc.Collection.view_iter view ~f) in
          Array.iteri
            (fun i r -> if i mod 7 = 3 then ignore (Smc.Collection.remove coll r : bool))
            refs;
          ignore
            (Smc.Collection.add coll ~init:(fun blk slot -> Smc.Field.set_int fk blk slot (-1))
              : Smc.Ref.t);
          check Alcotest.int (cname ^ " view rows") (4 * fill_nslots) (List.length expected);
          let full0 = counter rt Smc_obs.c_vec_full_batches in
          check_fills (cname ^ " view") ~expected (Source.of_smc ~view coll ~columns);
          check Alcotest.int (cname ^ ": view chunks test every slot") full0
            (counter rt Smc_obs.c_vec_full_batches)))

(* The parallel walk fills the same chunks, per worker, in any order. *)
let test_fill_parallel () =
  let pool = Smc_parallel.Pool.create ~size:1 () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun holed ->
          fill_configs ~holed (fun cname _rt coll _refs ->
              let seq = Source.of_smc coll ~columns in
              let par = Source.of_smc ~pool ~domains:2 coll ~columns in
              let sorted src rows =
                List.sort Stdlib.compare (Vector.collect ~batch_rows:rows (Plan.scan src))
              in
              List.iter
                (fun rows ->
                  check rows_testable
                    (Printf.sprintf "%s parallel rows=%d" cname rows)
                    (sorted seq rows) (sorted par rows))
                [ 1; 7; 1024 ]))
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* A full block's chunks skip the directory, so they rely on the walk's
   registered frontier: a row removed after the walk began stays in limbo,
   words intact, until the walk ends. Pause a walk in its first chunk,
   remove rows from the full blocks ahead of it on another domain and add
   new ones, then let it finish: it may or may not see each removed row,
   but every row it emits was live when it began, none twice. *)

let test_midwalk_removals () =
  List.iter
    (fun placement ->
      let rt = Smc_offheap.Runtime.create () in
      let coll =
        Smc.Collection.create rt ~name:"walkfull" ~layout ~placement ~mode:Context.Indirect
          ~slots_per_block:16 ()
      in
      let refs =
        Array.init (16 * 8) (fun i ->
            Smc.Collection.add coll ~init:(fun blk slot -> Smc.Field.set_int fk blk slot i))
      in
      let before = Smc.Collection.count coll in
      let src = Source.of_smc coll ~columns:[ ("k", Source.C_int fk) ] in
      let full0 = counter rt Smc_obs.c_vec_full_batches in
      let seen = Array.make (Array.length refs) 0 and chunks = ref 0 and after = ref 0 in
      Source.batches src ~rows:5 (fun bt ->
          (match bt.Batch.cols.(0) with
          | Batch.V_int ks ->
            for i = 0 to bt.Batch.len - 1 do
              let k = ks.(Bigarray.Array1.get bt.Batch.sel i) in
              if k < 0 || k >= Array.length seen then Alcotest.failf "emitted k = %d" k;
              seen.(k) <- seen.(k) + 1
            done
          | _ -> Alcotest.fail "k is not an int chunk");
          incr chunks;
          if !chunks = 1 then
            (* Paused inside block 0: thin the rest of block 0 and blocks
               2-7, then add rows, which would land in recycled slots of
               those blocks if the walk did not hold back the epoch. *)
            Domain.join
              (Domain.spawn (fun () ->
                   Array.iteri
                     (fun i r ->
                       if (i >= 32 && i mod 3 = 0) || (i >= 10 && i < 16 && i mod 2 = 0) then
                         ignore (Smc.Collection.remove coll r : bool))
                     refs;
                   after := Smc.Collection.count coll;
                   for j = 0 to 63 do
                     ignore
                       (Smc.Collection.add coll ~init:(fun blk slot ->
                            Smc.Field.set_int fk blk slot (1000 + j))
                         : Smc.Ref.t)
                   done)));
      let after = !after in
      let emitted = Array.fold_left ( + ) 0 seen in
      let what = match placement with Block.Row -> "row" | Block.Columnar -> "columnar" in
      check Alcotest.bool (what ^ ": removals ran") true (after < before);
      check Alcotest.bool (what ^ ": full blocks were read without the directory") true
        (counter rt Smc_obs.c_vec_full_batches > full0);
      check Alcotest.bool (what ^ ": no row twice") true (Array.for_all (fun n -> n <= 1) seen);
      if emitted < after || emitted > before then
        Alcotest.failf "%s: emitted %d rows, outside [%d, %d]" what emitted after before)
    [ Block.Row; Block.Columnar ]

(* ------------------------------------------------------------------ *)
(* Observability: filter counters balance *)

let test_vec_counters () =
  let rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:90 () in
  let obs = rt.Smc_offheap.Runtime.obs in
  let snap0 = Smc_obs.snapshot obs in
  let src = Source.of_smc coll ~columns in
  let live =
    List.length (Vector.collect Plan.(where Expr.(Gt (Col "k", int (-1))) (scan src)))
  in
  let d = Smc_obs.diff (Smc_obs.snapshot obs) snap0 in
  let g = Smc_obs.get d in
  check Alcotest.bool "batches counted" true (g Smc_obs.c_vec_batches > 0);
  check Alcotest.int "batch rows = live rows" live (g Smc_obs.c_vec_batch_rows);
  check Alcotest.int "filter saw every live row" live (g Smc_obs.c_vec_filter_rows_in);
  check Alcotest.int "kept + dropped = in"
    (g Smc_obs.c_vec_filter_rows_in)
    (g Smc_obs.c_vec_filter_rows_kept + g Smc_obs.c_vec_filter_rows_dropped);
  check (Alcotest.list Alcotest.string) "obs invariants hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.Smc.Collection.ctx ]);
  (* Which group-by path ran: every row Q1's shape keeps goes through the
     chunk kernels, and a boxed key sends none there. *)
  let src = Source.of_smc coll ~columns:(columns @ [ ("kc", Source.C_char fk) ]) in
  let grouped keys =
    let snap0 = Smc_obs.snapshot obs in
    ignore
      (Vector.collect
         Plan.(
           group_by ~keys ~aggs:q1_aggs
             (where Expr.(Le (Col "dt", Const (Value.Date 10060))) (scan src))));
    Smc_obs.get (Smc_obs.diff (Smc_obs.snapshot obs) snap0)
  in
  let g = grouped [ ("c", Expr.Col "c"); ("kc", Expr.Col "kc") ] in
  check Alcotest.bool "q1 shape keeps rows" true (g Smc_obs.c_vec_filter_rows_kept > 0);
  check Alcotest.int "q1 shape: every kept row aggregated by the chunk kernels"
    (g Smc_obs.c_vec_filter_rows_kept)
    (g Smc_obs.c_vec_agg_chunk_rows);
  let g = grouped [ ("s", Expr.Col "s") ] in
  check Alcotest.int "boxed key: no row through the chunk kernels" 0
    (g Smc_obs.c_vec_agg_chunk_rows)

(* ------------------------------------------------------------------ *)
(* Compiled plans: Scan leaves enter the plugin as typed column chunks,
   and every result must equal Fuse's (same rows, same order, the same
   exception when Fuse raises). *)

let check_compiled name plan =
  require_native plan;
  check
    (Alcotest.result rows_testable Alcotest.string)
    (name ^ ": compiled = fuse")
    (outcome Fuse.collect plan) (outcome Codegen.collect plan)

(* Shapes the parity tests above do not run: two packed char keys, every
   typed aggregate cell, the other key tables, Date sums, raises, global
   aggregates over empty input, and the typed compare and string cases. *)
let compiled_plans src =
  let w pred = Plan.(where pred (scan src)) in
  let gb keys aggs input = Plan.group_by ~keys ~aggs input in
  let col c = (c, Expr.Col c) in
  Plan.
    [
      ( "q1-shape (packed char keys)",
        gb
          [ col "c"; col "kc" ]
          [
            ("sum_d", Sum (Expr.Col "d"));
            ("sum_k", Sum (Expr.Col "k"));
            ("disc", Sum Expr.(Mul (Col "d", Sub (dec "1.00", Col "d"))));
            ("n", Count);
            ("avg_k", Avg (Expr.Col "k"));
            ("avg_d", Avg (Expr.Col "d"));
            ("min_dt", Min (Expr.Col "dt"));
            ("max_c", Max (Expr.Col "c"));
            ("min_d", Min (Expr.Col "d"));
          ]
          (w Expr.(Le (Col "dt", Const (Value.Date 10060)))) );
      ("date key", gb [ col "dt" ] [ ("n", Count); ("mx", Max (Expr.Col "k")) ] (scan src));
      ("q1 aggregates, packed char keys", gb [ col "c"; col "kc" ] q1_aggs (scan src));
      ( "min/max under char keys",
        gb [ col "c"; col "kc" ]
          [ ("mn_d", Min (Expr.Col "d")); ("mx_k", Max (Expr.Col "k")); ("mn_c", Min (Expr.Col "c")) ]
          (scan src) );
      ( "grouped division by zero",
        gb [ col "c" ] [ ("s", Sum Expr.(Div (Col "k", Sub (Col "k", Col "k")))) ] (scan src) );
      ( "boxed cells",
        gb [ col "opt" ] [ ("so", Sum (Expr.Col "opt")); ("ao", Avg (Expr.Col "opt")) ] (scan src) );
      ("bool key", gb [ col "b" ] [ ("n", Count); ("mn", Min (Expr.Col "b")) ] (scan src));
      ( "select then group",
        gb [ col "c" ]
          [ ("x", Sum (Expr.Col "x")); ("y", Max (Expr.Col "y")) ]
          (select
             [ col "c"; ("x", Expr.(Mul (Col "d", int 2))); ("y", Expr.(Neg (Col "k"))) ]
             (scan src)) );
      ("date sum, one row", gb [] [ ("s", Sum (Expr.Col "dt")) ] (w Expr.(Eq (Col "k", int 1))));
      ("date sum raises", gb [] [ ("s", Sum (Expr.Col "dt")) ] (scan src));
      ("arith type error", select [ ("x", Expr.(Add (Col "dt", int 1))) ] (scan src));
      ("compare type error", w Expr.(Lt (Col "dt", int 5)));
      ("int div by zero", select [ ("q", Expr.(Div (Col "k", Sub (Col "k", Col "k")))) ] (scan src));
      ("dec div by zero", select [ ("q", Expr.(Div (Col "d", dec "0.00"))) ] (scan src));
      ("empty, no keys", gb [] [ ("n", Count); ("s", Sum (Expr.Col "d")) ] (w Expr.(Lt (Col "k", int 0))));
      ("dec vs int const", w Expr.(Lt (Col "d", int 5)));
      ("int vs dec col", w Expr.(Lt (Col "k", Col "d")));
      ("between mixed", w Expr.(Between (Col "k", int 10, dec "40.50")));
      ("str lt", w Expr.(Lt (Col "s", str "n01")));
      ("char vs str col", w Expr.(Ge (Col "s", Col "c")));
      ("bool col", w Expr.(Col "b"));
      ("contains_ci", w (Expr.ContainsCI (Expr.Col "s", "N01")));
      ("char contains", w (Expr.Contains (Expr.Col "c", "B")));
      ("int contains", w (Expr.Contains (Expr.Col "k", "7")));
    ]

let test_compiled_parity () =
  List.iter
    (fun (cname, placement, mode) ->
      let _rt, coll = build ~placement ~mode ~n:100 () in
      (* a second char column, so packed keys see two distinct bytes *)
      let src = Source.of_smc coll ~columns:(columns @ [ ("kc", Source.C_char fk) ]) in
      List.iter (fun (n, p) -> check_compiled (cname ^ " " ^ n) p) (compiled_plans src))
    configs

let test_compiled_sharing () =
  (* A shape no other test compiles, so the first prepare is a miss. *)
  let plan src =
    Plan.(
      group_by
        ~keys:[ ("c", Expr.Col "c") ]
        ~aggs:[ ("s", Sum Expr.(Sub (Mul (Col "d", Col "k"), Col "k"))) ]
        (where Expr.(Ge (Col "k", int 3)) (scan src)))
  in
  let rt1, c1 = build ~placement:Block.Row ~mode:Context.Indirect ~n:40 () in
  let rt2, c2 = build ~placement:Block.Columnar ~mode:Context.Direct ~n:50 () in
  let src1 = Source.of_smc c1 ~columns and src2 = Source.of_smc c2 ~columns in
  let counter rt c = Smc_obs.get (Smc_obs.snapshot rt.Smc_offheap.Runtime.obs) c in
  check Alcotest.string "same kinds, same source" (Codegen.to_ocaml_source (plan src1))
    (Codegen.to_ocaml_source (plan src2));
  if Dynlink.is_native then begin
    let compiles = counter rt1 Smc_obs.c_cg_compiles in
    check_compiled "first collection" (plan src1);
    check Alcotest.int "compiled once" (compiles + 1) (counter rt1 Smc_obs.c_cg_compiles);
    let hits = counter rt2 Smc_obs.c_cg_cache_hits in
    check_compiled "second collection" (plan src2);
    check Alcotest.bool "second collection hits the cache" true
      (counter rt2 Smc_obs.c_cg_cache_hits > hits);
    check Alcotest.int "and compiles nothing" 0 (counter rt2 Smc_obs.c_cg_compiles)
  end;
  (* "d" read as a computed (K_any) column: different typed code *)
  let src3 =
    Source.of_smc c2
      ~columns:
        (List.map
           (fun (n, c) ->
             if n = "d" then (n, Source.C_fn (Source.extract_column c)) else (n, c))
           columns)
  in
  check Alcotest.bool "a kind change changes the source" false
    (Codegen.to_ocaml_source (plan src1) = Codegen.to_ocaml_source (plan src3));
  check_compiled "kind change" (plan src3)

(* ------------------------------------------------------------------ *)
(* Fuse reads Scan leaves as column chunks and runs the typed kernels it
   shares with Vector one row at a time. Volcano shares neither, so every
   Fuse result must equal Volcano's: the same rows in the same order, or
   the same exception. *)

let check_fuse name plan =
  check
    (Alcotest.result rows_testable Alcotest.string)
    (name ^ ": fuse = volcano")
    (outcome Interp.collect plan) (outcome Fuse.collect plan)

let fuse_plans src =
  let w pred = Plan.(where pred (scan src)) in
  let gb keys aggs input = Plan.group_by ~keys ~aggs input in
  let col c = (c, Expr.Col c) in
  let aggs =
    Plan.
      [
        ("n", Count);
        ("sum_d", Sum (Expr.Col "d"));
        ("avg_k", Avg (Expr.Col "k"));
        ("min_dt", Min (Expr.Col "dt"));
        ("max_s", Max (Expr.Col "s"));
        ("sum_opt", Sum (Expr.Col "opt"));
      ]
  in
  let day n = Expr.Const (Value.Date n) in
  Plan.
    [
      ("int const vs dec col", w Expr.(Lt (Col "d", int 5)));
      ("dec const vs int col", w Expr.(Ge (Col "k", dec "40.50")));
      ("const on the left", w Expr.(Gt (int 30, Col "k")));
      ("int col vs dec col", w Expr.(Le (Col "k", Col "d")));
      ("date compare", w Expr.(Le (Col "dt", day 10040)));
      ("date between", w Expr.(Between (Col "dt", day 10010, day 10050)));
      ("char vs str const", w Expr.(Eq (Col "c", str "B")));
      ("char vs longer str", w Expr.(Lt (Col "c", str "Bz")));
      ("char vs char col", w Expr.(Ne (Col "c", Col "kc")));
      ("null const", w Expr.(Gt (Col "k", Const Value.Null)));
      ("null const on the left", w Expr.(Le (Const Value.Null, Col "d")));
      ("str compare", w Expr.(Ge (Col "s", str "n10")));
      ("str contains", w (Expr.Contains (Expr.Col "s", "01")));
      ("str starts with", w (Expr.StartsWith (Expr.Col "s", "n0")));
      ("char contains", w (Expr.Contains (Expr.Col "c", "C")));
      ("char contains empty", w (Expr.Contains (Expr.Col "c", "")));
      ("char contains longer", w (Expr.Contains (Expr.Col "c", "CC")));
      ("c_fn compare", w Expr.(Gt (Col "opt", int 50)));
      ("c_fn arithmetic raises", select [ ("x", Expr.(Add (Col "opt", Col "k"))) ] (scan src));
      ("compare type error", w Expr.(Lt (Col "dt", int 5)));
      ( "unused select column divides by zero",
        gb [ col "k2" ] [ ("n", Count) ]
          (select
             [ ("k2", Expr.Col "k"); ("z", Expr.(Div (Col "k", Sub (Col "k", Col "k")))) ]
             (scan src)) );
      ( "and guards a raise",
        w Expr.(And (Gt (Col "k", int 1000), Lt (Col "dt", int 5))) );
      ( "and raises past its guard",
        w Expr.(And (Gt (Col "k", int 50), Lt (Col "dt", int 5))) );
      ("between guards a raise", w Expr.(Between (Col "k", int 1000, Col "s")));
      ( "between raises its operand first",
        w Expr.(Between (Add (Col "dt", int 1), Div (Col "k", Sub (Col "k", Col "k")), int 5)) );
      ("between mixed kinds", w Expr.(Between (Col "k", int 10, dec "40.50")));
      ("date sum, one row", gb [] [ ("s", Sum (Expr.Col "dt")) ] (w Expr.(Eq (Col "k", int 1))));
      ("date sum raises", gb [] [ ("s", Sum (Expr.Col "dt")) ] (scan src));
      ("char-packed keys", gb [ col "c"; col "kc" ] aggs (w Expr.(Ne (Col "opt", int 0))));
      ("q1 aggregates, packed char keys", gb [ col "c"; col "kc" ] q1_aggs (scan src));
      ( "min/max under char keys",
        gb [ col "c"; col "kc" ]
          [ ("mn_d", Min (Expr.Col "d")); ("mx_k", Max (Expr.Col "k")); ("mn_c", Min (Expr.Col "c")) ]
          (scan src) );
      ( "grouped division by zero",
        gb [ col "c" ] [ ("s", Sum Expr.(Div (Col "k", Sub (Col "k", Col "k")))) ] (scan src) );
      ("int-array keys", gb [ col "c"; col "dt" ] aggs (scan src));
      ("boxed keys", gb [ col "s"; col "opt" ] aggs (scan src));
      ("zero-key aggregate", gb [] aggs (scan src));
      ("empty input, keys", gb [ col "c" ] aggs (w Expr.(Lt (Col "k", int 0))));
      ("empty input, no keys", gb [] aggs (w Expr.(Lt (Col "k", int 0))));
      ( "filter over select",
        where
          Expr.(Gt (Col "x", dec "10.00"))
          (select [ col "c"; ("x", Expr.(Mul (Col "d", int 2))); ("y", Expr.(Neg (Col "k"))) ]
             (scan src)) );
      ("limit over filter", limit 7 (w Expr.(Ge (Col "k", int 20))));
      ( "filter over group",
        where
          Expr.(Gt (Col "n", int 10))
          (gb [ col "c" ] [ ("n", Count); ("mx", Max (Expr.Col "d")) ] (scan src)) );
      ( "group over sort",
        gb [ col "c" ] aggs (order_by [ (Expr.Col "k", Desc) ] (w Expr.(Gt (Col "k", int 10)))) );
      ("limit over group", limit 2 (gb [ col "c" ] [ ("n", Count) ] (scan src)));
      ( "select over join",
        select
          [ ("k", Expr.Col "k"); ("sum", Expr.(Add (Col "d", Col "k2"))) ]
          (join ~on:[ ("c", "c2") ] (w Expr.(Lt (Col "k", int 9)))
             (select [ ("c2", Expr.Col "c"); ("k2", Expr.Col "k") ] (scan src))) );
    ]

let test_fuse_parity () =
  List.iter
    (fun (cname, placement, mode) ->
      let _rt, coll = build ~placement ~mode ~n:100 () in
      let src = Source.of_smc coll ~columns:(columns @ [ ("kc", Source.C_char fk) ]) in
      List.iter (fun (n, p) -> check_fuse (cname ^ " " ^ n) p) (fuse_plans src);
      let raised = function Error _ -> true | Ok _ -> false in
      List.iter
        (fun (n, expect) ->
          check Alcotest.bool (cname ^ " " ^ n) expect
            (raised (outcome Fuse.collect (List.assoc n (fuse_plans src)))))
        [
          ("unused select column divides by zero", true);
          ("and guards a raise", false);
          ("and raises past its guard", true);
          ("between guards a raise", false);
          ("date sum, one row", false);
          ("date sum raises", true);
        ])
    configs;
  (* Eight char keys: 8 × 8 bits do not fit a 63-bit int, so packing them
     would merge groups whose first key differs only in bit 7 and whose
     other keys agree (k = 2 and k = 130 here). *)
  let _rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:300 () in
  let src =
    Source.of_smc coll ~columns:[ ("kc", Source.C_char fk); ("even", Source.C_char fb) ]
  in
  let keys =
    ("kc", Expr.Col "kc") :: List.init 7 (fun j -> (Printf.sprintf "e%d" j, Expr.Col "even"))
  in
  let plan = Plan.(group_by ~keys ~aggs:[ ("n", Count) ] (scan src)) in
  let reference = check_parity "eight char keys" plan in
  check_fuse "eight char keys" plan;
  check Alcotest.int "eight char keys: one group per first key"
    (List.length (List.sort_uniq compare (List.map (fun r -> r.(0)) reference)))
    (List.length reference);
  (* a source with no batch path: boxed chunks, every kernel on its
     scalar fallback *)
  let src =
    Source.of_array ~name:"mixed" ~schema:[ "a"; "b" ]
      [|
        [| Value.Int 1; Value.Str "x" |];
        [| Value.Null; Value.Str "y" |];
        [| Value.Int 3; Value.Str "x" |];
        [| Value.Dec (D.of_string "2.50"); Value.Str "z" |];
      |]
  in
  List.iter
    (fun (n, p) -> check_fuse ("of_array " ^ n) p)
    Plan.
      [
        ("filter", where Expr.(Gt (Col "a", int 1)) (scan src));
        ("contains", where (Expr.Contains (Expr.Col "b", "x")) (scan src));
        ( "group",
          group_by
            ~keys:[ ("b", Expr.Col "b") ]
            ~aggs:[ ("n", Count); ("s", Sum (Expr.Col "a")); ("mx", Max (Expr.Col "a")) ]
            (scan src) );
        ("arithmetic raises", select [ ("x", Expr.(Add (Col "a", Col "b"))) ] (scan src));
        ("limit", limit 2 (scan src));
      ]

(* ------------------------------------------------------------------ *)
(* The re-batcher: probe leaves and row-at-a-time operators feed chunk
   consumers through it ([Plan.leaf_batches], [Batch.of_rows]). Its store starts small and doubles up to [rows],
   so the chunk sizes, the row order and the loan contract are checked at
   every growth step and boundary. *)

let numbered n = List.init n (fun i -> [| Value.Int i; Value.Str (string_of_int i) |])

let rebatch ~rows ~n ?(on_batch = fun _ -> ()) () =
  let got = ref [] and sizes = ref [] in
  let push, flush =
    Batch.rebatcher ~ncols:2 ~rows ~emit:(fun bt ->
        sizes := bt.Batch.len :: !sizes;
        Batch.iter_rows bt ~f:(fun r -> got := r :: !got);
        on_batch bt)
  in
  List.iter push (numbered n);
  flush ();
  (List.rev !got, List.rev !sizes)

let test_rebatcher_chunks () =
  List.iter
    (fun rows ->
      List.iter
        (fun n ->
          let name = Printf.sprintf "rows=%d n=%d" rows n in
          let got, sizes = rebatch ~rows ~n () in
          check rows_testable (name ^ ": every row, in order") (numbered n) got;
          check Alcotest.int (name ^ ": batches") ((n + rows - 1) / rows) (List.length sizes);
          List.iteri
            (fun i len ->
              check Alcotest.bool
                (Printf.sprintf "%s: batch %d holds 1..%d rows (%d)" name i rows len)
                true
                (len >= 1 && len <= rows))
            sizes)
        [ 0; 1; 16; 17; rows; rows + 1; 3 * rows ])
    [ 1; 7; 1024 ]

(* A filter downstream compacts [sel] in place on its loan; the next loan
   of the same storage, or of a grown one, must still carry every row. *)
let test_rebatcher_loans () =
  let keep_odd bt =
    let k = ref 0 in
    for i = 0 to bt.Batch.len - 1 do
      Bigarray.Array1.set bt.Batch.sel !k (Bigarray.Array1.get bt.Batch.sel i);
      if i mod 2 = 1 then incr k
    done;
    bt.Batch.len <- !k
  in
  let got, sizes = rebatch ~rows:4 ~n:13 ~on_batch:keep_odd () in
  check rows_testable "rows=4: every loan whole" (numbered 13) got;
  check (Alcotest.list Alcotest.int) "rows=4: chunk sizes" [ 4; 4; 4; 1 ] sizes;
  (* flushes mid-stream, then the store grows past the loaned batch *)
  let got = ref [] in
  let push, flush =
    Batch.rebatcher ~ncols:2 ~rows:1024 ~emit:(fun bt ->
        Batch.iter_rows bt ~f:(fun r -> got := r :: !got);
        keep_odd bt)
  in
  let rows = numbered 100 in
  List.iteri
    (fun i r ->
      push r;
      if i = 19 || i = 59 then flush ())
    rows;
  flush ();
  check rows_testable "rows=1024: loans across growth" rows (List.rev !got)

(* Probe leaves reach Vector, Fuse and compiled plans as boxed chunks
   packed by the re-batcher ([Plan.leaf_batches]): IndexScan, TextScan and
   ViewRead with 0, 1, 17 and more than [Batch.default_rows] hits must
   match Volcano on every engine, with and without a residual filter, and
   every probe plan must compile natively. *)
let test_probe_leaves () =
  let n = 1100 in
  let rt = Smc_offheap.Runtime.create () in
  let probe_layout =
    Smc_offheap.Layout.create ~name:"probe"
      [
        ("k", Smc_offheap.Layout.Int); ("g", Smc_offheap.Layout.Int); ("s", Smc_offheap.Layout.Str 20);
      ]
  in
  let pk = Smc.Field.int probe_layout "k" and pg = Smc.Field.int probe_layout "g" in
  let ps = Smc.Field.str probe_layout "s" in
  let coll = Smc.Collection.create rt ~name:"probe" ~layout:probe_layout ~slots_per_block:64 () in
  (* g = 1 on one row, 2 on 17 rows, 3 on the rest; no row has g = 0 *)
  let group i = if i = 0 then 1 else if i <= 17 then 2 else 3 in
  let text i = [| ""; "solo row"; "seventeen row"; "bulk row" |].(group i) in
  for i = 0 to n - 1 do
    ignore
      (Smc.Collection.add coll ~init:(fun blk slot ->
           Smc.Field.set_int pk blk slot i;
           Smc.Field.set_int pg blk slot (group i);
           Smc.Field.set_string ps blk slot (text i))
        : Smc.Ref.t)
  done;
  let hix =
    Smc_index.Hash_index.attach ~name:"by_g" ~key:(Int_key (Smc.Field.get_int pg)) coll
  in
  let tix = Smc_text.Sa_index.attach ~name:"by_s" ~column:"s" coll in
  let cols = [ ("k", Source.C_int pk); ("g", Source.C_int pg); ("s", Source.C_str ps) ] in
  let keys = [ ("k", Expr.Col "k") ] in
  let aggs = [ ("n", Plan.Count); ("sg", Plan.Sum (Expr.Col "g")) ] in
  let view_aggs = List.map (fun (a, agg) -> (a, Plan.view_agg_of_agg agg)) aggs in
  (* one view per g: 0, 1, 17 and n - 18 groups *)
  let wheres = List.init 4 (fun g -> Some Expr.(Eq (Col "g", int g))) in
  let views =
    List.mapi
      (fun i where ->
        Smc_matview.Matview.attach ~name:(Printf.sprintf "v%d" i) coll ~columns:cols ~keys
          ~aggs:view_aggs ?where ())
      wheres
  in
  let src =
    Source.of_smc coll ~columns:cols ~indexes:[ ("g", hix) ] ~text_indexes:[ ("s", tix) ]
      ~matviews:(List.map Smc_matview.Matview.info views)
  in
  let residual = Expr.(Gt (Col "k", int 5)) in
  List.iteri
    (fun g hits ->
      let leaves =
        [
          ("index", Plan.index_scan src ~column:"g" ~value:(Value.Int g));
          ( "text",
            Plan.text_scan src ~column:"s" ~op:Smc_text.Sa_index.Substring
              ~needle:[| "absent"; "solo"; "seventeen"; "bulk" |].(g) );
          ("view", Plan.view_read src ~keys ~aggs ~where:(List.nth wheres g));
        ]
      in
      List.iter
        (fun (kind, leaf) ->
          let name = Printf.sprintf "%s, %d hits" kind hits in
          let rows = check_parity name leaf in
          check Alcotest.int (name ^ ": hit count") hits (List.length rows);
          ignore (check_parity (name ^ " + residual") (Plan.where residual leaf)))
        leaves)
    [ 0; 1; 17; n - 18 ]

(* ------------------------------------------------------------------ *)
(* Parallel group-bys: a group-by over a Where/Select chain over a Scan
   runs on the pool's workers when its table is typed, and the worker
   tables merge in the order the sequential scan first meets each group,
   so every engine still equals Volcano row for row. Pools of size 1 and
   3 (2 and 4 workers); the collections have holed 16-slot blocks. *)

let with_pool size f =
  let pool = Smc_parallel.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Smc_parallel.Pool.shutdown pool) (fun () -> f pool)

let par_configs = [ ("row", Block.Row); ("columnar", Block.Columnar) ]

let group_plans plans =
  List.filter (fun (_, p) -> match p with Plan.GroupBy _ -> true | _ -> false) plans

(* Every engine's outcome against Volcano's: rows in order, or the same
   exception. Vector may meet a raising row at another point of the scan,
   so when Volcano raises it need only raise too. *)
let check_par name plan =
  let reference = outcome Interp.collect plan in
  let same what got =
    check (Alcotest.result rows_testable Alcotest.string) (name ^ ": " ^ what ^ " = volcano")
      reference got
  in
  same "fuse" (outcome Fuse.collect plan);
  require_native plan;
  same "compiled" (outcome Codegen.collect plan);
  List.iter
    (fun rows ->
      let what = Printf.sprintf "vector[%d]" rows in
      match (reference, outcome (Vector.collect ~batch_rows:rows) plan) with
      | Error _, Error _ -> ()
      | _, got -> same what got)
    [ 1; 7; 1024 ]

let test_par_parity () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          List.iter
            (fun (cname, placement) ->
              let rt, coll = build ~placement ~mode:Context.Indirect ~n:100 () in
              let src =
                Source.of_smc ~pool coll ~columns:(columns @ [ ("kc", Source.C_char fk) ])
              in
              let merges0 = counter rt Smc_obs.c_par_group_merges in
              List.iter
                (fun (n, plan) -> check_par (Printf.sprintf "pool %d %s %s" size cname n) plan)
                (kernel_plans src @ group_plans (fuse_plans src @ compiled_plans src));
              check Alcotest.bool
                (Printf.sprintf "pool %d %s: worker tables were merged" size cname)
                true
                (counter rt Smc_obs.c_par_group_merges > merges0))
            par_configs;
          (* more than 5,000 groups: every worker's table grows, and the
             merged order must still be first-seen *)
          let _rt, coll = build ~placement:Block.Columnar ~mode:Context.Indirect ~n:7600 () in
          check_par
            (Printf.sprintf "pool %d many groups" size)
            (many_groups (Source.of_smc ~pool coll ~columns))))
    [ 1; 3 ]

let test_par_div_by_zero () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          group_div_by_zero ~pool ~label:(Printf.sprintf "pool %d " size) ()))
    [ 1; 3 ]

(* A boxed key, or a Limit in the chain, keeps the sequential path: no
   parallel walk starts and no table is merged, and the rows still equal
   Volcano's. *)
let test_par_stays_sequential () =
  with_pool 3 (fun pool ->
      let rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:100 () in
      let src = Source.of_smc ~pool coll ~columns in
      let gb keys input =
        Plan.group_by ~keys ~aggs:[ ("n", Plan.Count); ("s", Plan.Sum (Expr.Col "d")) ] input
      in
      List.iter
        (fun (n, plan) ->
          let scans0 = counter rt Smc_obs.c_par_scans
          and merges0 = counter rt Smc_obs.c_par_group_merges in
          check_par n plan;
          check Alcotest.int (n ^ ": no parallel walk") scans0 (counter rt Smc_obs.c_par_scans);
          check Alcotest.int (n ^ ": no merge") merges0 (counter rt Smc_obs.c_par_group_merges))
        Plan.
          [
            ("boxed key", gb [ ("s", Expr.Col "s") ] (where Expr.(Gt (Col "k", int 3)) (scan src)));
            ( "limit in the chain",
              gb [ ("c", Expr.Col "c") ] (where Expr.(Gt (Col "k", int 3)) (limit 40 (scan src))) );
          ])

(* TPC-H Q1 and Q6 through the planner on every batch engine: one merge
   per query on a 2-worker pool, none with [~domains:1]. *)
let test_par_merge_counter () =
  let ds = Smc_tpch.Dbgen.generate ~seed:11L ~sf:0.005 () in
  let db = Smc_tpch.Db_smc.load ds in
  let rt = db.Smc_tpch.Db_smc.rt in
  let queries src =
    List.map
      (fun mk -> Planner.choose_access_paths (mk src))
      Smc_experiments.Linq_vs_compiled.[ q1_plan; q6_plan ]
  in
  let engines =
    [ ("vector", fun p -> Vector.collect p); ("fuse", Fuse.collect); ("compiled", Codegen.collect) ]
  in
  with_pool 1 (fun pool ->
      List.iter
        (fun (domains, merged) ->
          let src = Smc_experiments.Linq_vs_compiled.lineitem_source ~pool ?domains db in
          List.iter
            (fun (engine, collect) ->
              let m0 = counter rt Smc_obs.c_par_group_merges in
              List.iter
                (fun plan ->
                  require_native plan;
                  check rows_testable (engine ^ " = volcano") (Interp.collect plan) (collect plan))
                (queries src);
              check Alcotest.int
                (Printf.sprintf "%s, domains %s: merges" engine
                   (match domains with Some d -> string_of_int d | None -> "default"))
                merged
                (counter rt Smc_obs.c_par_group_merges - m0))
            engines)
        [ (None, 2); (Some 1, 0) ])

(* ------------------------------------------------------------------ *)
(* Expression differential: random expressions over every column kind,
   with edge constants (Null, Int against Dec, chars at and above 0x80,
   zero divisors, empty and 1-byte needles), as a [Where], a [Select] and
   a [GroupBy] key and aggregate over a [Scan]. Vector at three chunk
   sizes, Fuse and Compiled must each give Volcano's rows in order, or
   the same exception. This is the parity net of {!Kernel.lower}. *)

let expr_consts =
  Value.
    [
      Null; Int 0; Int 1; Int 5; Int (-7); Int 40;
      Dec (D.of_string "0.00"); Dec (D.of_string "5.00"); Dec (D.of_string "-1.50");
      Dec (D.of_string "40.50"); Date 10030; Str ""; Str "A"; Str "B"; Str "\x80"; Str "\xff";
      Str "n01"; Bool true; Bool false;
    ]

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> Expr.Col c) (oneofl [ "k"; "d"; "dt"; "c"; "b"; "s"; "opt" ]);
        map (fun v -> Expr.Const v) (oneofl expr_consts);
      ]
  in
  let needle = oneofl [ ""; "A"; "B"; "\x80"; "n0"; "1" ] in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           let bin f = map2 f sub sub in
           frequency
             [
               (3, leaf);
               (1, bin (fun a b -> Expr.Add (a, b)));
               (1, bin (fun a b -> Expr.Sub (a, b)));
               (1, bin (fun a b -> Expr.Mul (a, b)));
               (1, bin (fun a b -> Expr.Div (a, b)));
               (1, map (fun a -> Expr.Neg a) sub);
               (2, bin (fun a b -> Expr.Eq (a, b)));
               (1, bin (fun a b -> Expr.Ne (a, b)));
               (2, bin (fun a b -> Expr.Lt (a, b)));
               (1, bin (fun a b -> Expr.Le (a, b)));
               (1, bin (fun a b -> Expr.Gt (a, b)));
               (1, bin (fun a b -> Expr.Ge (a, b)));
               (2, bin (fun a b -> Expr.And (a, b)));
               (1, bin (fun a b -> Expr.Or (a, b)));
               (1, map (fun a -> Expr.Not a) sub);
               (2, map3 (fun x lo hi -> Expr.Between (x, lo, hi)) sub sub sub);
               (1, map2 (fun a n -> Expr.Contains (a, n)) sub needle);
               (1, map2 (fun a n -> Expr.ContainsCI (a, n)) sub needle);
               (1, map2 (fun a n -> Expr.StartsWith (a, n)) sub needle);
             ])

let expr_plans src e =
  let col c = (c, Expr.Col c) in
  Plan.
    [
      ("where", Where (e, Scan src));
      ("select", Select ([ ("x", e); col "k" ], Scan src));
      ("group key", GroupBy { keys = [ ("g", e) ]; aggs = [ ("n", Count) ]; input = Scan src });
      ( "group aggregates",
        GroupBy
          {
            keys = [ col "c" ];
            aggs = [ ("mn", Min e); ("mx", Max e); ("s", Sum e); ("a", Avg e) ];
            input = Scan src;
          } );
    ]

(* Each distinct plugin costs an ocamlopt run: Compiled runs a plan whose
   source it has compiled before, any plan while fewer than
   [compile_budget] sources have been compiled, and any plan another
   engine already disagrees on, which keeps the group near 15 s on two
   cores and still names every engine a failure reaches. *)
let compile_budget = 250
let compiled_sources = Hashtbl.create 64

let compiled_outcome ~force plan =
  let source = Codegen.to_ocaml_source plan in
  if force || Hashtbl.mem compiled_sources source || Hashtbl.length compiled_sources < compile_budget
  then begin
    Hashtbl.replace compiled_sources source ();
    match Codegen.prepare plan with
    | runner, Codegen.Native _ ->
      let out = ref [] in
      Some
        (match runner (fun row -> out := row :: !out) with
        | () -> Ok (List.rev !out)
        | exception e -> Error (Printexc.to_string e))
    | _, Codegen.Fallback reason -> Some (Error ("fell back to Fuse: " ^ reason))
  end
  else None

let expr_sources =
  lazy
    (List.map
       (fun (placement, mode) ->
         let _rt, coll = build ~placement ~mode ~n:30 () in
         Source.of_smc coll ~columns)
       [ (Block.Row, Context.Indirect); (Block.Columnar, Context.Direct) ])

let prop_expr_parity (which, e) =
  let src = List.nth (Lazy.force expr_sources) which in
  List.for_all
    (fun (use, plan) ->
      let reference = outcome Interp.collect plan in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> List.equal (fun x y -> Array.for_all2 Value.equal x y) a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      let show = function
        | Ok rows -> Printf.sprintf "%d rows" (List.length rows)
        | Error m -> "raised " ^ m
      in
      let differ (name, got) =
        if same reference got then None else Some (name ^ ": " ^ show got)
      in
      let bad =
        List.filter_map differ
          [
            ("vector[1]", outcome (Vector.collect ~batch_rows:1) plan);
            ("vector[7]", outcome (Vector.collect ~batch_rows:7) plan);
            ("vector[1024]", outcome (Vector.collect ~batch_rows:1024) plan);
            ("fuse", outcome Fuse.collect plan);
          ]
      in
      let compiled =
        if Dynlink.is_native then compiled_outcome ~force:(bad <> []) plan else None
      in
      let bad = bad @ Option.to_list (Option.bind compiled (fun got -> differ ("compiled", got))) in
      match bad with
      | [] -> true
      | bad ->
        QCheck.Test.fail_reportf "%s of %s: volcano %s; %s" use (Expr.to_string e)
          (show reference) (String.concat "; " bad))
    (expr_plans src e)

let test_expr_parity =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 28 |])
    (QCheck.Test.make ~count:600 ~name:"random expressions = volcano on every engine"
       (QCheck.make
          ~print:(fun (w, e) -> Printf.sprintf "source %d: %s" w (Expr.to_string e))
          QCheck.Gen.(pair (int_bound 1) gen_expr))
       prop_expr_parity)

let () =
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vector"
    [
      ( "parity",
        [
          qc "scan across configs" test_scan_parity;
          qc "typed filters" test_typed_filters;
          qc "null semantics" test_null_semantics;
          qc "fallback predicates" test_fallback_predicates;
          qc "select arithmetic" test_select_arithmetic;
          qc "group-by shapes" test_group_by_shapes;
          qc "typed group-by kernels" test_group_kernels;
          qc "grouped division by zero" test_group_div_by_zero;
          qc "row operators" test_row_operators;
          qc "of_array sources" test_of_array_sources;
          qc "error parity" test_error_parity;
          qc "group-by output raises in pull order" test_group_raise_order;
        ] );
      ( "integration",
        [
          qc "snapshot view frontier" test_view_frontier;
          qc "parallel batch scan" test_parallel_batch_scan;
          qc "filter counters balance" test_vec_counters;
        ] );
      ("fuse", [ qc "fuse = volcano on typed shapes" test_fuse_parity ]);
      ( "parallel",
        [
          qc "typed group-bys = volcano, in order" test_par_parity;
          qc "grouped division by zero" test_par_div_by_zero;
          qc "boxed key and limit stay sequential" test_par_stays_sequential;
          qc "merges counted for Q1/Q6" test_par_merge_counter;
        ] );
      ( "fill",
        [
          qc "chunks = row path" test_fill_parity;
          qc "chunks under a snapshot view" test_fill_view;
          qc "parallel chunks" test_fill_parallel;
        ] );
      ( "walk",
        [
          qc "compaction formed mid-walk" test_midwalk_compaction;
          qc "compaction completed mid-walk, per-block sections"
            test_midwalk_compaction_per_block;
          qc "a row is not emitted before its init returns" test_init_before_valid;
          qc "removals in full blocks mid-walk" test_midwalk_removals;
        ] );
      ("expressions", [ test_expr_parity ]);
      ( "compiled",
        [
          qc "compiled = fuse on typed shapes" test_compiled_parity;
          qc "plugins shared by column kinds" test_compiled_sharing;
        ] );
      ( "rebatcher",
        [
          qc "chunk sizes and row order" test_rebatcher_chunks;
          qc "loans survive a compacting filter" test_rebatcher_loans;
          qc "probe leaves = volcano" test_probe_leaves;
        ] );
    ]
