open Smc_util
module Q = Smc_query
module V = Smc_query.Value

type point = { query : string; engine : string; ms : float; vs_compiled_pct : float }

let median_ms f = Stats.median (Timing.repeat ~warmup:1 3 (fun () -> ignore (Sys.opaque_identity (f ()))))

let lineitem_source ?pool ?domains (db : Smc_tpch.Db_smc.t) =
  let lf = db.Smc_tpch.Db_smc.lf in
  Q.Source.of_smc ?pool ?domains db.Smc_tpch.Db_smc.lineitems
    ~columns:
      Q.Source.
        [
          ("shipdate", C_date lf.Smc_tpch.Db_smc.l_shipdate);
          ("discount", C_dec lf.Smc_tpch.Db_smc.l_discount);
          ("quantity", C_dec lf.Smc_tpch.Db_smc.l_quantity);
          ("price", C_dec lf.Smc_tpch.Db_smc.l_extendedprice);
          ("tax", C_dec lf.Smc_tpch.Db_smc.l_tax);
          ("returnflag", C_char lf.Smc_tpch.Db_smc.l_returnflag);
          ("linestatus", C_char lf.Smc_tpch.Db_smc.l_linestatus);
        ]

let q6_plan src =
  let lo = Smc_tpch.Results.q6_date in
  let hi = Smc_util.Date.add_months lo 12 in
  Q.Plan.(
    group_by ~keys:[]
      ~aggs:[ ("revenue", Sum Q.Expr.(Mul (Col "price", Col "discount"))) ]
      (where
         Q.Expr.(
           And
             ( And (Ge (Col "shipdate", Const (V.Date lo)), Lt (Col "shipdate", Const (V.Date hi))),
               And (Between (Col "discount", dec "0.05", dec "0.07"), Lt (Col "quantity", int 24))
             ))
         (scan src)))

let q1_plan src =
  let cutoff =
    Smc_util.Date.add_days (Smc_util.Date.of_ymd 1998 12 1) (-Smc_tpch.Results.q1_delta_days)
  in
  Q.Plan.(
    group_by
      ~keys:[ ("rf", Q.Expr.Col "returnflag"); ("ls", Q.Expr.Col "linestatus") ]
      ~aggs:
        [
          ("sum_qty", Sum (Q.Expr.Col "quantity"));
          ("sum_price", Sum (Q.Expr.Col "price"));
          ( "sum_disc_price",
            Sum Q.Expr.(Mul (Col "price", Sub (dec "1.00", Col "discount"))) );
          ("n", Count);
        ]
      (where Q.Expr.(Le (Col "shipdate", Const (V.Date cutoff))) (scan src)))

let run ?(sf = 0.05) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  let list_db = Smc_tpch.Db_managed.of_vectors ds in
  let src = lineitem_source db in
  let entries =
    [
      (* The paper's direct claim: LINQ over managed collections costs
         40–400% more than compiled code over the same collections. *)
      ( "Q6",
        [
          ("compiled (managed List)", fun () -> Obj.repr (Smc_tpch.Q_managed.q6 list_db));
          ("LINQ (Seq over List)", fun () -> Obj.repr (Smc_tpch.Q_linq.q6 list_db));
          ("compiled (SMC, hand-fused)", fun () -> Obj.repr (Smc_tpch.Q_smc.q6 ~unsafe:true db));
          ("fused pipeline (SMC)", fun () -> Obj.repr (Q.Fuse.collect (q6_plan src)));
          ("Volcano (SMC)", fun () -> Obj.repr (Q.Interp.collect (q6_plan src)));
        ] );
      ( "Q1",
        [
          ("compiled (managed List)", fun () -> Obj.repr (Smc_tpch.Q_managed.q1 list_db));
          ("LINQ (Seq over List)", fun () -> Obj.repr (Smc_tpch.Q_linq.q1 list_db));
          ("compiled (SMC, hand-fused)", fun () -> Obj.repr (Smc_tpch.Q_smc.q1 ~unsafe:true db));
          ("fused pipeline (SMC)", fun () -> Obj.repr (Q.Fuse.collect (q1_plan src)));
          ("Volcano (SMC)", fun () -> Obj.repr (Q.Interp.collect (q1_plan src)));
        ] );
      ( "Q3",
        [
          ("compiled (managed List)", fun () -> Obj.repr (Smc_tpch.Q_managed.q3 list_db));
          ("LINQ (Seq over List)", fun () -> Obj.repr (Smc_tpch.Q_linq.q3 list_db));
        ] );
    ]
  in
  List.concat_map
    (fun (query, engines) ->
      (* Measure every engine exactly once; the first is the 100% base. *)
      let timed = List.map (fun (engine, f) -> (engine, median_ms f)) engines in
      match timed with
      | [] -> []
      | (_, base) :: _ ->
        List.map
          (fun (engine, ms) -> { query; engine; ms; vs_compiled_pct = 100.0 *. ms /. base })
          timed)
    entries

let table points =
  let t =
    Table.create ~title:"E9: LINQ-style vs compiled query evaluation"
      ~columns:[ "query"; "engine"; "ms"; "vs compiled (%)" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ p.query; p.engine; Printf.sprintf "%.2f" p.ms; Printf.sprintf "%.0f" p.vs_compiled_pct ])
    points;
  t
