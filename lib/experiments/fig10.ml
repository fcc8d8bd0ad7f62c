open Smc_util
module C = Smc.Collection
module F = Smc.Field
module V = Smc_managed.Vector
module CB = Smc_managed.Concurrent_bag
module CD = Smc_managed.Concurrent_dictionary
module R = Smc_tpch.Row

type point = {
  variant : string;
  worn : bool;
  enumeration_ms : float;
  nested_ms : float;
}

let median_ms f = Stats.median (Timing.repeat ~warmup:1 3 f)

let managed_times iter_lineitems =
  let enumeration =
    median_ms (fun () ->
        let acc = ref 0 in
        iter_lineitems (fun (li : R.lineitem) -> acc := !acc + li.R.l_quantity);
        ignore (Sys.opaque_identity !acc))
  in
  let nested =
    median_ms (fun () ->
        let acc = ref 0 in
        iter_lineitems (fun (li : R.lineitem) ->
            acc := !acc + li.R.l_order.R.o_customer.R.c_acctbal);
        ignore (Sys.opaque_identity !acc))
  in
  (enumeration, nested)

(* SMC enumeration in compiled-query style: hoisted offsets, raw block
   reads, allocation-free reference navigation. *)
let smc_times (db : Smc_tpch.Db_smc.t) =
  let module Context = Smc_offheap.Context in
  let module Block = Smc_offheap.Block in
  let module BA1 = Bigarray.Array1 in
  let lf = db.Smc_tpch.Db_smc.lf
  and orf = db.Smc_tpch.Db_smc.orf
  and cf = db.Smc_tpch.Db_smc.cf in
  let o_qty = lf.Smc_tpch.Db_smc.l_quantity.Smc_offheap.Layout.word in
  let o_lorder = lf.Smc_tpch.Db_smc.l_order.Smc_offheap.Layout.word in
  let o_ocust = orf.Smc_tpch.Db_smc.o_customer.Smc_offheap.Layout.word in
  let o_bal = cf.Smc_tpch.Db_smc.c_acctbal.Smc_offheap.Layout.word in
  let orders = db.Smc_tpch.Db_smc.orders and customers = db.Smc_tpch.Db_smc.customers in
  let octx = orders.C.ctx and cctx = customers.C.ctx in
  let o_sw = orders.C.layout.Smc_offheap.Layout.slot_words in
  let c_sw = customers.C.layout.Smc_offheap.Layout.slot_words in
  let resolve ctx w =
    if w < 0 then -1
    else
      match ctx.Context.mode with
      | Context.Indirect -> Context.resolve_loc ctx w
      | Context.Direct -> Context.resolve_direct_loc ctx w
  in
  let enumeration =
    median_ms (fun () ->
        let acc = ref 0 in
        C.iter db.Smc_tpch.Db_smc.lineitems ~f:(fun blk ->
            let data = blk.Block.data in
            let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
            fun slot -> acc := !acc + BA1.unsafe_get data ((slot * sw) + o_qty));
        ignore (Sys.opaque_identity !acc))
  in
  let nested =
    median_ms (fun () ->
        let acc = ref 0 in
        C.iter db.Smc_tpch.Db_smc.lineitems ~f:(fun blk ->
            let data = blk.Block.data in
            let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
            fun slot ->
              let oloc = resolve octx (BA1.unsafe_get data ((slot * sw) + o_lorder)) in
              if oloc >= 0 then begin
                let ob = Context.block_of_loc octx oloc in
                let os = Smc_offheap.Constants.ptr_slot oloc in
                let cloc =
                  resolve cctx (BA1.unsafe_get ob.Block.data ((os * o_sw) + o_ocust))
                in
                if cloc >= 0 then begin
                  let cb = Context.block_of_loc cctx cloc in
                  let cs = Smc_offheap.Constants.ptr_slot cloc in
                  acc := !acc + BA1.unsafe_get cb.Block.data ((cs * c_sw) + o_bal)
                end
              end);
        ignore (Sys.opaque_identity !acc))
  in
  (enumeration, nested)

(* Wear a vector with insert/remove churn: removed records leave, their
   replacements are allocated late (scattered across the heap) — the
   fragmentation the paper's "worn" state captures. *)
let churn_vector v (ds : R.dataset) ~prng ~pairs ~batch =
  for _ = 1 to pairs do
    for _ = 1 to batch do
      V.add v (Smc_tpch.Refresh.fresh_lineitem_row prng ds)
    done;
    let keys = Hashtbl.create 16 in
    for _ = 1 to max 1 (batch / 4) do
      Hashtbl.replace keys
        ds.R.orders.(Prng.int prng (Array.length ds.R.orders)).R.o_orderkey ()
    done;
    ignore (V.remove_bulk v ~pred:(fun (li : R.lineitem) -> Hashtbl.mem keys li.R.l_order.R.o_orderkey) : int)
  done

let fresh_vector (ds : R.dataset) =
  let v = V.create ~capacity:(Array.length ds.R.lineitems) () in
  Array.iter (fun li -> V.add v li) ds.R.lineitems;
  v

let bag_of_vector v =
  let b = CB.create () in
  V.iter v ~f:(fun li -> CB.add b li);
  b

let dict_of_vector v =
  let d = CD.create ~capacity:(V.length v) () in
  let i = ref 0 in
  V.iter v ~f:(fun li ->
      CD.add d ~key:!i li;
      incr i);
  d

let run ?(sf = 0.05) ?(wear_pairs = 20) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let batch = max 1 (Array.length ds.R.lineitems / 1000) in
  let prng = Prng.create ~seed:77L () in
  (* Managed stores share one fresh and one worn record population. *)
  let fresh_v = fresh_vector ds in
  let worn_v = fresh_vector ds in
  churn_vector worn_v ds ~prng ~pairs:wear_pairs ~batch;
  let fresh_bag = bag_of_vector fresh_v and worn_bag = bag_of_vector worn_v in
  let fresh_dict = dict_of_vector fresh_v and worn_dict = dict_of_vector worn_v in
  (* SMC stores: indirect and direct; worn copies churned via refresh ops. *)
  let smc_fresh = Smc_tpch.Db_smc.load ds in
  let smc_worn = Smc_tpch.Db_smc.load ds in
  let smc_direct_fresh = Smc_tpch.Db_smc.load ~mode:Smc_offheap.Context.Direct ds in
  let smc_direct_worn = Smc_tpch.Db_smc.load ~mode:Smc_offheap.Context.Direct ds in
  let wear_smc db =
    let ops = Smc_tpch.Refresh.smc_ops db ds in
    let p = Prng.create ~seed:78L () in
    for _ = 1 to wear_pairs do
      Smc_tpch.Refresh.run_stream_pair ops ~prng:p ~batch
    done
  in
  wear_smc smc_worn;
  wear_smc smc_direct_worn;
  let results =
    [
      ("List", false, managed_times (fun f -> V.iter fresh_v ~f));
      ("List", true, managed_times (fun f -> V.iter worn_v ~f));
      ("C. Bag", false, managed_times (fun f -> CB.iter fresh_bag ~f));
      ("C. Bag", true, managed_times (fun f -> CB.iter worn_bag ~f));
      ("C. Dictionary", false, managed_times (fun f -> CD.iter fresh_dict ~f:(fun _ x -> f x)));
      ("C. Dictionary", true, managed_times (fun f -> CD.iter worn_dict ~f:(fun _ x -> f x)));
      ("SMC", false, smc_times smc_fresh);
      ("SMC", true, smc_times smc_worn);
      ("SMC (direct)", false, smc_times smc_direct_fresh);
      ("SMC (direct)", true, smc_times smc_direct_worn);
    ]
  in
  List.map
    (fun (variant, worn, (enumeration_ms, nested_ms)) ->
      { variant; worn; enumeration_ms; nested_ms })
    results

let table points =
  let t =
    Table.create ~title:"Figure 10: enumeration performance (ms)"
      ~columns:[ "variant"; "state"; "enumeration"; "nested enumeration" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.variant;
          (if p.worn then "worn" else "fresh");
          Printf.sprintf "%.2f" p.enumeration_ms;
          Printf.sprintf "%.2f" p.nested_ms;
        ])
    points;
  t
