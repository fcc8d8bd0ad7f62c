open Smc_util
module C = Smc.Collection
module F = Smc.Field
module D = Smc_decimal.Decimal

let fields = lazy (Smc_tpch.Db_smc.lineitem_fields)

let lineitem_collection ?mode ?slots_per_block ?reclaim_threshold () =
  let rt = Smc_offheap.Runtime.create () in
  let coll =
    C.create rt ~name:"lineitems" ~layout:Smc_tpch.Schema.lineitem ?mode ?slots_per_block
      ?reclaim_threshold ()
  in
  (rt, coll)

let add_lineitem coll g =
  let lf = Lazy.force fields in
  let qty = Prng.int_in g 1 50 in
  let price = D.of_cents (Prng.int_in g 100000 10000000) in
  C.add coll ~init:(fun blk slot ->
      F.set_int lf.Smc_tpch.Db_smc.l_linenumber blk slot (Prng.int_in g 1 7);
      F.set_dec lf.Smc_tpch.Db_smc.l_quantity blk slot (D.of_int qty);
      F.set_dec lf.Smc_tpch.Db_smc.l_extendedprice blk slot price;
      F.set_dec lf.Smc_tpch.Db_smc.l_discount blk slot (D.of_cents (Prng.int_in g 0 10));
      F.set_dec lf.Smc_tpch.Db_smc.l_tax blk slot (D.of_cents (Prng.int_in g 0 8));
      F.set_string lf.Smc_tpch.Db_smc.l_returnflag blk slot "N";
      F.set_string lf.Smc_tpch.Db_smc.l_linestatus blk slot "O";
      F.set_date lf.Smc_tpch.Db_smc.l_shipdate blk slot
        (Smc_tpch.Spec.start_date + Prng.int g 2000);
      F.set_date lf.Smc_tpch.Db_smc.l_commitdate blk slot
        (Smc_tpch.Spec.start_date + Prng.int g 2000);
      F.set_date lf.Smc_tpch.Db_smc.l_receiptdate blk slot
        (Smc_tpch.Spec.start_date + Prng.int g 2000);
      F.set_string lf.Smc_tpch.Db_smc.l_shipmode blk slot "MAIL";
      F.set_string lf.Smc_tpch.Db_smc.l_comment blk slot "synthetic workload row")

let churn coll ~refs ~prng ~fraction ~rounds =
  let n = Array.length refs in
  let per_round = int_of_float (float_of_int n *. fraction) in
  for _ = 1 to rounds do
    for _ = 1 to per_round do
      let i = Prng.int prng n in
      if not (Smc.Ref.is_null refs.(i)) then begin
        ignore (C.remove coll refs.(i) : bool);
        refs.(i) <- add_lineitem coll prng
      end
    done;
    (* Advance epochs so limbo slots become reclaimable between rounds. *)
    let epoch = coll.C.rt.Smc_offheap.Runtime.epoch in
    ignore
      (Smc_offheap.Epoch.advance_until epoch
         ~target:(Smc_offheap.Epoch.global epoch + 2)
         ~max_spins:1000
        : bool)
  done

let scan_sum coll =
  let lf = Lazy.force fields in
  let f_qty = lf.Smc_tpch.Db_smc.l_quantity in
  let total = ref 0 in
  C.iter coll ~f:(fun blk slot -> total := !total + F.get_int f_qty blk slot);
  !total

let domains_run n body =
  if n <= 1 then body 0
  else begin
    let domains = List.init n (fun i -> Domain.spawn (fun () -> body i)) in
    List.iter Domain.join domains
  end
