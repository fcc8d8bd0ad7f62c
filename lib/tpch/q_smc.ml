module C = Smc.Collection
module F = Smc.Field
module D = Smc_decimal.Decimal
module Block = Smc_offheap.Block
module BA1 = Bigarray.Array1
module Par_scan = Smc_parallel.Par_scan

let ends_with ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

(* Reference access for the safe variant: build the application-level
   reference (back-pointer → ObjRef) and dereference it with the full
   incarnation check — the path managed-equivalent compiled code takes. *)
let safe_follow field ~target blk slot =
  let r = F.get_ref field ~target blk slot in
  C.deref_opt target r

(* Word-address helpers for the unsafe (raw block access) variants. Row
   placement resolves a slot's base once; columnar placement resolves a
   plane base per field. *)
let word_offset (f : Smc_offheap.Layout.field) = f.Smc_offheap.Layout.word

module Context = Smc_offheap.Context

(* Hoisted per-query target descriptors for the unsafe variants: the target
   collection's slot width and placement are compile-time constants of the
   generated query, so a resolved (block, slot) location reads fields with
   two loads instead of going through the generic accessor. *)
type target = { tctx : Context.t; tsw : int; trow : bool }

let target (c : C.t) =
  {
    tctx = c.C.ctx;
    tsw = c.C.layout.Smc_offheap.Layout.slot_words;
    trow = c.C.ctx.Context.placement = Block.Row;
  }

let resolve_in t w =
  if w < 0 then -1
  else
    match t.tctx.Context.mode with
    | Context.Indirect -> Context.resolve_loc t.tctx w
    | Context.Direct -> Context.resolve_direct_loc t.tctx w

let tword t blk slot off =
  if t.trow then BA1.unsafe_get blk.Block.data ((slot * t.tsw) + off)
  else BA1.unsafe_get blk.Block.data ((off * blk.Block.nslots) + slot)

let tblock t loc = Context.block_of_loc t.tctx loc


type q1_acc = {
  mutable a_qty : D.t;
  mutable a_base : D.t;
  mutable a_disc_price : D.t;
  mutable a_charge : D.t;
  mutable a_disc : D.t;
  mutable a_count : int;
}

let q1_row rf ls ~qty ~base ~disc_price ~charge ~disc ~count =
  {
    Results.q1_returnflag = rf;
    q1_linestatus = ls;
    sum_qty = qty;
    sum_base_price = base;
    sum_disc_price = disc_price;
    sum_charge = charge;
    avg_qty = D.avg ~sum:qty ~count;
    avg_price = D.avg ~sum:base ~count;
    avg_disc = D.avg ~sum:disc ~count;
    count_order = count;
  }

(* ------------------------------------------------------------------ *)
(* Q1 — safe: managed-style hash aggregation over field accessors. *)

let q1_safe (db : Db_smc.t) cutoff =
  let lf = db.Db_smc.lf in
  let groups : (char * char, q1_acc) Hashtbl.t = Hashtbl.create 8 in
  C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
      if F.get_date lf.Db_smc.l_shipdate blk slot <= cutoff then begin
        let key =
          (F.get_char lf.Db_smc.l_returnflag blk slot, F.get_char lf.Db_smc.l_linestatus blk slot)
        in
        let acc =
          match Hashtbl.find_opt groups key with
          | Some acc -> acc
          | None ->
            let acc =
              {
                a_qty = D.zero;
                a_base = D.zero;
                a_disc_price = D.zero;
                a_charge = D.zero;
                a_disc = D.zero;
                a_count = 0;
              }
            in
            Hashtbl.add groups key acc;
            acc
        in
        let price = F.get_dec lf.Db_smc.l_extendedprice blk slot in
        let disc = F.get_dec lf.Db_smc.l_discount blk slot in
        let disc_price = D.mul price (D.sub D.one disc) in
        acc.a_qty <- D.add acc.a_qty (F.get_dec lf.Db_smc.l_quantity blk slot);
        acc.a_base <- D.add acc.a_base price;
        acc.a_disc_price <- D.add acc.a_disc_price disc_price;
        acc.a_charge <-
          D.add acc.a_charge
            (D.mul disc_price (D.add D.one (F.get_dec lf.Db_smc.l_tax blk slot)));
        acc.a_disc <- D.add acc.a_disc disc;
        acc.a_count <- acc.a_count + 1
      end);
  Results.sort_q1
    (Hashtbl.fold
       (fun (rf, ls) acc rows ->
         q1_row rf ls ~qty:acc.a_qty ~base:acc.a_base ~disc_price:acc.a_disc_price
           ~charge:acc.a_charge ~disc:acc.a_disc ~count:acc.a_count
         :: rows)
       groups [])

(* Q1 — unsafe: raw block access with all offsets hoisted out of the slot
   loop, group accumulators in a pre-allocated flat region indexed by the
   (returnflag, linestatus) byte pair, decimal math in place. The
   sequential variant drives the kernel with [C.iter] over one region; the
   parallel one gives every worker domain its own region — no sharing, no
   atomics on the hot path — and merges them element-wise on the calling
   domain once all workers finished. The workers share one §5.2 block
   walk and scan each block inside its own epoch critical section. *)

let q1_groups = 512

type q1_flat = {
  p_qty : int array;
  p_base : int array;
  p_disc_price : int array;
  p_charge : int array;
  p_disc : int array;
  p_count : int array;
}

let q1_flat_make () =
  {
    p_qty = Array.make q1_groups 0;
    p_base = Array.make q1_groups 0;
    p_disc_price = Array.make q1_groups 0;
    p_charge = Array.make q1_groups 0;
    p_disc = Array.make q1_groups 0;
    p_count = Array.make q1_groups 0;
  }

let q1_flat_merge a b =
  for g = 0 to q1_groups - 1 do
    a.p_qty.(g) <- a.p_qty.(g) + b.p_qty.(g);
    a.p_base.(g) <- a.p_base.(g) + b.p_base.(g);
    a.p_disc_price.(g) <- a.p_disc_price.(g) + b.p_disc_price.(g);
    a.p_charge.(g) <- a.p_charge.(g) + b.p_charge.(g);
    a.p_disc.(g) <- a.p_disc.(g) + b.p_disc.(g);
    a.p_count.(g) <- a.p_count.(g) + b.p_count.(g)
  done;
  a

let q1_cutoff () =
  Smc_util.Date.add_days (Smc_util.Date.of_ymd 1998 12 1) (-Results.q1_delta_days)

(* The Q1 kernel: [q1_kernel db cutoff acc blk] hoists the block's raw
   state and returns the per-slot body folding into [acc]. *)
let q1_kernel (db : Db_smc.t) cutoff =
  let lf = db.Db_smc.lf in
  let o_ship = word_offset lf.Db_smc.l_shipdate
  and o_rf = word_offset lf.Db_smc.l_returnflag
  and o_ls = word_offset lf.Db_smc.l_linestatus
  and o_qty = word_offset lf.Db_smc.l_quantity
  and o_price = word_offset lf.Db_smc.l_extendedprice
  and o_disc = word_offset lf.Db_smc.l_discount
  and o_tax = word_offset lf.Db_smc.l_tax in
  fun acc blk ->
    let data = blk.Block.data in
    let consume g price d q tax =
      let dp = D.mul price (D.sub D.one d) in
      acc.p_qty.(g) <- acc.p_qty.(g) + q;
      acc.p_base.(g) <- acc.p_base.(g) + price;
      acc.p_disc_price.(g) <- acc.p_disc_price.(g) + dp;
      acc.p_charge.(g) <- acc.p_charge.(g) + D.mul dp (D.add D.one tax);
      acc.p_disc.(g) <- acc.p_disc.(g) + d;
      acc.p_count.(g) <- acc.p_count.(g) + 1
    in
    match blk.Block.placement with
    | Block.Row ->
      let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
      fun slot ->
        let b = slot * sw in
        if BA1.unsafe_get data (b + o_ship) <= cutoff then begin
          let g =
            ((BA1.unsafe_get data (b + o_rf) land 0x7F) lsl 1)
            lor (BA1.unsafe_get data (b + o_ls) land 1)
          in
          consume g
            (BA1.unsafe_get data (b + o_price))
            (BA1.unsafe_get data (b + o_disc))
            (BA1.unsafe_get data (b + o_qty))
            (BA1.unsafe_get data (b + o_tax))
        end
    | Block.Columnar ->
      let n = blk.Block.nslots in
      let b_ship = o_ship * n
      and b_rf = o_rf * n
      and b_ls = o_ls * n
      and b_qty = o_qty * n
      and b_price = o_price * n
      and b_disc = o_disc * n
      and b_tax = o_tax * n in
      fun slot ->
        if BA1.unsafe_get data (b_ship + slot) <= cutoff then begin
          let g =
            ((BA1.unsafe_get data (b_rf + slot) land 0x7F) lsl 1)
            lor (BA1.unsafe_get data (b_ls + slot) land 1)
          in
          consume g
            (BA1.unsafe_get data (b_price + slot))
            (BA1.unsafe_get data (b_disc + slot))
            (BA1.unsafe_get data (b_qty + slot))
            (BA1.unsafe_get data (b_tax + slot))
        end

let q1_rows acc =
  let rows = ref [] in
  for g = q1_groups - 1 downto 0 do
    if acc.p_count.(g) > 0 then
      rows :=
        q1_row (Char.chr (g lsr 1))
          (if g land 1 = 1 then 'O' else 'F')
          ~qty:acc.p_qty.(g) ~base:acc.p_base.(g) ~disc_price:acc.p_disc_price.(g)
          ~charge:acc.p_charge.(g) ~disc:acc.p_disc.(g) ~count:acc.p_count.(g)
        :: !rows
  done;
  Results.sort_q1 !rows

let q1 ?(unsafe = false) db =
  let cutoff = q1_cutoff () in
  if unsafe then begin
    let acc = q1_flat_make () in
    C.iter db.Db_smc.lineitems ~f:(q1_kernel db cutoff acc);
    q1_rows acc
  end
  else q1_safe db cutoff

let q1_par ?pool ?domains (db : Db_smc.t) =
  q1_rows
    (Par_scan.fold_hoisted_par ?pool ?domains db.Db_smc.lineitems.C.ctx ~init:q1_flat_make
       ~on_block:(q1_kernel db (q1_cutoff ()))
       ~combine:q1_flat_merge)

(* ------------------------------------------------------------------ *)
(* Q2 — minimum-cost supplier. The scan is tiny relative to lineitem
   queries; both variants share structure, differing in join mechanics. *)

let q2 ?(unsafe = false) (db : Db_smc.t) =
  let psf = db.Db_smc.psf
  and pf = db.Db_smc.pf
  and sf_ = db.Db_smc.sf_
  and nf = db.Db_smc.nf
  and rf = db.Db_smc.rf in
  (* Pre-resolve the one EUROPE region object so the supplier filter is a
     location comparison, then evaluate eligibility per partsupp. *)
  let follow field ~target blk slot =
    if unsafe then begin
      let loc = F.follow_loc field ~target blk slot in
      if loc < 0 then None else Some (C.loc_block target loc, C.loc_slot loc)
    end
    else safe_follow field ~target blk slot
  in
  let region_eq =
    if unsafe then F.string_eq rf.Db_smc.r_name Results.q2_region
    else fun rb rs -> F.get_string rf.Db_smc.r_name rb rs = Results.q2_region
  in
  let eligible blk slot =
    match follow psf.Db_smc.ps_part ~target:db.Db_smc.parts blk slot with
    | None -> None
    | Some (pb, ps_) ->
      if
        F.get_int pf.Db_smc.p_size pb ps_ = Results.q2_size
        && ends_with ~suffix:Results.q2_type_suffix (F.get_string pf.Db_smc.p_type pb ps_)
      then begin
        match follow psf.Db_smc.ps_supplier ~target:db.Db_smc.suppliers blk slot with
        | None -> None
        | Some (sb, ss) -> (
          match follow sf_.Db_smc.s_nation ~target:db.Db_smc.nations sb ss with
          | None -> None
          | Some (nb, ns) -> (
            match follow nf.Db_smc.n_region ~target:db.Db_smc.regions nb ns with
            | None -> None
            | Some (rb, rs) ->
              if region_eq rb rs then
                Some
                  ( F.get_int pf.Db_smc.p_partkey pb ps_,
                    F.get_dec psf.Db_smc.ps_supplycost blk slot,
                    (sb, ss),
                    (pb, ps_),
                    (nb, ns) )
              else None))
      end
      else None
  in
  let min_cost : (int, D.t) Hashtbl.t = Hashtbl.create 64 in
  C.with_read db.Db_smc.partsupps (fun () ->
      C.iter db.Db_smc.partsupps ~f:(fun blk slot ->
          match eligible blk slot with
          | None -> ()
          | Some (pk, cost, _, _, _) -> (
            match Hashtbl.find_opt min_cost pk with
            | Some c when D.compare c cost <= 0 -> ()
            | _ -> Hashtbl.replace min_cost pk cost));
      let rows = ref [] in
      C.iter db.Db_smc.partsupps ~f:(fun blk slot ->
          match eligible blk slot with
          | None -> ()
          | Some (pk, cost, (sb, ss), (pb, ps_), (nb, ns)) -> (
            match Hashtbl.find_opt min_cost pk with
            | Some c when D.equal c cost ->
              rows :=
                {
                  Results.q2_acctbal = F.get_dec sf_.Db_smc.s_acctbal sb ss;
                  q2_s_name = F.get_string sf_.Db_smc.s_name sb ss;
                  q2_n_name = F.get_string nf.Db_smc.n_name nb ns;
                  q2_partkey = pk;
                  q2_mfgr = F.get_string pf.Db_smc.p_mfgr pb ps_;
                }
                :: !rows
            | _ -> ()));
      List.filteri (fun i _ -> i < 100) (Results.sort_q2 !rows))

(* ------------------------------------------------------------------ *)
(* Q3 — shipping priority *)

type q3_acc = {
  g_orderkey : int;
  g_orderdate : Smc_util.Date.t;
  g_shippriority : int;
  mutable g_revenue : D.t;
}

let q3_safe (db : Db_smc.t) =
  let lf = db.Db_smc.lf and orf = db.Db_smc.orf and cf = db.Db_smc.cf in
  let groups : (int, q3_acc) Hashtbl.t = Hashtbl.create 1024 in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          if F.get_date lf.Db_smc.l_shipdate blk slot > Results.q3_date then begin
            match safe_follow lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot with
            | None -> ()
            | Some (ob, os) ->
              if F.get_date orf.Db_smc.o_orderdate ob os < Results.q3_date then begin
                match safe_follow orf.Db_smc.o_customer ~target:db.Db_smc.customers ob os with
                | None -> ()
                | Some (cb, cs) ->
                  if F.get_string cf.Db_smc.c_mktsegment cb cs = Results.q3_segment then begin
                    let orderkey = F.get_int orf.Db_smc.o_orderkey ob os in
                    let acc =
                      match Hashtbl.find_opt groups orderkey with
                      | Some acc -> acc
                      | None ->
                        let acc =
                          {
                            g_orderkey = orderkey;
                            g_orderdate = F.get_date orf.Db_smc.o_orderdate ob os;
                            g_shippriority = F.get_int orf.Db_smc.o_shippriority ob os;
                            g_revenue = D.zero;
                          }
                        in
                        Hashtbl.add groups orderkey acc;
                        acc
                    in
                    acc.g_revenue <-
                      D.add acc.g_revenue
                        (D.mul
                           (F.get_dec lf.Db_smc.l_extendedprice blk slot)
                           (D.sub D.one (F.get_dec lf.Db_smc.l_discount blk slot)))
                  end
              end
          end));
  groups

let q3_unsafe (db : Db_smc.t) =
  let lf = db.Db_smc.lf and orf = db.Db_smc.orf and cf = db.Db_smc.cf in
  let orders = db.Db_smc.orders and customers = db.Db_smc.customers in
  let segment_eq = F.string_eq cf.Db_smc.c_mktsegment Results.q3_segment in
  let o_ship = word_offset lf.Db_smc.l_shipdate
  and o_lorder = word_offset lf.Db_smc.l_order
  and o_price = word_offset lf.Db_smc.l_extendedprice
  and o_disc = word_offset lf.Db_smc.l_discount in
  let o_odate = word_offset orf.Db_smc.o_orderdate
  and o_okey = word_offset orf.Db_smc.o_orderkey
  and o_oprio = word_offset orf.Db_smc.o_shippriority
  and o_ocust = word_offset orf.Db_smc.o_customer in
  let t_ord = target orders and t_cust = target customers in
  let groups : (int, q3_acc) Hashtbl.t = Hashtbl.create 1024 in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk ->
          let data = blk.Block.data in
          let row = blk.Block.placement = Block.Row in
          let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
          let n = blk.Block.nslots in
          let idx off slot = if row then (slot * sw) + off else (off * n) + slot in
          fun slot ->
            if BA1.unsafe_get data (idx o_ship slot) > Results.q3_date then begin
              let oloc = resolve_in t_ord (BA1.unsafe_get data (idx o_lorder slot)) in
              if oloc >= 0 then begin
                let ob = tblock t_ord oloc and os = C.loc_slot oloc in
                if tword t_ord ob os o_odate < Results.q3_date then begin
                  let cloc = resolve_in t_cust (tword t_ord ob os o_ocust) in
                  if cloc >= 0 then begin
                    let cb = tblock t_cust cloc and cs = C.loc_slot cloc in
                    if segment_eq cb cs then begin
                      let orderkey = tword t_ord ob os o_okey in
                      let acc =
                        match Hashtbl.find_opt groups orderkey with
                        | Some acc -> acc
                        | None ->
                          let acc =
                            {
                              g_orderkey = orderkey;
                              g_orderdate = tword t_ord ob os o_odate;
                              g_shippriority = tword t_ord ob os o_oprio;
                              g_revenue = D.zero;
                            }
                          in
                          Hashtbl.add groups orderkey acc;
                          acc
                      in
                      acc.g_revenue <-
                        D.add acc.g_revenue
                          (D.mul
                             (BA1.unsafe_get data (idx o_price slot))
                             (D.sub D.one (BA1.unsafe_get data (idx o_disc slot))))
                    end
                  end
                end
              end
            end));
  groups

let q3 ?(unsafe = false) (db : Db_smc.t) =
  let groups = if unsafe then q3_unsafe db else q3_safe db in
  let rows =
    Hashtbl.fold
      (fun _ acc rows ->
        {
          Results.q3_orderkey = acc.g_orderkey;
          q3_revenue = acc.g_revenue;
          q3_orderdate = acc.g_orderdate;
          q3_shippriority = acc.g_shippriority;
        }
        :: rows)
      groups []
  in
  List.filteri (fun i _ -> i < 10) (Results.sort_q3 rows)

(* ------------------------------------------------------------------ *)
(* Q4 — order priority checking *)

let q4 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf and orf = db.Db_smc.orf in
  let orders = db.Db_smc.orders in
  let lo = Results.q4_date in
  let hi = Smc_util.Date.add_months lo 3 in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let record ob os =
    let odate = F.get_date orf.Db_smc.o_orderdate ob os in
    if odate >= lo && odate < hi then begin
      let orderkey = F.get_int orf.Db_smc.o_orderkey ob os in
      if not (Hashtbl.mem seen orderkey) then begin
        Hashtbl.add seen orderkey ();
        let p = F.get_string orf.Db_smc.o_orderpriority ob os in
        match Hashtbl.find_opt counts p with
        | Some r -> incr r
        | None -> Hashtbl.add counts p (ref 1)
      end
    end
  in
  C.with_read db.Db_smc.lineitems (fun () ->
      if unsafe then begin
        let o_commit = word_offset lf.Db_smc.l_commitdate
        and o_receipt = word_offset lf.Db_smc.l_receiptdate
        and o_lorder = word_offset lf.Db_smc.l_order in
        let o_odate = word_offset orf.Db_smc.o_orderdate
        and o_okey = word_offset orf.Db_smc.o_orderkey in
        let t_ord = target orders in
        C.iter db.Db_smc.lineitems ~f:(fun blk ->
            let data = blk.Block.data in
            let row = blk.Block.placement = Block.Row in
            let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
            let n = blk.Block.nslots in
            let idx off slot = if row then (slot * sw) + off else (off * n) + slot in
            fun slot ->
              if BA1.unsafe_get data (idx o_commit slot) < BA1.unsafe_get data (idx o_receipt slot)
              then begin
                let oloc = resolve_in t_ord (BA1.unsafe_get data (idx o_lorder slot)) in
                if oloc >= 0 then begin
                  let ob = tblock t_ord oloc and os = C.loc_slot oloc in
                  let odate = tword t_ord ob os o_odate in
                  if odate >= lo && odate < hi then begin
                    let orderkey = tword t_ord ob os o_okey in
                    if not (Hashtbl.mem seen orderkey) then begin
                      Hashtbl.add seen orderkey ();
                      let p = F.get_string orf.Db_smc.o_orderpriority ob os in
                      match Hashtbl.find_opt counts p with
                      | Some r -> incr r
                      | None -> Hashtbl.add counts p (ref 1)
                    end
                  end
                end
              end)
      end
      else
        C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
            if
              F.get_date lf.Db_smc.l_commitdate blk slot
              < F.get_date lf.Db_smc.l_receiptdate blk slot
            then begin
              match safe_follow lf.Db_smc.l_order ~target:orders blk slot with
              | None -> ()
              | Some (ob, os) -> record ob os
            end));
  Results.sort_q4
    (Hashtbl.fold
       (fun p r rows -> { Results.q4_priority = p; q4_count = !r } :: rows)
       counts [])

(* ------------------------------------------------------------------ *)
(* Q5 — local supplier volume *)

let q5 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf
  and orf = db.Db_smc.orf
  and cf = db.Db_smc.cf
  and sf_ = db.Db_smc.sf_
  and nf = db.Db_smc.nf
  and rf = db.Db_smc.rf in
  let orders = db.Db_smc.orders
  and customers = db.Db_smc.customers
  and suppliers = db.Db_smc.suppliers
  and nations = db.Db_smc.nations
  and regions = db.Db_smc.regions in
  let lo = Results.q5_date in
  let hi = Smc_util.Date.add_months lo 12 in
  let revenue : (string, D.t ref) Hashtbl.t = Hashtbl.create 32 in
  let add_revenue name amount =
    match Hashtbl.find_opt revenue name with
    | Some r -> r := D.add !r amount
    | None -> Hashtbl.add revenue name (ref amount)
  in
  C.with_read db.Db_smc.lineitems (fun () ->
      if unsafe then begin
        let o_price = word_offset lf.Db_smc.l_extendedprice
        and o_disc = word_offset lf.Db_smc.l_discount
        and o_lorder = word_offset lf.Db_smc.l_order
        and o_lsupp = word_offset lf.Db_smc.l_supplier in
        let o_odate = word_offset orf.Db_smc.o_orderdate
        and o_ocust = word_offset orf.Db_smc.o_customer
        and o_snation = word_offset sf_.Db_smc.s_nation
        and o_cnation = word_offset cf.Db_smc.c_nation
        and o_nregion = word_offset nf.Db_smc.n_region
        and o_nkey = word_offset nf.Db_smc.n_nationkey in
        let t_ord = target orders
        and t_cust = target customers
        and t_supp = target suppliers
        and t_nat = target nations
        and t_reg = target regions in
        let region_eq = F.string_eq rf.Db_smc.r_name Results.q5_region in
        C.iter db.Db_smc.lineitems ~f:(fun blk ->
            let data = blk.Block.data in
            let row = blk.Block.placement = Block.Row in
            let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
            let n = blk.Block.nslots in
            let idx off slot = if row then (slot * sw) + off else (off * n) + slot in
            fun slot ->
              let oloc = resolve_in t_ord (BA1.unsafe_get data (idx o_lorder slot)) in
              if oloc >= 0 then begin
                let ob = tblock t_ord oloc and os = C.loc_slot oloc in
                let odate = tword t_ord ob os o_odate in
                if odate >= lo && odate < hi then begin
                  let sloc = resolve_in t_supp (BA1.unsafe_get data (idx o_lsupp slot)) in
                  if sloc >= 0 then begin
                    let sb = tblock t_supp sloc and ss = C.loc_slot sloc in
                    let nloc = resolve_in t_nat (tword t_supp sb ss o_snation) in
                    if nloc >= 0 then begin
                      let nb = tblock t_nat nloc and ns = C.loc_slot nloc in
                      let rloc = resolve_in t_reg (tword t_nat nb ns o_nregion) in
                      if rloc >= 0 then begin
                        let rb = tblock t_reg rloc and rs = C.loc_slot rloc in
                        if region_eq rb rs then begin
                          let cloc = resolve_in t_cust (tword t_ord ob os o_ocust) in
                          if cloc >= 0 then begin
                            let cb = tblock t_cust cloc and cs = C.loc_slot cloc in
                            let cnloc = resolve_in t_nat (tword t_cust cb cs o_cnation) in
                            if
                              cnloc >= 0
                              && tword t_nat (tblock t_nat cnloc) (C.loc_slot cnloc) o_nkey
                                 = tword t_nat nb ns o_nkey
                            then
                              add_revenue
                                (F.get_string nf.Db_smc.n_name nb ns)
                                (D.mul
                                   (BA1.unsafe_get data (idx o_price slot))
                                   (D.sub D.one (BA1.unsafe_get data (idx o_disc slot))))
                          end
                        end
                      end
                    end
                  end
                end
              end)
      end
      else
        C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
            match safe_follow lf.Db_smc.l_order ~target:orders blk slot with
            | None -> ()
            | Some (ob, os) ->
              let odate = F.get_date orf.Db_smc.o_orderdate ob os in
              if odate >= lo && odate < hi then begin
                match safe_follow lf.Db_smc.l_supplier ~target:suppliers blk slot with
                | None -> ()
                | Some (sb, ss) -> (
                  match safe_follow sf_.Db_smc.s_nation ~target:nations sb ss with
                  | None -> ()
                  | Some (nb, ns) -> (
                    match safe_follow nf.Db_smc.n_region ~target:regions nb ns with
                    | None -> ()
                    | Some (rb, rs) ->
                      if F.get_string rf.Db_smc.r_name rb rs = Results.q5_region then begin
                        match safe_follow orf.Db_smc.o_customer ~target:customers ob os with
                        | None -> ()
                        | Some (cb, cs) -> (
                          match safe_follow cf.Db_smc.c_nation ~target:nations cb cs with
                          | None -> ()
                          | Some (cnb, cns) ->
                            if
                              F.get_int nf.Db_smc.n_nationkey cnb cns
                              = F.get_int nf.Db_smc.n_nationkey nb ns
                            then
                              add_revenue
                                (F.get_string nf.Db_smc.n_name nb ns)
                                (D.mul
                                   (F.get_dec lf.Db_smc.l_extendedprice blk slot)
                                   (D.sub D.one (F.get_dec lf.Db_smc.l_discount blk slot))))
                      end))
              end));
  Results.sort_q5
    (Hashtbl.fold
       (fun n r rows -> { Results.q5_nation = n; q5_revenue = !r } :: rows)
       revenue [])

(* ------------------------------------------------------------------ *)
(* Extension queries (beyond the paper's Q1–Q6): shared follow helper
   choosing the managed-equivalent checked path or the allocation-free
   location path. *)

let follow_opt ~unsafe field ~target blk slot =
  if unsafe then begin
    let loc = F.follow_loc field ~target blk slot in
    if loc < 0 then None else Some (C.loc_block target loc, C.loc_slot loc)
  end
  else safe_follow field ~target blk slot

(* Q7 — volume shipping between two nations *)
let q7 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf
  and orf = db.Db_smc.orf
  and cf = db.Db_smc.cf
  and sf_ = db.Db_smc.sf_
  and nf = db.Db_smc.nf in
  let follow = follow_opt ~unsafe in
  let revenue : (string * string * int, D.t ref) Hashtbl.t = Hashtbl.create 16 in
  let n1 = Results.q7_nation1 and n2 = Results.q7_nation2 in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let ship = F.get_date lf.Db_smc.l_shipdate blk slot in
          if ship >= Results.q7_date_lo && ship <= Results.q7_date_hi then begin
            match follow lf.Db_smc.l_supplier ~target:db.Db_smc.suppliers blk slot with
            | None -> ()
            | Some (sb, ss) -> (
              match follow sf_.Db_smc.s_nation ~target:db.Db_smc.nations sb ss with
              | None -> ()
              | Some (snb, sns) ->
                let supp_nation = F.get_string nf.Db_smc.n_name snb sns in
                if supp_nation = n1 || supp_nation = n2 then begin
                  match follow lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot with
                  | None -> ()
                  | Some (ob, os) -> (
                    match follow orf.Db_smc.o_customer ~target:db.Db_smc.customers ob os with
                    | None -> ()
                    | Some (cb, cs) -> (
                      match follow cf.Db_smc.c_nation ~target:db.Db_smc.nations cb cs with
                      | None -> ()
                      | Some (cnb, cns) ->
                        let cust_nation = F.get_string nf.Db_smc.n_name cnb cns in
                        if
                          (supp_nation = n1 && cust_nation = n2)
                          || (supp_nation = n2 && cust_nation = n1)
                        then begin
                          let year, _, _ = Smc_util.Date.to_ymd ship in
                          let amount =
                            D.mul
                              (F.get_dec lf.Db_smc.l_extendedprice blk slot)
                              (D.sub D.one (F.get_dec lf.Db_smc.l_discount blk slot))
                          in
                          let key = (supp_nation, cust_nation, year) in
                          match Hashtbl.find_opt revenue key with
                          | Some r -> r := D.add !r amount
                          | None -> Hashtbl.add revenue key (ref amount)
                        end))
                end)
          end));
  Results.sort_q7
    (Hashtbl.fold
       (fun (sn, cn, year) r rows ->
         { Results.q7_supp_nation = sn; q7_cust_nation = cn; q7_year = year; q7_revenue = !r }
         :: rows)
       revenue [])

(* Q10 — returned item reporting *)
type q10_acc = {
  x_custkey : int;
  x_name : string;
  x_acctbal : D.t;
  x_nation : string;
  mutable x_rev : D.t;
}

let q10 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf and orf = db.Db_smc.orf and cf = db.Db_smc.cf and nf = db.Db_smc.nf in
  let follow = follow_opt ~unsafe in
  let lo = Results.q10_date in
  let hi = Smc_util.Date.add_months lo 3 in
  let groups : (int, q10_acc) Hashtbl.t = Hashtbl.create 1024 in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          if F.get_char lf.Db_smc.l_returnflag blk slot = 'R' then begin
            match follow lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot with
            | None -> ()
            | Some (ob, os) ->
              let odate = F.get_date orf.Db_smc.o_orderdate ob os in
              if odate >= lo && odate < hi then begin
                match follow orf.Db_smc.o_customer ~target:db.Db_smc.customers ob os with
                | None -> ()
                | Some (cb, cs) ->
                  let custkey = F.get_int cf.Db_smc.c_custkey cb cs in
                  let acc =
                    match Hashtbl.find_opt groups custkey with
                    | Some acc -> acc
                    | None ->
                      let nation =
                        match follow cf.Db_smc.c_nation ~target:db.Db_smc.nations cb cs with
                        | Some (nb, ns) -> F.get_string nf.Db_smc.n_name nb ns
                        | None -> ""
                      in
                      let acc =
                        {
                          x_custkey = custkey;
                          x_name = F.get_string cf.Db_smc.c_name cb cs;
                          x_acctbal = F.get_dec cf.Db_smc.c_acctbal cb cs;
                          x_nation = nation;
                          x_rev = D.zero;
                        }
                      in
                      Hashtbl.add groups custkey acc;
                      acc
                  in
                  acc.x_rev <-
                    D.add acc.x_rev
                      (D.mul
                         (F.get_dec lf.Db_smc.l_extendedprice blk slot)
                         (D.sub D.one (F.get_dec lf.Db_smc.l_discount blk slot)))
              end
          end));
  let rows =
    Hashtbl.fold
      (fun _ acc rows ->
        {
          Results.q10_custkey = acc.x_custkey;
          q10_name = acc.x_name;
          q10_revenue = acc.x_rev;
          q10_acctbal = acc.x_acctbal;
          q10_nation = acc.x_nation;
        }
        :: rows)
      groups []
  in
  List.filteri (fun i _ -> i < 20) (Results.sort_q10 rows)

(* Q12 — shipping modes and order priority *)
let q12 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf and orf = db.Db_smc.orf in
  let follow = follow_opt ~unsafe in
  let mode1, mode2 = Results.q12_modes in
  let is_mode1 = F.string_eq lf.Db_smc.l_shipmode mode1 in
  let is_mode2 = F.string_eq lf.Db_smc.l_shipmode mode2 in
  let is_urgent = F.string_eq orf.Db_smc.o_orderpriority "1-URGENT" in
  let is_high = F.string_eq orf.Db_smc.o_orderpriority "2-HIGH" in
  let lo = Results.q12_date in
  let hi = Smc_util.Date.add_months lo 12 in
  let high1 = ref 0 and low1 = ref 0 and high2 = ref 0 and low2 = ref 0 in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let m1 = is_mode1 blk slot in
          if m1 || is_mode2 blk slot then begin
            let receipt = F.get_date lf.Db_smc.l_receiptdate blk slot in
            if
              receipt >= lo && receipt < hi
              && F.get_date lf.Db_smc.l_commitdate blk slot < receipt
              && F.get_date lf.Db_smc.l_shipdate blk slot
                 < F.get_date lf.Db_smc.l_commitdate blk slot
            then begin
              match follow lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot with
              | None -> ()
              | Some (ob, os) ->
                let is_hi = is_urgent ob os || is_high ob os in
                if m1 then (if is_hi then incr high1 else incr low1)
                else if is_hi then incr high2
                else incr low2
            end
          end));
  Results.sort_q12
    [
      { Results.q12_shipmode = mode1; q12_high = !high1; q12_low = !low1 };
      { Results.q12_shipmode = mode2; q12_high = !high2; q12_low = !low2 };
    ]

(* Q14 — promotion effect *)
let q14 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf and pf = db.Db_smc.pf in
  let follow = follow_opt ~unsafe in
  let lo = Results.q14_date in
  let hi = Smc_util.Date.add_months lo 1 in
  let promo = D.Acc.make () and total = D.Acc.make () in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let ship = F.get_date lf.Db_smc.l_shipdate blk slot in
          if ship >= lo && ship < hi then begin
            let amount =
              D.mul
                (F.get_dec lf.Db_smc.l_extendedprice blk slot)
                (D.sub D.one (F.get_dec lf.Db_smc.l_discount blk slot))
            in
            D.Acc.add total amount;
            match follow lf.Db_smc.l_part ~target:db.Db_smc.parts blk slot with
            | None -> ()
            | Some (pb, ps_) ->
              (* PROMO prefix: first five bytes of p_type *)
              let t = F.get_string pf.Db_smc.p_type pb ps_ in
              if String.length t >= 5 && String.sub t 0 5 = "PROMO" then
                D.Acc.add promo amount
          end));
  if D.Acc.get total = D.zero then D.zero
  else D.div (D.mul (D.of_int 100) (D.Acc.get promo)) (D.Acc.get total)

(* Q19 — discounted revenue *)
let q19 ?(unsafe = false) (db : Db_smc.t) =
  let lf = db.Db_smc.lf and pf = db.Db_smc.pf in
  let follow = follow_opt ~unsafe in
  let is_air = F.string_eq lf.Db_smc.l_shipmode "AIR" in
  let is_regair = F.string_eq lf.Db_smc.l_shipmode "REG AIR" in
  let in_person = F.string_eq lf.Db_smc.l_shipinstruct "DELIVER IN PERSON" in
  let brand12 = F.string_eq pf.Db_smc.p_brand "Brand#12" in
  let brand23 = F.string_eq pf.Db_smc.p_brand "Brand#23" in
  let brand34 = F.string_eq pf.Db_smc.p_brand "Brand#34" in
  let acc = D.Acc.make () in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          if (is_air blk slot || is_regair blk slot) && in_person blk slot then begin
            match follow lf.Db_smc.l_part ~target:db.Db_smc.parts blk slot with
            | None -> ()
            | Some (pb, ps_) ->
              let qty = F.get_dec lf.Db_smc.l_quantity blk slot in
              let size = F.get_int pf.Db_smc.p_size pb ps_ in
              let container = F.get_string pf.Db_smc.p_container pb ps_ in
              let between a b =
                D.compare qty (D.of_int a) >= 0 && D.compare qty (D.of_int b) <= 0
              in
              let matches =
                (brand12 pb ps_
                && (container = "SM CASE" || container = "SM BOX" || container = "SM PACK"
                  || container = "SM PKG")
                && between 1 11 && size >= 1 && size <= 5)
                || (brand23 pb ps_
                   && (container = "MED BAG" || container = "MED BOX"
                     || container = "MED PKG" || container = "MED PACK")
                   && between 10 20 && size >= 1 && size <= 10)
                || (brand34 pb ps_
                   && (container = "LG CASE" || container = "LG BOX" || container = "LG PACK"
                     || container = "LG PKG")
                   && between 20 30 && size >= 1 && size <= 15)
              in
              if matches then
                D.Acc.add_mul acc
                  (F.get_int lf.Db_smc.l_extendedprice blk slot)
                  (D.sub D.one (F.get_int lf.Db_smc.l_discount blk slot))
          end));
  D.Acc.get acc

(* ------------------------------------------------------------------ *)
(* Q6 — forecasting revenue change *)

(* The unsafe Q6 kernel: raw block access with a hoisted data pointer and
   offsets, accumulating in place into [acc] — the paper's unsafe compiled
   Q6. *)
let q6_kernel (db : Db_smc.t) =
  let lf = db.Db_smc.lf in
  let lo = Results.q6_date in
  let hi = Smc_util.Date.add_months lo 12 in
  let o_ship = word_offset lf.Db_smc.l_shipdate
  and o_disc = word_offset lf.Db_smc.l_discount
  and o_qty = word_offset lf.Db_smc.l_quantity
  and o_price = word_offset lf.Db_smc.l_extendedprice in
  let d_lo = Results.q6_disc_lo and d_hi = Results.q6_disc_hi and q_max = Results.q6_qty in
  fun acc blk ->
    let data = blk.Block.data in
    match blk.Block.placement with
    | Block.Row ->
      let sw = blk.Block.layout.Smc_offheap.Layout.slot_words in
      fun slot ->
        let b = slot * sw in
        let ship = BA1.unsafe_get data (b + o_ship) in
        if ship >= lo && ship < hi then begin
          let disc = BA1.unsafe_get data (b + o_disc) in
          if disc >= d_lo && disc <= d_hi && BA1.unsafe_get data (b + o_qty) < q_max then
            D.Acc.add_mul acc (BA1.unsafe_get data (b + o_price)) disc
        end
    | Block.Columnar ->
      let n = blk.Block.nslots in
      let b_ship = o_ship * n
      and b_disc = o_disc * n
      and b_qty = o_qty * n
      and b_price = o_price * n in
      fun slot ->
        let ship = BA1.unsafe_get data (b_ship + slot) in
        if ship >= lo && ship < hi then begin
          let disc = BA1.unsafe_get data (b_disc + slot) in
          if disc >= d_lo && disc <= d_hi && BA1.unsafe_get data (b_qty + slot) < q_max then
            D.Acc.add_mul acc (BA1.unsafe_get data (b_price + slot)) disc
        end

let q6 ?(unsafe = false) (db : Db_smc.t) =
  if unsafe then begin
    let acc = D.Acc.make () in
    C.iter db.Db_smc.lineitems ~f:(q6_kernel db acc);
    D.Acc.get acc
  end
  else begin
    let lf = db.Db_smc.lf in
    let lo = Results.q6_date in
    let hi = Smc_util.Date.add_months lo 12 in
    let f_ship = lf.Db_smc.l_shipdate
    and f_disc = lf.Db_smc.l_discount
    and f_qty = lf.Db_smc.l_quantity
    and f_price = lf.Db_smc.l_extendedprice in
    let total = ref D.zero in
    C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
        let ship = F.get_date f_ship blk slot in
        if
          ship >= lo && ship < hi
          && D.compare (F.get_dec f_disc blk slot) Results.q6_disc_lo >= 0
          && D.compare (F.get_dec f_disc blk slot) Results.q6_disc_hi <= 0
          && D.compare (F.get_dec f_qty blk slot) Results.q6_qty < 0
        then
          total :=
            D.add !total (D.mul (F.get_dec f_price blk slot) (F.get_dec f_disc blk slot)));
    !total
  end

(* Q6 — parallel: the unsafe kernel with one in-place decimal accumulator
   per worker domain, summed on the caller at the end. *)
let q6_par ?pool ?domains (db : Db_smc.t) =
  D.Acc.get
    (Par_scan.fold_hoisted_par ?pool ?domains db.Db_smc.lineitems.C.ctx ~init:D.Acc.make
       ~on_block:(q6_kernel db)
       ~combine:(fun a b ->
         D.Acc.add a (D.Acc.get b);
         a))
