open Smc_util
module C = Smc.Collection
module F = Smc.Field
module Block = Smc_offheap.Block
module BA1 = Bigarray.Array1

let best_ms f = Stats.min (Timing.repeat ~warmup:1 5 f)

(* ------------------------------------------------------------------ *)
(* Block size sweep *)

let block_size_table () =
  let t =
    Table.create ~title:"Ablation: slots per block"
      ~columns:[ "slots/block"; "alloc (M/s)"; "enumeration (ms)"; "blocks" ]
  in
  List.iter
    (fun slots_per_block ->
      let _rt, coll = Workload.lineitem_collection ~slots_per_block () in
      let g = Prng.create ~seed:12L () in
      let n = 200_000 in
      let alloc_ms =
        Timing.time_ms (fun () ->
            for _ = 1 to n do
              ignore (Workload.add_lineitem coll g : Smc.Ref.t)
            done)
      in
      let scan_ms = best_ms (fun () -> ignore (Workload.scan_sum coll : int)) in
      Table.add_row t
        [
          string_of_int slots_per_block;
          Printf.sprintf "%.2f" (float_of_int n /. alloc_ms /. 1000.0);
          Printf.sprintf "%.2f" scan_ms;
          string_of_int (C.block_count coll);
        ])
    [ 256; 1024; 4096; 16384 ];
  t

(* ------------------------------------------------------------------ *)
(* Reference mechanics: checked refs vs fused locations vs direct pointers *)

let deref_table ~sf =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let t =
    Table.create ~title:"Ablation: reference dereference mechanics (lineitem -> order scan)"
      ~columns:[ "mechanism"; "ms / full scan"; "ns / dereference" ]
  in
  let n = Array.length ds.Smc_tpch.Row.lineitems in
  let run_mode name db measure =
    let ms = best_ms (fun () -> measure db) in
    Table.add_row t
      [ name; Printf.sprintf "%.2f" ms; Printf.sprintf "%.1f" (ms *. 1e6 /. float_of_int n) ]
  in
  let scan_with db per_loc =
    let lf = (db : Smc_tpch.Db_smc.t).Smc_tpch.Db_smc.lf in
    let orders = db.Smc_tpch.Db_smc.orders in
    let acc = ref 0 in
    C.iter db.Smc_tpch.Db_smc.lineitems ~f:(fun blk slot ->
        acc := !acc + per_loc lf orders blk slot);
    ignore (Sys.opaque_identity !acc)
  in
  let indirect_db = Smc_tpch.Db_smc.load ds in
  let direct_db = Smc_tpch.Db_smc.load ~mode:Smc_offheap.Context.Direct ds in
  run_mode "checked app reference (get_ref + deref)" indirect_db (fun db ->
      scan_with db (fun lf orders blk slot ->
          let r = F.get_ref lf.Smc_tpch.Db_smc.l_order ~target:orders blk slot in
          match C.deref_opt orders r with
          | Some (ob, os) ->
            F.get_int (Smc_tpch.Db_smc.order_fields : Smc_tpch.Db_smc.order_fields).Smc_tpch.Db_smc.o_orderkey ob os
          | None -> 0));
  run_mode "indirect location (follow_loc)" indirect_db (fun db ->
      scan_with db (fun lf orders blk slot ->
          let loc = F.follow_loc lf.Smc_tpch.Db_smc.l_order ~target:orders blk slot in
          if loc < 0 then 0
          else
            F.get_int Smc_tpch.Db_smc.order_fields.Smc_tpch.Db_smc.o_orderkey
              (C.loc_block orders loc) (C.loc_slot loc)));
  run_mode "direct pointer (follow_loc, direct mode)" direct_db (fun db ->
      scan_with db (fun lf orders blk slot ->
          let loc = F.follow_loc lf.Smc_tpch.Db_smc.l_order ~target:orders blk slot in
          if loc < 0 then 0
          else
            F.get_int Smc_tpch.Db_smc.order_fields.Smc_tpch.Db_smc.o_orderkey
              (C.loc_block orders loc) (C.loc_slot loc)));
  t

(* ------------------------------------------------------------------ *)
(* Critical-section granularity *)

let granularity_table ~sf =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  let lf = db.Smc_tpch.Db_smc.lf in
  let f_qty = lf.Smc_tpch.Db_smc.l_quantity in
  let t =
    Table.create ~title:"Ablation: critical-section granularity (full enumeration)"
      ~columns:[ "granularity"; "ms" ]
  in
  let li = db.Smc_tpch.Db_smc.lineitems in
  let sum_qty () =
    let acc = ref 0 in
    C.iter li ~f:(fun blk slot -> acc := !acc + F.get_int f_qty blk slot);
    ignore (Sys.opaque_identity !acc)
  in
  let whole = best_ms (fun () -> C.with_read li sum_qty) in
  let per_block = best_ms sum_qty in
  Table.add_row t [ "whole query (one section)"; Printf.sprintf "%.2f" whole ];
  Table.add_row t [ "per memory block"; Printf.sprintf "%.2f" per_block ];
  t

(* ------------------------------------------------------------------ *)
(* String predicates *)

let string_predicate_table ~sf =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  let lf = db.Smc_tpch.Db_smc.lf in
  let f_mode = lf.Smc_tpch.Db_smc.l_shipmode in
  let t =
    Table.create ~title:"Ablation: string equality predicate (shipmode = 'MAIL')"
      ~columns:[ "mechanism"; "ms"; "matches" ]
  in
  let allocating =
    let count = ref 0 in
    let ms =
      best_ms (fun () ->
          count := 0;
          C.iter db.Smc_tpch.Db_smc.lineitems ~f:(fun blk slot ->
              if F.get_string f_mode blk slot = "MAIL" then incr count))
    in
    (ms, !count)
  in
  let packed =
    let matcher = F.string_eq f_mode "MAIL" in
    let count = ref 0 in
    let ms =
      best_ms (fun () ->
          count := 0;
          C.iter db.Smc_tpch.Db_smc.lineitems ~f:(fun blk slot ->
              if matcher blk slot then incr count))
    in
    (ms, !count)
  in
  let (ms_a, n_a) = allocating and (ms_p, n_p) = packed in
  assert (n_a = n_p);
  Table.add_row t [ "get_string + compare"; Printf.sprintf "%.2f" ms_a; string_of_int n_a ];
  Table.add_row t [ "pre-packed word compare"; Printf.sprintf "%.2f" ms_p; string_of_int n_p ];
  t

let run ?(sf = 0.02) () =
  [ block_size_table (); deref_table ~sf; granularity_table ~sf; string_predicate_table ~sf ]

let print_all ?sf () = List.iter Table.print (run ?sf ())
