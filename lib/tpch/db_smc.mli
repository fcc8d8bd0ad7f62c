(** TPC-H stored in self-managed collections.

    [load] builds the eight collections from a generated dataset, wiring
    every key relation as a stored reference (indirect or direct per the
    chosen mode) and registering direct-referrer edges so compaction can fix
    up stored direct pointers (§6). Field accessors for all tables are
    pre-resolved once here — queries use them directly, like the paper's
    generated code addressing fixed offsets. *)

type lineitem_fields = {
  l_order : Smc_offheap.Layout.field;
  l_part : Smc_offheap.Layout.field;
  l_supplier : Smc_offheap.Layout.field;
  l_linenumber : Smc_offheap.Layout.field;
  l_quantity : Smc_offheap.Layout.field;
  l_extendedprice : Smc_offheap.Layout.field;
  l_discount : Smc_offheap.Layout.field;
  l_tax : Smc_offheap.Layout.field;
  l_returnflag : Smc_offheap.Layout.field;
  l_linestatus : Smc_offheap.Layout.field;
  l_shipdate : Smc_offheap.Layout.field;
  l_commitdate : Smc_offheap.Layout.field;
  l_receiptdate : Smc_offheap.Layout.field;
  l_shipinstruct : Smc_offheap.Layout.field;
  l_shipmode : Smc_offheap.Layout.field;
  l_comment : Smc_offheap.Layout.field;
}

type order_fields = {
  o_orderkey : Smc_offheap.Layout.field;
  o_customer : Smc_offheap.Layout.field;
  o_orderstatus : Smc_offheap.Layout.field;
  o_totalprice : Smc_offheap.Layout.field;
  o_orderdate : Smc_offheap.Layout.field;
  o_orderpriority : Smc_offheap.Layout.field;
  o_clerk : Smc_offheap.Layout.field;
  o_shippriority : Smc_offheap.Layout.field;
  o_comment : Smc_offheap.Layout.field;
}

type customer_fields = {
  c_custkey : Smc_offheap.Layout.field;
  c_name : Smc_offheap.Layout.field;
  c_address : Smc_offheap.Layout.field;
  c_nation : Smc_offheap.Layout.field;
  c_phone : Smc_offheap.Layout.field;
  c_acctbal : Smc_offheap.Layout.field;
  c_mktsegment : Smc_offheap.Layout.field;
  c_comment : Smc_offheap.Layout.field;
}

type supplier_fields = {
  s_suppkey : Smc_offheap.Layout.field;
  s_name : Smc_offheap.Layout.field;
  s_address : Smc_offheap.Layout.field;
  s_nation : Smc_offheap.Layout.field;
  s_phone : Smc_offheap.Layout.field;
  s_acctbal : Smc_offheap.Layout.field;
  s_comment : Smc_offheap.Layout.field;
}

type part_fields = {
  p_partkey : Smc_offheap.Layout.field;
  p_name : Smc_offheap.Layout.field;
  p_mfgr : Smc_offheap.Layout.field;
  p_brand : Smc_offheap.Layout.field;
  p_type : Smc_offheap.Layout.field;
  p_size : Smc_offheap.Layout.field;
  p_container : Smc_offheap.Layout.field;
  p_retailprice : Smc_offheap.Layout.field;
  p_comment : Smc_offheap.Layout.field;
}

type partsupp_fields = {
  ps_part : Smc_offheap.Layout.field;
  ps_supplier : Smc_offheap.Layout.field;
  ps_availqty : Smc_offheap.Layout.field;
  ps_supplycost : Smc_offheap.Layout.field;
  ps_comment : Smc_offheap.Layout.field;
}

type nation_fields = {
  n_nationkey : Smc_offheap.Layout.field;
  n_name : Smc_offheap.Layout.field;
  n_region : Smc_offheap.Layout.field;
  n_comment : Smc_offheap.Layout.field;
}

type region_fields = {
  r_regionkey : Smc_offheap.Layout.field;
  r_name : Smc_offheap.Layout.field;
  r_comment : Smc_offheap.Layout.field;
}

type t = {
  rt : Smc_offheap.Runtime.t;
  regions : Smc.Collection.t;
  nations : Smc.Collection.t;
  suppliers : Smc.Collection.t;
  parts : Smc.Collection.t;
  partsupps : Smc.Collection.t;
  customers : Smc.Collection.t;
  orders : Smc.Collection.t;
  lineitems : Smc.Collection.t;
  rf : region_fields;
  nf : nation_fields;
  sf_ : supplier_fields;
  pf : part_fields;
  psf : partsupp_fields;
  cf : customer_fields;
  orf : order_fields;
  lf : lineitem_fields;
  order_refs : Smc.Ref.t array;  (** indexed by orderkey - 1 *)
  lineitem_refs : Smc.Ref.t array;  (** aligned with the dataset's lineitem array *)
}

val order_fields : order_fields
val lineitem_fields : lineitem_fields

val load :
  ?mode:Smc_offheap.Context.mode ->
  ?placement:Smc_offheap.Block.placement ->
  ?slots_per_block:int ->
  ?reclaim_threshold:float ->
  Row.dataset ->
  t

val memory_words : t -> int
(** Total off-heap words across all eight collections. *)
