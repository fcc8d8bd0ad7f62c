(** Shared workload helpers for the experiment drivers. *)

val lineitem_collection :
  ?mode:Smc_offheap.Context.mode ->
  ?slots_per_block:int ->
  ?reclaim_threshold:float ->
  unit ->
  Smc_offheap.Runtime.t * Smc.Collection.t
(** Fresh runtime plus an empty lineitem-layout collection. *)

val add_lineitem :
  Smc.Collection.t -> Smc_util.Prng.t -> Smc.Ref.t
(** Adds one synthetic lineitem (all scalar fields populated, refs null). *)

val churn :
  Smc.Collection.t ->
  refs:Smc.Ref.t array ->
  prng:Smc_util.Prng.t ->
  fraction:float ->
  rounds:int ->
  unit
(** Wears a collection: each round removes [fraction] of the refs at random
    and inserts replacements, advancing epochs so limbo slots recycle. *)

val scan_sum : Smc.Collection.t -> int
(** Full enumeration summing the quantity field — the simple function of the
    enumeration benchmarks. *)

val domains_run : int -> (int -> unit) -> unit
(** [domains_run n body] runs [body i] on [n] domains and joins them. *)
