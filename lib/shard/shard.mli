(** Hash-partitioned collections over per-shard runtimes.

    One logical collection spread across N shards, each an ordinary
    {!Smc.Collection.t} with its own runtime — private epoch manager,
    reclamation queues, CSN plane, counters, and (when attached) its own
    WAL and snapshot file. The shard of an object is decided once, by the
    hash of the routing key its writer supplies; references ({!sref})
    remember their shard, so later operations need no re-hash.

    A sharded transaction is one {!Smc.Collection.txn} per shard, opened
    together, and commits through {!Smc.Collection.commit_all}: every
    participating shard validates while holding its commit locks (taken in
    ascending shard id order), and the batch publishes only if all of them
    validated — all-or-nothing in memory. Durability is per-shard: each
    shard's WAL writes its slice as one record, but there is no
    cross-shard commit record (see docs/sharding.md).

    Queries fan out one per-shard source and merge in shard order behind
    one ordinary {!Smc_query.Source.t}, so all four engines run unchanged
    and answer bit-identically to the same rows in one unsharded
    collection. *)

open Smc_offheap

type t

type sref = { sr_shard : int; sr_ref : Smc.Ref.t }
(** A routed reference: the owning shard plus the per-shard reference. *)

val create :
  ?shards:int ->
  name:string ->
  layout:Layout.t ->
  ?placement:Block.placement ->
  ?mode:Context.mode ->
  ?slots_per_block:int ->
  ?reclaim_threshold:float ->
  unit ->
  t
(** [shards] defaults to 4; every shard gets the same storage knobs.
    Raises [Invalid_argument] when [shards < 1]. *)

val n_shards : t -> int
val name : t -> string
val layout : t -> Layout.t

val shard_of : t -> key:int -> int
(** The shard a routing key hashes to (SplitMix64 finalizer mod N). *)

val collection : t -> int -> Smc.Collection.t
(** Shard [i]'s underlying collection — for reads, per-shard audits, or
    attaching per-shard machinery not wrapped here. *)

val runtime : t -> int -> Runtime.t
val obs : t -> Smc_obs.t
(** The coordinator's own counter instance ([shard_*] ids); per-shard
    events land on the shard runtimes' instances as usual. *)

val sref_shard : sref -> int
val sref_ref : sref -> Smc.Ref.t

(** {2 Routed single operations} — each its own single-op unit on the
    owning shard, exactly like the unsharded calls they wrap. *)

val add : t -> key:int -> init:(Block.t -> int -> unit) -> sref
val remove : t -> sref -> bool
val store : t -> sref -> word:int -> value:int -> unit
val mem : t -> sref -> bool
val deref_opt : t -> sref -> (Block.t * int) option

val count : t -> int
val memory_words : t -> int
val compact : t -> ?occupancy_threshold:float -> unit -> Compaction.report array

(** {2 Cross-shard transactions} *)

type txn
(** One open {!Smc.Collection.txn} per shard; operations are staged into
    their owning shard's. Not thread-safe. *)

type txn_result = Committed of sref list | Conflict
(** [Committed] carries the staged adds' routed references in staging
    order. [Conflict] means some shard failed first-committer-wins
    validation — nothing was published on any shard. *)

val txn : t -> txn
(** Opens one transaction per shard, so every shard's conflict frontier is
    read now, before anything is staged (first committer wins, as for
    {!Smc.Collection.txn}). Raises [Invalid_argument] on direct-mode
    shards. *)

val stage_add : txn -> key:int -> init:(Block.t -> int -> unit) -> unit
val stage_remove : txn -> sref -> unit
val stage_store : txn -> sref -> word:int -> value:int -> unit
(** Staging a reference from a different sharding (its shard out of
    range) raises [Invalid_argument]. *)

val commit : txn -> txn_result
(** Aborts the shards' transactions that staged nothing and commits the
    rest with {!Smc.Collection.commit_all}, in ascending shard id order. *)

val abort : txn -> unit
(** Aborts every shard's transaction. *)

val transact : t -> (txn -> unit) -> txn_result

(** {2 Consistent views} *)

type view
(** One snapshot view per shard at a consistent frontier vector: a
    cross-shard transaction is visible in all per-shard views or none
    (frontiers are read holding every shard's transaction lock). It holds
    only those registered frontiers, no critical section, so every shard
    keeps reclaiming and compacting while it is open. *)

val view : t -> view
val close_view : view -> unit
val with_view : t -> (view -> 'a) -> 'a

(** {2 Fan-out queries} *)

val fold :
  ?pool:Smc_parallel.Pool.t ->
  t ->
  init:'a ->
  f:(int -> Smc.Collection.t -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a
(** [f i coll] computes shard [i]'s partial result (on a pool worker when
    [pool] is given); partials are combined left-to-right in shard order. *)

val source :
  ?pool:Smc_parallel.Pool.t ->
  ?domains:int ->
  ?view:view ->
  t ->
  columns:(string * Smc_query.Source.column) list ->
  Smc_query.Source.t
(** The merged source: scans (row and batch paths alike) concatenate the
    per-shard scans in shard order, so engines that consume either path
    see the same row order. [?pool]/[?domains] parallelise each member
    scan exactly as {!Smc_query.Source.of_smc} does; [?view] pins every
    member to the consistent frontier vector. No indexes are advertised —
    cross-shard index access paths are future work. *)

(** {2 Per-shard persistence} *)

val attach_wals : ?sync:Smc_persist.Wal.sync_policy -> t -> dir:string -> Smc_persist.Wal.t array
(** Creates and attaches one WAL per shard ([<dir>/<name>.<i>.wal]).
    Raises [Invalid_argument] when WALs are already attached. *)

val wals : t -> Smc_persist.Wal.t array
(** [[||]] until {!attach_wals}. *)

val snapshot :
  ?pool:Smc_parallel.Pool.t -> t -> dir:string -> (Smc_persist.Snapshot.manifest * int) array
(** Writes one snapshot file per shard ([<dir>/<name>.<i>.smcsnap]),
    in parallel over [pool] when given; attached WALs record their cut
    points as in {!Smc_persist.Snapshot.write}. Mutator-quiescent, like
    the single-collection write. *)

type restored = {
  r_shard : t;
  r_bytes : int;  (** snapshot bytes read across all shards *)
  r_replayed : int;  (** WAL ops replayed across all shards *)
  r_torn_dropped : int;  (** torn final records discarded across all shards *)
}

val restore : ?pool:Smc_parallel.Pool.t -> dir:string -> name:string -> shards:int -> unit -> restored
(** Restores every shard from [<dir>/<name>.<i>.smcsnap], replaying
    [<name>.<i>.wal] tails when those files exist — in parallel over
    [pool] when given. The result has fresh runtimes and no WALs
    attached. *)
