(** Low-overhead runtime observability counters.

    A [t] holds one padded counter stripe per domain that touches it, so
    hot-path increments are plain stores into domain-private memory.
    Snapshots merge the stripes: exact at quiescent points, approximate
    while writers run (same contract as {!Smc_check}'s audit). *)

(** {1 Counter ids}

    Dense ints in [0, n_counters). *)

val c_allocs : int
val c_frees : int
val c_retires : int
val c_quarantines : int
val c_slot_recycles : int
val c_limbo_drops : int
val c_blocks_created : int
val c_fresh_blocks : int
val c_rq_pushes : int
val c_rq_pops : int
val c_rq_dead_drops : int
val c_rq_unqueues : int
val c_epoch_adv_ok : int
val c_epoch_adv_fail : int
val c_crit_enters : int
val c_thread_registers : int
val c_thread_releases : int
val c_entries_minted : int
val c_entries_recycled : int
val c_entries_freed : int
val c_compaction_passes : int
val c_compaction_aborts : int
val c_compaction_phases : int
val c_groups_formed : int
val c_groups_skipped : int
val c_objects_moved : int
val c_blocks_retired : int
val c_walk_moved_ranges : int
val c_reloc_helps : int
val c_reloc_bails : int
val c_pool_tasks : int
val c_par_scans : int
val c_par_workers : int
val c_par_group_merges : int
val c_idx_inserts : int
val c_idx_probes : int
val c_idx_hits : int
val c_idx_stale : int
val c_idx_tombstones : int
val c_idx_rebuilds : int
val c_persist_snapshots : int
val c_persist_snapshot_bytes : int
val c_persist_restores : int
val c_persist_restore_bytes : int
val c_persist_wal_appends : int
val c_persist_wal_syncs : int
val c_persist_wal_replayed : int
val c_persist_torn_drops : int
val c_txn_begins : int
val c_txn_commits : int
val c_txn_aborts : int
val c_txn_conflicts : int
val c_txn_views : int
val c_txn_view_closes : int
val c_bare_stores : int
val c_vec_batches : int
val c_vec_batch_rows : int
val c_vec_full_batches : int
val c_vec_filter_rows_in : int
val c_vec_filter_rows_kept : int
val c_vec_filter_rows_dropped : int
val c_vec_agg_chunk_rows : int
val c_cg_requests : int
val c_cg_compiles : int
val c_cg_cache_hits : int
val c_cg_fallbacks : int
val c_shard_routes : int
val c_shard_txns : int
val c_shard_txn_commits : int
val c_shard_txn_conflicts : int
val c_shard_txn_multi : int
val c_shard_fanouts : int
val c_srv_conns : int
val c_srv_requests : int
val c_srv_replies : int
val c_srv_errors : int
val c_srv_shed : int
val c_txt_adds : int
val c_txt_removes : int
val c_txt_probes : int
val c_txt_candidates : int
val c_txt_hits : int
val c_txt_stale : int
val c_txt_misses : int
val c_txt_dups : int
val c_txt_rebuilds : int
val c_txt_dropped : int
val c_mv_builds : int
val c_mv_adds : int
val c_mv_removes : int
val c_mv_stores : int
val c_mv_applied : int
val c_mv_reads : int
val c_mv_hits : int
val c_mv_rescans : int
val c_mv_invalidations : int

val n_counters : int
val name : int -> string

(** {1 Instances} *)

type t

val enabled : bool ref
(** Global increment toggle. Initialised from [SMC_OBS] ([0]/[false]
    disables). Derived invariants only hold for instances whose whole
    lifetime ran with counters enabled. *)

val create : ?label:string -> unit -> t
(** Fresh instance, registered for {!process_snapshot}. *)

val incr : t -> int -> unit
(** [incr t c] bumps counter [c] on the calling domain's stripe. No-op
    when [enabled] is false. *)

val add : t -> int -> int -> unit
(** [add t c n] bumps counter [c] by [n]. *)

(** {1 Snapshots} *)

type snapshot = { src : string; counts : int array }

val snapshot : t -> snapshot
(** Merge all stripes of [t]. *)

val get : snapshot -> int -> int
val diff : snapshot -> snapshot -> snapshot
val merge : snapshot -> snapshot -> snapshot

val process_snapshot : unit -> snapshot
(** Merged snapshot of every live instance in the process. *)

val to_table : ?title:string -> ?zeros:bool -> snapshot -> Smc_util.Table.t
(** Render as a two-column table (counter, count). Zero counters are
    omitted unless [zeros] is true. *)
