(** The shared runtime state of one memory manager instance: the epoch
    manager, the indirection table, the block registry, the striped locks
    serialising incarnation-word read-modify-writes, and the global
    compaction-phase flags of §5.1 ([nextRelocationEpoch], [inMovingPhase]).

    One [Runtime.t] corresponds to the paper's per-process runtime extension;
    every memory context and collection hangs off one. *)

type compaction_phase =
  | Phase_selected  (** candidates reserved, groups about to form *)
  | Phase_frozen  (** all group members carry the frozen bit *)
  | Phase_waiting  (** stepping the global epoch towards relocation *)
  | Phase_moving  (** relocation sweep in progress *)
  | Phase_completed  (** groups done, sources dead, before pointer fixup *)
      (** Compaction-pass boundaries at which the chaos harness may inject
          work (frees, epoch churn, queries) to exercise bail-out paths. *)

type txn_phase =
  | Txn_staged  (** operations staged privately, before validation *)
  | Txn_validated  (** write-write validation passed, before apply *)
  | Txn_applied  (** mutations published, before the WAL batch append *)
  | Txn_logged  (** WAL commit record appended (per group-commit policy) *)
      (** Transaction-commit boundaries at which the chaos harness may
          snapshot WAL images (crash injection) or inject concurrent work. *)

type t = {
  epoch : Epoch.t;
  ind : Indirection.t;
  registry : Registry.t;
  locks : Smc_util.Striped_lock.t;
  next_relocation_epoch : int Atomic.t;  (** -1 when no compaction pending *)
  in_moving_phase : bool Atomic.t;
  next_context_id : int Atomic.t;
  mutable inc_quarantine_limit : int;
      (** incarnation value beyond which a slot is quarantined instead of
          reused (§3.1's overflow rule); defaults to the reference-visible
          incarnation width, lowered in tests to exercise the path *)
  quarantined_slots : int Atomic.t;
  obs : Smc_obs.t;
      (** per-domain event counters for this runtime instance; every layer
          below (epoch, indirection, context, compaction) reports here *)
  mutable on_alloc : (unit -> unit) option;
      (** fault-injection hook, fired at the start of every allocation
          attempt (including retries); [None] in production *)
  mutable on_compaction_phase : (compaction_phase -> unit) option;
      (** fault-injection hook, fired by [Compaction.run] at phase
          boundaries; [None] in production *)
  mutable on_queue_check : (Block.t -> unit) option;
      (** fault-injection hook, fired by [Context.maybe_queue] between its
          unlocked pre-check and taking the context lock; [None] in
          production *)
  mutable on_txn_phase : (txn_phase -> unit) option;
      (** fault-injection hook, fired by [Collection.transact] at commit
          boundaries; [None] in production *)
}

val create : ?max_threads:int -> unit -> t

val fire_alloc_hook : t -> unit
val fire_compaction_hook : t -> compaction_phase -> unit
val fire_queue_hook : t -> Block.t -> unit
val fire_txn_hook : t -> txn_phase -> unit

val tid : t -> int
(** The calling domain's thread slot (registers on first use). *)

val with_entry_lock : t -> int -> (unit -> 'a) -> 'a
(** Serialises read-modify-write on indirection entry [entry]. *)
