(** Self-managed collections (§2 and §4 of the paper).

    A collection owns the memory of its objects: [add] allocates an object
    in the collection's private memory context, [remove] frees it and every
    outstanding reference to it reads as null from then on. Collections have
    bag semantics and are enumerated in memory (block) order inside epoch
    critical sections, which is what compiled queries exploit.

    Every enumeration reads at a CSN frontier it takes when it starts: it
    emits exactly the rows visible there (live, or removed after it), each
    once, even when a transaction commits or compaction moves rows
    mid-walk; rows added after it started are not emitted. While the walk
    runs, nothing it can still see is recycled.

    Storage knobs mirror the paper's variants: row vs columnar placement
    (§4.1) and indirect vs direct reference mode (§6). *)

(** Every structure kept in step with the collection's mutations — hash and
    text indexes, materialized views, a write-ahead log — is a
    {!subscriber}, registered in one ordered list with {!subscribe}. Each
    published unit reaches each subscriber exactly once, as one [on_commit]
    call with the unit's ops:

    - a bare {!add} publishes [[Add]] after [init] has set the fields;
    - a bare {!remove} publishes [[Remove]] after a successful free (the
      reference already reads as null, so maintenance must be deferred —
      lazy staleness); a dead remove publishes nothing. While anyone is
      subscribed, the remove pins the epoch across free and publish, so no
      other domain can recycle the entry and publish a later incarnation's
      [Add] first;
    - a bare {!store} publishes [[Store]] after its copy-on-write commit
      has swung the reference to the updated copy;
    - a commit ({!commit}, {!commit_all}) publishes its ops in staging
      order, once, after the whole batch is applied (a log writes it as
      one record, so recovery applies all or none). An empty commit,
      staging, {!abort} and a {!commit_all} that conflicts publish nothing;
    - recovery applies each replayed log record, then hands its ops to
      {!publish} as one unit.

    Subscribers fire in attachment order, on the mutating domain, while the
    unit's locations are stable. *)

type op =
  | Add of Ref.t * Smc_offheap.Block.t * int
      (** the new reference and its location (for slot-image capture) *)
  | Remove of Ref.t
  | Store of Ref.t * int * int  (** reference, word offset, value *)

type subscriber = {
  name : string;  (** unique among the collection's subscribers *)
  on_commit : op list -> unit;  (** one call per published unit *)
}

type t = {
  name : string;
  layout : Smc_offheap.Layout.t;
  ctx : Smc_offheap.Context.t;
  rt : Smc_offheap.Runtime.t;
  mutable subs : subscriber list;  (** in attachment order *)
  txn_lock : Mutex.t;
      (** serialises transaction commits and bare stores, and the frontier
          vector of {!snapshot_views}; never held together with the context
          lock *)
}

val create :
  Smc_offheap.Runtime.t ->
  name:string ->
  layout:Smc_offheap.Layout.t ->
  ?placement:Smc_offheap.Block.placement ->
  ?mode:Smc_offheap.Context.mode ->
  ?slots_per_block:int ->
  ?reclaim_threshold:float ->
  unit ->
  t

val add : t -> init:(Smc_offheap.Block.t -> int -> unit) -> Ref.t
(** Allocates an object (zeroed), runs [init] on its (block, slot) to set
    the fields, and returns a reference. Maps directly onto the memory
    manager's alloc, as §2 prescribes: [init] runs inside
    {!Smc_offheap.Context.alloc}, before the slot turns valid, so no
    enumeration or snapshot view emits a row whose [init] has not
    returned. If [init] raises, nothing is added and the exception
    propagates. *)

val remove : t -> Ref.t -> bool
(** Frees the object; [false] if the reference was already null/dead.
    Subscribers hear of it only on a successful free. *)

val store : t -> Ref.t -> word:int -> value:int -> unit
(** Single-word store, committed as a one-op transaction: under the
    transaction lock it takes its own commit CSN and applies the word
    copy-on-write, as a committed {!stage_store} does. The reference keeps
    its identity; walks and snapshot views whose frontier predates the
    store keep reading the old payload. Unlike a raw [Field.set_*] poke, a
    [store] participates in first-committer-wins validation: a
    transaction that staged against the row before this store commits
    afterwards with [Conflict]. Publishes a [Store] op. Raises
    {!Smc_offheap.Constants.Null_reference} if the reference is null or
    dead, [Invalid_argument] if [word] is outside the layout or the
    collection uses direct references (as {!txn} does). Do not store to
    indexed key fields — index entries are keyed at add time. *)

val subscribe : t -> subscriber -> unit
(** Appends a subscriber; from now on every published mutation reaches it.
    A quiescent-point operation: no concurrent mutation may run while the
    list changes (probes may). Raises [Invalid_argument] for a duplicate
    name, or when the collection uses {!Smc_offheap.Context.Direct}
    references — subscribers hold [Ref.t]s and rely on indirect mode
    keeping them stable across compaction. *)

val unsubscribe : t -> string -> unit
(** Removes the named subscriber (quiescent-point operation). Raises
    [Invalid_argument] if no such subscriber is attached. *)

val subscribers : t -> string list
(** Names of the attached subscribers, in attachment order. *)

val publish : t -> op list -> unit
(** Hands one unit to every subscriber, in attachment order: the one
    firing path of the live mutations, and recovery's, which applies a
    replayed record and then publishes its ops, so structures subscribed
    before a replay stay current through it. *)

val deref : t -> Ref.t -> Smc_offheap.Block.t * int
(** Current location of the object. Raises
    {!Smc_offheap.Constants.Null_reference} when the object is gone. Use
    inside {!with_read}, or inside an {!iter} callback, if the location
    must stay stable while reading. *)

val deref_opt : t -> Ref.t -> (Smc_offheap.Block.t * int) option

val mem : t -> Ref.t -> bool
(** Whether the reference still names a live object. *)

val with_read : t -> (unit -> 'a) -> 'a
(** Runs [f] inside an epoch critical section, for point reads (probes,
    {!deref}) whose locations must stay stable, and around an {!iter}
    whose callback keeps block locations across blocks. Nestable. *)

val iter : t -> f:(Smc_offheap.Block.t -> int -> unit) -> unit
(** Enumerates the rows visible at the current frontier in block order,
    each memory block inside its own critical section (§4's per-block
    granularity: grace periods stay short, so reclamation can progress
    during long scans). The same rows are visited, each once, even when
    compaction moves them mid-scan. [f blk] is evaluated once per scanned
    slot range (a whole block, or a compaction source's range of its
    target), so compiled queries can hoist the block's raw arrays and
    field offsets out of the slot loop — the paper's direct pointer access
    to the collection's memory blocks. *)

val loc_block : t -> int -> Smc_offheap.Block.t
(** Block for a packed location from {!Field.follow_loc}. *)

val loc_slot : int -> int
(** Slot for a packed location. *)

val iter_refs : t -> f:(Ref.t -> unit) -> unit
(** Like {!iter} but yields references (built via back-pointers, as the
    paper's generated enumeration code does). *)

val fold : t -> init:'a -> f:('a -> Smc_offheap.Block.t -> int -> 'a) -> 'a

val count : t -> int
(** Live objects (O(blocks), from the per-block counters). *)

val ref_of_slot : t -> Smc_offheap.Block.t -> int -> Ref.t
(** Reference for an enumerated slot — the row's live reference also for
    the pre-commit copy a walk below a transactional store emits. *)

val compact : t -> ?occupancy_threshold:float -> unit -> Smc_offheap.Compaction.report
(** Runs a §5 compaction pass over the collection's context. Open
    snapshot views do not stop it: the pass carries every row an open
    frontier can still see into its targets. Raises [Invalid_argument]
    inside a critical section ({!with_read}). *)

(** {2 Atomic multi-op transactions}

    A transaction stages mutations privately and commits them as one unit:
    write-write conflicts are validated against the staging-time CSN
    frontier (first committer wins), the batch is published under the
    collection's transaction lock with a single commit CSN — snapshot views
    see all of it or none of it — and a subscribed WAL logs it as one
    record that recovery replays whole or not at all.

    Bare {!add}/{!remove} calls are their own single-op units, each with
    its own CSN, and bypass the transaction lock. A bare {!store} is a
    one-op commit under the transaction lock: serialised against commits
    and applied copy-on-write, it participates in first-committer-wins
    validation like any other writer. Only a raw [Field.set_*] poke
    carries no CSN stamp, writes in place and stays invisible to
    validation. Rows written by a transaction must not be concurrently
    bare-removed — that interleaving voids the atomicity contract and
    [commit] fails loudly ([Failure]) if it detects it. *)

type txn
(** An open transaction on one collection. Not thread-safe: stage and
    commit from one domain. *)

type txn_result =
  | Committed of Ref.t list
      (** references of the staged adds, in staging order *)
  | Conflict
      (** write-write validation failed; nothing was published, the
          transaction is closed, and the refs it staged are untouched *)

val txn : t -> txn
(** Opens a transaction whose conflict frontier is the current CSN.
    Raises [Invalid_argument] on direct-mode collections — validation and
    copy-on-write stores need the indirection layer (same restriction as
    subscribing). *)

val stage_add : txn -> init:(Smc_offheap.Block.t -> int -> unit) -> unit
(** Stages an allocation; [init] runs at commit on the fresh slot. *)

val stage_remove : txn -> Ref.t -> unit
(** Stages a removal. Staging the same reference twice in one transaction
    (for removal or store) is rejected at commit with [Invalid_argument]. *)

val stage_store : txn -> Ref.t -> word:int -> value:int -> unit
(** Stages a word store (the transactional counterpart of a direct field
    store; pair with [Layout] word offsets). Applied copy-on-write at
    commit ({!Smc_offheap.Context.store_versioned}): the reference keeps
    its identity but the row moves to a fresh slot, while walks and views
    that started before the commit keep reading the pre-commit payload
    from the retired copy. Do
    not store to indexed key fields — index entries are keyed at add
    time. *)

val commit : txn -> txn_result
(** Validates and publishes the batch (see {!subscriber} for how
    subscribers hear of it), and closes the transaction: [commit_all [tx]]. *)

val commit_all : txn list -> Ref.t list list option
(** Commits transactions on several collections as one unit — e.g. a
    sharded collection's cross-shard transaction — and closes them all.
    Validates them in list order, each under its collection's transaction
    lock and an epoch critical section that it keeps while the rest
    validate, so nothing can slip in between validation and publication.
    If every one validated, publishes each (in list order) and returns
    each transaction's add references in staging order. On the first
    conflict, returns [None] with nothing published anywhere: the
    transactions already validated count as conflicts on their runtimes,
    the ones never reached as aborts.

    The list order is the lock order: callers committing overlapping sets
    of collections concurrently must use one global order (e.g. ascending
    shard id), or they can deadlock. Locks are bound to the calling
    domain. Raises [Invalid_argument], with every transaction aborted,
    when two transactions are on one collection or a reference is staged
    twice in one transaction. *)

val abort : txn -> unit
(** Discards the staged batch and closes the transaction. *)

val transact : t -> (txn -> unit) -> txn_result
(** [transact t f] opens a transaction, runs [f] to stage its operations,
    and commits. If [f] raises, the transaction aborts and the exception
    is re-raised. *)

(** {2 Snapshot views}

    A view is one CSN frontier, registered for its lifetime: reads against
    it are stable — concurrent commits and bare adds, removes and stores
    do not change which rows it yields or what they hold, and the rows it
    can see are neither recycled nor dropped by compaction. A view holds
    no critical section: epochs advance, other rows are reclaimed and
    compaction runs while it is open, on any domain including its own.
    Each read opens its own per-block critical sections. Views are bound
    to the opening domain (the registry cell is per domain) and must be
    closed: until then compaction carries the limbo rows the view can see
    instead of dropping them. *)

type view

val snapshot_view : t -> view
(** Opens a view at the current commit frontier. *)

val close_view : view -> unit
(** Closes the view's frontier; idempotent. Call on the opening domain.
    Reading a closed view raises [Invalid_argument]. *)

val with_view : t -> (view -> 'a) -> 'a
(** Brackets {!snapshot_view}/{!close_view} around [f]. *)

val snapshot_views : t list -> view list
(** Views over several collections at one consistent frontier vector: the
    CSNs are read while holding {e all} the collections' transaction locks
    (taken in list order — use the same global order as {!commit_all}). A
    {!commit_all} across the collections is either visible in every
    returned view or in none. Close each view with {!close_view} as usual. *)

val view_csn : view -> int
(** The view's CSN frontier. *)

val view_walk : view -> Smc_offheap.Context.walk
(** A walk at the view's frontier, for engines that drive
    {!Smc_offheap.Context.walk} themselves. Raises [Invalid_argument] once
    the view is closed. *)

val view_iter : view -> f:(Smc_offheap.Block.t -> int -> unit) -> unit
(** Enumerates the rows visible at the view's frontier, in block order. *)

val view_fold : view -> init:'a -> f:('a -> Smc_offheap.Block.t -> int -> 'a) -> 'a
val view_count : view -> int

val memory_words : t -> int
(** Off-heap words held by the collection (blocks only). *)

val block_count : t -> int
val limbo_count : t -> int
