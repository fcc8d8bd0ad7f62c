(** Memory contexts (§3.3, §3.5 of the paper).

    A context owns the set of same-type blocks backing one collection. All
    allocations for the collection go to the context's blocks, giving the
    spatial locality that makes block-order enumeration fast. Allocation is
    from thread-local blocks (one allocating thread per block at a time;
    removals may be concurrent). Freed slots become limbo slots stamped with
    the removal epoch; once a block's limbo fraction exceeds the reclamation
    threshold it enters the reclamation queue with a ready-epoch of
    [removal epoch + 2], and the allocator recycles it as a thread-local
    block when that epoch is reached — trying to advance the global epoch
    when reclaimable blocks are stuck waiting, exactly as §3.5 prescribes.

    References handed to the application are always indirect
    ({!Constants.pack_ref}: indirection entry + incarnation). In [Direct]
    mode (§6) the per-slot incarnation plane is maintained in lockstep and
    SMC-to-SMC ref fields store packed direct pointers
    ({!Constants.pack_direct}) resolved against the slot's incarnation word,
    with tombstone forwarding after compaction.

    The context also implements the block-access side of compaction (§5.2)
    in one block walk ({!walk}) that every enumerator runs, sequential or
    parallel, with one critical section per view position (§4). Each
    position of the walk's view snapshot accounts for its own block's rows
    wherever they are now: in place (a source of a pending group under the
    group's query counter, which holds the group out of its moving state),
    or — once the block's group completed — in the one contiguous slot
    range of the target its rows were moved to, followed through later
    compactions of that target. A target in the same view accounts only
    for the slots its sources do not own. The positions' shares partition
    the rows, and the walk reads at one registered CSN frontier, so a row
    visible there is emitted exactly once even when a group forms and
    completes or a transaction commits mid-walk. *)

type mode = Indirect | Direct

type view = { v_blocks : Block.t array; v_n : int; v_gen : int }
(** [v_gen] counts the prunes that published the view (see {!walk}). *)

type t = {
  id : int;
  rt : Runtime.t;
  layout : Layout.t;
  placement : Block.placement;
  mode : mode;
  slots_per_block : int;
  reclaim_threshold : float;
  lock : Mutex.t;  (** protects view publication and the reclamation queue *)
  mutable view : view;
      (** atomically-published snapshot of the block list; read it once and
          iterate the pair — mutators never disturb a published view *)
  mutable rq_front : Block.t list;
      (** reclamation queue, pop end (oldest first) *)
  mutable rq_back : Block.t list;
      (** reclamation queue, push end (newest first); the two lists form an
          amortised-O(1) FIFO under the context lock *)
  local_block : Block.t option array;  (** per thread slot *)
  mutable direct_referrers : (t * Layout.field) list;
      (** contexts holding direct references into this one (§6 fixup) *)
  compaction_requested : bool Atomic.t;
  csn : int Atomic.t;
      (** the commit clock every walk reads against: CSN [csn lsr 1], low
          bit set while a commit applies; see {!csn_now} *)
  committing : int Atomic.t;  (** the applying commit's CSN *)
  frontiers : int Atomic.t array;
      (** the open-frontier registry, one cell per epoch thread slot *)
  frontier_depth : int array;  (** open frontiers per thread slot *)
}

val create :
  Runtime.t ->
  layout:Layout.t ->
  ?placement:Block.placement ->
  ?mode:mode ->
  ?slots_per_block:int ->
  ?reclaim_threshold:float ->
  unit ->
  t
(** Defaults: [Row] placement, [Indirect] mode, 4096 slots per block,
    0.05 reclamation threshold (the paper's pick from Figure 6). *)

val alloc : ?csn:int -> ?init:(Block.t -> int -> unit) -> t -> int
(** Allocates a slot, wires its indirection entry and back-pointer, zeroes
    the object words, runs [init blk slot] to build the row, and only then
    turns the slot valid: an enumeration never emits a row [init] has not
    finished. If [init] raises, the slot and the entry go back as if never
    allocated and the exception propagates. Returns a packed indirect
    reference. The row's birth CSN is [csn] when given (transaction
    commit), else a fresh one — stamped before the slot turns
    valid. *)

val free : ?csn:int -> t -> int -> bool
(** Frees the object behind a packed indirect reference: bumps the
    incarnation(s) so all outstanding references read as null, marks the
    slot limbo with the current epoch, and queues the block for reclamation
    when it crosses the threshold. Returns [false] if the reference was
    already dead. The row's death CSN is [csn] when given, else a fresh
    one — stamped before the slot leaves the valid state. Safe
    concurrently with enumeration and allocation. *)

(** {2 Commit sequence numbers and the visibility rule}

    Every row carries a birth CSN and a last-write CSN in its block's stamp
    planes. Every walk reads at a CSN frontier [v] and emits valid rows
    born at or before [v] plus limbo/quarantined rows born at or before and
    dead after [v] ({!slot_visible_at}). Stamps are always written before
    the directory state flips, so an observed state change comes with its
    CSN. Open frontiers are registered per context: no slot is recycled and
    no compaction drops a row that an open frontier can still see. *)

val csn_now : t -> int
(** Current frontier: every CSN at or below it belongs to a finished unit.
    A transaction commit that is still applying its batch holds the
    frontier just below its CSN, so a frontier never splits a batch. *)

val begin_commit : t -> int
(** Mint a transaction commit's CSN and hold the frontier below it until
    {!end_commit}. Commits on one context must not overlap (the
    collection's transaction lock serialises them). *)

val end_commit : t -> unit
(** Release the frontier held by {!begin_commit}: the batch is visible. *)

val open_frontier : t -> int
(** Registers an open frontier on the calling domain and returns it. No
    row it can see is recycled or dropped by compaction until it is
    closed. Nestable per domain; a snapshot view holds one for its
    lifetime. *)

val close_frontier : t -> unit
(** Closes one of the calling domain's {!open_frontier}s. *)

val oldest_frontier : t -> int
(** No open or future frontier can see a row whose death stamp is at or
    below this value: the minimum of the current frontier and every
    registered one. *)

val store_versioned : t -> int -> csn:int -> word:int -> value:int -> bool
(** Copy-on-write store for commits and bare stores: copies the row behind
    the packed reference into a fresh slot stamped born = write = [csn],
    applies the word update to the copy, swings the reference's
    indirection entry to it, and retires the old copy to limbo with death
    stamp [csn] — all before the fresh slot turns valid, so no walk sees
    it unbuilt. The reference keeps its identity (same entry, same
    incarnation); walks below [csn] keep reading the old copy, and
    {!indirect_ref_of_slot} on it still yields the live reference. A
    pending relocation of the old copy is cancelled the way {!free}
    cancels one. Returns false when the reference no longer resolves.
    Indirect mode only — raises [Invalid_argument] in direct mode. *)

val live_entry : int -> int
(** The indirection entry a back-pointer word names: itself, or for a copy
    {!store_versioned} superseded (stored as [-2 - entry]), the live row's
    entry; -1 for none. *)

val slot_visible_at : Block.t -> int -> csn:int -> bool
(** Whether the slot holds a row visible at frontier [csn]. *)

val resolve : t -> int -> (Block.t * int) option
(** Current (block, slot) behind a packed indirect reference, or [None] if
    removed. Handles the frozen/relocation cases of §5.1 (bail-out in the
    waiting phase, helping in the moving phase). Call inside a critical
    section. *)

val resolve_direct : t -> int -> (Block.t * int) option
(** Same for a stored packed direct pointer (§6), including tombstone
    forwarding. [t] is the referenced (target) context. *)

val direct_ref_of : t -> int -> int
(** Converts an indirect reference into the packed direct pointer stored in
    SMC-to-SMC ref fields; {!Constants.null_ref} if the object is gone. *)

val indirect_ref_of_slot : t -> Block.t -> int -> int
(** Builds the application-level reference for a slot reached by block
    enumeration (via the back-pointer, as the paper's generated query code
    does when yielding [ObjRef]s). For a copy a transactional store
    superseded, the reference of the live row. *)

(** {2 The block walk} *)

type walk = private {
  w_ctx : t;
  w_view : view;
  w_next : int Atomic.t;
  w_csn : int;  (** the frontier every range of the walk is read at *)
}
(** One enumeration: a frontier, a view snapshot and an atomic position
    dispenser. *)

val with_walk : t -> (walk -> 'a) -> 'a
(** [with_walk t f] registers and reads the current frontier
    ({!open_frontier}), snapshots the published view, runs [f] on the walk
    and closes the frontier when [f] returns or raises. Share the walk
    across workers inside [f] to partition one enumeration among them. *)

val walk_from : t -> csn:int -> walk
(** A walk at an older frontier that the caller keeps registered (a
    snapshot view's). *)

val walk : walk -> scan:(Block.t -> int -> int -> unit) -> unit
(** Draws view positions from the dispenser until none is left and calls
    [scan blk lo hi] for every slot range [\[lo, hi)] that holds the drawn
    blocks' rows: the block itself ([0, nslots), or for a compaction target
    whose sources are in the same view, the slots they do not own), or the
    range of a compaction target its rows were moved to (counted in
    [walk_moved_ranges]). Each position's ranges are scanned inside one
    epoch critical section of their own — §4's per-block granularity, so
    grace periods stay short during long enumerations; a caller that
    needs blocks to stay put across positions holds an outer section
    ({!Epoch.critical}), and the walk's own sections then only count
    depth. Several domains may run [walk] on one {!walk}; each position is
    drawn by exactly one of them. However many workers share the walk,
    every row is passed to at most one [scan] call, once, and a row
    visible at the walk's frontier to exactly one. [scan] filters the
    range's slots itself by that frontier ({!scan_slots}, {!fill_block}). *)

val walk_at : walk -> scan:(int -> Block.t -> int -> int -> unit) -> unit
(** {!walk} that also names each range's view position: [scan i blk lo hi]
    for the ranges of position [i]. A sequential walk visits positions in
    increasing order and each range's slots in increasing order, so
    (position, slot) orders the rows of any walk the way the sequential
    walk would meet them. *)

val scan_slots : walk -> Block.t -> lo:int -> hi:int -> f:(int -> unit) -> unit
(** Applies [f] to every slot of [blk] in [\[lo, hi)] visible at the
    walk's frontier. A full block whose newest birth is at or below the frontier
    ([Block.born_max]) skips the per-slot test. *)

val iter : walk -> on_block:(Block.t -> int -> unit) -> unit
(** The one row-at-a-time enumeration: {!walk} with {!scan_slots}'s test,
    where [on_block blk] runs once per scanned slot range and returns the
    per-slot body — pass [f] itself for a plain per-row callback, or hoist
    raw block state out of the slot loop (the paper's direct block
    access). Snapshot views pass a {!walk_from} walk. *)

(** {2 Batch-at-a-time enumeration}

    The vectorized engine's scan primitive: a block is read as column
    chunks of up to [dim slots] rows, each chunk in {e one} pass that tests
    a slot and copies its wanted words together — amortizing per-element
    costs (closure calls, critical-section entries) across ~1024 rows. See
    docs/vectorized.md. *)

type sel = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Selection vector: slot (or batch-row) indices, live prefix only. *)

val make_sel : int -> sel
(** [make_sel cap] allocates a selection vector for [cap] entries (≥ 1). *)

type chunk = {
  slots : sel;  (** receives the slot index of each filled row; its [dim] is the chunk size *)
  words : int array;  (** word offset (in the layout) of each wanted word column *)
  masks : int array;  (** per word column: [0xFF] for a 1-byte char field, [-1] otherwise *)
  dsts : int array array;  (** per word column: destination, at least [dim slots] long *)
}
(** What one chunk fill writes: row [i] of a filled chunk is slot
    [slots.{i}], and [dsts.(w).(i)] is its word [words.(w)] [land]
    [masks.(w)]. *)

val fill_block :
  walk -> Block.t -> lo:int -> hi:int -> chunk -> on_batch:(Block.t -> int -> unit) -> unit
(** Reads slots [\[lo, hi)] of one block as chunks: for each chunk with
    [count] > 0 rows visible at the walk's frontier, fills the first
    [count] entries of [chunk.slots] and of every [chunk.dsts] column and
    calls [on_batch blk count], which must consume them before returning
    (the buffers are reused).

    Each chunk is one branchless pass that writes every slot's index and
    words at the output cursor and advances the cursor by the visibility
    test. A chunk of a full block whose newest birth is at or below the
    frontier skips the test and copies the slot range column by column
    (counted in [vec_full_batches]). Counts [vec_batches] and
    [vec_batch_rows]. No group handling — pass it as a {!walk}'s [scan],
    whose critical section keeps a row removed mid-chunk in limbo with its
    words intact. *)

val reclaim_queue_blocks : t -> Block.t list
(** Snapshot of the reclamation queue, oldest first. Callers must hold the
    context lock or be at a quiescent point (the audit's use). *)

val rq_remove_locked : t -> Block.t -> unit
(** Remove a block from the reclamation queue; caller must hold the context
    lock (the compactor pulls candidates out of the queue this way). *)

val resolve_loc : t -> int -> int
(** Allocation-free {!resolve}: packed (block, slot) per
    {!Constants.pack_ptr}, or -1 when the object is gone. *)

val resolve_direct_loc : t -> int -> int
(** Allocation-free {!resolve_direct}. *)

val block_of_loc : t -> int -> Block.t
(** Block record for a location returned by {!resolve_loc}. *)

val add_direct_referrer : t -> from:t -> Layout.field -> unit
(** Declares that [from]'s field holds direct references into [t], so
    compaction of [t] knows which contexts to scan for pointer fixup. *)

val perform_relocation : t -> int -> Block.relocation -> Block.t -> unit
(** Moves one object to its relocation target; idempotent; must hold the
    entry's stripe lock. Exposed for the compaction driver. *)

val effective_quarantine_limit : t -> int
(** The incarnation bound at which this context quarantines slots: the
    runtime's configured limit, additionally clamped to the 27-bit
    direct-reference incarnation width in [Direct] mode. *)

val valid_count : t -> int
val block_count : t -> int
val off_heap_words : t -> int
val stats_limbo : t -> int

val request_compaction : t -> unit

val new_block_unpublished : t -> Block.t
(** Creates a block registered globally but not yet visible to enumeration;
    compaction targets are published only once their group exists. *)

val publish_block : t -> Block.t -> unit
