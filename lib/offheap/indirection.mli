(** The global indirection table (§3.2 of the paper).

    Object references do not point at memory slots directly; they point at an
    entry in this table, which holds (a) the object's incarnation word —
    incarnation number plus the frozen/lock/forward protocol bits — and (b) a
    packed pointer to the object's current block and slot. The indirection
    makes compaction possible: relocating an object updates one table entry
    instead of every reference in the application.

    Entries live in off-heap chunks (int Bigarrays), so the table itself adds
    no garbage-collection load. Freed entries recycle through per-thread
    caches backed by a global free list; an entry is recycled only when its
    slot is reclaimed (two epochs after removal), so any stale reference held
    across the grace period still sees a bumped incarnation and reads as
    null. In direct mode (§6) the incarnation moves into the block and the
    table entry keeps only the pointer. *)

type t

val create : ?chunk_bits:int -> ?obs:Smc_obs.t -> unit -> t
(** [chunk_bits] sets entries per chunk to [2^chunk_bits] (default 16).
    When [obs] is given, entry mints/recycles/frees are counted on it. *)

val alloc : t -> tid:int -> int
(** Allocates an entry index for thread slot [tid]. The entry's incarnation
    word is preserved from its previous life (it only ever increases). *)

val free : t -> tid:int -> int -> unit
(** Returns an entry to thread [tid]'s cache for reuse. *)

val inc_word : t -> int -> int
(** Current incarnation word (incarnation + flag bits). *)

val live_ptr : t -> int -> int -> int
(** [live_ptr t entry inc] fuses the incarnation check with the pointer
    load: the packed pointer on a clean match, [-1] when dead, [min_int]
    when protocol flags are set (slow path required). *)

val set_inc_word : t -> int -> int -> unit
(** Raw store; callers serialise read-modify-write via striped locks. *)

val ptr : t -> int -> int
(** Packed block+slot pointer ({!Constants.pack_ptr}). *)

val set_ptr : t -> int -> int -> unit

val capacity : t -> int
(** Total entries ever materialised (for memory accounting). *)

val restore_reserve : t -> capacity:int -> unit
(** Restore-time only: materialise chunks for entries [0, capacity) and
    raise the never-used watermark to at least [capacity], so entry indices
    named by a snapshot or WAL can be assigned verbatim without colliding
    with freshly minted entries. The table must not be shared yet. *)

val words : t -> int
(** Off-heap words consumed by the table. *)

val iter_free : t -> f:(int -> unit) -> unit
(** Audit accessor: every recycled-but-unallocated entry (global free stack
    plus per-thread caches). Only meaningful at a quiescent point — an
    invariant sweep uses it to prove no free entry is still reachable from a
    slot back-pointer. *)
