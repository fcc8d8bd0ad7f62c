(** Off-heap data blocks (§3.1–§3.2 of the paper).

    A block stores objects of exactly one layout (type stability). Its memory
    is divided into the object store, the slot directory (per-slot state:
    free / valid / limbo, plus the removal-epoch stamp), the back-pointers
    (per-slot indirection-table entry index), and a per-slot incarnation
    plane used in direct mode (§6, where the incarnation number moves from
    the indirection entry into the object's header).

    All four segments are [int] Bigarrays: allocated outside the OCaml heap,
    never scanned or moved by the garbage collector. The block record itself
    is a small heap object playing the role of the paper's block header.

    Blocks also carry the compaction state of §5: a relocation list
    (from-slot → target block/slot, with per-relocation status) and a
    compaction-group handle used by the block-access protocol of §5.2. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type placement = Row | Columnar

type relocation_status = Pending | Moved | Failed

type relocation = {
  from_slot : int;
  target : t;
  to_slot : int;
  mutable status : relocation_status;
}

and reloc_list = {
  relocs : relocation array;
  by_slot : int array;  (** from_slot → index into [relocs], or -1 *)
}

and group = {
  sources : t array;
  g_target : t;
  g_state : int Atomic.t;  (** 0 pending, 1 moving, 2 done *)
  g_queries : int Atomic.t;  (** pre-relocation readers holding the group *)
}

and t = {
  id : int;
  layout : Layout.t;
  placement : placement;
  nslots : int;
  data : int_ba;
  dir : int_ba;
  backptr : int_ba;
  slot_inc : int_ba;
  csn_born : int_ba;
      (** commit sequence number at which the slot's current row became
          visible; 0 for rows that predate CSN stamping (always visible) *)
  csn_write : int_ba;
      (** commit sequence number of the last write (store or removal) to
          the slot's current row; doubles as the removal stamp every walk
          reads *)
  born_max : int Atomic.t;
      (** the newest birth CSN any row of the block ever carried, raised
          before the row is counted valid: a full block whose [born_max] is
          at or below a frontier is visible there in full *)
  valid_count : int Atomic.t;
  limbo_count : int Atomic.t;
  mutable scan_pos : int;  (** allocator's next slot to examine (§3.5) *)
  mutable owner_tid : int;  (** thread currently allocating here, or -1 *)
  mutable queued : bool;  (** present in the context's reclamation queue *)
  mutable queued_ready : int;  (** epoch at which queued reclamation is safe *)
  mutable dead : bool;  (** emptied by compaction; skipped by enumerators *)
  mutable reloc : reloc_list option;
      (** kept once the block's group completes: each source's relocations
          fill one contiguous slot range of the target, which is where an
          enumeration finds the source's rows *)
  mutable group : group option;
      (** also kept on a completed source, so a walk that meets it can tell
          its rows moved *)
  mutable moved_in : int;
      (** as a compaction target: slots [\[0, moved_in)] are its sources'
          relocation ranges; 0 for other blocks *)
  mutable sources_gone : int;
      (** as a compaction target: the view generation from which its
          sources are gone from the context view ([max_int] until then) *)
}

val group_pending : int
val group_moving : int
val group_done : int

val create : id:int -> layout:Layout.t -> placement:placement -> nslots:int -> t
(** Fresh block, all slots free. [nslots] must fit direct-pointer packing. *)

val word_index : t -> slot:int -> word:int -> int
(** Physical index of logical [word] of [slot] under the block's placement:
    row-major for [Row], plane-major for [Columnar] (§4.1). *)

val get_word : t -> slot:int -> word:int -> int
val set_word : t -> slot:int -> word:int -> int -> unit

val get_string : t -> slot:int -> Layout.field -> string
(** Reads a NUL-padded inline string field: the bytes before the first
    NUL, at most the field capacity. Allocates only the result. *)

val string_length : t -> slot:int -> Layout.field -> int
(** The length {!get_string} would return, read from the words without
    copying: the first NUL byte, or the capacity. *)

val set_string : t -> slot:int -> Layout.field -> string -> unit
(** Truncates to the field capacity; pads with NULs. *)

val string_words : Layout.field -> string -> int array
(** The exact words {!set_string} would store for a literal — precomputed
    once, they make string equality a handful of word compares. *)

val get_float : t -> slot:int -> word:int -> float
val set_float : t -> slot:int -> word:int -> float -> unit

val dir_entry : t -> int -> int
val set_dir_entry : t -> int -> int -> unit
val slot_state : t -> int -> int
(** One of [Constants.state_free] / [state_valid] / [state_limbo]. *)

val clear_slot_words : t -> slot:int -> unit
(** Zeroes a slot's object words (fresh-object initialisation). *)

val copy_slot : src:t -> src_slot:int -> dst:t -> dst_slot:int -> unit
(** Copies all object words between same-layout blocks, translating
    placement if they differ. *)

val occupancy : t -> float
(** valid slots / total slots. *)

val off_heap_words : t -> int
(** Total off-heap words held by this block (all four segments). *)

val find_reloc : t -> slot:int -> relocation option
(** Relocation entry for [slot], if the block is scheduled for compaction. *)
