(** Off-heap secondary hash indexes over self-managed collections.

    An index maps a key extracted from each row to the row's {!Smc.Ref.t}.
    The bucket array lives in off-heap [Bigarray] chunks private to the
    index — not on the OCaml heap, and not in the collection's memory
    context — so index storage scales like the collections it covers and
    never perturbs the runtime's block audit. An entry is two words: the
    packed indirect reference and a key word.

    Safety comes from the same machinery as any dereference: probes run
    inside an epoch critical section and validate the entry's incarnation
    against the indirection table on every hit. Entries for removed rows
    simply read as stale — {!Smc.Collection.remove} does no index work
    beyond a counter bump — and are tombstoned lazily by churn-triggered
    sweeps or dropped wholesale by load-factor-triggered rebuilds.

    Concurrency: one writer at a time (an internal mutex serialises
    inserts, sweeps, and rebuilds); probes are lock-free and may run
    concurrently with writers under the collections' usual bag-semantics
    contract — a row added concurrently may or may not be seen, and every
    emitted row is live with the probed key at emission time. Keys must not
    be mutated in place while a row is indexed. *)

type key = K_int of int | K_str of string
(** Probe keys. Int keys cover every fixed-width column (ints, dates,
    decimals-as-scaled-ints); string keys hash the interned row bytes. *)

type key_spec =
  | Int_key of (Smc_offheap.Block.t -> int -> int)
  | Str_key of (Smc_offheap.Block.t -> int -> string)
      (** How to extract the indexed key from a row location, e.g.
          [Int_key (Smc.Field.get_int f)]. *)

type t

val attach :
  ?initial_capacity:int ->
  ?max_load:float ->
  name:string ->
  key:key_spec ->
  Smc.Collection.t ->
  t
(** Creates the index, bulk-loads every live row, and subscribes it
    to the collection ({!Smc.Collection.subscribe}) so subsequent
    [add]/[remove] maintain it incrementally. A quiescent-point operation
    (no concurrent mutators during the bulk load). Raises
    [Invalid_argument] on direct-mode collections or a name another
    subscriber holds.
    [initial_capacity] is rounded up to a power of two (default 4096);
    [max_load] defaults to [0.7]. *)

val detach : t -> unit
(** Unsubscribes the index. The index stops tracking the
    collection; further probes are allowed but see a frozen (increasingly
    stale) view. Quiescent-point operation. *)

val name : t -> string
val collection : t -> Smc.Collection.t

val key_kind : t -> [ `Int | `Str ]
(** Which {!key} constructor this index's spec extracts. *)

val probe : t -> key -> f:(Smc.Ref.t -> Smc_offheap.Block.t -> int -> unit) -> unit
(** Yields every live row whose key equals [key], inside one epoch
    critical section. Each candidate entry is validated twice: the
    reference's incarnation against the indirection table, then the key
    re-extracted from the live row against the probe key — a stale or
    recycled slot can therefore never resurrect. Bag semantics; duplicate
    keys yield multiple rows. *)

val probe_refs : t -> key -> Smc.Ref.t list
(** Convenience: collected references for [key] (probe order). *)

val contains : t -> key -> bool

(** {1 Maintenance and introspection} *)

val sweep : t -> unit
(** Tombstones every stale entry now, instead of waiting for the churn
    trigger. Writer-serialised; safe concurrently with probes. *)

val rebuild : t -> unit
(** Rebuilds the bucket store from live entries only, resizing to target
    at most half load. Writer-serialised; probes racing the swap finish
    against the old store. *)

type stats = {
  capacity : int;  (** bucket count (power of two) *)
  occupied : int;  (** buckets holding a (possibly stale) entry *)
  tombstones : int;
  memory_words : int;  (** off-heap words backing the bucket chunks *)
}

val stats : t -> stats

val audit : t -> string list
(** Structural invariant sweep; call only at a quiescent point (no
    concurrent mutators on index or collection). Checks that bucket-state
    counts match the maintained counters; that every live entry's
    incarnation matches the indirection table, its slot directory state is
    valid, and its re-extracted key matches the stored key word; and that
    live entries are exactly the collection's live rows (count equality —
    no lost inserts, no duplicates, nothing stale counted live). Returns
    violation descriptions, [[]] when clean. *)
