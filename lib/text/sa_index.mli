(** Off-heap suffix-array text index over one string column of a
    self-managed collection.

    The index owns a private [Bigarray] byte arena holding each indexed
    row's column text (NUL-terminated), per-entry tables mapping arena
    entries back to packed {!Smc.Ref.t}s, and a sorted suffix array over
    the arena — so [prefix] and [substring] probes are two binary searches
    plus a range walk, instead of a full scan. Like {!Smc_index.Hash_index}
    the storage is private off-heap memory: not runtime blocks, not
    registered with the block registry, dropped wholesale when a rebuild
    publishes a fresh store.

    Safety is the hash index's discipline taken to a value index: probes
    run inside one epoch critical section and every candidate is validated
    twice before emission — the reference's incarnation against the
    indirection table, then the column text re-extracted from the live row
    against the probe predicate. A removed or overwritten row's arena entry
    therefore reads as stale/miss and can never resurrect.

    Maintenance is log-structured in levels: a [base] level built by full
    rebuilds, a few sealed runs (each a complete arena + suffix array of
    the same shape), and a short pending tail. [add]s and column [store]s
    append the row's reference to the tail; removals only bump a churn
    counter. When the tail reaches a fixed run size (256 refs) it is
    sealed into a new run, and runs merge like a binary counter — while
    the newest run is at least as large as the one below, the two are
    rebuilt as one — so there are O(log) runs and a probe costs
    [O(levels · |needle| · log suffixes + tail)]: two binary searches per
    level plus a scan of fewer than 256 tail refs (checking the live text
    directly). When churn crosses a threshold a full merge-rebuild folds
    every level and the tail into a fresh base. Every level is built
    complete before a single store-field write publishes the record that
    holds it — the fully-populate-before-swap rule, so lock-free probes
    see either the old store or the new one, never a half-built array.

    Concurrency: one writer at a time (internal mutex); probes are
    lock-free and may run concurrently with writers under bag semantics —
    rows added concurrently may or may not be seen, and every emitted row
    is live and matching at emission time. *)

type op = Prefix | Substring | Substring_ci
(** Probe operators: [Prefix] matches rows whose column text starts with
    the needle; [Substring] matches rows whose text contains it;
    [Substring_ci] is [Substring] under ASCII case folding ([A-Z] = [a-z],
    other bytes verbatim). The empty needle matches every row under all
    three. The arena stores case-folded bytes, so all operators run at
    full index speed: the range search uses the folded needle and every
    candidate is re-tested against the live row's original-case text. *)

type t

val attach : ?churn_limit:int -> name:string -> column:string -> Smc.Collection.t -> t
(** Creates the index over the named [Str] column, bulk-loads every live
    row, and subscribes it to the collection ({!Smc.Collection.subscribe})
    so subsequent [add]/[remove]/[store] maintain it incrementally. A
    quiescent-point operation (no concurrent mutators during the bulk
    load). Raises [Invalid_argument] on direct-mode collections, a name
    another subscriber holds, or a column that is not a string field.
    [churn_limit] overrides the threshold on entries not yet folded into
    the base (tail refs plus run entries) plus removals that triggers a full
    merge-rebuild (default [max 64 (base entries / 4)]). *)

val detach : t -> unit
(** Unsubscribes the index; further probes see a frozen
    (increasingly stale) view. Quiescent-point operation. *)

val name : t -> string
val collection : t -> Smc.Collection.t

val column : t -> string
(** Name of the indexed string column. *)

val probe : t -> op -> string -> f:(Smc.Ref.t -> Smc_offheap.Block.t -> int -> unit) -> unit
(** Yields every live row whose column text matches [(op, needle)], inside
    one epoch critical section. Candidates come from each level's
    suffix-array range and from the pending tail, deduplicated per probe (a
    row with several matching suffixes, or present in several levels and
    the tail, is emitted once); each is incarnation-validated and
    re-tested against its live text before emission ([Prefix] and
    [Substring] read the field's words in place). Bag semantics; emission
    order is unspecified. *)

val probe_refs : t -> op -> string -> Smc.Ref.t list
(** Convenience: collected references (probe order). *)

val contains_match : t -> op -> string -> bool
(** Whether any live row matches. *)

val top_k_similar : t -> k:int -> string -> (Smc.Ref.t * int) list
(** Fragment-similarity lookup: scores every candidate row by how many
    distinct 3-byte fragments (q-grams) of [query] occur in its current
    column text, validates the candidates live, and returns the top [k]
    as [(ref, score)] sorted by descending score. Queries shorter than
    3 bytes degrade to a single-fragment (substring) score. *)

(** {1 Maintenance and introspection} *)

val rebuild : t -> unit
(** Forces a full merge-rebuild now (runs and pending tail folded into a
    fresh base, stale entries dropped). Writer-serialised; probes
    racing the swap finish against the old store. *)

val maintain : t -> unit
(** Runs the churn check (a full rebuild if over threshold, else a seal
    if the tail is full) — what the write hooks do on every append.
    Useful after remove-heavy phases, since removals alone never take
    the writer lock. *)

type stats = {
  entries : int;  (** arena entries over all levels (may include stale ones) *)
  suffixes : int;  (** suffix-array sizes = total indexed bytes, all levels *)
  pending : int;  (** refs in the pending tail awaiting a seal *)
  runs : int;  (** sealed runs besides the base level *)
  arena_bytes : int;  (** over all levels *)
  memory_words : int;  (** off-heap words across arenas + tables + arrays *)
}

val stats : t -> stats

val audit : t -> string list
(** Structural invariant sweep; call only at a quiescent point. Checks,
    per level, that the suffix array is sorted with equal suffixes in
    ascending position (so exactly one array passes), covers exactly the
    arena's suffixes, and names in each word the entry that owns its
    offset, and that the entry tables are mutually consistent; that
    the tail is shorter than a run and run sizes grow toward the oldest;
    and that every live row of the collection is findable — its reference
    is in the pending tail, or some level's entry for it holds its current
    column text. (A live row whose arena texts all went stale {e must}
    therefore be pending: the store hook guarantees it.) Returns violation
    descriptions, [[]] when clean. *)
