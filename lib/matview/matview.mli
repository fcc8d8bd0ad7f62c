(** Incremental materialized aggregate views.

    A view reifies one aggregate plan — group-by keys and
    [Count]/[Sum]/[Min]/[Max]/[Avg] aggregates over an optional filter —
    against a collection, and keeps the result up to date from mutation
    deltas instead of re-aggregating the scan on every read: an added row
    applies a +delta to its group, a removed row a −delta, an in-place
    store a remove+add pair. The view is a per-op
    {!Smc.Collection.subscriber}, like an index, so every mutation path
    that keeps indexes current — bare ops, transactional commit, WAL replay
    ({!val:Smc_persist.Snapshot.replay_wal}) — keeps views current too, at
    the same exactly-once firing points.

    {b Delta algebra.} [Count], [Sum] and [Avg] over [Int]/[Dec] inputs
    are exactly invertible: sums are maintained as a split
    integer/fixed-point-decimal pair so the emitted value carries the same
    type tag as a from-scratch fold, and decimal arithmetic
    ({!Smc_decimal.Decimal}) is exact integer arithmetic underneath.
    [Min]/[Max] are not invertible — removing the current extremum leaves
    the runner-up unknown — so the affected {e group} is marked dirty and
    re-derived by one bounded re-scan at the next read (an extremum
    multiplicity count makes removals of duplicated extrema O(1)).

    {b Invalidation, loudly.} Inputs outside the invertible algebra — a
    [Null] aggregate input, a non-numeric [Sum]/[Avg] input — invalidate
    the whole view: maintenance stops, the invalidation counter ticks, and
    every read re-derives the result from scratch (attempting to
    re-validate first), preserving bit-identical parity with the engines
    including any type errors they would raise. The view never raises out
    of a mutation hook.

    {b Consistency.} Deltas apply atomically with the mutation that fired
    them: transactional ops apply under the commit's lock before the
    commit returns, so a read never observes a half-applied transaction's
    groups. {!frontier} reports the commit sequence number the maintained
    state reflects. Reads are serialised against maintenance by the view's
    internal lock; lock order is collection transaction lock → view lock,
    never the reverse. *)

type t

val attach :
  name:string ->
  Smc.Collection.t ->
  columns:(string * Smc_query.Source.column) list ->
  keys:(string * Smc_query.Expr.t) list ->
  aggs:(string * Smc_query.Source.view_agg) list ->
  ?where:Smc_query.Expr.t ->
  unit ->
  t
(** Subscribes the view to the collection and runs the initial build (one
    scan). [columns] is the same typed spec the advertising
    {!Smc_query.Source.of_smc} uses — extraction agrees by construction.
    Attachment is a quiescent-point operation (no concurrent mutations),
    like index attachment. Raises [Invalid_argument] on a duplicate subscriber
    name, a direct-mode collection, or an expression naming a column
    outside [columns]. If existing rows are outside the invertible algebra
    the view attaches {e invalid} (reads fall back; see module doc). *)

val detach : t -> unit
(** Unsubscribes the view (quiescent-point operation). Raises
    [Invalid_argument] if it is not attached. *)

val name : t -> string
val collection : t -> Smc.Collection.t

val info : t -> Smc_query.Source.matview_info
(** The access-path descriptor to pass to {!Smc_query.Source.of_smc}'s
    [?matviews] so {!Smc_query.Planner.choose_access_paths} rewrites a
    structurally matching [GroupBy] to a [ViewRead] over this view. *)

val read : t -> (Smc_query.Value.t array -> unit) -> unit
(** Pushes the maintained result rows (key columns then aggregate columns,
    group order unspecified) — bit-identical to evaluating the reified
    plan from scratch. O(groups) when clean; dirty [Min]/[Max] groups cost
    one bounded re-scan; an invalid view re-derives everything. *)

val frontier : t -> int
(** The commit sequence number the maintained state reflects. *)

type stats = {
  st_groups : int;
  st_contributions : int;  (** rows currently contributing (passing the filter) *)
  st_dirty_groups : int;  (** groups awaiting a [Min]/[Max] re-scan *)
  st_invalid : string option;  (** why the view is invalid, if it is *)
  st_frontier : int;
}

val stats : t -> stats

val audit : t -> string list
(** Quiescent-point cross-check, one message per violation: every live row
    passing the filter has exactly the contribution the hooks recorded
    (catching missed or double-fired mutation paths), group row counts
    agree with the contribution table, and the maintained result equals a
    from-scratch evaluation of the reified plan as a multiset. An invalid
    view audits vacuously clean — reads already re-derive. *)
