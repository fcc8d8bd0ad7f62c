(** Round-trip verification of the persistence layer.

    Two entry points. {!restore_verified} restores a snapshot (plus
    optional WAL tail) and immediately runs the full invariant sweep on
    the result — {!Audit.check_once}, {!Obs_check.check} and
    {!Smc_index.Hash_index.audit} over the re-attached indexes — so a restored
    image is never trusted unaudited. {!round_trip} goes further: it
    snapshots a live collection, restores the image, and checks that the
    restored rows are {e exactly} the original ones (a multiset
    comparison of raw slot words, incarnations included in indirect
    mode), on top of the same audits.

    Foreign [Ref] fields are excluded from the row comparison — the
    snapshot format nulls them by design (see {!Smc_persist.Snapshot}).
    In direct mode self-references are also masked, because block ids are
    reassigned on restore; in indirect mode they are entry-stable and
    compared verbatim.

    Same quiescent-point contract as {!Audit}: no concurrent mutators on
    either runtime while checking. *)

val restore_verified :
  ?wal:string -> path:string -> unit -> Smc_persist.Snapshot.restored * string list
(** Restores and sweeps. The violation list is empty when the restored
    runtime passes every structural, counter-balance and index check.
    Corruption raises {!Smc_persist.Pio.Corrupt} as usual. *)

val round_trip :
  ?wal:Smc_persist.Wal.t ->
  ?indexes:(string * string) list ->
  path:string ->
  Smc.Collection.t ->
  string list
(** Snapshots [coll] to [path] (recording the WAL cut point when [wal] is
    attached), restores it — replaying the WAL tail if one was given —
    and returns all violations: audit findings on the restored runtime
    plus any row-level difference between the original and restored
    populations. Empty means the round trip is exact. *)
