(** Snapshot / restore / WAL-replay throughput on TPC-H lineitem.

    Loads TPC-H at scale factor [sf], churns the lineitem collection
    (removes plus logged in-place stores) with a WAL attached, snapshots
    it, churns further so the log tail carries real work, then measures
    three stages: snapshot write, snapshot restore, and restore with WAL
    replay. Throughput is reported in MB/s over the image bytes and krows/s
    over the affected rows.

    The run is also a correctness gate: the replayed instance must pass
    {!Smc_check.Audit}, {!Smc_check.Obs_check} and
    {!Smc_index.Hash_index.audit} (a shipdate index is re-attached from the
    manifest), report exactly the live row count, and answer Q1 and Q6
    bit-identically to the original collection. Violations are returned;
    empty means every gate held. *)

type point = {
  stage : string;  (** ["snapshot"] | ["restore"] | ["wal replay"] *)
  rows : int;  (** rows written / restored / replayed *)
  bytes : int;  (** image bytes through this stage (0 for replay) *)
  ms : float;
  mb_s : float;  (** image megabytes per second; 0 when bytes is 0 *)
  krows_s : float;
}

val run : ?sf:float -> ?dir:string -> unit -> point list * string list
(** Default [sf] 0.1. Artifacts are written to [dir] (default: a fresh
    directory under the system temp dir) and deleted afterwards unless the
    directory was supplied by the caller. *)

val table : point list -> Smc_util.Table.t
