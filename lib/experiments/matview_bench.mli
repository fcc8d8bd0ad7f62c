(** Incremental materialized views vs from-scratch aggregation (and the
    view-maintenance self-check).

    Aggregates a synthetic [rows]-row table per group key two ways — the
    written GroupBy plan (full re-scan) and the
    {!Smc_query.Planner}-rewritten {!Smc_query.Plan.ViewRead} over the
    maintained view — on all four engines, verifying both return the
    same bag of rows, and gates a repeated-read workload on a speedup
    floor. Churn phases (bare removes, value stores, group-key stores,
    transactional batches) re-verify four-engine parity after every
    phase; a crash-recovery phase replays the run's WAL into a fresh
    collection whose view is attached before replay and checks the
    recovered view bit-for-bit against the live one. Finishes with
    {!Smc_matview.Matview.audit}, {!Smc_check.Audit} and
    {!Smc_check.Obs_check} sweeps over both runtimes: the returned
    violations list (parity mismatches included) is empty iff every
    invariant held. *)

type point = {
  phase : string;
  engine : string;
  groups : int;
  scan_ms : float;
  view_ms : float;
  speedup : float;
  identical : bool;  (** view plan returned exactly the scan plan's rows *)
}

val run : ?rows:int -> ?dir:string -> unit -> point list * string list
(** Default: 1M rows. [dir] keeps the WAL/snapshot artifacts (default: a
    temporary directory, removed after the run). *)

val table : point list -> Smc_util.Table.t
