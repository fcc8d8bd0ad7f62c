(** Indexed vs full-scan access-path comparison (and index self-check).

    Runs point selection, duplicated-key equi-selection (with a residual
    conjunct), and small-probe equi-joins — synthetic at [rows] items and
    TPC-H lineitem ⋈ orders at scale factor [sf] — each measured as the
    written scan plan and as the {!Smc_query.Planner}-rewritten index
    plan, verifying both return the same bag of rows. A churn phase then
    removes, probes (removed keys must miss), re-adds and sweeps, and the
    run finishes with {!Smc_index.Hash_index.audit}, {!Smc_check.Audit} and
    {!Smc_check.Obs_check} sweeps: the returned violations list (parity
    mismatches included) is empty iff every invariant held. *)

type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;  (** indexed plan returned exactly the scan plan's rows *)
}

val run : ?rows:int -> ?sf:float -> unit -> point list * string list
(** Defaults: 1M synthetic rows, TPC-H sf 0.01. *)

val table : point list -> Smc_util.Table.t
