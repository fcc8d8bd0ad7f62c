(** Suffix-array text access paths vs full scans (and text-index
    self-check).

    Runs rare-substring, fixed-prefix and substring-plus-residual
    selections over a synthetic [rows]-document corpus, each measured as
    the written scan plan and as the {!Smc_query.Planner}-rewritten
    {!Smc_query.Plan.TextScan} plan across all four engines, verifying
    both return the same bag of rows and that the high-selectivity probe
    clears a speedup floor. A churn phase removes rows (their unique head
    tokens must stop matching), overwrites surviving rows through the
    store hook (old text must miss, new text must hit from the pending
    log, then survive a forced merge-rebuild), re-verifies parity, and
    finishes with {!Smc_text.Sa_index.audit}, {!Smc_check.Audit} and
    {!Smc_check.Obs_check} sweeps: the returned violations list (parity
    mismatches included) is empty iff every invariant held. *)

type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;  (** text plan returned exactly the scan plan's rows *)
}

val run : ?rows:int -> unit -> point list * string list
(** Default: 1M documents. *)

val table : point list -> Smc_util.Table.t
