(** Structural invariant sweep over attached suffix-array text indexes.

    Runs {!Smc_text.Sa_index.audit} on each index: per level (base and
    sealed runs), arena/entry-table mutual consistency and suffix-array
    sortedness and coverage (every arena suffix marked exactly once, in
    order); the tail and run-size shape; and live-row findability —
    every live row of the indexed collection is reachable through the
    pending tail or a current arena entry, in some level, whose text
    matches the row's column. Same quiescent-point contract as {!Audit}; the stress harness
    runs this at every checkpoint alongside the runtime audit,
    {!Index_check}, and {!Obs_check}. *)

val check : Smc_text.Sa_index.t list -> string list
(** Violations found, empty when every index is consistent. *)

val check_exn : Smc_text.Sa_index.t list -> unit
(** Raises {!Audit.Audit_failure} with the violations, if any. *)
