(** Four-engine comparison on TPC-H Q1/Q6 (docs/vectorized.md).

    Runs the same Q1/Q6 plans ({!Linq_vs_compiled.q1_plan} /
    {!Linq_vs_compiled.q6_plan}) over the same SMC lineitem source through
    all four engines — Volcano ({!Smc_query.Interp}), the fused push
    pipeline ({!Smc_query.Fuse}), the vectorized batch engine
    ({!Smc_query.Vector}) and the Dynlink-compiled plan
    ({!Smc_query.Codegen}) — and reports median wall time over 7 samples,
    its spread (interquartile range), source-row throughput and speedup
    relative to Fuse. A [Fill] row per query times the source's batch scan
    alone ({!Smc_query.Source.batches} with the query's column mask and no
    consumer): the floor under Vector, Fuse and Compiled.

    Self-checking: every engine's rows must be bit-identical to the
    Volcano reference; the compiled plan must execute through a loaded
    plugin or its point carries an explicit "skipped: ..." note (bytecode
    host, no ocamlopt, ...); the run finishes with the structural audit
    and the Obs counter balances. Violations are returned; empty means
    every gate held. *)

type point = {
  query : string;  (** ["Q1"] | ["Q6"] *)
  engine : string;  (** ["Fill"] | ["Volcano"] | ["Fuse"] | ["Vector"] | ["Compiled"] *)
  ms : float;  (** median wall time; [nan] when the engine was skipped *)
  iqr_ms : float;  (** spread: 75th minus 25th percentile of the samples *)
  krows_s : float;  (** source rows per second through the plan *)
  vs_fuse : float;  (** throughput relative to Fuse (>1 = faster); [nan] when skipped *)
  identical : bool;  (** rows bit-identical to the Volcano reference *)
  note : string;  (** compile outcome, skip reason, or [""] *)
}

val run : ?sf:float -> unit -> point list * string list
(** Default [sf] 0.1 (the issue's headline configuration). *)

val table : point list -> Smc_util.Table.t
