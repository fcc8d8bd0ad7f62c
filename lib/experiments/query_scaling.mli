(** Query scaling — parallel TPC-H Q1/Q6 over a shared domain pool.

    A Fig 7-style scaling sweep for query execution rather than allocation:
    the sequential unsafe kernels are the baseline, then the same kernels
    run as block-partitioned parallel scans ({!Smc_tpch.Q_smc.q1_par} /
    {!Smc_tpch.Q_smc.q6_par}) at each requested domain count, all drawing
    workers from one reusable pool so no run pays [Domain.spawn]. Speedup
    is relative to the sequential baseline of the same query. Then the
    same queries as plans, through the planner on Vector, Fuse and
    Compiled over a source whose group-bys run on that many workers
    ({!Smc_query.Kernel.run_groups}): the median of five samples (each
    point's {!Smc_util.Stats.summarize} line is printed as it is
    measured), with the speedup over the same engine at the first domain
    count. Note
    the parallel points can only scale up to the machine's core count
    regardless of the requested domains. *)

type point = { query : string; variant : string; domains : int; ms : float; speedup : float }

val run : ?sf:float -> ?domain_counts:int list -> unit -> point list
(** Defaults: [sf = 0.05], [domain_counts = [1; 2; 4; 8]]. *)

val table : point list -> Smc_util.Table.t
