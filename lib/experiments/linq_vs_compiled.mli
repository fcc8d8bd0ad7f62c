(** §7's LINQ-vs-compiled observation (E9 in DESIGN.md).

    The paper notes that evaluating the queries through LINQ instead of
    compiled C# costs 40–400% more. The closest analogue here is
    {!Smc_tpch.Q_linq}: lazy Seq pipelines over the managed List, compared
    against the compiled managed queries — the same collections, only the
    evaluation model differs. The table also reports the generic engines
    over an SMC source (fused push pipeline and the tagged-value Volcano
    interpreter, which bounds the interpreted cost model from above). *)

type point = { query : string; engine : string; ms : float; vs_compiled_pct : float }

val run : ?sf:float -> unit -> point list
val table : point list -> Smc_util.Table.t

(** The lineitem column bindings and Q1/Q6 plan shapes, shared with
    {!Vector_bench} so every engine comparison measures the same plans. *)

val lineitem_source :
  ?pool:Smc_parallel.Pool.t -> ?domains:int -> Smc_tpch.Db_smc.t -> Smc_query.Source.t
(** [?pool] and [?domains] as in {!Smc_query.Source.of_smc}. *)

val q1_plan : Smc_query.Source.t -> Smc_query.Plan.t
val q6_plan : Smc_query.Source.t -> Smc_query.Plan.t
