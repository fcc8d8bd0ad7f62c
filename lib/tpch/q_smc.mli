(** TPC-H Q1–Q6 as compiled queries over self-managed collections.

    Two variants reproduce Figure 11's distinction:

    - [unsafe:false] — "SMC (C#)": block-order enumeration plus the same
      managed-style intermediates as the baseline queries (hash tables with
      boxed group keys, per-row key allocation, reference access through the
      fully checked application-reference path).
    - [unsafe:true] — "SMC (unsafe C#)": optimisations only possible with
      raw access to the collection's memory: single-check stored-pointer
      joins ({!Smc.Field.follow}), in-place decimal accumulation
      ({!Smc_decimal.Decimal.Acc}) and pre-allocated flat accumulator
      regions instead of per-row managed intermediates (the paper's memory
      regions [16]).

    The joining variants run inside one epoch critical section per query
    (§4); the single-table scans (Q1, Q6) read each block inside its own
    section, like every walk. *)

val q1 : ?unsafe:bool -> Db_smc.t -> Results.q1
val q2 : ?unsafe:bool -> Db_smc.t -> Results.q2
val q3 : ?unsafe:bool -> Db_smc.t -> Results.q3
val q4 : ?unsafe:bool -> Db_smc.t -> Results.q4
val q5 : ?unsafe:bool -> Db_smc.t -> Results.q5
val q6 : ?unsafe:bool -> Db_smc.t -> Results.q6

(** Extension queries beyond the paper's evaluation set (same safe/unsafe
    treatment; string predicates compile to pre-packed word compares in both
    variants where the collection layer provides them). *)

(** Parallel variants of the unsafe Q1/Q6 kernels: the context's block view
    is partitioned across the pool's worker domains (see
    {!Smc_parallel.Par_scan}); each worker folds into a private flat
    accumulator region ([q1]) or in-place decimal accumulator ([q6]) that
    is merged on the calling domain once all workers finished. Results are
    identical to the sequential unsafe variants on a quiescent collection.
    [?domains] caps the workers used for one call; [?pool] defaults to the
    process-wide pool. *)

val q1_par : ?pool:Smc_parallel.Pool.t -> ?domains:int -> Db_smc.t -> Results.q1
val q6_par : ?pool:Smc_parallel.Pool.t -> ?domains:int -> Db_smc.t -> Results.q6

val q7 : ?unsafe:bool -> Db_smc.t -> Results.q7
val q10 : ?unsafe:bool -> Db_smc.t -> Results.q10
val q12 : ?unsafe:bool -> Db_smc.t -> Results.q12
val q14 : ?unsafe:bool -> Db_smc.t -> Results.q14
val q19 : ?unsafe:bool -> Db_smc.t -> Results.q19
