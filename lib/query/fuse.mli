(** Fused push-pipeline evaluation — the query-compilation analogue.

    [Fuse] composes the whole plan into a single closure pipeline at
    query-build time: each non-blocking operator becomes straight-line code
    in its upstream's loop body (filters and projections fuse into the scan
    loop), and blocking operators (join build, group-by, sort) materialise
    once and push onward. This removes the per-row cursor indirection and
    intermediate result objects of the Volcano/LINQ model, which is the
    essence of the code the paper's query compiler generates [12, 13].

    Every stage is column chunks, and the pipeline still runs one closure
    chain per row: [Where], [Select], [GroupBy] and [Limit] bind a chunk
    once and then evaluate a row by its position, over the unboxed
    Int/Dec/Date/Char words of the {!Kernel} code {!Vector} also runs. A
    leaf reads {!Plan.leaf_batches}: a [Scan]'s typed chunks, masked to the
    columns the operators above it read, or a probe's rows packed into
    boxed chunks. Joins, sorts, [Distinct] and [GroupBy] output push each
    row as a one-row boxed chunk as it arrives. A row is boxed into a
    [Value.t array] only where a whole row is needed: at the inputs of
    joins, [OrderBy] and [Distinct], and at the final emit. Every
    expression evaluates on the same rows, in the same order, as in
    {!Interp}, so a plan raises at the same row with the same exception;
    a leaf may only run up to a chunk ahead of the operators above it. *)

val row_operator :
  Plan.t -> (Plan.t -> (Value.t array -> unit) -> unit) -> (Value.t array -> unit) -> unit
(** [row_operator plan input] is the push form of a [HashJoin],
    [IndexJoin], [OrderBy] or [Distinct] node, given [input], which
    compiles a child plan into its row producer; {!Vector} runs these
    operators through it too. Raises [Invalid_argument] on any other
    node. *)

val run : Plan.t -> f:(Value.t array -> unit) -> unit
val collect : Plan.t -> Value.t array list
