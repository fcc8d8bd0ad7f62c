(** Vectorized batch-at-a-time plan evaluator.

    The fourth execution engine over the same {!Plan.t} as {!Interp}
    (Volcano), {!Fuse} and {!Codegen}: operators process column chunks
    ({!Batch.t}, default 1024 rows) instead of a per-row closure chain.
    Every leaf arrives as chunks ({!Plan.leaf_batches}): sources with a
    batch path ({!Source.t.scan_batches}) fill unboxed column chunks
    straight from the off-heap blocks — one epoch critical section per
    block — while row-only sources and probe leaves are packed into boxed
    chunks. Filters refine the chunk's selection vector with branchless
    loops, and row-at-a-time operators (joins, sorts, distinct) are
    bridged through the same re-batcher, so every plan the other engines
    accept runs here too.

    Results are bit-identical to {!Interp.collect} on the same plan, in
    the same row order: the typed code ({!Kernel}, shared with {!Fuse}) is
    used only where it provably reproduces the scalar
    {!Value}/{!Expr}/{!Aggregate} semantics (including raises), and
    everything else falls back to the scalar code evaluated over the
    batch. The only visible difference: a plan that raises mid-scan may
    raise at a different row of a chunk when two stacked operators both
    raise, because each evaluates a whole chunk before the next.

    Filter selectivity is observable via the [vec_filter_rows_*] counters;
    batch production via [vec_batches]/[vec_batch_rows]; rows a group-by
    aggregated a chunk at a time via [vec_agg_chunk_rows] (see
    docs/observability.md). *)

val run : ?batch_rows:int -> Plan.t -> f:(Value.t array -> unit) -> unit
(** Evaluate the plan, pushing each result row. [batch_rows] (default
    {!Batch.default_rows}, clamped to ≥ 1) sets the chunk capacity —
    exercise 1 to force single-row chunks in tests. *)

val collect : ?batch_rows:int -> Plan.t -> Value.t array list
(** [run] into a list, in emission order. *)
