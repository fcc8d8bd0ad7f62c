(** Parallel block enumeration over a memory context (§5.2).

    One call is one {!Smc_offheap.Context.walk} shared by the pool's worker
    domains (plus the caller): one registered CSN frontier every worker
    reads at, and a single snapshot of the context's published block view,
    partitioned through the walk's atomic position dispenser. Like every
    walk, each position is processed inside its own epoch critical section
    (§4's per-block granularity), so grace periods stay short while the
    scan runs. Every row visible at the frontier is counted
    exactly once, even when a compaction group forms and completes or a
    transaction commits mid-scan; the frontier registry keeps its limbo
    rows from being recycled between the workers' critical sections.

    Accumulation is strictly per-worker: [init ()] makes a private
    accumulator in each worker, [combine] merges them on the calling domain
    once all workers finished. Enumeration order across workers is
    unspecified.

    [?pool] defaults to {!Pool.default}; [?domains] caps the workers used
    for this call (0 or absent = the pool's full width). With one worker —
    or a single-block view — everything runs sequentially on the caller,
    with no pool round-trip. *)

open Smc_offheap

val fold_valid_par :
  ?pool:Pool.t ->
  ?domains:int ->
  Context.t ->
  init:(unit -> 'acc) ->
  f:('acc -> Block.t -> int -> 'acc) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc

val fold_hoisted_par :
  ?pool:Pool.t ->
  ?domains:int ->
  Context.t ->
  init:(unit -> 'acc) ->
  on_block:('acc -> Block.t -> int -> unit) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc
(** Parallel analogue of {!Smc_offheap.Context.iter}:
    [on_block acc blk] runs once per scanned slot range (usually a whole
    block) in the worker that drew it and returns the per-slot body, closed over the worker's private
    accumulator and the block's hoisted raw state. *)

val batch_workers :
  ?pool:Pool.t ->
  ?domains:int ->
  Context.walk ->
  ((chunk:Context.chunk -> on_batch:(int -> Block.t -> int -> unit) -> unit) -> 'a) ->
  'a list
(** The parallel batch walk over [walk] (current state from
    {!Smc_offheap.Context.with_walk}, or a snapshot view's older frontier),
    driven by its workers: every worker runs [work share] once and the
    results come back in worker order (one result when the walk runs
    sequentially). [share ~chunk ~on_batch] runs
    {!Smc_offheap.Context.fill_block} into [chunk] (the worker's own) over
    the slot ranges the worker draws, inside each position's critical
    section, and calls [on_batch stamp blk count] for every filled chunk;
    [on_batch] must consume the chunk's first [count] rows before
    returning. Stamps are distinct across the whole walk and increase in
    the order the sequential walk meets the chunks' rows: the view
    position, then the chunk's index within it. *)
