(** Parallel block enumeration over a memory context (§5.2).

    One call is one {!Smc_offheap.Context.walk} shared by the pool's worker
    domains (plus the caller): a single snapshot of the context's published
    block view, partitioned through the walk's atomic position dispenser.
    Each position is processed inside its own epoch critical section —
    §4's per-block granularity ({!Smc_offheap.Context.Per_element}), so
    grace periods stay short while the scan runs. The walk keeps every row
    live for the whole scan counted exactly once even when a compaction
    group forms and completes mid-scan.

    Accumulation is strictly per-worker: [init ()] makes a private
    accumulator in each worker, [combine] merges them on the calling domain
    once all workers finished. Enumeration order across workers is
    unspecified; semantics are the same bag semantics as
    {!Smc_offheap.Context.iter_valid} (objects added or removed
    concurrently may or may not be observed).

    [?pool] defaults to {!Pool.default}; [?domains] caps the workers used
    for this call (0 or absent = the pool's full width). With one worker —
    or a single-block view — everything runs sequentially on the caller,
    with no pool round-trip.

    [?csn] filters slots by snapshot visibility at that CSN frontier
    instead of current directory state — pass
    {!Smc.Collection.view_csn} to run the scan against an open snapshot
    view. The view must stay open (its owning domain holds the epoch pin)
    for the scan's whole duration. *)

open Smc_offheap

val fold_valid_par :
  ?pool:Pool.t ->
  ?domains:int ->
  ?csn:int ->
  Context.t ->
  init:(unit -> 'acc) ->
  f:('acc -> Block.t -> int -> 'acc) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc

val fold_hoisted_par :
  ?pool:Pool.t ->
  ?domains:int ->
  ?csn:int ->
  Context.t ->
  init:(unit -> 'acc) ->
  on_block:('acc -> Block.t -> int -> unit) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc
(** Parallel analogue of {!Smc_offheap.Context.iter_valid_hoisted}:
    [on_block acc blk] runs once per scanned slot range (usually a whole
    block) in the worker that drew it and returns the per-slot body, closed over the worker's private
    accumulator and the block's hoisted raw state. *)

val batch_workers :
  ?pool:Pool.t ->
  ?domains:int ->
  ?csn:int ->
  Context.t ->
  ((chunk:Context.chunk -> on_batch:(int -> Block.t -> int -> unit) -> unit) -> 'a) ->
  'a list
(** The parallel batch walk, driven by its workers: every worker runs
    [work share] once and the results come back in worker order (one
    result when the walk runs sequentially). [share ~chunk ~on_batch] runs
    {!Smc_offheap.Context.fill_block} into [chunk] (the worker's own) over
    the slot ranges the worker draws, inside each position's critical
    section, and calls [on_batch stamp blk count] for every filled chunk;
    [on_batch] must consume the chunk's first [count] rows before
    returning. Stamps are distinct across the whole walk and increase in
    the order the sequential walk meets the chunks' rows: the view
    position, then the chunk's index within it. *)
