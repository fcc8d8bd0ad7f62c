(** Compaction (§5 of the paper) and direct-pointer fixup (§6).

    A compaction pass empties under-occupied blocks by moving their live
    objects into fresh target blocks, one target per compaction group. The
    pass walks the paper's epoch choreography:

    - the driver pins itself in a critical section at epoch [e], publishes
      [nextRelocationEpoch = e + 2], and sets the frozen bit on every
      scheduled object's incarnation word;
    - it then steps the global epoch through the freezing epoch [e + 1] into
      the relocation epoch [e + 2], waiting at each boundary for all
      in-critical threads to arrive (readers seeing frozen objects before
      the relocation epoch simply keep using the old location — case (a));
    - the waiting phase ends when every in-critical thread has entered the
      relocation epoch; the driver flips [inMovingPhase] and, group by
      group, drains the group's pre-relocation readers and performs the
      relocations (readers arriving now help — case (c); readers that raced
      the transition bailed objects out — case (b) — and the sweep retries
      them under the entry lock);
    - finally sources are marked dead, limbo entries are recycled, stored
      direct pointers into the compacted blocks are rewritten (accelerated
      by a hash table of compacted block ids, as §6 prescribes), and the
      emptied blocks are retired.

    The pass aborts cleanly (unfreezing everything) if other threads fail to
    reach a phase boundary within the spin budget. *)

type report = {
  candidates : int;  (** blocks considered for compaction *)
  groups_formed : int;
  objects_moved : int;
  groups_skipped : int;  (** groups abandoned because readers held them *)
  blocks_retired : int;
  fixed_pointers : int;  (** stored direct pointers rewritten (§6) *)
  aborted : bool;  (** whole pass abandoned at an epoch boundary *)
}

val run :
  Context.t -> ?occupancy_threshold:float -> ?max_wait_spins:int -> unit -> report
(** Runs one compaction pass over the context. [occupancy_threshold]
    (default 0.3, the paper's example) selects blocks whose valid-slot
    fraction is at or below it; group size is [floor 1/threshold].
    [max_wait_spins] bounds each phase-boundary wait. Must not be called
    from inside a critical section of the same runtime. *)

val daemon :
  poll_contexts:(unit -> Context.t list) ->
  stop:bool Atomic.t ->
  ?interval_s:float ->
  unit ->
  int Domain.t
(** The background compaction thread: polls the given contexts for
    compaction requests until [stop] flips, running one pass per request.
    Joining the domain yields the number of successful passes. *)
