(** A reusable, lazily-spawned pool of worker domains.

    [Domain.spawn] is far too expensive to pay per query, so parallel query
    execution draws workers from a pool that persists across queries.
    Workers are spawned on demand, up to the size cap, and parked on a
    condition variable in between. The calling domain always takes part in
    {!run}, so a pool of size 0 (the default on a single-core machine)
    degrades to plain sequential execution with no domains spawned at
    all. *)

type t

type 'a promise

val create : ?size:int -> ?obs:Smc_obs.t -> unit -> t
(** [size] is the number of {e worker} domains the pool may spawn; total
    parallelism in {!run} is [size + 1] (the caller participates).
    Defaults to [Domain.recommended_domain_count () - 1]. When [obs] is
    given, submitted tasks are counted on it. Worker domains release their
    epoch thread slots on teardown, so repeated create/shutdown cycles do
    not exhaust the epoch manager's slot array. *)

val size : t -> int
(** The worker-domain cap this pool was created with. *)

val spawned : t -> int
(** Worker domains spawned so far (0 after {!shutdown}). Spawning is
    demand-driven: a pool serving strictly sequential submits spawns at
    most one domain regardless of [size]. *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueue one task; spawns a worker only when outstanding demand (queued
    plus running tasks) exceeds the workers already spawned and the cap
    allows. On a size-0 pool the task runs synchronously on the caller —
    the same degradation {!run} has — so [await] never blocks forever.
    Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a promise -> 'a
(** Block until the task finishes; re-raises the task's exception. *)

val run : t -> workers:int -> (int -> unit) -> unit
(** [run t ~workers f] executes [f w] for [w = 0 .. n-1] concurrently,
    where [n = min workers (size t + 1)]; [f 0] runs on the calling domain.
    Returns once {e all} calls finished, then re-raises the first
    exception, if any. A call no worker has started by the time [f 0]
    returns runs on the caller instead, so [run] may be issued from inside
    one of the pool's own tasks without waiting on a busy worker. *)

val effective_workers : t -> requested:int -> int
(** The [n] that {!run} would use for [~workers:requested]. *)

val shutdown : t -> unit
(** Graceful shutdown: queued tasks are drained, then every worker domain
    is joined. Idempotent; subsequent {!submit}s raise. *)

val default : unit -> t
(** The process-wide shared pool, created on first use (default size) and
    shut down automatically at exit. Recreating the default after a
    {!shutdown} reuses one process-wide exit handler — cycles do not
    accumulate handlers. *)

val default_exit_handlers : unit -> int
(** How many at_exit handlers the default-pool lifecycle has registered so
    far — at most 1, however many default/shutdown cycles ran (regression
    hook). *)
