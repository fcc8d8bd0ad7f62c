(** Epoch-based memory reclamation (§3.4 of the paper).

    The system maintains a global epoch (a continuous counter, unlike
    Fraser's modulo-3 scheme — as the paper specifies) and a per-thread slot
    holding the thread-local epoch and an in-critical flag. Threads access
    off-heap objects only inside critical sections (grace periods); memory
    freed in epoch [e] may be reclaimed once the global epoch reaches
    [e + 2], because by then no thread can still be running a critical
    section that started in epoch [e].

    Epoch advancement is lazy: it is attempted from the allocator when
    reclaimable blocks are waiting (§3.5), never on critical-section exit.

    Critical sections nest; only the outermost enter/exit touch the shared
    slot, which is how queries amortise fence costs over whole block scans
    (§4). Threads are OCaml domains; each domain auto-registers a slot on
    first use via domain-local state. *)

type t

val create : ?max_threads:int -> ?obs:Smc_obs.t -> unit -> t
(** [max_threads] bounds concurrently registered domains (default 128).
    When [obs] is given, registrations, releases, critical-section entries
    and advance attempts are counted on it. *)

val global : t -> int
(** Current global epoch. *)

val thread_id : t -> int
(** Registers the calling domain if needed and returns its slot index.
    Released slot ids are recycled, so the [max_threads] bound applies to
    domains registered {e concurrently}, not over the instance's lifetime. *)

val release_thread : t -> unit
(** Returns the calling domain's slot to the free list; no-op when the
    domain never registered. Raises [Invalid_argument] inside a critical
    section. Domains that die without releasing are reclaimed best-effort
    by a GC finaliser on their registration cell. *)

val release_current_domain : unit -> unit
(** Calls {!release_thread} on every live epoch instance in the process.
    Domain-pool workers call this on teardown so pool create/shutdown
    cycles do not leak thread slots. *)

val live_threads : t -> int
(** Number of currently registered (not yet released) domains. *)

val enter_critical : t -> unit
val exit_critical : t -> unit

val critical : t -> (unit -> 'a) -> 'a
(** [critical t f] runs [f] inside a critical section, left when [f]
    returns or raises. Nested inside another section it only counts depth. *)

val in_critical : t -> bool
(** Whether the calling domain currently holds a critical section. *)

val local_epoch : t -> int
(** The calling domain's thread-local epoch (last observed global epoch). *)

val refresh_local : t -> unit
(** Re-reads the global epoch into the local slot without leaving the
    critical section. Used by the compaction thread to cross epochs while
    keeping other threads from advancing past it. *)

val try_advance : t -> bool
(** Attempts to increment the global epoch; succeeds iff every in-critical
    thread has observed the current global epoch. *)

val advance_until : t -> target:int -> max_spins:int -> bool
(** Repeatedly tries to advance until [global >= target]; gives up after
    [max_spins] failed rounds. Used in tests and the compaction driver. *)

val can_reclaim : t -> stamp:int -> bool
(** Whether memory freed at epoch [stamp] is safe to reuse
    ([global >= stamp + 2]). *)

val wait_all_reached : t -> ?except:int -> epoch:int -> max_spins:int -> unit -> bool
(** Spins until every in-critical thread's local epoch is at least [epoch];
    [false] on timeout. Compaction uses this at phase boundaries (§5.1),
    passing its own thread slot as [except] — the compaction thread
    deliberately trails one epoch behind to keep control of advancement. *)

val registered_threads : t -> int
(** Number of thread slots claimed so far (audit accessor). *)

val slot_snapshot : t -> int -> int * bool
(** Audit accessor: (local epoch, in-critical flag) of thread slot [i]. *)

val set_advance_gate : t -> (unit -> bool) option -> unit
(** Fault-injection hook: while a gate is installed, {!try_advance} fails
    whenever the gate returns [false]. [None] removes the gate. Used by the
    chaos harness to starve epoch progress; never set in production. *)
