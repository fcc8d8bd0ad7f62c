(** Derived-invariant checks over the {!Smc_obs} counter layer.

    Cross-validates the runtime's event history (counters) against its
    structural state (blocks, queues, epoch manager): the live-object,
    limbo, reclamation-queue, quarantine, epoch and thread-slot balances.
    Complements {!Audit}, whose sweeps are point-in-time — a stall where
    events stop happening (recycles flat while fresh blocks climb) is
    visible here and invisible there. *)

val check : Smc_offheap.Runtime.t -> contexts:Smc_offheap.Context.t list -> string list
(** Violations found, empty when all balances hold. Call at a quiescent
    point, with no walk in progress. [contexts] is used for the
    reclamation-queue balance and the snapshot-view balance (every view
    open on the runtime must be on one of them); the block-level balances
    sweep the runtime's registry directly. Returns []
    when [Smc_obs.enabled] is false — the balances integrate the runtime's
    whole history and only hold if counting was never switched off. *)

val check_exn : Smc_offheap.Runtime.t -> contexts:Smc_offheap.Context.t list -> unit
(** Raises {!Audit.Audit_failure} with the violations, if any. *)

val check_shard : Smc_obs.t -> string list
(** Balances over a shard coordinator's / serving front-end's own counter
    instance: every submitted sharded transaction commits or conflicts
    ([shard_txns = shard_txn_commits + shard_txn_conflicts], with
    multi-shard commits a subset of commits), and every decoded request
    frame is answered exactly one way ([srv_requests = srv_replies +
    srv_errors + srv_shed]). Call at a quiescent point; returns [] while
    {!Smc_obs.enabled} is off. *)
