(* Compaction-pass boundaries at which the chaos harness may inject work
   (frees, epoch churn, queries) to exercise the bail-out/retry paths. *)
type compaction_phase =
  | Phase_selected (* candidates reserved, groups about to form *)
  | Phase_frozen (* all group members carry the frozen bit *)
  | Phase_waiting (* stepping the global epoch towards relocation *)
  | Phase_moving (* relocation sweep in progress *)
  | Phase_completed (* groups done, sources dead, before pointer fixup *)

(* Transaction-commit boundaries at which the chaos harness may inject
   crashes (snapshot the WAL image) or concurrent work. *)
type txn_phase =
  | Txn_staged (* operations staged privately, before validation *)
  | Txn_validated (* write-write validation passed, before apply *)
  | Txn_applied (* mutations published, before the WAL batch append *)
  | Txn_logged (* WAL commit record appended (per group-commit policy) *)

type t = {
  epoch : Epoch.t;
  ind : Indirection.t;
  registry : Registry.t;
  locks : Smc_util.Striped_lock.t;
  next_relocation_epoch : int Atomic.t;
  in_moving_phase : bool Atomic.t;
  next_context_id : int Atomic.t;
  mutable inc_quarantine_limit : int;
  quarantined_slots : int Atomic.t;
  obs : Smc_obs.t;
  mutable on_alloc : (unit -> unit) option;
      (* Fault-injection hook, fired at the start of every allocation
         attempt (including retries after a block release). *)
  mutable on_compaction_phase : (compaction_phase -> unit) option;
      (* Fault-injection hook, fired by Compaction.run at phase
         boundaries. *)
  mutable on_queue_check : (Block.t -> unit) option;
      (* Fault-injection hook, fired by Context.maybe_queue between its
         unlocked pre-check and taking the context lock — the TOCTOU
         window a writer re-acquiring the block races through. *)
  mutable on_txn_phase : (txn_phase -> unit) option;
      (* Fault-injection hook, fired by Collection.transact at commit
         boundaries; the crash harness snapshots WAL images here. *)
}

let create ?max_threads () =
  let obs = Smc_obs.create ~label:"runtime" () in
  {
    epoch = Epoch.create ?max_threads ~obs ();
    ind = Indirection.create ~obs ();
    registry = Registry.create ();
    locks = Smc_util.Striped_lock.create ~stripes:256 ();
    next_relocation_epoch = Atomic.make (-1);
    in_moving_phase = Atomic.make false;
    next_context_id = Atomic.make 0;
    inc_quarantine_limit = Constants.inc_mask;
    quarantined_slots = Atomic.make 0;
    obs;
    on_alloc = None;
    on_compaction_phase = None;
    on_queue_check = None;
    on_txn_phase = None;
  }

let fire_alloc_hook t = match t.on_alloc with None -> () | Some f -> f ()

let fire_compaction_hook t phase =
  Smc_obs.incr t.obs Smc_obs.c_compaction_phases;
  match t.on_compaction_phase with None -> () | Some f -> f phase

let fire_queue_hook t blk =
  match t.on_queue_check with None -> () | Some f -> f blk

let fire_txn_hook t phase = match t.on_txn_phase with None -> () | Some f -> f phase

let tid t = Epoch.thread_id t.epoch

let with_entry_lock t entry f = Smc_util.Striped_lock.with_lock t.locks entry f
