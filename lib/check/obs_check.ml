(* Derived-invariant checks over the Obs counter layer.

   Where Audit proves structural state consistent with itself, these checks
   prove the *event history* consistent with the structural state: every
   allocation, retire, queue push and epoch advance since the runtime was
   created must balance against what the blocks, queues and epoch manager
   hold right now. A lifecycle bug that Audit's point-in-time sweep cannot
   see — e.g. the allocator minting fresh blocks while recycled blocks rot
   behind a dead queue head — shows up here as a counter imbalance.

   Same contract as Audit: call at a quiescent point (no other domain
   mutating, caller outside any critical section). The counters are summed
   across domain stripes, which is only exact when the writing domains are
   parked or joined. Because the balances integrate the runtime's whole
   history, they hold only when counters were enabled for the runtime's
   whole life; [check] returns no violations while [Smc_obs.enabled] is
   off. *)

open Smc_offheap

let vf out fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt

let check (rt : Runtime.t) ~(contexts : Context.t list) =
  if not !Smc_obs.enabled then []
  else begin
    let out = ref [] in
    let s = Smc_obs.snapshot rt.Runtime.obs in
    let g c = Smc_obs.get s c in
    let eq what lhs rhs =
      if lhs <> rhs then vf out "%s: counters say %d, runtime state says %d" what lhs rhs
    in
    (* Structural sums come from the registry, not the context list, so the
       block-level balances hold even when the caller audits a subset of the
       runtime's contexts. Dead blocks are excluded exactly as the context
       stats exclude them. *)
    let valid = ref 0 and limbo = ref 0 in
    Registry.iter_registered rt.Runtime.registry ~f:(fun (blk : Block.t) ->
        if not blk.Block.dead then begin
          valid := !valid + Atomic.get blk.Block.valid_count;
          limbo := !limbo + Atomic.get blk.Block.limbo_count
        end);
    eq "live-object balance (allocs - frees = sum of valid slots)"
      (g Smc_obs.c_allocs - g Smc_obs.c_frees)
      !valid;
    eq "limbo balance (retires - quarantines - recycles - drops = sum of limbo slots)"
      (g Smc_obs.c_retires - g Smc_obs.c_quarantines - g Smc_obs.c_slot_recycles
     - g Smc_obs.c_limbo_drops)
      !limbo;
    eq "free/retire agreement (every successful free retires exactly one slot)"
      (g Smc_obs.c_frees) (g Smc_obs.c_retires);
    eq "quarantine agreement (counter vs runtime quarantined_slots)"
      (g Smc_obs.c_quarantines)
      (Atomic.get rt.Runtime.quarantined_slots);
    (* Queue balance is per-context: every push is eventually popped by the
       allocator, drained as a dead head, or pulled out by the compactor —
       whatever remains must be sitting in a queue right now. A dead-head
       stall breaks this (pushes keep climbing, pops stay flat while the
       queue holds ready blocks and fresh_blocks grows). *)
    let queued =
      List.fold_left
        (fun acc ctx -> acc + List.length (Context.reclaim_queue_blocks ctx))
        0 contexts
    in
    eq "reclamation-queue balance (pushes - pops - dead drops - unqueues = queued blocks)"
      (g Smc_obs.c_rq_pushes - g Smc_obs.c_rq_pops - g Smc_obs.c_rq_dead_drops
     - g Smc_obs.c_rq_unqueues)
      queued;
    eq "epoch agreement (successful advances = global epoch)"
      (g Smc_obs.c_epoch_adv_ok)
      (Epoch.global rt.Runtime.epoch);
    eq "thread-slot balance (registers - releases = live threads)"
      (g Smc_obs.c_thread_registers - g Smc_obs.c_thread_releases)
      (Epoch.live_threads rt.Runtime.epoch);
    (* Every opened transaction ends exactly one way. At a quiescent point
       nothing is still staging, so the three outcomes partition begins. *)
    eq "transaction outcome balance (begins = commits + aborts + conflicts)"
      (g Smc_obs.c_txn_begins)
      (g Smc_obs.c_txn_commits + g Smc_obs.c_txn_aborts + g Smc_obs.c_txn_conflicts);
    (* An open view is one registered frontier; with no walk in progress
       the registry holds nothing else. *)
    let open_frontiers =
      List.fold_left
        (fun acc (ctx : Context.t) -> Array.fold_left ( + ) acc ctx.Context.frontier_depth)
        0 contexts
    in
    eq "snapshot-view balance (opens - closes = open frontiers in the registry)"
      (g Smc_obs.c_txn_views - g Smc_obs.c_txn_view_closes)
      open_frontiers;
    (* Vectorized filters partition their input: every row entering a
       filter either survives into the output selection or is cut. *)
    eq "vectorized-filter balance (rows in = rows kept + rows dropped)"
      (g Smc_obs.c_vec_filter_rows_in)
      (g Smc_obs.c_vec_filter_rows_kept + g Smc_obs.c_vec_filter_rows_dropped);
    (* A full-block chunk is one of the batch scan's chunks, counted in
       both. *)
    if g Smc_obs.c_vec_full_batches > g Smc_obs.c_vec_batches then
      vf out "full-block chunks (%d) exceed batch-scan chunks (%d)"
        (g Smc_obs.c_vec_full_batches) (g Smc_obs.c_vec_batches);
    (* A walk reads a target range for a source only once that source's
       group completed, so ranges cannot be counted without groups. *)
    if g Smc_obs.c_walk_moved_ranges > 0 && g Smc_obs.c_groups_formed = 0 then
      vf out "walks read %d moved ranges but no compaction group was formed"
        (g Smc_obs.c_walk_moved_ranges);
    (* Every compiled-plan request is resolved exactly one way: a fresh
       compile, a cache hit, or a fallback to the Fuse engine. *)
    eq "compiled-plan outcome balance (requests = compiles + cache hits + fallbacks)"
      (g Smc_obs.c_cg_requests)
      (g Smc_obs.c_cg_compiles + g Smc_obs.c_cg_cache_hits + g Smc_obs.c_cg_fallbacks);
    (* Text-index probes partition their candidate sightings: each one is
       emitted (hit), failed incarnation validation (stale), failed the
       text re-check (miss), or was suppressed as a duplicate. *)
    eq "text-probe candidate balance (candidates = hits + stale + misses + dups)"
      (g Smc_obs.c_txt_candidates)
      (g Smc_obs.c_txt_hits + g Smc_obs.c_txt_stale + g Smc_obs.c_txt_misses
     + g Smc_obs.c_txt_dups);
    (* Every materialized-view delta comes from exactly one mutation kind,
       and every view read is answered exactly one way: entirely from
       maintained state, or with a re-scan/re-derivation. *)
    eq "view delta balance (deltas applied = adds + removes + stores)"
      (g Smc_obs.c_mv_applied)
      (g Smc_obs.c_mv_adds + g Smc_obs.c_mv_removes + g Smc_obs.c_mv_stores);
    eq "view read balance (reads = hits + rescans)" (g Smc_obs.c_mv_reads)
      (g Smc_obs.c_mv_hits + g Smc_obs.c_mv_rescans);
    List.rev !out
  end

let check_exn rt ~contexts =
  match check rt ~contexts with
  | [] -> ()
  | violations -> raise (Audit.Audit_failure violations)

(* Balances over a shard coordinator's / serving front-end's own counter
   instance (not a runtime's). These are pure event-history partitions —
   every submitted sharded transaction and every decoded request frame ends
   exactly one way — so they need no structural state, just a quiescent
   point (no in-flight transaction or request while summing stripes). *)
let check_shard obs =
  if not !Smc_obs.enabled then []
  else begin
    let out = ref [] in
    let s = Smc_obs.snapshot obs in
    let g c = Smc_obs.get s c in
    let eq what lhs rhs =
      if lhs <> rhs then vf out "%s: %d vs %d" what lhs rhs
    in
    eq "sharded-transaction outcome balance (txns = commits + conflicts)"
      (g Smc_obs.c_shard_txns)
      (g Smc_obs.c_shard_txn_commits + g Smc_obs.c_shard_txn_conflicts);
    if g Smc_obs.c_shard_txn_multi > g Smc_obs.c_shard_txn_commits then
      vf out "multi-shard commits (%d) exceed total commits (%d)"
        (g Smc_obs.c_shard_txn_multi) (g Smc_obs.c_shard_txn_commits);
    eq "request outcome balance (requests = replies + errors + shed)"
      (g Smc_obs.c_srv_requests)
      (g Smc_obs.c_srv_replies + g Smc_obs.c_srv_errors + g Smc_obs.c_srv_shed);
    List.rev !out
  end
