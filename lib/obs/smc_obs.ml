(* Low-overhead runtime observability counters.

   One [t] is a set of monotonic event counters owned by one subsystem
   instance (a runtime, a domain pool). Each domain that touches the
   instance gets its own *stripe* — a padded int array reached through
   domain-local state — so hot-path increments are a plain load/store into
   domain-private memory: no atomics, no cross-domain cache-line sharing.
   Reads ([snapshot]) merge the stripes; they are exact at quiescent points
   (every writing domain parked or joined) and approximate otherwise, which
   is the same contract the invariant audit already has.

   Counters are process-visible through a registry of live instances
   ([process_snapshot]), so a bench run can attach one counter table to its
   artifact without threading instances through every layer. *)

(* Counter ids: dense ints so a stripe is one array and an increment is one
   indexed store. [names] must stay in sync — [all] below is the single
   source of truth. *)

let c_allocs = 0 (* slot allocations handed out by Context.alloc *)
let c_frees = 1 (* successful Context.free calls *)
let c_retires = 2 (* retire_slot calls (limbo + quarantine) *)
let c_quarantines = 3 (* slots quarantined at the incarnation bound *)
let c_slot_recycles = 4 (* limbo slots reclaimed by the allocation scan *)
let c_limbo_drops = 5 (* limbo slots discarded with dead compaction sources *)
let c_blocks_created = 6 (* blocks minted, including compaction targets *)
let c_fresh_blocks = 7 (* blocks minted by the allocator (queue was dry) *)
let c_rq_pushes = 8 (* reclamation-queue pushes *)
let c_rq_pops = 9 (* reclamation-queue pops (block recycles) *)
let c_rq_dead_drops = 10 (* dead blocks drained from the queue head *)
let c_rq_unqueues = 11 (* queued blocks pulled out by the compactor *)
let c_epoch_adv_ok = 12 (* successful Epoch.try_advance calls *)
let c_epoch_adv_fail = 13 (* failed Epoch.try_advance calls *)
let c_crit_enters = 14 (* outermost critical-section entries *)
let c_thread_registers = 15 (* epoch thread-slot registrations *)
let c_thread_releases = 16 (* epoch thread-slot releases (explicit + GC) *)
let c_entries_minted = 17 (* never-used indirection entries bumped *)
let c_entries_recycled = 18 (* indirection entries reused from free stores *)
let c_entries_freed = 19 (* indirection entries returned for reuse *)
let c_compaction_passes = 20 (* compaction passes that formed groups *)
let c_compaction_aborts = 21 (* passes aborted at an epoch boundary *)
let c_compaction_phases = 22 (* compaction phase transitions *)
let c_groups_formed = 23
let c_groups_skipped = 24
let c_objects_moved = 25
let c_blocks_retired = 26
let c_reloc_helps = 27 (* readers helping a relocation (§5.1 case c) *)
let c_reloc_bails = 28 (* readers bailing an object out (§5.1 case b) *)
let c_pool_tasks = 29 (* tasks submitted to a domain pool *)
let c_par_scans = 30 (* parallel enumerations started *)
let c_par_workers = 31 (* worker activations across parallel enumerations *)
let c_idx_inserts = 32 (* entries inserted into hash indexes *)
let c_idx_probes = 33 (* index probe operations *)
let c_idx_hits = 34 (* validated (live) entries yielded by probes *)
let c_idx_stale = 35 (* stale entries observed (probe sightings + purges) *)
let c_idx_tombstones = 36 (* stale entries tombstoned or dropped by sweeps/rebuilds *)
let c_idx_rebuilds = 37 (* index rebuilds (load-factor or churn triggered) *)
let c_persist_snapshots = 38 (* snapshot files written *)
let c_persist_snapshot_bytes = 39 (* bytes streamed into snapshot files *)
let c_persist_restores = 40 (* collections restored from snapshot files *)
let c_persist_restore_bytes = 41 (* bytes read back while restoring *)
let c_persist_wal_appends = 42 (* records (commit units) appended to write-ahead logs *)
let c_persist_wal_syncs = 43 (* fsync batches issued by write-ahead logs *)
let c_persist_wal_replayed = 44 (* WAL ops applied during recovery *)
let c_persist_torn_drops = 45 (* torn final WAL records discarded at recovery *)
let c_txn_begins = 46 (* transactions opened by Collection.txn *)
let c_txn_commits = 47 (* transactions committed (validation passed) *)
let c_txn_aborts = 48 (* transactions explicitly aborted *)
let c_txn_conflicts = 49 (* commits refused by write-write validation *)
let c_txn_views = 50 (* snapshot views opened *)
let c_txn_view_closes = 51 (* snapshot views closed *)
let c_bare_stores = 52 (* Collection.store one-op copy-on-write commits *)
let c_vec_batches = 53 (* batches produced by vectorized SMC scans *)
let c_vec_batch_rows = 54 (* rows gathered into those batches *)
let c_vec_filter_rows_in = 55 (* rows entering vectorized filters *)
let c_vec_filter_rows_kept = 56 (* rows surviving vectorized filters *)
let c_vec_filter_rows_dropped = 57 (* rows cut by vectorized filters *)
let c_cg_requests = 58 (* compiled-plan executions requested *)
let c_cg_compiles = 59 (* plans compiled + dynlinked *)
let c_cg_cache_hits = 60 (* requests served from the compiled-plan cache *)
let c_cg_fallbacks = 61 (* requests that fell back to the Fuse engine *)
let c_shard_routes = 62 (* single operations routed to an owning shard *)
let c_shard_txns = 63 (* sharded transactions submitted for commit *)
let c_shard_txn_commits = 64 (* sharded transactions committed *)
let c_shard_txn_conflicts = 65 (* sharded transactions refused by validation *)
let c_shard_txn_multi = 66 (* committed transactions spanning > 1 shard *)
let c_shard_fanouts = 67 (* fan-out scans merged across all shards *)
let c_srv_conns = 68 (* connections accepted by the serving loop *)
let c_srv_requests = 69 (* request frames decoded *)
let c_srv_replies = 70 (* requests answered with an ok frame *)
let c_srv_errors = 71 (* requests answered with an error frame *)
let c_srv_shed = 72 (* requests shed by admission control *)
let c_txt_adds = 73 (* rows appended to text-index pending tails *)
let c_txt_removes = 74 (* row removals observed by text indexes *)
let c_txt_probes = 75 (* text-index probe operations *)
let c_txt_candidates = 76 (* candidate sightings surfaced by probes *)
let c_txt_hits = 77 (* validated (live, still-matching) candidates emitted *)
let c_txt_stale = 78 (* candidates whose ref no longer resolved *)
let c_txt_misses = 79 (* live candidates whose current text no longer matches *)
let c_txt_dups = 80 (* candidates suppressed by per-probe deduplication *)
let c_txt_rebuilds = 81 (* suffix-array merge-rebuilds *)
let c_txt_dropped = 82 (* dead refs dropped by rebuilds, seals and merges *)
let c_mv_builds = 83 (* materialized-view full builds (attach + invalidation recovery) *)
let c_mv_adds = 84 (* +delta applications from row adds *)
let c_mv_removes = 85 (* -delta applications from row removes *)
let c_mv_stores = 86 (* remove+add delta applications from in-place stores *)
let c_mv_applied = 87 (* total deltas applied (= adds + removes + stores) *)
let c_mv_reads = 88 (* view read operations *)
let c_mv_hits = 89 (* reads served entirely from maintained state *)
let c_mv_rescans = 90 (* reads that re-derived dirty groups by bounded re-scan *)
let c_mv_invalidations = 91 (* whole-view invalidations (non-incrementalizable delta) *)
let c_vec_full_batches = 92 (* vec_batches chunks of full blocks, read without the directory *)
let c_walk_moved_ranges = 93 (* target ranges enumerations scanned for completed sources *)
let c_vec_agg_chunk_rows = 94 (* rows Vector's group-bys aggregated a whole chunk at a time *)
let c_par_group_merges = 95 (* group-bys merged from two or more worker tables *)

let all =
  [|
    ("allocs", c_allocs);
    ("frees", c_frees);
    ("retires", c_retires);
    ("quarantines", c_quarantines);
    ("slot_recycles", c_slot_recycles);
    ("limbo_drops", c_limbo_drops);
    ("blocks_created", c_blocks_created);
    ("fresh_blocks", c_fresh_blocks);
    ("rq_pushes", c_rq_pushes);
    ("rq_pops", c_rq_pops);
    ("rq_dead_drops", c_rq_dead_drops);
    ("rq_unqueues", c_rq_unqueues);
    ("epoch_adv_ok", c_epoch_adv_ok);
    ("epoch_adv_fail", c_epoch_adv_fail);
    ("crit_enters", c_crit_enters);
    ("thread_registers", c_thread_registers);
    ("thread_releases", c_thread_releases);
    ("entries_minted", c_entries_minted);
    ("entries_recycled", c_entries_recycled);
    ("entries_freed", c_entries_freed);
    ("compaction_passes", c_compaction_passes);
    ("compaction_aborts", c_compaction_aborts);
    ("compaction_phases", c_compaction_phases);
    ("groups_formed", c_groups_formed);
    ("groups_skipped", c_groups_skipped);
    ("objects_moved", c_objects_moved);
    ("blocks_retired", c_blocks_retired);
    ("walk_moved_ranges", c_walk_moved_ranges);
    ("reloc_helps", c_reloc_helps);
    ("reloc_bails", c_reloc_bails);
    ("pool_tasks", c_pool_tasks);
    ("par_scans", c_par_scans);
    ("par_workers", c_par_workers);
    ("par_group_merges", c_par_group_merges);
    ("idx_inserts", c_idx_inserts);
    ("idx_probes", c_idx_probes);
    ("idx_hits", c_idx_hits);
    ("idx_stale", c_idx_stale);
    ("idx_tombstones", c_idx_tombstones);
    ("idx_rebuilds", c_idx_rebuilds);
    ("persist_snapshots", c_persist_snapshots);
    ("persist_snapshot_bytes", c_persist_snapshot_bytes);
    ("persist_restores", c_persist_restores);
    ("persist_restore_bytes", c_persist_restore_bytes);
    ("persist_wal_appends", c_persist_wal_appends);
    ("persist_wal_syncs", c_persist_wal_syncs);
    ("persist_wal_replayed", c_persist_wal_replayed);
    ("persist_torn_drops", c_persist_torn_drops);
    ("txn_begins", c_txn_begins);
    ("txn_commits", c_txn_commits);
    ("txn_aborts", c_txn_aborts);
    ("txn_conflicts", c_txn_conflicts);
    ("txn_views", c_txn_views);
    ("txn_view_closes", c_txn_view_closes);
    ("bare_stores", c_bare_stores);
    ("vec_batches", c_vec_batches);
    ("vec_batch_rows", c_vec_batch_rows);
    ("vec_full_batches", c_vec_full_batches);
    ("vec_filter_rows_in", c_vec_filter_rows_in);
    ("vec_filter_rows_kept", c_vec_filter_rows_kept);
    ("vec_filter_rows_dropped", c_vec_filter_rows_dropped);
    ("vec_agg_chunk_rows", c_vec_agg_chunk_rows);
    ("cg_requests", c_cg_requests);
    ("cg_compiles", c_cg_compiles);
    ("cg_cache_hits", c_cg_cache_hits);
    ("cg_fallbacks", c_cg_fallbacks);
    ("shard_routes", c_shard_routes);
    ("shard_txns", c_shard_txns);
    ("shard_txn_commits", c_shard_txn_commits);
    ("shard_txn_conflicts", c_shard_txn_conflicts);
    ("shard_txn_multi", c_shard_txn_multi);
    ("shard_fanouts", c_shard_fanouts);
    ("srv_conns", c_srv_conns);
    ("srv_requests", c_srv_requests);
    ("srv_replies", c_srv_replies);
    ("srv_errors", c_srv_errors);
    ("srv_shed", c_srv_shed);
    ("txt_adds", c_txt_adds);
    ("txt_removes", c_txt_removes);
    ("txt_probes", c_txt_probes);
    ("txt_candidates", c_txt_candidates);
    ("txt_hits", c_txt_hits);
    ("txt_stale", c_txt_stale);
    ("txt_misses", c_txt_misses);
    ("txt_dups", c_txt_dups);
    ("txt_rebuilds", c_txt_rebuilds);
    ("txt_dropped", c_txt_dropped);
    ("mv_builds", c_mv_builds);
    ("mv_adds", c_mv_adds);
    ("mv_removes", c_mv_removes);
    ("mv_stores", c_mv_stores);
    ("mv_applied", c_mv_applied);
    ("mv_reads", c_mv_reads);
    ("mv_hits", c_mv_hits);
    ("mv_rescans", c_mv_rescans);
    ("mv_invalidations", c_mv_invalidations);
  |]

let n_counters = Array.length all

let names =
  let a = Array.make n_counters "" in
  Array.iter (fun (n, c) -> a.(c) <- n) all;
  a

let name c = names.(c)

(* Runtime toggle. Off, increments cost one load+branch; the derived
   invariants only hold for instances whose whole life ran enabled, so the
   checker no-ops while disabled. SMC_OBS=0 turns counters off at start-up
   for overhead A/B runs. *)
let enabled =
  ref (match Sys.getenv_opt "SMC_OBS" with Some ("0" | "false") -> false | _ -> true)

(* A stripe is [pad | counters | pad]: the pads keep a stripe's hot words
   off the cache lines of whatever the allocator placed next to it. *)
let pad = 8

let stripe_len = pad + n_counters + pad

type t = {
  label : string;
  lock : Mutex.t; (* protects [stripes]; taken only on a domain's first use *)
  stripes : int array list ref;
  key : int array Domain.DLS.key;
}

let instances_lock = Mutex.create ()
let instances : t list ref = ref []

let create ?(label = "obs") () =
  let lock = Mutex.create () in
  let stripes = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = Array.make stripe_len 0 in
        Mutex.lock lock;
        stripes := s :: !stripes;
        Mutex.unlock lock;
        s)
  in
  let t = { label; lock; stripes; key } in
  Mutex.lock instances_lock;
  instances := t :: !instances;
  Mutex.unlock instances_lock;
  t

let incr t c =
  if !enabled then begin
    let s = Domain.DLS.get t.key in
    s.(pad + c) <- s.(pad + c) + 1
  end

let add t c n =
  if !enabled then begin
    let s = Domain.DLS.get t.key in
    s.(pad + c) <- s.(pad + c) + n
  end

type snapshot = { src : string; counts : int array }

let snapshot t =
  let counts = Array.make n_counters 0 in
  Mutex.lock t.lock;
  List.iter
    (fun s ->
      for c = 0 to n_counters - 1 do
        counts.(c) <- counts.(c) + s.(pad + c)
      done)
    !(t.stripes);
  Mutex.unlock t.lock;
  { src = t.label; counts }

let get s c = s.counts.(c)

let diff a b =
  { src = a.src; counts = Array.init n_counters (fun c -> a.counts.(c) - b.counts.(c)) }

let merge a b =
  { src = "merged"; counts = Array.init n_counters (fun c -> a.counts.(c) + b.counts.(c)) }

let process_snapshot () =
  Mutex.lock instances_lock;
  let ts = !instances in
  Mutex.unlock instances_lock;
  List.fold_left
    (fun acc t -> merge acc (snapshot t))
    { src = "process"; counts = Array.make n_counters 0 }
    ts

let to_table ?title ?(zeros = false) s =
  let title = match title with Some t -> t | None -> Printf.sprintf "Obs counters (%s)" s.src in
  let t = Smc_util.Table.create ~title ~columns:[ "counter"; "count" ] in
  for c = 0 to n_counters - 1 do
    if zeros || s.counts.(c) <> 0 then
      Smc_util.Table.add_row t [ names.(c); string_of_int s.counts.(c) ]
  done;
  t
