open Constants

type mode = Indirect | Direct

(* One immutable snapshot of the context's block list. Mutators publish a
   fresh view record under the context lock; enumerators read the field
   once and work off a consistent (array, count) pair even while appends or
   pruning run concurrently. Appends may reuse the array (slots beyond
   [v_n] are invisible to holders of the old view); pruning always builds a
   fresh array and bumps the generation [v_gen]. *)
type view = { v_blocks : Block.t array; v_n : int; v_gen : int }

type t = {
  id : int;
  rt : Runtime.t;
  layout : Layout.t;
  placement : Block.placement;
  mode : mode;
  slots_per_block : int;
  reclaim_threshold : float;
  lock : Mutex.t;
  mutable view : view;
  mutable rq_front : Block.t list;
  mutable rq_back : Block.t list;
  local_block : Block.t option array;
  mutable direct_referrers : (t * Layout.field) list;
  compaction_requested : bool Atomic.t;
  (* The commit clock every walk reads against: CSN [n] is [csn lsr 1], and
     the low bit is set while a transaction commit applies the batch it
     stamped with CSN [committing]. Bare mutations take a fresh CSN each. *)
  csn : int Atomic.t;
  committing : int Atomic.t;
  (* The open-frontier registry, one cell per epoch thread slot: a lower
     bound on the frontiers that thread's open walks and views read at
     ([max_int] when none), and how many it holds. *)
  frontiers : int Atomic.t array;
  frontier_depth : int array;
}

let max_threads = 128

let create rt ~layout ?(placement = Block.Row) ?(mode = Indirect) ?(slots_per_block = 4096)
    ?(reclaim_threshold = 0.05) () =
  if slots_per_block > Constants.max_direct_slots then
    invalid_arg "Context.create: slots_per_block too large";
  {
    id = Atomic.fetch_and_add rt.Runtime.next_context_id 1;
    rt;
    layout;
    placement;
    mode;
    slots_per_block;
    reclaim_threshold;
    lock = Mutex.create ();
    view = { v_blocks = [||]; v_n = 0; v_gen = 0 };
    rq_front = [];
    rq_back = [];
    local_block = Array.make max_threads None;
    direct_referrers = [];
    compaction_requested = Atomic.make false;
    csn = Atomic.make 0;
    committing = Atomic.make 0;
    frontiers = Array.init max_threads (fun _ -> Atomic.make max_int);
    frontier_depth = Array.make max_threads 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The frontier: every CSN at or below it belongs to a finished unit. An
   applying commit pins it just below its own CSN, and it never moves
   backwards: [begin_commit] publishes [committing] before the CAS that
   sets the low bit, and the CAS fails if any CSN was minted meanwhile. *)
let csn_now t =
  let w = Atomic.get t.csn in
  if w land 1 = 0 then w lsr 1 else Atomic.get t.committing - 1

let next_csn t = (Atomic.fetch_and_add t.csn 2 lsr 1) + 1

let rec begin_commit t =
  let w = Atomic.get t.csn in
  let c = (w lsr 1) + 1 in
  Atomic.set t.committing c;
  if Atomic.compare_and_set t.csn w ((c lsl 1) lor 1) then c else begin_commit t

let end_commit t = ignore (Atomic.fetch_and_add t.csn (-1) : int)

(* Register, then read: a reclaimer that missed this cell read the clock
   before it, so it tested against a frontier no newer than ours. *)
let open_frontier t =
  let tid = Runtime.tid t.rt in
  let d = t.frontier_depth.(tid) in
  if d = 0 then Atomic.set t.frontiers.(tid) (csn_now t);
  t.frontier_depth.(tid) <- d + 1;
  csn_now t

let close_frontier t =
  let tid = Runtime.tid t.rt in
  let d = t.frontier_depth.(tid) - 1 in
  t.frontier_depth.(tid) <- d;
  if d = 0 then Atomic.set t.frontiers.(tid) max_int

(* No open or future frontier can see a row that died at or below this. *)
let oldest_frontier t =
  let m = ref (csn_now t) in
  for i = 0 to Epoch.registered_threads t.rt.Runtime.epoch - 1 do
    m := min !m (Atomic.get t.frontiers.(i))
  done;
  !m

let note_birth blk c =
  let rec go () =
    let m = Atomic.get blk.Block.born_max in
    if c > m && not (Atomic.compare_and_set blk.Block.born_max m c) then go ()
  in
  go ()

let stamp_write blk slot ~csn =
  Bigarray.Array1.unsafe_set blk.Block.csn_write slot csn

let append_block_locked t blk =
  let { v_blocks; v_n; v_gen } = t.view in
  let v_blocks =
    if v_n = Array.length v_blocks then begin
      let next = Array.make (max 8 (2 * Array.length v_blocks)) blk in
      Array.blit v_blocks 0 next 0 v_n;
      next
    end
    else v_blocks
  in
  v_blocks.(v_n) <- blk;
  t.view <- { v_blocks; v_n = v_n + 1; v_gen }

let obs_incr t c = Smc_obs.incr t.rt.Runtime.obs c

let new_block_unpublished t =
  obs_incr t Smc_obs.c_blocks_created;
  Registry.register t.rt.Runtime.registry (fun ~id ->
      Block.create ~id ~layout:t.layout ~placement:t.placement ~nslots:t.slots_per_block)

let publish_block t blk = with_lock t (fun () -> append_block_locked t blk)

(* The reclamation queue is a two-list FIFO under the context lock: pushes
   prepend to [rq_back], pops take from [rq_front], reversing the back list
   into the front only when the front runs dry — O(1) amortised either way,
   where a naive [queue @ [blk]] append is quadratic under churn. *)
let rq_push_locked t blk = t.rq_back <- blk :: t.rq_back

let rq_normalize_locked t =
  if t.rq_front = [] then begin
    t.rq_front <- List.rev t.rq_back;
    t.rq_back <- []
  end

let rq_remove_locked t blk =
  t.rq_front <- List.filter (fun b -> b != blk) t.rq_front;
  t.rq_back <- List.filter (fun b -> b != blk) t.rq_back

let reclaim_queue_blocks t = t.rq_front @ List.rev t.rq_back

(* Pop the oldest ready block from the reclamation queue; when blocks are
   queued but not yet ready, nudge the global epoch (§3.5: lazy advance from
   the allocation function). Dead blocks — killed by compaction after they
   were queued — are drained in a loop so a dead head can never hide the
   ready blocks behind it (that stall made the allocator mint fresh blocks
   forever while recycled memory sat in the queue). When [owner] is given,
   the popped block's owner is set {e under the context lock}, closing the
   window in which [maybe_queue] on another domain could still see the block
   as unowned and re-queue it. *)
let pop_reclaimable ?owner t =
  let epoch = t.rt.Runtime.epoch in
  with_lock t (fun () ->
      let rec drain () =
        rq_normalize_locked t;
        match t.rq_front with
        | [] -> None
        | head :: rest ->
          if head.Block.dead then begin
            head.Block.queued <- false;
            t.rq_front <- rest;
            obs_incr t Smc_obs.c_rq_dead_drops;
            drain ()
          end
          else if Epoch.global epoch >= head.Block.queued_ready then begin
            head.Block.queued <- false;
            t.rq_front <- rest;
            (match owner with Some tid -> head.Block.owner_tid <- tid | None -> ());
            obs_incr t Smc_obs.c_rq_pops;
            Some head
          end
          else begin
            (* FIFO ready-epochs are monotone: nothing behind a not-yet-ready
               head can be ready either. *)
            ignore (Epoch.try_advance epoch : bool);
            None
          end
      in
      drain ())

let acquire_block t tid =
  match pop_reclaimable ~owner:tid t with
  | Some blk ->
    blk.Block.scan_pos <- 0;
    blk
  | None ->
    (* Claim ownership before the block becomes visible: once published it
       can be seen by the compactor and by [maybe_queue] on other domains. *)
    let blk = new_block_unpublished t in
    blk.Block.owner_tid <- tid;
    blk.Block.scan_pos <- 0;
    publish_block t blk;
    obs_incr t Smc_obs.c_fresh_blocks;
    blk

let maybe_queue t blk =
  (* Queue blocks whose limbo fraction crossed the reclamation threshold so
     their memory is recycled two epochs on (§3.5). *)
  let limbo = Atomic.get blk.Block.limbo_count in
  if
    (not blk.Block.queued) && (not blk.Block.dead) && blk.Block.group = None
    && blk.Block.owner_tid < 0
    && float_of_int limbo /. float_of_int blk.Block.nslots > t.reclaim_threshold
  then begin
    Runtime.fire_queue_hook t.rt blk;
    with_lock t (fun () ->
        (* Re-check the full condition: between the unlocked check above and
           here the block can be re-acquired as a thread-local allocation
           block (owner set under the lock by [pop_reclaimable]), reserved
           into a compaction group, or killed. Queuing it then would hand a
           writer's active block to reclamation. *)
        if
          (not blk.Block.queued) && (not blk.Block.dead) && blk.Block.group = None
          && blk.Block.owner_tid < 0
        then begin
          blk.Block.queued <- true;
          blk.Block.queued_ready <- Epoch.global t.rt.Runtime.epoch + 2;
          rq_push_locked t blk;
          obs_incr t Smc_obs.c_rq_pushes
        end)
  end

let release_local t tid blk =
  blk.Block.owner_tid <- -1;
  t.local_block.(tid) <- None;
  maybe_queue t blk

(* Scan the slot directory from the last allocation position for a free slot
   or a reclaimable limbo slot (§3.5): its grace period passed, and no open
   frontier can still see its row. A completely full block (every slot
   valid, so no free and no limbo slot to recycle) is rejected without
   touching the directory at all. *)
let scan_for_slot t tid blk =
  if Atomic.get blk.Block.valid_count = blk.Block.nslots then None
  else begin
  let epoch = t.rt.Runtime.epoch in
  let ind = t.rt.Runtime.ind in
  let n = blk.Block.nslots in
  let oldest = ref (-1) in
  let unseen pos =
    if !oldest < 0 then oldest := oldest_frontier t;
    Bigarray.Array1.unsafe_get blk.Block.csn_write pos <= !oldest
  in
  let rec go remaining pos =
    if remaining = 0 then None
    else begin
      let pos = if pos >= n then 0 else pos in
      let entry = Block.dir_entry blk pos in
      let state = dir_state entry in
      if state = state_free then begin
        blk.Block.scan_pos <- pos + 1;
        Some pos
      end
      else if
        state = state_limbo && Epoch.can_reclaim epoch ~stamp:(dir_stamp entry) && unseen pos
      then begin
        (* Recycle the slot and its indirection entry. Stale references
           already fail the incarnation check. *)
        let old_entry = Bigarray.Array1.unsafe_get blk.Block.backptr pos in
        if old_entry >= 0 then Indirection.free ind ~tid old_entry;
        Bigarray.Array1.unsafe_set blk.Block.backptr pos Constants.null_ref;
        ignore (Atomic.fetch_and_add blk.Block.limbo_count (-1) : int);
        obs_incr t Smc_obs.c_slot_recycles;
        blk.Block.scan_pos <- pos + 1;
        Some pos
      end
      else go (remaining - 1) (pos + 1)
    end
  in
  go n blk.Block.scan_pos
  end

let rec alloc ?csn ?init t =
  Runtime.fire_alloc_hook t.rt;
  let tid = Runtime.tid t.rt in
  let blk =
    match t.local_block.(tid) with
    | Some blk -> blk
    | None ->
      let blk = acquire_block t tid in
      t.local_block.(tid) <- Some blk;
      blk
  in
  match scan_for_slot t tid blk with
  | None ->
    release_local t tid blk;
    alloc ?csn ?init t
  | Some slot ->
    let ind = t.rt.Runtime.ind in
    Block.clear_slot_words blk ~slot;
    (* Stamp the row's CSN before the directory flips the slot valid, and
       birth before write ([slot_visible_at] reads them in reverse). *)
    let c = match csn with Some c -> c | None -> next_csn t in
    Bigarray.Array1.unsafe_set blk.Block.csn_born slot c;
    Bigarray.Array1.unsafe_set blk.Block.csn_write slot c;
    note_birth blk c;
    let entry = Indirection.alloc ind ~tid in
    Indirection.set_ptr ind entry (pack_ptr ~block:blk.Block.id ~slot);
    Bigarray.Array1.unsafe_set blk.Block.backptr slot entry;
    (* The row is built before the flip, so [state_valid] means "built":
       no enumeration can emit it half-initialised. A failed [init] hands
       the slot and the entry back as if never allocated. *)
    (match init with
    | None -> ()
    | Some init -> (
      try init blk slot
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Bigarray.Array1.unsafe_set blk.Block.backptr slot Constants.null_ref;
        Block.set_dir_entry blk slot (dir_entry ~state:state_free ~stamp:0);
        Indirection.free ind ~tid entry;
        Printexc.raise_with_backtrace e bt));
    Block.set_dir_entry blk slot (dir_entry ~state:state_valid ~stamp:0);
    ignore (Atomic.fetch_and_add blk.Block.valid_count 1 : int);
    obs_incr t Smc_obs.c_allocs;
    let inc = Indirection.inc_word ind entry land inc_mask in
    pack_ref ~entry ~inc

(* The reference-visible incarnation width is 31 bits for indirect
   references but only 27 for direct ones, so a direct-mode context must
   quarantine slots at the narrower bound — otherwise a slot reused 2^27
   times hands out direct references that alias incarnation 0. *)
let effective_quarantine_limit t =
  match t.mode with
  | Indirect -> t.rt.Runtime.inc_quarantine_limit
  | Direct -> min t.rt.Runtime.inc_quarantine_limit Constants.direct_inc_mask

(* Mark the slot limbo, stamped with the current global epoch — or
   quarantine it permanently when its incarnation is about to exhaust the
   reference-visible width (§3.1's overflow rule). *)
let retire_slot t blk slot ~new_inc =
  ignore (Atomic.fetch_and_add blk.Block.valid_count (-1) : int);
  obs_incr t Smc_obs.c_retires;
  (* Direct references validate against the slot's own incarnation word, and
     entries migrate between slots — so in direct mode the slot incarnation
     (already bumped by [free]) is bounded independently of the entry's. *)
  let overflow =
    new_inc land inc_mask >= effective_quarantine_limit t
    || (match t.mode with
       | Indirect -> false
       | Direct ->
         let sw = Bigarray.Array1.unsafe_get blk.Block.slot_inc slot in
         sw land inc_mask >= effective_quarantine_limit t)
  in
  if overflow then begin
    Block.set_dir_entry blk slot (dir_entry ~state:state_quarantined ~stamp:0);
    ignore (Atomic.fetch_and_add t.rt.Runtime.quarantined_slots 1 : int);
    obs_incr t Smc_obs.c_quarantines
  end
  else begin
    let epoch = Epoch.global t.rt.Runtime.epoch in
    Block.set_dir_entry blk slot (dir_entry ~state:state_limbo ~stamp:epoch);
    ignore (Atomic.fetch_and_add blk.Block.limbo_count 1 : int);
    maybe_queue t blk
  end

(* Freeing a frozen object must tell the compactor: the relocation sweep
   re-checks slot validity so a dead slot is not resurrected. *)
let mark_reloc_failed blk slot =
  match Block.find_reloc blk ~slot with
  | None -> ()
  | Some r -> if r.Block.status = Block.Pending then r.Block.status <- Block.Failed

let free ?csn t packed =
  if packed < 0 then false
  else begin
    let entry = ref_entry packed and inc = ref_inc packed in
    let ind = t.rt.Runtime.ind in
    Runtime.with_entry_lock t.rt entry (fun () ->
        let w = Indirection.inc_word ind entry in
        if w land inc_mask <> inc then false
        else begin
          let p = Indirection.ptr ind entry in
          let blk = Registry.get t.rt.Runtime.registry (ptr_block p) in
          let slot = ptr_slot p in
          (* Death stamp before the directory flips to limbo/quarantined:
             a view at frontier [v] keeps reading rows with write > v. *)
          let c = match csn with Some c -> c | None -> next_csn t in
          Bigarray.Array1.unsafe_set blk.Block.csn_write slot c;
          if w land frozen_bit <> 0 then mark_reloc_failed blk slot;
          (* Bump the incarnation (clearing protocol flags): all outstanding
             references now read as null. In direct mode the slot's own
             incarnation word is kept in lockstep (§6 keeps it in the object
             header). *)
          let new_inc = ((w land lnot flags_mask) + 1) land lnot flags_mask in
          Indirection.set_inc_word ind entry new_inc;
          (match t.mode with
          | Indirect -> ()
          | Direct ->
            let sw = Bigarray.Array1.unsafe_get blk.Block.slot_inc slot in
            Bigarray.Array1.unsafe_set blk.Block.slot_inc slot
              (((sw land lnot flags_mask) + 1) land lnot flags_mask));
          retire_slot t blk slot ~new_inc;
          obs_incr t Smc_obs.c_frees;
          true
        end)
  end

(* The back-pointer of a copy [store_versioned] superseded names the row's
   live entry as [-2 - entry]: a walk below the commit still emits that
   copy and must name the live row, while recycling it frees no entry. *)
let live_entry bp = if bp >= -1 then bp else -2 - bp

(* Copy-on-write store for commits and bare stores. [alloc]'s [init] builds
   the copy, born at [csn] (above every frontier while the commit
   applies), under the row's entry lock, so no walk sees it half built.
   The swing waits until [alloc] has counted the copy: a bare [free] that
   took the lock in between killed the row, and a row relocated in
   between is copied again. The old copy retires with death stamp [csn]. *)
let store_versioned t packed ~csn ~word ~value =
  if t.mode <> Indirect then invalid_arg "Context.store_versioned: indirect mode only";
  let ind = t.rt.Runtime.ind and registry = t.rt.Runtime.registry in
  let e1 = ref_entry packed and inc = ref_inc packed in
  let live () = Indirection.inc_word ind e1 land inc_mask = inc in
  let copied = ref (-1) in
  let copy_live dst dst_slot =
    let p1 = Indirection.ptr ind e1 in
    if p1 <> !copied then begin
      Block.copy_slot ~src:(Registry.get registry (ptr_block p1)) ~src_slot:(ptr_slot p1) ~dst
        ~dst_slot;
      Block.set_word dst ~slot:dst_slot ~word value;
      copied := p1
    end
  in
  let init dst dst_slot =
    Runtime.with_entry_lock t.rt e1 (fun () ->
        if not (live ()) then raise_notrace Exit;
        copy_live dst dst_slot)
  in
  packed >= 0
  &&
  match alloc ~csn ~init t with
  | exception Exit -> false
  | fresh ->
    let p2 = Indirection.ptr ind (ref_entry fresh) in
    let dst = Registry.get registry (ptr_block p2) and dst_slot = ptr_slot p2 in
    let swung =
      Runtime.with_entry_lock t.rt e1 (fun () ->
          live ()
          && begin
            copy_live dst dst_slot;
            let w = Indirection.inc_word ind e1 and p1 = Indirection.ptr ind e1 in
            let src = Registry.get registry (ptr_block p1) and src_slot = ptr_slot p1 in
            (* Cancel a pending relocation of the old copy, as [free] does. *)
            if w land frozen_bit <> 0 then mark_reloc_failed src src_slot;
            Indirection.set_inc_word ind e1 (w land lnot frozen_bit);
            Indirection.set_ptr ind e1 p2;
            Bigarray.Array1.unsafe_set dst.Block.backptr dst_slot e1;
            stamp_write src src_slot ~csn;
            Bigarray.Array1.unsafe_set src.Block.backptr src_slot (-2 - e1);
            retire_slot t src src_slot ~new_inc:0;
            obs_incr t Smc_obs.c_frees;
            true
          end)
    in
    (* Swung: [alloc]'s entry was never handed out. Not swung: the copy is
       born and dead at [csn], so no frontier ever sees it. *)
    if swung then Indirection.free ind ~tid:(Runtime.tid t.rt) (ref_entry fresh)
    else ignore (free ~csn t fresh : bool);
    swung

(* Perform one relocation under the entry stripe lock: copy the object
   words, publish the target slot, switch the indirection pointer, tombstone
   the source in direct mode. Idempotent through the status field. Readers
   in the moving phase run exactly this to help the compaction thread
   (case (c) of §5.1). *)
let perform_relocation t entry (r : Block.relocation) src =
  let ind = t.rt.Runtime.ind in
  if r.Block.status = Block.Pending then begin
    let tgt = r.Block.target in
    let dst_slot = r.Block.to_slot in
    (* The paper sets the lock bit for the copy's duration; under the stripe
       lock it is redundant but kept for protocol observability. *)
    let w0 = Indirection.inc_word ind entry in
    Indirection.set_inc_word ind entry (w0 lor lock_bit);
    Block.copy_slot ~src ~src_slot:r.Block.from_slot ~dst:tgt ~dst_slot;
    Bigarray.Array1.unsafe_set tgt.Block.backptr dst_slot entry;
    (* Carry the slot incarnation over so stored direct references keep
       matching after the move. *)
    Bigarray.Array1.unsafe_set tgt.Block.slot_inc dst_slot
      (Bigarray.Array1.unsafe_get src.Block.slot_inc r.Block.from_slot land lnot flags_mask);
    (* The CSN stamps travel with the row: a relocated row must stay
       visible to exactly the frontiers that saw it at the source. *)
    Bigarray.Array1.unsafe_set tgt.Block.csn_born dst_slot
      (Bigarray.Array1.unsafe_get src.Block.csn_born r.Block.from_slot);
    Bigarray.Array1.unsafe_set tgt.Block.csn_write dst_slot
      (Bigarray.Array1.unsafe_get src.Block.csn_write r.Block.from_slot);
    note_birth tgt (Bigarray.Array1.unsafe_get tgt.Block.csn_born dst_slot);
    Block.set_dir_entry tgt dst_slot (dir_entry ~state:state_valid ~stamp:0);
    ignore (Atomic.fetch_and_add tgt.Block.valid_count 1 : int);
    Indirection.set_ptr ind entry (pack_ptr ~block:tgt.Block.id ~slot:dst_slot);
    (* Unfreeze/unlock; in direct mode the source slot becomes a tombstone
       with the forwarding flag set in the same store (§6). *)
    let w = Indirection.inc_word ind entry in
    Indirection.set_inc_word ind entry (w land lnot (frozen_bit lor lock_bit));
    (match t.mode with
    | Indirect -> ()
    | Direct ->
      let sw = Bigarray.Array1.unsafe_get src.Block.slot_inc r.Block.from_slot in
      Bigarray.Array1.unsafe_set src.Block.slot_inc r.Block.from_slot
        ((sw land lnot (frozen_bit lor lock_bit)) lor forward_bit));
    r.Block.status <- Block.Moved
  end

(* §5.1's dereference_object frozen path: distinguish the freezing epoch
   (case a), the waiting phase (case b: bail the object out) and the moving
   phase (case c: help relocate). *)
let resolve_frozen t entry =
  let rt = t.rt in
  let ind = rt.Runtime.ind in
  let here () =
    let p = Indirection.ptr ind entry in
    Some (Registry.get rt.Runtime.registry (ptr_block p), ptr_slot p)
  in
  if Epoch.local_epoch rt.Runtime.epoch <> Atomic.get rt.Runtime.next_relocation_epoch then
    here ()
  else if not (Atomic.get rt.Runtime.in_moving_phase) then begin
    Runtime.with_entry_lock rt entry (fun () ->
        let w = Indirection.inc_word ind entry in
        if w land frozen_bit <> 0 then begin
          let p = Indirection.ptr ind entry in
          let blk = Registry.get rt.Runtime.registry (ptr_block p) in
          mark_reloc_failed blk (ptr_slot p);
          Indirection.set_inc_word ind entry (w land lnot frozen_bit)
        end);
    here ()
  end
  else begin
    Runtime.with_entry_lock rt entry (fun () ->
        let w = Indirection.inc_word ind entry in
        if w land frozen_bit <> 0 then begin
          let p = Indirection.ptr ind entry in
          let blk = Registry.get rt.Runtime.registry (ptr_block p) in
          let bail () =
            mark_reloc_failed blk (ptr_slot p);
            Indirection.set_inc_word ind entry (w land lnot frozen_bit);
            obs_incr t Smc_obs.c_reloc_bails
          in
          match Block.find_reloc blk ~slot:(ptr_slot p) with
          | Some r -> begin
            (* Help only once the group has actually entered its moving
               state; otherwise bail the object out as in the waiting
               phase, keeping pre-relocation group reads consistent. *)
            match blk.Block.group with
            | Some g when Atomic.get g.Block.g_state = Block.group_moving ->
              perform_relocation t entry r blk;
              obs_incr t Smc_obs.c_reloc_helps
            | Some _ | None -> bail ()
          end
          | None -> bail ()
        end);
    here ()
  end

let resolve t packed =
  if packed < 0 then None
  else begin
    let p = Indirection.live_ptr t.rt.Runtime.ind (ref_entry packed) (ref_inc packed) in
    if p >= 0 then Some (Registry.get_fast t.rt.Runtime.registry (ptr_block p), ptr_slot p)
    else if p = -1 then None
    else resolve_frozen t (ref_entry packed)
  end

(* Stored SMC-to-SMC direct pointer resolution (§6): fast path is a single
   masked comparison against the slot's incarnation word; tombstones forward
   through the back-pointer; frozen slots fall back to the entry protocol. *)
let resolve_direct t packed =
  if packed < 0 then None
  else begin
    let registry = t.rt.Runtime.registry in
    let inc = direct_inc packed in
    let rec follow block_id slot hops =
      if hops > 8 then None
      else begin
        let blk = Registry.get_fast registry block_id in
        let w = Bigarray.Array1.unsafe_get blk.Block.slot_inc slot in
        if w land (flags_mask lor direct_inc_mask) = inc then Some (blk, slot)
        else if w land direct_inc_mask <> inc then None
        else if w land forward_bit <> 0 then begin
          let entry = Bigarray.Array1.unsafe_get blk.Block.backptr slot in
          if entry < 0 then None
          else begin
            let p = Indirection.ptr t.rt.Runtime.ind entry in
            follow (ptr_block p) (ptr_slot p) (hops + 1)
          end
        end
        else begin
          let entry = Bigarray.Array1.unsafe_get blk.Block.backptr slot in
          if entry < 0 then None else resolve_frozen t entry
        end
      end
    in
    follow (direct_block packed) (direct_slot packed) 0
  end

(* Allocation-free resolution: returns a packed (block, slot) location, or
   -1 when the object is gone. This is what the generated unsafe query code
   uses on its hot join paths. *)
let resolve_loc t packed =
  if packed < 0 then -1
  else begin
    let p = Indirection.live_ptr t.rt.Runtime.ind (ref_entry packed) (ref_inc packed) in
    if p >= -1 then p
    else begin
      match resolve_frozen t (ref_entry packed) with
      | Some (blk, slot) -> pack_ptr ~block:blk.Block.id ~slot
      | None -> -1
    end
  end

let resolve_direct_loc t packed =
  if packed < 0 then -1
  else begin
    let blk = Registry.get_fast t.rt.Runtime.registry (direct_block packed) in
    let slot = direct_slot packed in
    let w = Bigarray.Array1.unsafe_get blk.Block.slot_inc slot in
    if w land (flags_mask lor direct_inc_mask) = direct_inc packed then
      pack_ptr ~block:blk.Block.id ~slot
    else begin
      match resolve_direct t packed with
      | Some (b, s) -> pack_ptr ~block:b.Block.id ~slot:s
      | None -> -1
    end
  end

let block_of_loc t loc = Registry.get_fast t.rt.Runtime.registry (ptr_block loc)

let direct_ref_of t packed =
  match resolve t packed with
  | None -> Constants.null_ref
  | Some (blk, slot) ->
    let inc = Bigarray.Array1.unsafe_get blk.Block.slot_inc slot land direct_inc_mask in
    pack_direct ~block:blk.Block.id ~slot ~inc

let indirect_ref_of_slot t blk slot =
  let entry = live_entry (Bigarray.Array1.unsafe_get blk.Block.backptr slot) in
  if entry < 0 then Constants.null_ref
  else begin
    let inc = Indirection.inc_word t.rt.Runtime.ind entry land inc_mask in
    pack_ref ~entry ~inc
  end

(* The one visibility rule every walk applies at its frontier [csn]: a row
   born at or before it, valid or dead after it. Removal stamps are written
   before the directory flip, and the walk's registered frontier keeps a
   row it sees from being recycled or dropped by compaction. A dead row it
   does not see may be recycled mid-test: [alloc] stamps birth, then write,
   so reading write first never pairs the old birth with the new write. *)
let slot_visible_at blk slot ~csn =
  let state = Constants.dir_state (Bigarray.Array1.unsafe_get blk.Block.dir slot) in
  if state = state_valid then Bigarray.Array1.unsafe_get blk.Block.csn_born slot <= csn
  else
    state <> state_free
    && Bigarray.Array1.unsafe_get blk.Block.csn_write slot > csn
    && Bigarray.Array1.unsafe_get blk.Block.csn_born slot <= csn

(* Every slot holds a row visible at [csn]: [alloc] raises [born_max]
   before it counts a row valid, and [retire_slot] uncounts a row before it
   retires it, so a full count means every slot held a built row born at
   or below [born_max]. A removal that completes after that instant is
   concurrent with the walk; its row stays in limbo, words intact, until
   the position's critical section ends. *)
let settled blk ~csn =
  Atomic.get blk.Block.valid_count = blk.Block.nslots
  && Atomic.get blk.Block.born_max <= csn

(* The §5.2 block walk. Every enumerator — sequential or parallel, row,
   hoisted, batch or snapshot-file — is this one loop over one view
   snapshot, and each view position is read inside its own epoch critical
   section (§4's per-block granularity), so grace periods stay as short as
   one block. A caller that needs blocks stable across positions holds an
   outer section; the walk's own then only counts depth.

   Compaction moves a source's rows into one contiguous slot range of its
   target ([form_groups]), and a completed source keeps its group and
   relocation list. So the walk never needs to treat a group as a unit:
   each view position accounts for its own block's rows wherever they are
   now — in the block itself, or in the block's range of its target,
   followed through later compactions of that target. A target in the
   view accounts only for the slots its sources do not own, while those
   sources are still in the view ([moved_in], [sources_gone]). The
   positions' shares partition the rows, so a row live for the whole walk
   is emitted exactly once with any number of workers, with nothing shared
   between positions but the dispenser.

   A block without a group (or whose group aborted) is scanned in place:
   a group formed after the position's critical section began cannot move
   rows until that section ends. A source of a pending group is scanned
   in place under the group's query counter, which holds the group out of
   its moving state (§5.2); a moving group is waited out. *)
type walk = { w_ctx : t; w_view : view; w_next : int Atomic.t; w_csn : int }

let walk_from t ~csn = { w_ctx = t; w_view = t.view; w_next = Atomic.make 0; w_csn = csn }

(* The frontier is read before the view: a row born at or below it lives
   in a block published before it was stamped. *)
let with_walk t f =
  let w = walk_from t ~csn:(open_frontier t) in
  Fun.protect ~finally:(fun () -> close_frontier t) (fun () -> f w)

(* Relocations of [rl] whose source slot is below [slot]; relocation lists
   are in source-slot order. *)
let relocs_below (rl : Block.reloc_list) slot =
  let rec go l h =
    if l >= h then l
    else
      let m = (l + h) / 2 in
      if rl.Block.relocs.(m).Block.from_slot < slot then go (m + 1) h else go l m
  in
  go 0 (Array.length rl.Block.relocs)

let rec scan_range t blk lo hi ~scan =
  match blk.Block.group with
  | Some g when g.Block.g_target != blk && lo < hi ->
    let state = Atomic.get g.Block.g_state in
    if state = Block.group_pending then begin
      ignore (Atomic.fetch_and_add g.Block.g_queries 1 : int);
      let release () = ignore (Atomic.fetch_and_add g.Block.g_queries (-1) : int) in
      if Atomic.get g.Block.g_state = Block.group_pending then
        Fun.protect ~finally:release (fun () -> scan blk lo hi)
      else begin
        release ();
        scan_range t blk lo hi ~scan
      end
    end
    else if state = Block.group_moving then begin
      Domain.cpu_relax ();
      scan_range t blk lo hi ~scan
    end
    else if state = Block.group_done then begin
      match blk.Block.reloc with
      | None -> ()
      | Some rl ->
        let a = relocs_below rl lo and b = relocs_below rl hi in
        if a < b then begin
          let r = rl.Block.relocs.(a) in
          obs_incr t Smc_obs.c_walk_moved_ranges;
          scan_range t r.Block.target r.Block.to_slot (r.Block.to_slot + b - a) ~scan
        end
    end
    else scan blk lo hi (* aborted: the source kept its rows *)
  | _ -> if lo < hi && not blk.Block.dead then scan blk lo hi

let walk_at w ~scan =
  let t = w.w_ctx and { v_blocks; v_n; v_gen } = w.w_view in
  let epoch = t.rt.Runtime.epoch in
  let rec go () =
    let i = Atomic.fetch_and_add w.w_next 1 in
    if i < v_n then begin
      let blk = v_blocks.(i) in
      let lo = if v_gen < blk.Block.sources_gone then blk.Block.moved_in else 0 in
      Epoch.critical epoch (fun () -> scan_range t blk lo blk.Block.nslots ~scan:(scan i));
      go ()
    end
  in
  go ()

let walk w ~scan = walk_at w ~scan:(fun _ -> scan)

let scan_slots w blk ~lo ~hi ~f =
  let csn = w.w_csn in
  if settled blk ~csn then
    for slot = lo to hi - 1 do
      f slot
    done
  else
    for slot = lo to hi - 1 do
      if slot_visible_at blk slot ~csn then f slot
    done

(* Row-at-a-time enumeration: [on_block] runs once per scanned range and
   returns the per-slot body, so query code can hoist the block's raw state
   out of the loop — direct block access, as in the paper's §4 listing. *)
let iter w ~on_block =
  walk w ~scan:(fun blk lo hi -> scan_slots w blk ~lo ~hi ~f:(on_block blk))

(* Batch-at-a-time enumeration: one pass per column chunk. [fill_block]
   walks a slot range in chunks of at most [dim slots] rows; each chunk is
   one loop that tests a slot and copies the wanted words of that slot at
   the output cursor, which advances only when the slot is visible at the
   walk's frontier — so a cut slot is simply overwritten by the next one.
   Row and Columnar blocks share the loop through one address form: word
   [w] of slot [s] sits at [s * stride + w * wstride], with (stride,
   wstride) = (slot_words, 1) for Row and (1, nslots) for Columnar; [offs]
   holds each wanted word's [w * wstride], hoisted out of the loop. A block
   [settled] at chunk entry skips the test: its chunk is a plain
   column-strided copy of the slot range. *)
type sel = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_sel cap = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 cap)

type chunk = {
  slots : sel;
  words : int array;
  masks : int array;
  dsts : int array array;
}

let fill_chunk w blk ~start ~hi c =
  let t = w.w_ctx and csn = w.w_csn in
  let cap = Bigarray.Array1.dim c.slots in
  let n = blk.Block.nslots in
  let data = blk.Block.data in
  let slots = c.slots and masks = c.masks and dsts = c.dsts in
  let nw = Array.length c.words in
  let stride, offs =
    match blk.Block.placement with
    | Block.Row -> (blk.Block.layout.Layout.slot_words, c.words)
    | Block.Columnar -> (1, Array.map (fun w -> w * n) c.words)
  in
  if settled blk ~csn then begin
    let m = min cap (hi - start) in
    for i = 0 to m - 1 do
      Bigarray.Array1.unsafe_set slots i (start + i)
    done;
    for w = 0 to nw - 1 do
      let dst = Array.unsafe_get dsts w and mask = Array.unsafe_get masks w in
      let base = (start * stride) + Array.unsafe_get offs w in
      for i = 0 to m - 1 do
        Array.unsafe_set dst i (Bigarray.Array1.unsafe_get data (base + (i * stride)) land mask)
      done
    done;
    obs_incr t Smc_obs.c_vec_full_batches;
    (m, start + m)
  end
  else begin
    let k = ref 0 and s = ref start in
    while !k < cap && !s < hi do
      let i = !s and kk = !k in
      Bigarray.Array1.unsafe_set slots kk i;
      let base = i * stride in
      for w = 0 to nw - 1 do
        Array.unsafe_set (Array.unsafe_get dsts w) kk
          (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get offs w)
          land Array.unsafe_get masks w)
      done;
      k := kk + Bool.to_int (slot_visible_at blk i ~csn);
      s := i + 1
    done;
    (!k, !s)
  end

let fill_block w blk ~lo ~hi c ~on_batch =
  let t = w.w_ctx in
  let start = ref lo in
  while !start < hi do
    let count, next = fill_chunk w blk ~start:!start ~hi c in
    if count > 0 then begin
      obs_incr t Smc_obs.c_vec_batches;
      Smc_obs.add t.rt.Runtime.obs Smc_obs.c_vec_batch_rows count;
      on_batch blk count
    end;
    start := next
  done

let add_direct_referrer t ~from field =
  with_lock t (fun () -> t.direct_referrers <- (from, field) :: t.direct_referrers)

let fold_live_blocks t ~init ~f =
  let { v_blocks = blocks; v_n = n; _ } = t.view in
  let acc = ref init in
  for i = 0 to n - 1 do
    let blk = blocks.(i) in
    if not blk.Block.dead then acc := f !acc blk
  done;
  !acc

let valid_count t =
  fold_live_blocks t ~init:0 ~f:(fun acc blk -> acc + Atomic.get blk.Block.valid_count)

let block_count t = fold_live_blocks t ~init:0 ~f:(fun acc _ -> acc + 1)

let off_heap_words t =
  fold_live_blocks t ~init:0 ~f:(fun acc blk -> acc + Block.off_heap_words blk)

let stats_limbo t =
  fold_live_blocks t ~init:0 ~f:(fun acc blk -> acc + Atomic.get blk.Block.limbo_count)

let request_compaction t = Atomic.set t.compaction_requested true
