open Constants

type report = {
  candidates : int;
  groups_formed : int;
  objects_moved : int;
  groups_skipped : int;
  blocks_retired : int;
  fixed_pointers : int;
  aborted : bool;
}

let empty_report =
  {
    candidates = 0;
    groups_formed = 0;
    objects_moved = 0;
    groups_skipped = 0;
    blocks_retired = 0;
    fixed_pointers = 0;
    aborted = false;
  }

(* A selected candidate is reserved by setting this pseudo owner, closing
   the window in which a concurrent removal could re-queue it (and an
   allocator then start writing into it) before its compaction group
   exists. The reservation is dropped when a group is skipped or the pass
   aborts; completed sources die anyway. *)
let compactor_owner = max_int

(* Blocks eligible for compaction: live, not feeding an allocator, not
   already grouped, and under-occupied. Blocks sitting in the reclamation
   queue are pulled out of it — on heavy shrinkage there may be no
   allocations coming to recycle them, which is exactly when compaction
   must shrink the footprint instead. *)
let select_candidates (ctx : Context.t) threshold =
  let result = ref [] in
  Mutex.lock ctx.lock;
  let { Context.v_blocks; v_n; _ } = ctx.Context.view in
  for i = v_n - 1 downto 0 do
    let blk = v_blocks.(i) in
    if
      (not blk.Block.dead) && blk.Block.owner_tid < 0 && blk.Block.group = None
      && Block.occupancy blk <= threshold
    then begin
      if blk.Block.queued then begin
        blk.Block.queued <- false;
        Context.rq_remove_locked ctx blk;
        Smc_obs.incr ctx.Context.rt.Runtime.obs Smc_obs.c_rq_unqueues
      end;
      blk.Block.owner_tid <- compactor_owner;
      result := blk :: !result
    end
  done;
  Mutex.unlock ctx.lock;
  !result

(* Partition candidates into groups whose total live objects fit one target
   block, build per-block relocation lists, and publish the group. A limbo
   row an open frontier can still see gets a target slot too, so the sweep
   can carry it over ([keep_dead]). *)
let form_groups (ctx : Context.t) candidates group_size =
  let seen = Context.oldest_frontier ctx in
  let groups = ref [] in
  let rec take n acc = function
    | [] -> (List.rev acc, [])
    | rest when n = 0 -> (List.rev acc, rest)
    | b :: rest -> take (n - 1) (b :: acc) rest
  in
  let rec go = function
    | [] -> ()
    | remaining ->
      let members, rest = take group_size [] remaining in
      let sources = Array.of_list members in
      let target = Context.new_block_unpublished ctx in
      let next_slot = ref 0 in
      let overflow = ref false in
      Array.iter
        (fun (src : Block.t) ->
          let relocs = ref [] in
          let nrelocs = ref 0 in
          let by_slot = Array.make src.Block.nslots (-1) in
          for slot = 0 to src.Block.nslots - 1 do
            let st = Block.slot_state src slot in
            if
              (not !overflow)
              && (st = state_valid
                 || (st = state_limbo && Bigarray.Array1.get src.Block.csn_write slot > seen))
            then begin
              if !next_slot >= target.Block.nslots then overflow := true
              else begin
                let r =
                  { Block.from_slot = slot; target; to_slot = !next_slot; status = Block.Pending }
                in
                by_slot.(slot) <- !nrelocs;
                relocs := r :: !relocs;
                incr nrelocs;
                incr next_slot
              end
            end
          done;
          src.Block.reloc <-
            Some { Block.relocs = Array.of_list (List.rev !relocs); by_slot })
        sources;
      (* A group whose live set no longer fits (objects were added? they
         cannot be — sources have no allocator; but races with our own
         estimate are possible) is dropped wholesale. *)
      if !overflow then begin
        Array.iter
          (fun (src : Block.t) ->
            src.Block.reloc <- None;
            src.Block.owner_tid <- -1)
          sources;
        target.Block.dead <- true;
        Registry.retire ctx.rt.Runtime.registry target.Block.id
      end
      else begin
        let g =
          {
            Block.sources;
            g_target = target;
            g_state = Atomic.make Block.group_pending;
            g_queries = Atomic.make 0;
          }
        in
        target.Block.group <- Some g;
        target.Block.moved_in <- !next_slot;
        Array.iter (fun (src : Block.t) -> src.Block.group <- Some g) sources;
        Context.publish_block ctx target;
        groups := g :: !groups
      end;
      go rest
  in
  go candidates;
  List.rev !groups

(* Under [entry]'s lock: the relocation's source slot still holds the
   entry's row. The back-pointer was read before the lock, and
   [Context.store_versioned] may have swung the entry to a fresh copy of
   the row since; freezing or relocating then would act on that copy. *)
let still_here ind entry (src : Block.t) (r : Block.relocation) =
  Block.slot_state src r.Block.from_slot = state_valid
  && Indirection.ptr ind entry = pack_ptr ~block:src.Block.id ~slot:r.Block.from_slot

let freeze_group (ctx : Context.t) (g : Block.group) =
  let rt = ctx.rt in
  let ind = rt.Runtime.ind in
  Array.iter
    (fun (src : Block.t) ->
      match src.Block.reloc with
      | None -> ()
      | Some rl ->
        Array.iter
          (fun (r : Block.relocation) ->
            let entry = Bigarray.Array1.unsafe_get src.Block.backptr r.Block.from_slot in
            if entry >= 0 then
              Runtime.with_entry_lock rt entry (fun () ->
                  if still_here ind entry src r then begin
                    let w = Indirection.inc_word ind entry in
                    Indirection.set_inc_word ind entry (w lor frozen_bit);
                    (match ctx.mode with
                    | Context.Indirect -> ()
                    | Context.Direct ->
                      let sw =
                        Bigarray.Array1.unsafe_get src.Block.slot_inc r.Block.from_slot
                      in
                      Bigarray.Array1.unsafe_set src.Block.slot_inc r.Block.from_slot
                        (sw lor frozen_bit))
                  end
                  else r.Block.status <- Block.Failed)
            else r.Block.status <- Block.Failed)
          rl.Block.relocs)
    g.Block.sources

let unfreeze_group (ctx : Context.t) (g : Block.group) =
  let rt = ctx.rt in
  let ind = rt.Runtime.ind in
  Array.iter
    (fun (src : Block.t) ->
      (match src.Block.reloc with
      | None -> ()
      | Some rl ->
        Array.iter
          (fun (r : Block.relocation) ->
            if r.Block.status = Block.Pending || r.Block.status = Block.Failed then begin
              let entry = Bigarray.Array1.unsafe_get src.Block.backptr r.Block.from_slot in
              if entry >= 0 then
                Runtime.with_entry_lock rt entry (fun () ->
                    let w = Indirection.inc_word ind entry in
                    Indirection.set_inc_word ind entry (w land lnot frozen_bit);
                    match ctx.mode with
                    | Context.Indirect -> ()
                    | Context.Direct ->
                      let sw =
                        Bigarray.Array1.unsafe_get src.Block.slot_inc r.Block.from_slot
                      in
                      Bigarray.Array1.unsafe_set src.Block.slot_inc r.Block.from_slot
                        (sw land lnot frozen_bit))
            end)
          rl.Block.relocs);
      src.Block.reloc <- None;
      src.Block.group <- None;
      src.Block.owner_tid <- -1)
    g.Block.sources;
  g.Block.g_target.Block.group <- None

(* Abandon a group that never reached its moving state: no object has been
   moved (helpers only move in the moving state), so reverting is pure
   bookkeeping plus retiring the empty target. *)
let skip_group (ctx : Context.t) (g : Block.group) =
  Atomic.set g.Block.g_state (Block.group_done + 1) (* aborted: sources stay live *);
  unfreeze_group ctx g;
  g.Block.g_target.Block.dead <- true;
  Registry.retire ctx.rt.Runtime.registry g.Block.g_target.Block.id

(* A row that died after a frontier still open now moves as it is — a
   limbo row with its stamps, words and back-pointer — into its reserved
   target slot, where the walks that can see it look. The source slot
   becomes free, so [complete_group] drops only rows no walk can see.
   Limbo rows of a compactor-owned source never change. *)
let keep_dead ind (src : Block.t) (r : Block.relocation) =
  let tgt = r.Block.target and s = r.Block.from_slot and d = r.Block.to_slot in
  let bp = Bigarray.Array1.get src.Block.backptr s in
  if bp >= 0 then Indirection.set_ptr ind bp (pack_ptr ~block:tgt.Block.id ~slot:d);
  let move (plane : Block.t -> Block.int_ba) =
    Bigarray.Array1.set (plane tgt) d (Bigarray.Array1.get (plane src) s)
  in
  Block.copy_slot ~src ~src_slot:s ~dst:tgt ~dst_slot:d;
  List.iter move
    [ (fun b -> b.Block.backptr); (fun b -> b.Block.slot_inc); (fun b -> b.Block.csn_born);
      (fun b -> b.Block.csn_write); (fun b -> b.Block.dir) ];
  Atomic.incr tgt.Block.limbo_count;
  Bigarray.Array1.set src.Block.backptr s Constants.null_ref;
  Block.set_dir_entry src s (dir_entry ~state:state_free ~stamp:0);
  Atomic.decr src.Block.limbo_count

let sweep_group (ctx : Context.t) (g : Block.group) =
  let rt = ctx.rt in
  let ind = rt.Runtime.ind in
  let seen = Context.oldest_frontier ctx in
  let moved = ref 0 in
  Array.iter
    (fun (src : Block.t) ->
      match src.Block.reloc with
      | None -> ()
      | Some rl ->
        Array.iter
          (fun (r : Block.relocation) ->
            let s = r.Block.from_slot in
            let entry = Context.live_entry (Bigarray.Array1.get src.Block.backptr s) in
            if entry >= 0 then
              Runtime.with_entry_lock rt entry (fun () ->
                  match r.Block.status with
                  | Block.Moved -> incr moved
                  | Block.Pending | Block.Failed ->
                    if still_here ind entry src r then begin
                      (* Re-freeze bailed-out objects and move them now; we
                         hold the entry lock, so no reader interleaves a
                         read-modify-write. *)
                      let w = Indirection.inc_word ind entry in
                      Indirection.set_inc_word ind entry (w lor frozen_bit);
                      r.Block.status <- Block.Pending;
                      Context.perform_relocation ctx entry r src;
                      incr moved
                    end
                    else begin
                      r.Block.status <- Block.Failed;
                      if
                        Block.slot_state src s = state_limbo
                        && Bigarray.Array1.get src.Block.csn_write s > seen
                      then keep_dead ind src r
                    end))
          rl.Block.relocs)
    g.Block.sources;
  !moved

(* After the group is done: recycle the indirection entries of residual
   limbo slots and mark the emptied sources dead. In direct mode the source
   blocks stay registered as tombstones until pointer fixup completes. *)
let complete_group (ctx : Context.t) (g : Block.group) ~tid =
  let ind = ctx.rt.Runtime.ind in
  Array.iter
    (fun (src : Block.t) ->
      for slot = 0 to src.Block.nslots - 1 do
        if Block.slot_state src slot = state_limbo then begin
          let entry = Bigarray.Array1.unsafe_get src.Block.backptr slot in
          if entry >= 0 then begin
            Indirection.free ind ~tid entry;
            Bigarray.Array1.unsafe_set src.Block.backptr slot Constants.null_ref
          end;
          (* The slot dies with its source instead of being recycled by the
             allocation scan; counted so the limbo balance invariant
             (retires − quarantines − recycles − drops = Σ limbo) holds. *)
          Smc_obs.incr ctx.rt.Runtime.obs Smc_obs.c_limbo_drops
        end
      done;
      src.Block.dead <- true)
    g.Block.sources;
  Atomic.set g.Block.g_state Block.group_done;
  g.Block.g_target.Block.group <- None

(* §6: rewrite stored direct pointers into the compacted blocks. The hash
   table of compacted block ids lets the scan skip the dereference for
   pointers into untouched blocks. *)
let fixup_direct_pointers (ctx : Context.t) compacted =
  let fixed = ref 0 in
  List.iter
    (fun ((referrer : Context.t), (field : Layout.field)) ->
      Epoch.critical referrer.Context.rt.Runtime.epoch @@ fun () ->
      Context.with_walk referrer @@ fun walk ->
      Context.iter walk ~on_block:(fun blk slot ->
          let w = Block.get_word blk ~slot ~word:field.Layout.word in
          if w >= 0 && Hashtbl.mem compacted (direct_block w) then begin
            let fresh =
              match Context.resolve_direct ctx w with
              | None -> Constants.null_ref
              | Some (tb, ts) ->
                let inc = Bigarray.Array1.unsafe_get tb.Block.slot_inc ts land direct_inc_mask in
                pack_direct ~block:tb.Block.id ~slot:ts ~inc
            in
            Block.set_word blk ~slot ~word:field.Layout.word fresh;
            incr fixed
          end))
    ctx.direct_referrers;
  !fixed

(* Drop dead blocks from the context's enumeration view. A fresh array is
   built and published atomically: concurrent enumerators keep their old
   snapshot, where a completed source still accounts for its range of the
   target. From the new generation on, the target accounts for all its
   slots — recorded before the view is published. *)
let prune_dead (ctx : Context.t) =
  Mutex.lock ctx.lock;
  let { Context.v_blocks; v_n; v_gen } = ctx.Context.view in
  let live = ref [] in
  for i = v_n - 1 downto 0 do
    let blk = v_blocks.(i) in
    if not blk.Block.dead then live := blk :: !live
    else
      match blk.Block.group with
      | Some g when g.Block.g_target != blk -> g.Block.g_target.Block.sources_gone <- v_gen + 1
      | _ -> ()
  done;
  let fresh = Array.of_list !live in
  ctx.Context.view <- { Context.v_blocks = fresh; v_n = Array.length fresh; v_gen = v_gen + 1 };
  Mutex.unlock ctx.lock

let run_pass (ctx : Context.t) ?(occupancy_threshold = 0.3) ?(max_wait_spins = 50_000_000) () =
  let rt = ctx.rt in
  let em = rt.Runtime.epoch in
  if Epoch.in_critical em then
    invalid_arg "Compaction.run: must not run inside a critical section";
  let tid = Runtime.tid rt in
  let candidates = select_candidates ctx occupancy_threshold in
  let n_candidates = List.length candidates in
  if n_candidates = 0 then { empty_report with candidates = 0 }
  else begin
    Runtime.fire_compaction_hook rt Runtime.Phase_selected;
    let group_size = max 1 (int_of_float (1.0 /. occupancy_threshold)) in
    let groups = form_groups ctx candidates group_size in
    if groups = [] then { empty_report with candidates = n_candidates }
    else begin
      Epoch.enter_critical em;
      Epoch.refresh_local em;
      let e0 = Epoch.local_epoch em in
      Atomic.set rt.Runtime.next_relocation_epoch (e0 + 2);
      List.iter (freeze_group ctx) groups;
      Runtime.fire_compaction_hook rt Runtime.Phase_frozen;
      let abort () =
        Atomic.set rt.Runtime.in_moving_phase false;
        Atomic.set rt.Runtime.next_relocation_epoch (-1);
        List.iter (skip_group ctx) groups;
        Epoch.exit_critical em;
        prune_dead ctx;
        {
          empty_report with
          candidates = n_candidates;
          groups_formed = List.length groups;
          groups_skipped = List.length groups;
          aborted = true;
        }
      in
      (* Step into the freezing epoch e0+1, then the relocation epoch e0+2,
         waiting for all in-critical threads at each boundary. Our own local
         epoch trails by one so no other thread can advance past us. *)
      Runtime.fire_compaction_hook rt Runtime.Phase_waiting;
      if
        not
          (Epoch.wait_all_reached em ~except:tid ~epoch:e0 ~max_spins:max_wait_spins ()
          && Epoch.advance_until em ~target:(e0 + 1) ~max_spins:max_wait_spins)
      then abort ()
      else begin
        Epoch.refresh_local em;
        if
          not
            (Epoch.wait_all_reached em ~except:tid ~epoch:(e0 + 1) ~max_spins:max_wait_spins ()
            && Epoch.advance_until em ~target:(e0 + 2) ~max_spins:max_wait_spins
            && Epoch.wait_all_reached em ~except:tid ~epoch:(e0 + 2) ~max_spins:max_wait_spins ())
        then abort ()
        else begin
          (* Moving phase. Walks and views opened meanwhile are safe: the
             sweep carries over every limbo row an open frontier can see. *)
          Atomic.set rt.Runtime.in_moving_phase true;
          Runtime.fire_compaction_hook rt Runtime.Phase_moving;
          let moved = ref 0 and skipped = ref 0 and retired = ref 0 in
          let completed = ref [] in
          List.iter
            (fun g ->
              (* Drain the group's pre-relocation readers, then transition
                 it to its moving state. *)
              let rec drain spins =
                if Atomic.get g.Block.g_queries = 0 then
                  Atomic.compare_and_set g.Block.g_state Block.group_pending
                    Block.group_moving
                  || Atomic.get g.Block.g_state = Block.group_moving
                else if spins >= max_wait_spins then false
                else begin
                  Domain.cpu_relax ();
                  drain (spins + 1)
                end
              in
              if drain 0 then begin
                moved := !moved + sweep_group ctx g;
                complete_group ctx g ~tid;
                completed := g :: !completed
              end
              else begin
                skip_group ctx g;
                incr skipped
              end)
            groups;
          Atomic.set rt.Runtime.in_moving_phase false;
          Atomic.set rt.Runtime.next_relocation_epoch (-1);
          Epoch.refresh_local em;
          Epoch.exit_critical em;
          ignore (Epoch.try_advance em : bool);
          Runtime.fire_compaction_hook rt Runtime.Phase_completed;
          (* Pointer fixup and tombstone retirement (§6). *)
          let fixed =
            if ctx.direct_referrers = [] then 0
            else begin
              let compacted = Hashtbl.create 64 in
              List.iter
                (fun (g : Block.group) ->
                  Array.iter
                    (fun (src : Block.t) -> Hashtbl.replace compacted src.Block.id ())
                    g.Block.sources)
                !completed;
              fixup_direct_pointers ctx compacted
            end
          in
          (* §6: tombstoned slots are not reclaimed while direct pointers to
             them may exist. With all registered referrers fixed up (or in
             indirect mode, where no stored direct pointers exist) the source
             blocks can be retired; a direct-mode context with no registered
             referrers keeps its tombstone blocks resolvable. *)
          let can_retire =
            ctx.Context.mode = Context.Indirect || ctx.Context.direct_referrers <> []
          in
          (* Completed sources keep [reloc] and [group]: an enumeration
             whose view still holds one finds its rows through them. *)
          if can_retire then
            List.iter
              (fun (g : Block.group) ->
                Array.iter
                  (fun (src : Block.t) ->
                    Registry.retire rt.Runtime.registry src.Block.id;
                    incr retired)
                  g.Block.sources)
              !completed;
          prune_dead ctx;
          {
            candidates = n_candidates;
            groups_formed = List.length groups;
            objects_moved = !moved;
            groups_skipped = !skipped;
            blocks_retired = !retired;
            fixed_pointers = fixed;
            aborted = false;
          }
        end
      end
    end
  end

let run (ctx : Context.t) ?occupancy_threshold ?max_wait_spins () =
  let report = run_pass ctx ?occupancy_threshold ?max_wait_spins () in
  let obs = ctx.Context.rt.Runtime.obs in
  if report.groups_formed > 0 then Smc_obs.incr obs Smc_obs.c_compaction_passes;
  if report.aborted then Smc_obs.incr obs Smc_obs.c_compaction_aborts;
  Smc_obs.add obs Smc_obs.c_groups_formed report.groups_formed;
  Smc_obs.add obs Smc_obs.c_groups_skipped report.groups_skipped;
  Smc_obs.add obs Smc_obs.c_objects_moved report.objects_moved;
  Smc_obs.add obs Smc_obs.c_blocks_retired report.blocks_retired;
  report

let run_if_requested (ctx : Context.t) =
  if Atomic.compare_and_set ctx.Context.compaction_requested true false then
    Some (run ctx ())
  else None

(* The paper's compaction thread: sleeps until awoken by a compaction
   request (here: polled), runs the pass, goes back to sleep. *)
let daemon ~poll_contexts ~stop ?(interval_s = 0.01) () =
  Domain.spawn (fun () ->
      let passes = ref 0 in
      while not (Atomic.get stop) do
        List.iter
          (fun ctx ->
            match run_if_requested ctx with
            | Some report -> if not report.aborted then incr passes
            | None -> ())
          (poll_contexts ());
        Unix.sleepf interval_s
      done;
      !passes)
