(* Whole-runtime invariant sweeps.

   An audit walks every registered block and every passed context at a
   quiescent point — no other domain mutating, the caller outside any
   critical section — and checks that the independently-maintained pieces of
   runtime state still agree: slot directories against valid/limbo counters,
   back-pointers against indirection entries, free stores against reachable
   entries, limbo stamps and reclamation-queue ready-epochs against what the
   epoch manager permits, quarantine accounting against the directory, and
   (statefully, across audits) monotonicity of every incarnation word.

   Checks accumulate violations as strings rather than failing fast, so one
   broken invariant reports all of its consequences in a single sweep. *)

open Smc_offheap

type violation = string

exception Audit_failure of violation list

let vf out fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt

(* ------------------------------------------------------------------ *)
(* Per-block structural checks (live blocks of a known context)        *)
(* ------------------------------------------------------------------ *)

let check_block ~out ~(ctx : Context.t) (blk : Block.t) =
  let rt = ctx.Context.rt in
  let ind = rt.Runtime.ind in
  let global = Epoch.global rt.Runtime.epoch in
  let limit = Context.effective_quarantine_limit ctx in
  let direct = ctx.Context.mode = Context.Direct in
  let id = blk.Block.id in
  let valid = ref 0 and limbo = ref 0 in
  for slot = 0 to blk.Block.nslots - 1 do
    let e = Block.dir_entry blk slot in
    let state = Constants.dir_state e in
    let bp = Bigarray.Array1.get blk.Block.backptr slot in
    let check_backptr () =
      if bp < 0 then
        vf out "block %d slot %d: occupied slot with null back-pointer" id slot
      else begin
        let p = Indirection.ptr ind bp in
        if Constants.ptr_block p <> id || Constants.ptr_slot p <> slot then
          vf out "block %d slot %d: indirection entry %d points at block %d slot %d"
            id slot bp (Constants.ptr_block p) (Constants.ptr_slot p)
      end
    in
    if state = Constants.state_valid then begin
      incr valid;
      check_backptr ();
      if bp >= 0 then begin
        let w = Indirection.inc_word ind bp in
        if w land Constants.flags_mask <> 0 then
          vf out "block %d slot %d: entry %d carries protocol flags %#x at a quiescent point"
            id slot bp (w land Constants.flags_mask);
        if w land Constants.inc_mask >= rt.Runtime.inc_quarantine_limit then
          vf out "block %d slot %d: live entry incarnation %d at/over quarantine limit %d"
            id slot (w land Constants.inc_mask) rt.Runtime.inc_quarantine_limit
      end;
      if direct then begin
        let sw = Bigarray.Array1.get blk.Block.slot_inc slot in
        if sw land Constants.flags_mask <> 0 then
          vf out "block %d slot %d: slot incarnation carries protocol flags %#x on a valid slot"
            id slot (sw land Constants.flags_mask);
        if sw land Constants.inc_mask >= limit then
          vf out "block %d slot %d: direct slot incarnation %d at/over effective limit %d \
                  (stored direct references would alias)"
            id slot (sw land Constants.inc_mask) limit
      end
    end
    else if state = Constants.state_limbo then begin
      incr limbo;
      (* A copy a transactional store superseded names the live row's
         entry, which points at the live copy. *)
      if Context.live_entry bp = bp then check_backptr ();
      let stamp = Constants.dir_stamp e in
      if stamp > global then
        vf out "block %d slot %d: limbo removal stamp %d is ahead of global epoch %d"
          id slot stamp global
    end
    else if state = Constants.state_quarantined then begin
      if bp < 0 then
        vf out "block %d slot %d: quarantined slot lost its indirection entry" id slot
    end
    else if bp >= 0 then
      vf out "block %d slot %d: free slot still holds indirection entry %d" id slot bp
  done;
  let vc = Atomic.get blk.Block.valid_count in
  let lc = Atomic.get blk.Block.limbo_count in
  if vc <> !valid then
    vf out "block %d: valid_count %d but the directory has %d valid slots" id vc !valid;
  if lc <> !limbo then
    vf out "block %d: limbo_count %d but the directory has %d limbo slots" id lc !limbo

(* ------------------------------------------------------------------ *)
(* Per-context inventory: view, reclamation queue, local blocks        *)
(* ------------------------------------------------------------------ *)

let check_context ~out (ctx : Context.t) =
  let rt = ctx.Context.rt in
  let global = Epoch.global rt.Runtime.epoch in
  Mutex.lock ctx.Context.lock;
  let queue = Context.reclaim_queue_blocks ctx in
  let view = ctx.Context.view in
  Mutex.unlock ctx.Context.lock;
  List.iter
    (fun (b : Block.t) ->
      if not b.Block.queued then
        vf out "block %d: sits in the reclamation queue but is not flagged queued" b.Block.id;
      if b.Block.queued_ready > global + 2 then
        vf out "block %d: queued_ready %d exceeds global epoch + grace period (%d)"
          b.Block.id b.Block.queued_ready (global + 2);
      (* A queued block must be reclaimable as-is: not killed by compaction
         (a dead head would stall every ready block behind it), not owned by
         an allocating thread, not reserved into a compaction group. *)
      if b.Block.dead then
        vf out "block %d: dead block sitting in the reclamation queue" b.Block.id;
      if b.Block.owner_tid >= 0 then
        vf out "block %d: queued for reclamation while owned by thread slot %d"
          b.Block.id b.Block.owner_tid;
      if b.Block.group <> None then
        vf out "block %d: queued for reclamation while in a compaction group" b.Block.id)
    queue;
  let seen = Hashtbl.create 64 in
  for i = 0 to view.Context.v_n - 1 do
    let b = view.Context.v_blocks.(i) in
    if Hashtbl.mem seen b.Block.id then
      vf out "block %d appears twice in the context view" b.Block.id;
    Hashtbl.replace seen b.Block.id ();
    if not b.Block.dead then begin
      (match Registry.get rt.Runtime.registry b.Block.id with
      | b' -> if b' != b then vf out "block %d: view holds a block the registry does not" b.Block.id
      | exception Invalid_argument _ ->
        vf out "block %d: live block in view but retired from the registry" b.Block.id);
      if b.Block.group <> None then
        vf out "block %d: compaction group still attached at a quiescent point" b.Block.id;
      if b.Block.queued && not (List.memq b queue) then
        vf out "block %d: flagged queued but missing from the reclamation queue" b.Block.id;
      check_block ~out ~ctx b
    end
  done;
  Array.iteri
    (fun i ob ->
      match ob with
      | None -> ()
      | Some (b : Block.t) ->
        if b.Block.owner_tid <> i then
          vf out "block %d: local block of thread slot %d has owner_tid %d" b.Block.id i
            b.Block.owner_tid;
        if b.Block.dead then vf out "block %d: dead block held as a local block" b.Block.id;
        if not (Hashtbl.mem seen b.Block.id) then
          vf out "block %d: local block of thread slot %d is not in the context view" b.Block.id i)
    ctx.Context.local_block;
  seen

(* ------------------------------------------------------------------ *)
(* Runtime-level checks: registry sweep, free stores, epoch manager    *)
(* ------------------------------------------------------------------ *)

let check_runtime_level ~out (rt : Runtime.t) ~views =
  let ind = rt.Runtime.ind in
  (* Free stores: no duplicates, and no free entry reachable from a slot. *)
  let free = Hashtbl.create 1024 in
  Indirection.iter_free ind ~f:(fun e ->
      if Hashtbl.mem free e then
        vf out "indirection entry %d appears twice in the free stores (double free)" e;
      Hashtbl.replace free e ());
  (* Back-pointer injectivity over live blocks: one entry backs one slot. *)
  let used = Hashtbl.create 4096 in
  let quarantined = ref 0 in
  let live_unseen = ref [] in
  Registry.iter_registered rt.Runtime.registry ~f:(fun (blk : Block.t) ->
      if (not blk.Block.dead) && not (List.exists (fun s -> Hashtbl.mem s blk.Block.id) views)
      then live_unseen := blk.Block.id :: !live_unseen;
      for slot = 0 to blk.Block.nslots - 1 do
        let st = Block.slot_state blk slot in
        if st = Constants.state_quarantined then incr quarantined;
        if (not blk.Block.dead) && st <> Constants.state_free then begin
          let bp = Bigarray.Array1.get blk.Block.backptr slot in
          if bp >= 0 then begin
            if bp >= Indirection.capacity ind then
              vf out "block %d slot %d: back-pointer %d beyond table capacity %d" blk.Block.id
                slot bp (Indirection.capacity ind)
            else begin
              (match Hashtbl.find_opt used bp with
              | Some (ob, os) ->
                vf out "indirection entry %d backs both block %d slot %d and block %d slot %d"
                  bp ob os blk.Block.id slot
              | None -> Hashtbl.replace used bp (blk.Block.id, slot));
              if Hashtbl.mem free bp then
                vf out "indirection entry %d is in a free store but block %d slot %d still \
                        points at it"
                  bp blk.Block.id slot
            end
          end
        end
      done);
  if !live_unseen <> [] then
    List.iter
      (fun id -> vf out "block %d: live and registered but in no audited context view (leak?)" id)
      !live_unseen;
  let cap = Indirection.capacity ind in
  let used_n = Hashtbl.length used and free_n = Hashtbl.length free in
  if used_n + free_n > cap then
    vf out "indirection accounting: %d entries in use + %d free exceeds the %d ever allocated"
      used_n free_n cap;
  (* The quarantine counter counts every quarantine ever; blocks retired by
     compaction may carry some away, so registered blocks bound it below. *)
  let q = Atomic.get rt.Runtime.quarantined_slots in
  if !quarantined > q then
    vf out "quarantine accounting: %d quarantined slots in registered blocks but the counter \
            says %d"
      !quarantined q;
  (* Compaction-phase flags must be at rest. *)
  if Atomic.get rt.Runtime.in_moving_phase then
    vf out "in_moving_phase still set at a quiescent point";
  if Atomic.get rt.Runtime.next_relocation_epoch <> -1 then
    vf out "next_relocation_epoch %d still published at a quiescent point"
      (Atomic.get rt.Runtime.next_relocation_epoch);
  (* Epoch manager: local epochs never ahead of global; nobody in a critical
     section while we sweep (the audit contract). *)
  let em = rt.Runtime.epoch in
  let global = Epoch.global em in
  for i = 0 to Epoch.registered_threads em - 1 do
    let local, in_crit = Epoch.slot_snapshot em i in
    if local > global then
      vf out "thread slot %d: local epoch %d is ahead of global epoch %d" i local global;
    if in_crit then
      vf out "thread slot %d: still inside a critical section during an audit sweep" i
  done

(* ------------------------------------------------------------------ *)
(* Stateful tracker: monotonicity across successive audits             *)
(* ------------------------------------------------------------------ *)

type t = {
  rt : Runtime.t;
  mutable last_global : int;
  mutable last_quarantined : int;
  mutable last_capacity : int;
  entry_incs : (int, int) Hashtbl.t;  (* entry index -> last flag-stripped word *)
  slot_incs : (int, int) Hashtbl.t;  (* packed (block, slot) -> last word *)
}

let create rt =
  {
    rt;
    last_global = Epoch.global rt.Runtime.epoch;
    last_quarantined = Atomic.get rt.Runtime.quarantined_slots;
    last_capacity = Indirection.capacity rt.Runtime.ind;
    entry_incs = Hashtbl.create 4096;
    slot_incs = Hashtbl.create 4096;
  }

let observe_monotone ~out t =
  let rt = t.rt in
  let global = Epoch.global rt.Runtime.epoch in
  if global < t.last_global then
    vf out "global epoch went backwards: %d -> %d" t.last_global global;
  t.last_global <- global;
  let q = Atomic.get rt.Runtime.quarantined_slots in
  if q < t.last_quarantined then
    vf out "quarantined-slot counter went backwards: %d -> %d" t.last_quarantined q;
  t.last_quarantined <- q;
  let cap = Indirection.capacity rt.Runtime.ind in
  if cap < t.last_capacity then
    vf out "indirection capacity shrank: %d -> %d" t.last_capacity cap;
  t.last_capacity <- cap;
  for e = 0 to cap - 1 do
    let w = Indirection.inc_word rt.Runtime.ind e land lnot Constants.flags_mask in
    (match Hashtbl.find_opt t.entry_incs e with
    | Some prev when w < prev ->
      vf out "indirection entry %d: incarnation went backwards: %d -> %d" e prev w
    | _ -> ());
    Hashtbl.replace t.entry_incs e w
  done;
  (* Block ids are never reused, so (block, slot) is a stable key even as
     blocks die and are replaced by compaction. *)
  Registry.iter_registered rt.Runtime.registry ~f:(fun (blk : Block.t) ->
      for slot = 0 to blk.Block.nslots - 1 do
        let sw = Bigarray.Array1.get blk.Block.slot_inc slot land lnot Constants.flags_mask in
        let key = Constants.pack_ptr ~block:blk.Block.id ~slot in
        (match Hashtbl.find_opt t.slot_incs key with
        | Some prev when sw < prev ->
          vf out "block %d slot %d: slot incarnation went backwards: %d -> %d" blk.Block.id
            slot prev sw
        | _ -> ());
        Hashtbl.replace t.slot_incs key sw
      done)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_runtime t ~contexts =
  let out = ref [] in
  let views = List.map (fun ctx -> check_context ~out ctx) contexts in
  check_runtime_level ~out t.rt ~views;
  observe_monotone ~out t;
  List.rev !out

let check_exn t ~contexts =
  match check_runtime t ~contexts with
  | [] -> ()
  | violations -> raise (Audit_failure violations)

let check_once rt ~contexts = check_runtime (create rt) ~contexts

let report violations =
  String.concat "\n" (List.map (fun v -> "  - " ^ v) violations)

let () =
  Printexc.register_printer (function
    | Audit_failure vs ->
      Some (Printf.sprintf "Audit_failure (%d violations):\n%s" (List.length vs) (report vs))
    | _ -> None)
