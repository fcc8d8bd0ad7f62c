(* Model-based stress testing.

   The reference model is a plain OCaml-heap collection with the same bag
   semantics as an SMC collection: a table of live handles, each carrying
   the packed reference the manager handed out and the payload last written
   through it. A deterministic op-sequence runner (seeded Prng) applies
   random add / remove / update / lookup / stale-lookup / query / epoch
   advance / compact operations to the model and the real memory context in
   lock-step, diffing observable state after every operation and running a
   full invariant audit plus a whole-collection diff after every batch.

   Objects have two int fields: [key] (the model handle, never 0) and
   [payload]. Writers store payload before key, so a concurrent enumerator
   that observes a non-zero key is guaranteed a complete object — the
   tolerance the multi-domain stress reader relies on. *)

open Smc_offheap

type config = {
  placement : Block.placement;
  mode : Context.mode;
  slots_per_block : int;
  reclaim_threshold : float;
  quarantine_limit : int option;
}

let default_config =
  {
    placement = Block.Row;
    mode = Context.Indirect;
    slots_per_block = 256;
    reclaim_threshold = 0.2;
    quarantine_limit = None;
  }

let config_name c =
  Printf.sprintf "%s/%s"
    (match c.placement with Block.Row -> "row" | Block.Columnar -> "columnar")
    (match c.mode with Context.Indirect -> "indirect" | Context.Direct -> "direct")

type stats = {
  mutable adds : int;
  mutable removes : int;
  mutable updates : int;
  mutable lookups : int;
  mutable stale_lookups : int;
  mutable queries : int;
  mutable advances : int;
  mutable compactions : int;
  mutable compactions_aborted : int;
  mutable objects_moved : int;
  mutable failed_allocs : int;
}

type t = {
  rt : Runtime.t;
  ctx : Context.t;
  audit : Audit.t;
  prng : Smc_util.Prng.t;
  live : (int, int * int) Hashtbl.t;  (* handle -> (packed ref, payload) *)
  mutable handles : int array;  (* live handles, dense prefix *)
  mutable n_live : int;
  pos : (int, int) Hashtbl.t;  (* handle -> index into [handles] *)
  dead : (int * int) array;  (* ring of (handle, stale packed ref) *)
  mutable n_dead : int;  (* total ever pushed *)
  mutable next_handle : int;
  key_word : int;
  payload_word : int;
  stats : stats;
  mutable violations : string list;
  mutable n_violations : int;
}

let max_recorded_violations = 200

let viol t fmt =
  Printf.ksprintf
    (fun s ->
      t.n_violations <- t.n_violations + 1;
      if t.n_violations <= max_recorded_violations then t.violations <- s :: t.violations)
    fmt

let layout =
  Layout.create ~name:"stress_obj" [ ("key", Layout.Int); ("payload", Layout.Int) ]

let create ?(config = default_config) ~seed () =
  let rt = Runtime.create () in
  (match config.quarantine_limit with None -> () | Some q -> rt.Runtime.inc_quarantine_limit <- q);
  let ctx =
    Context.create rt ~layout ~placement:config.placement ~mode:config.mode
      ~slots_per_block:config.slots_per_block ~reclaim_threshold:config.reclaim_threshold ()
  in
  {
    rt;
    ctx;
    audit = Audit.create rt;
    prng = Smc_util.Prng.create ~seed ();
    live = Hashtbl.create 4096;
    handles = Array.make 1024 0;
    n_live = 0;
    pos = Hashtbl.create 4096;
    dead = Array.make 1024 (0, Constants.null_ref);
    n_dead = 0;
    next_handle = 1;
    key_word = (Layout.field layout "key").Layout.word;
    payload_word = (Layout.field layout "payload").Layout.word;
    stats =
      {
        adds = 0;
        removes = 0;
        updates = 0;
        lookups = 0;
        stale_lookups = 0;
        queries = 0;
        advances = 0;
        compactions = 0;
        compactions_aborted = 0;
        objects_moved = 0;
        failed_allocs = 0;
      };
    violations = [];
    n_violations = 0;
  }

(* ---- model bookkeeping ---- *)

let push_handle t h =
  if t.n_live = Array.length t.handles then begin
    let bigger = Array.make (2 * t.n_live) 0 in
    Array.blit t.handles 0 bigger 0 t.n_live;
    t.handles <- bigger
  end;
  t.handles.(t.n_live) <- h;
  Hashtbl.replace t.pos h t.n_live;
  t.n_live <- t.n_live + 1

let drop_handle t h =
  let i = Hashtbl.find t.pos h in
  let last = t.handles.(t.n_live - 1) in
  t.handles.(i) <- last;
  Hashtbl.replace t.pos last i;
  t.n_live <- t.n_live - 1;
  Hashtbl.remove t.pos h

let push_dead t h r =
  t.dead.(t.n_dead mod Array.length t.dead) <- (h, r);
  t.n_dead <- t.n_dead + 1

let pick_live t = t.handles.(Smc_util.Prng.int t.prng t.n_live)

(* ---- operations ---- *)

let in_critical t f = Epoch.critical t.rt.Runtime.epoch f

let write_payload t blk slot payload = Block.set_word blk ~slot ~word:t.payload_word payload

let write_key t blk slot key = Block.set_word blk ~slot ~word:t.key_word key

let op_add t =
  match Context.alloc t.ctx with
  | exception Chaos.Injected_failure _ -> t.stats.failed_allocs <- t.stats.failed_allocs + 1
  | r ->
    let h = t.next_handle in
    t.next_handle <- h + 1;
    let payload = 1 + Smc_util.Prng.int t.prng 1_000_000 in
    in_critical t (fun () ->
        match Context.resolve t.ctx r with
        | None -> viol t "handle %d: freshly allocated reference does not resolve" h
        | Some (blk, slot) ->
          write_payload t blk slot payload;
          write_key t blk slot h);
    Hashtbl.replace t.live h (r, payload);
    push_handle t h;
    t.stats.adds <- t.stats.adds + 1

let op_remove t =
  if t.n_live > 0 then begin
    let h = pick_live t in
    let r, _ = Hashtbl.find t.live h in
    if not (Context.free t.ctx r) then
      viol t "handle %d: free of a live reference reported already-dead" h;
    Hashtbl.remove t.live h;
    drop_handle t h;
    push_dead t h r;
    t.stats.removes <- t.stats.removes + 1
  end

let op_update t =
  if t.n_live > 0 then begin
    let h = pick_live t in
    let r, _ = Hashtbl.find t.live h in
    let payload = 1 + Smc_util.Prng.int t.prng 1_000_000 in
    in_critical t (fun () ->
        match Context.resolve t.ctx r with
        | None -> viol t "handle %d: live reference does not resolve for update" h
        | Some (blk, slot) -> write_payload t blk slot payload);
    Hashtbl.replace t.live h (r, payload);
    t.stats.updates <- t.stats.updates + 1
  end

let op_lookup t =
  if t.n_live > 0 then begin
    let h = pick_live t in
    let r, expected = Hashtbl.find t.live h in
    in_critical t (fun () ->
        match Context.resolve t.ctx r with
        | None -> viol t "handle %d: live reference does not resolve" h
        | Some (blk, slot) ->
          let k = Block.get_word blk ~slot ~word:t.key_word in
          let p = Block.get_word blk ~slot ~word:t.payload_word in
          if k <> h then viol t "handle %d: key field reads %d" h k;
          if p <> expected then viol t "handle %d: payload %d, model says %d" h p expected);
    t.stats.lookups <- t.stats.lookups + 1
  end

let op_stale_lookup t =
  let n = min t.n_dead (Array.length t.dead) in
  if n > 0 then begin
    let h, r = t.dead.(Smc_util.Prng.int t.prng n) in
    in_critical t (fun () ->
        match Context.resolve t.ctx r with
        | None -> ()
        | Some _ -> viol t "handle %d: removed reference still resolves" h);
    if Context.free t.ctx r then
      viol t "handle %d: double free of a removed reference succeeded" h;
    t.stats.stale_lookups <- t.stats.stale_lookups + 1
  end

(* Full-collection diff: enumerate the context and require the exact live
   multiset of the model — every slot maps to a live handle with matching
   payload, no handle seen twice, none missing. *)
let check_agreement t =
  let seen = Hashtbl.create (max 16 t.n_live) in
  in_critical t (fun () ->
      Context.with_walk t.ctx @@ fun w ->
      Context.iter w ~on_block:(fun blk slot ->
          let k = Block.get_word blk ~slot ~word:t.key_word in
          let p = Block.get_word blk ~slot ~word:t.payload_word in
          match Hashtbl.find_opt t.live k with
          | None -> viol t "enumeration yields key %d that the model does not contain" k
          | Some (_, expected) ->
            if p <> expected then
              viol t "enumeration: key %d has payload %d, model says %d" k p expected;
            if Hashtbl.mem seen k then viol t "enumeration yields key %d twice" k;
            Hashtbl.replace seen k ()));
  if Hashtbl.length seen <> t.n_live then
    Hashtbl.iter
      (fun h _ ->
        if not (Hashtbl.mem seen h) then viol t "live handle %d missing from enumeration" h)
      t.live;
  let vc = Context.valid_count t.ctx in
  if vc <> t.n_live then
    viol t "context valid_count %d but the model holds %d objects" vc t.n_live

let op_query t =
  check_agreement t;
  t.stats.queries <- t.stats.queries + 1

let op_advance t =
  ignore (Epoch.try_advance t.rt.Runtime.epoch : bool);
  t.stats.advances <- t.stats.advances + 1

let op_compact t =
  let threshold = if Smc_util.Prng.bool t.prng then 0.3 else 0.5 in
  (* Single-domain: phase waits succeed immediately, so a small spin budget
     suffices — and keeps chaos runs (starved epochs abort the pass) fast. *)
  let report = Compaction.run t.ctx ~occupancy_threshold:threshold ~max_wait_spins:10_000 () in
  t.stats.compactions <- t.stats.compactions + 1;
  t.stats.objects_moved <- t.stats.objects_moved + report.Compaction.objects_moved;
  if report.Compaction.aborted then
    t.stats.compactions_aborted <- t.stats.compactions_aborted + 1;
  (* Every live reference must survive a pass, wherever its object landed. *)
  Hashtbl.iter
    (fun h (r, expected) ->
      in_critical t (fun () ->
          match Context.resolve t.ctx r with
          | None -> viol t "handle %d: live reference lost by compaction" h
          | Some (blk, slot) ->
            let p = Block.get_word blk ~slot ~word:t.payload_word in
            if p <> expected then
              viol t "handle %d: payload %d after compaction, model says %d" h p expected))
    t.live

let apply_one t =
  let d = Smc_util.Prng.int t.prng 100 in
  if d < 30 then op_add t
  else if d < 52 then op_remove t
  else if d < 64 then op_update t
  else if d < 79 then op_lookup t
  else if d < 85 then op_stale_lookup t
  else if d < 93 then op_query t
  else if d < 98 then op_advance t
  else op_compact t

(* ---- batch runner ---- *)

let audit_now t =
  List.iter (fun v -> viol t "audit: %s" v) (Audit.check_runtime t.audit ~contexts:[ t.ctx ]);
  List.iter (fun v -> viol t "obs: %s" v) (Obs_check.check t.rt ~contexts:[ t.ctx ])

let run t ~ops ~batch_size =
  if batch_size <= 0 then invalid_arg "Model.run";
  let remaining = ref ops in
  while !remaining > 0 do
    let n = min batch_size !remaining in
    for _ = 1 to n do
      apply_one t
    done;
    remaining := !remaining - n;
    audit_now t;
    check_agreement t
  done

let violations t =
  let vs = List.rev t.violations in
  if t.n_violations > max_recorded_violations then
    vs @ [ Printf.sprintf "... and %d more violations" (t.n_violations - max_recorded_violations) ]
  else vs

let stats t = t.stats
let live_count t = t.n_live
let context t = t.ctx
let runtime t = t.rt
