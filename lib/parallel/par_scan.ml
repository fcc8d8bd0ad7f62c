(* Parallel block enumeration (§5.2 of the paper).

   One enumeration takes a single snapshot of the context's published block
   view and partitions it across workers through an atomic index dispenser
   — dynamic (work-stealing-ish) assignment, so a worker that drew dense
   blocks does not stall the others. Every view element is processed inside
   its own epoch critical section (the paper's per-block critical-section
   granularity from §4: grace periods stay short, so the memory manager can
   advance epochs and reclaim concurrently with a long parallel scan), and
   compaction groups are claimed through a shared [Context.claims] ticket:
   exactly one worker scans a group, as a whole, pre- or post-relocation.

   Results combine per-worker: each worker folds into a private accumulator
   made by [init ()], and the caller combines them once every worker is
   done — no cross-domain sharing on the hot path. *)

open Smc_offheap

let with_block_critical epoch body =
  Epoch.enter_critical epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit_critical epoch) body

(* The shared worker skeleton: pull view indices from [next] until the
   snapshot is exhausted, processing each element under the claim protocol
   in its own critical section. [scan] receives whole blocks. *)
let drive ?pool ?(domains = 0) (ctx : Context.t) ~init ~scan ~combine =
  let { Context.v_blocks = blocks; v_n = n } = ctx.Context.view in
  let epoch = ctx.Context.rt.Runtime.epoch in
  let obs = ctx.Context.rt.Runtime.obs in
  Smc_obs.incr obs Smc_obs.c_par_scans;
  let claims = Context.no_claims () in
  let run_worker next acc =
    Smc_obs.incr obs Smc_obs.c_par_workers;
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let blk = blocks.(i) in
        (* Skip work that needs no critical section at all. *)
        (match blk.Block.group with
        | None when blk.Block.dead -> ()
        | _ ->
          with_block_critical epoch (fun () ->
              Context.scan_view_element ~claims blk ~scan:(fun b -> scan acc b)));
        go ()
      end
    in
    go ()
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let workers = if domains <= 0 then Pool.size pool + 1 else Pool.effective_workers pool ~requested:domains in
  if workers <= 1 || n <= 1 then begin
    (* Sequential fast path: no dispenser, no pool round-trip. *)
    let acc = init () in
    let next = Atomic.make 0 in
    run_worker next acc;
    acc
  end
  else begin
    let next = Atomic.make 0 in
    let results = Array.make workers None in
    Pool.run pool ~workers (fun w ->
        let acc = init () in
        run_worker next acc;
        results.(w) <- Some acc);
    let acc = ref None in
    Array.iter
      (function
        | None -> ()
        | Some r -> (
          match !acc with
          | None -> acc := Some r
          | Some a -> acc := Some (combine a r)))
      results;
    match !acc with Some a -> a | None -> init ()
  end

(* With [?csn], slots are filtered by snapshot visibility at that frontier
   instead of current directory state — the parallel read path of a
   [Collection.snapshot_view]. The view's owning domain holds the epoch
   pin for the scan's whole duration, so visible limbo rows cannot be
   recycled under any worker. *)
let scan_slots ?csn blk ~f =
  match csn with
  | None -> Context.scan_block blk ~f
  | Some csn -> Context.scan_block_at blk ~csn ~f

let fold_valid_par ?pool ?domains ?csn ctx ~init ~f ~combine =
  let r =
    drive ?pool ?domains ctx
      ~init:(fun () -> ref (init ()))
      ~scan:(fun r blk -> scan_slots ?csn blk ~f:(fun b slot -> r := f !r b slot))
      ~combine:(fun a b ->
        a := combine !a !b;
        a)
  in
  !r

let iter_valid_par ?pool ?domains ?csn ctx ~f =
  drive ?pool ?domains ctx
    ~init:(fun () -> ())
    ~scan:(fun () blk -> scan_slots ?csn blk ~f)
    ~combine:(fun () () -> ())

(* Block-hoisted parallel enumeration: [on_block] runs once per block in
   the owning worker and returns the per-slot body closed over the worker's
   private accumulator and the block's raw state — the parallel analogue of
   [Context.iter_valid_hoisted]. *)
let fold_hoisted_par ?pool ?domains ?csn ctx ~init ~on_block ~combine =
  drive ?pool ?domains ctx ~init
    ~scan:(fun acc blk ->
      let body = on_block acc blk in
      match csn with
      | None ->
        let dir = blk.Block.dir in
        let nslots = blk.Block.nslots in
        for slot = 0 to nslots - 1 do
          if Constants.dir_state (Bigarray.Array1.unsafe_get dir slot) = Constants.state_valid
          then body slot
        done
      | Some csn ->
        for slot = 0 to blk.Block.nslots - 1 do
          if Context.slot_visible_at blk slot ~csn then body slot
        done)
    ~combine

(* Batched parallel enumeration: each worker fills its own
   [Context.chunk] ([chunk acc]) with [Context.fill_block] over the view
   elements it draws — the parallel analogue of
   [Context.iter_valid_batches], with the per-element critical sections
   supplied by [drive]. *)
let fold_batches_par ?pool ?domains ?csn ctx ~init ~chunk ~on_batch ~combine =
  drive ?pool ?domains ctx ~init
    ~scan:(fun acc blk -> Context.fill_block ?csn ctx blk (chunk acc) ~on_batch:(on_batch acc))
    ~combine
