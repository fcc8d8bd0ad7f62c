(* Parallel block enumeration (§5.2 of the paper).

   One enumeration is one [Context.walk]: a single snapshot of the
   context's published block view, drawn position by position from an
   atomic dispenser — dynamic assignment, so a worker that drew dense
   blocks does not stall the others. Every position is processed inside
   its own epoch critical section (the paper's per-block critical-section
   granularity from §4: grace periods stay short, so the memory manager can
   advance epochs and reclaim concurrently with a long parallel scan). The
   walk itself keeps compaction consistent; see [Context.walk].

   Results combine per-worker: each worker folds into a private accumulator
   made by [init ()], and the caller combines them once every worker is
   done — no cross-domain sharing on the hot path. *)

open Smc_offheap

(* The shared worker skeleton: every worker runs the same walk; [scan acc]
   receives the slot ranges of the positions the worker draws. *)
let drive ?pool ?(domains = 0) (ctx : Context.t) ~init ~scan ~combine =
  let w = Context.walk_start ctx in
  let obs = ctx.Context.rt.Runtime.obs in
  Smc_obs.incr obs Smc_obs.c_par_scans;
  let run_worker acc =
    Smc_obs.incr obs Smc_obs.c_par_workers;
    Context.walk w Context.Per_element ~scan:(scan acc)
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let workers = if domains <= 0 then Pool.size pool + 1 else Pool.effective_workers pool ~requested:domains in
  if workers <= 1 || ctx.Context.view.Context.v_n <= 1 then begin
    (* Sequential fast path: no pool round-trip. *)
    let acc = init () in
    run_worker acc;
    acc
  end
  else begin
    let results = Array.make workers None in
    Pool.run pool ~workers (fun i ->
        let acc = init () in
        run_worker acc;
        results.(i) <- Some acc);
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
let fold_valid_par ?pool ?domains ?csn ctx ~init ~f ~combine =
  let r =
    drive ?pool ?domains ctx
      ~init:(fun () -> ref (init ()))
      ~scan:(fun r blk lo hi -> Context.scan_slots ?csn blk ~lo ~hi ~f:(fun b slot -> r := f !r b slot))
      ~combine:(fun a b ->
        a := combine !a !b;
        a)
  in
  !r

(* Block-hoisted parallel enumeration: [on_block] runs once per scanned
   range in the owning worker and returns the per-slot body closed over the
   worker's private accumulator and the block's raw state — the parallel
   analogue of [Context.iter_valid_hoisted]. *)
let fold_hoisted_par ?pool ?domains ?csn ctx ~init ~on_block ~combine =
  drive ?pool ?domains ctx ~init
    ~scan:(fun acc blk lo hi ->
      let body = on_block acc blk in
      match csn with
      | None ->
        let dir = blk.Block.dir in
        for slot = lo to hi - 1 do
          if Constants.dir_state (Bigarray.Array1.unsafe_get dir slot) = Constants.state_valid
          then body slot
        done
      | Some csn ->
        for slot = lo to hi - 1 do
          if Context.slot_visible_at blk slot ~csn then body slot
        done)
    ~combine

(* Batched parallel enumeration: each worker fills its own
   [Context.chunk] ([chunk acc]) with [Context.fill_block] over the ranges
   it draws — the parallel form of the sequential batch walk. *)
let fold_batches_par ?pool ?domains ?csn ctx ~init ~chunk ~on_batch ~combine =
  drive ?pool ?domains ctx ~init
    ~scan:(fun acc blk lo hi ->
      Context.fill_block ?csn ctx blk ~lo ~hi (chunk acc) ~on_batch:(on_batch acc))
    ~combine
