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

(* The shared worker skeleton: every worker runs [work] on the same walk
   and returns its private result; the results come back in worker
   order. *)
let run_workers ?pool ?(domains = 0) (ctx : Context.t) work =
  let w = Context.walk_start ctx in
  let obs = ctx.Context.rt.Runtime.obs in
  Smc_obs.incr obs Smc_obs.c_par_scans;
  let run_worker () =
    Smc_obs.incr obs Smc_obs.c_par_workers;
    work w
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let workers = if domains <= 0 then Pool.size pool + 1 else Pool.effective_workers pool ~requested:domains in
  if workers <= 1 || ctx.Context.view.Context.v_n <= 1 then
    (* Sequential fast path: no pool round-trip. *)
    [ run_worker () ]
  else begin
    let results = Array.make workers None in
    Pool.run pool ~workers (fun i -> results.(i) <- Some (run_worker ()));
    List.filter_map Fun.id (Array.to_list results)
  end

let drive ?pool ?domains ctx ~init ~scan ~combine =
  match
    run_workers ?pool ?domains ctx (fun w ->
        let acc = init () in
        Context.walk w Context.Per_element ~scan:(scan acc);
        acc)
  with
  | [] -> init ()
  | a :: rest -> List.fold_left combine a rest

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

(* Batched parallel enumeration, driven by the workers: each runs
   [work share] once, and [share ~chunk ~on_batch] fills the worker's own
   chunk with [Context.fill_block] over the positions it draws. A chunk's
   stamp is its view position in the high bits and its index among the
   position's chunks in the low 32, so stamps follow the sequential walk's
   order. *)
let batch_workers ?pool ?domains ?csn ctx work =
  run_workers ?pool ?domains ctx (fun w ->
      work (fun ~chunk ~on_batch ->
          let pos = ref (-1) and k = ref 0 in
          Context.walk_at w Context.Per_element ~scan:(fun i blk lo hi ->
              if i <> !pos then begin
                pos := i;
                k := 0
              end;
              Context.fill_block ?csn ctx blk ~lo ~hi chunk ~on_batch:(fun blk n ->
                  let stamp = (i lsl 32) lor !k in
                  incr k;
                  on_batch stamp blk n))))
