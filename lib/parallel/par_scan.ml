(* Parallel block enumeration (§5.2 of the paper).

   One enumeration is one [Context.walk]: one registered CSN frontier every
   worker reads at, and a single snapshot of the context's published block
   view, drawn position by position from an
   atomic dispenser — dynamic assignment, so a worker that drew dense
   blocks does not stall the others. The walk reads every position inside
   its own epoch critical section and keeps compaction consistent; see
   [Context.walk].

   Results combine per-worker: each worker folds into a private accumulator
   made by [init ()], and the caller combines them once every worker is
   done — no cross-domain sharing on the hot path. *)

open Smc_offheap

(* The shared worker skeleton: every worker runs [work] on the same walk
   and returns its private result; the results come back in worker
   order. *)
let run_workers ?pool ?(domains = 0) (w : Context.walk) work =
  let obs = w.Context.w_ctx.Context.rt.Runtime.obs in
  Smc_obs.incr obs Smc_obs.c_par_scans;
  let run_worker () =
    Smc_obs.incr obs Smc_obs.c_par_workers;
    work w
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let workers = if domains <= 0 then Pool.size pool + 1 else Pool.effective_workers pool ~requested:domains in
  if workers <= 1 || w.Context.w_view.Context.v_n <= 1 then
    (* Sequential fast path: no pool round-trip. *)
    [ run_worker () ]
  else begin
    let results = Array.make workers None in
    Pool.run pool ~workers (fun i -> results.(i) <- Some (run_worker ()));
    List.filter_map Fun.id (Array.to_list results)
  end

(* Block-hoisted parallel enumeration: [on_block] runs once per scanned
   range in the owning worker and returns the per-slot body closed over the
   worker's private accumulator and the block's raw state — the parallel
   analogue of [Context.iter]. *)
let fold_hoisted_par ?pool ?domains ctx ~init ~on_block ~combine =
  match
    Context.with_walk ctx (fun w ->
        run_workers ?pool ?domains w (fun w ->
            let acc = init () in
            Context.iter w ~on_block:(on_block acc);
            acc))
  with
  | [] -> init ()
  | a :: rest -> List.fold_left combine a rest

let fold_valid_par ?pool ?domains ctx ~init ~f ~combine =
  !(fold_hoisted_par ?pool ?domains ctx
      ~init:(fun () -> ref (init ()))
      ~on_block:(fun r blk slot -> r := f !r blk slot)
      ~combine:(fun a b ->
        a := combine !a !b;
        a))

(* Batched parallel enumeration, driven by the workers: each runs
   [work share] once, and [share ~chunk ~on_batch] fills the worker's own
   chunk with [Context.fill_block] over the positions it draws. A chunk's
   stamp is its view position in the high bits and its index among the
   position's chunks in the low 32, so stamps follow the sequential walk's
   order. *)
let batch_workers ?pool ?domains w work =
  run_workers ?pool ?domains w (fun w ->
      work (fun ~chunk ~on_batch ->
          let pos = ref (-1) and k = ref 0 in
          Context.walk_at w ~scan:(fun i blk lo hi ->
              if i <> !pos then begin
                pos := i;
                k := 0
              end;
              Context.fill_block w blk ~lo ~hi chunk ~on_batch:(fun blk n ->
                  let stamp = (i lsl 32) lor !k in
                  incr k;
                  on_batch stamp blk n))))
