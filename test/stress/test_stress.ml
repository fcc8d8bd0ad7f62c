(* Stress suite for the off-heap memory manager.

   Driven by two environment variables (see docs/testing.md):

   - SMC_STRESS_ITERS: operation budget; defaults to 3000 so the default
     `dune runtest` stays fast. `dune build @stress` runs the same binary
     with 60000 (the full-budget configuration).
   - SMC_STRESS_SEED: the Prng seed; every failure message echoes it, and
     re-exporting it reproduces the failing run exactly.

   Three groups:
   - model: seeded single-domain model-based runs over all four
     placement/mode configurations, plus quarantine-churn runs with a tiny
     incarnation limit; the model audits the whole runtime after every
     batch (Audit.check_runtime) and diffs the full collection against a
     plain OCaml-heap reference.
   - chaos: the same model runs with fault injection — flaky and fully
     stuck epoch advancement, failing allocations, and frees/lookups/epoch
     churn injected at compaction phase boundaries.
   - domains: 2 writers + 1 reader + 1 compactor racing on real
     Domain.spawn, in rounds; after every round (a quiescent point) the
     runtime is audited — structural sweep (Audit.check_runtime) plus the
     derived counter balances (Obs_check.check) — and the collection is
     diffed against the union of the writers' private models. A dedicated
     queue-race round hammers remote frees on tiny blocks so
     release_local/maybe_queue interleaves with acquire_block. *)

open Smc_offheap
open Smc_check

(* Every row visible at the current frontier, in one walk. *)
let iter_valid ctx ~f =
  Context.with_walk ctx (fun w -> Context.iter w ~on_block:f)

let iters =
  match Sys.getenv_opt "SMC_STRESS_ITERS" with
  | Some s -> ( try max 100 (int_of_string (String.trim s)) with _ -> 3000)
  | None -> 3000

let seed =
  match Sys.getenv_opt "SMC_STRESS_SEED" with
  | Some s -> ( try Int64.of_string (String.trim s) with _ -> 0xC0FFEEL)
  | None -> 0xC0FFEEL

let subseed k = Int64.add seed (Int64.of_int k)

let assert_clean what = function
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations (SMC_STRESS_SEED=%Ld to reproduce)\n%s" what
      (List.length vs) seed (Audit.report vs)

(* Quiescent-point check: structural audit plus the event-history counter
   balances. Only sound once every spawned domain has been joined. *)
let audit_quiescent what auditor rt ctx =
  assert_clean (what ^ " audit") (Audit.check_runtime auditor ~contexts:[ ctx ]);
  assert_clean (what ^ " obs") (Obs_check.check rt ~contexts:[ ctx ]);
  (* No walk or view is open at a quiescent point: a frontier left
     registered would stop recycling and compaction for good. *)
  Alcotest.(check int) (what ^ ": no frontier left open") (Context.csn_now ctx)
    (Context.oldest_frontier ctx)

(* ------------------------------------------------------------------ *)
(* Model-based single-domain runs                                      *)
(* ------------------------------------------------------------------ *)

let configs =
  [
    { Model.default_config with Model.placement = Block.Row; mode = Context.Indirect };
    { Model.default_config with Model.placement = Block.Row; mode = Context.Direct };
    { Model.default_config with Model.placement = Block.Columnar; mode = Context.Indirect };
    { Model.default_config with Model.placement = Block.Columnar; mode = Context.Direct };
  ]

let test_model config () =
  let m = Model.create ~config ~seed () in
  Model.run m ~ops:iters ~batch_size:500;
  assert_clean (Model.config_name config) (Model.violations m);
  let s = Model.stats m in
  Alcotest.(check bool) "compaction exercised" true (s.Model.compactions > 0);
  Alcotest.(check bool) "population survived" true (Model.live_count m > 0)

let test_quarantine_churn mode () =
  let config =
    {
      Model.default_config with
      Model.mode;
      slots_per_block = 32;
      reclaim_threshold = 0.3;
      quarantine_limit = Some 6;
    }
  in
  let m = Model.create ~config ~seed:(subseed 3) () in
  (* A floor on the budget: with limit 6 the churn needs a couple of
     thousand operations before any slot's incarnation overflows. *)
  Model.run m ~ops:(max 2_000 (min iters 20_000)) ~batch_size:250;
  assert_clean "quarantine churn" (Model.violations m);
  Alcotest.(check bool)
    "slots actually quarantined" true
    (Atomic.get (Model.runtime m).Runtime.quarantined_slots > 0)

(* ------------------------------------------------------------------ *)
(* Chaos runs                                                          *)
(* ------------------------------------------------------------------ *)

let test_flaky_epoch () =
  let m = Model.create ~seed:(subseed 11) () in
  let prng = Smc_util.Prng.create ~seed:(subseed 12) () in
  Chaos.with_flaky_epoch (Model.runtime m) ~prng ~fail_one_in:2 (fun () ->
      Model.run m ~ops:(max 1000 (iters / 2)) ~batch_size:250);
  assert_clean "flaky epoch" (Model.violations m)

let test_stuck_epoch () =
  let m = Model.create ~seed:(subseed 13) () in
  Chaos.with_stuck_epoch (Model.runtime m) (fun () ->
      Model.run m ~ops:(max 500 (iters / 4)) ~batch_size:250);
  assert_clean "stuck epoch" (Model.violations m);
  (* The gate is gone; reclamation and compaction must recover. *)
  Model.run m ~ops:(max 500 (iters / 4)) ~batch_size:250;
  assert_clean "recovery after stuck epoch" (Model.violations m)

let test_alloc_failures () =
  let m = Model.create ~seed:(subseed 17) () in
  let prng = Smc_util.Prng.create ~seed:(subseed 18) () in
  let (), injected =
    Chaos.with_alloc_failures (Model.runtime m) ~prng ~fail_one_in:8 (fun () ->
        Model.run m ~ops:(max 1000 (iters / 2)) ~batch_size:250)
  in
  assert_clean "alloc failures" (Model.violations m);
  Alcotest.(check bool) "failures were injected" true (injected > 0);
  Alcotest.(check int) "model saw every injection" injected (Model.stats m).Model.failed_allocs

let test_compaction_boundary_chaos mode () =
  let config = { Model.default_config with Model.mode; slots_per_block = 64 } in
  let m = Model.create ~config ~seed:(subseed 19) () in
  let rt = Model.runtime m in
  Chaos.with_compaction_hook rt
    ~hook:(fun phase ->
      match phase with
      | Runtime.Phase_frozen ->
        (* Free objects while they carry the frozen bit: exercises the
           mark-reloc-failed path and dead-slot re-checks in the sweep. *)
        Model.op_remove m;
        Model.op_remove m;
        Model.op_remove m
      | Runtime.Phase_waiting -> ignore (Epoch.try_advance rt.Runtime.epoch : bool)
      | Runtime.Phase_moving ->
        (* Resolve during the relocation sweep: exercises the helping and
           bail-out cases of §5.1. *)
        Model.op_lookup m;
        Model.op_lookup m
      | Runtime.Phase_selected | Runtime.Phase_completed -> ())
    (fun () ->
      let rounds = max 5 (iters / 500) in
      for _ = 1 to rounds do
        for _ = 1 to 150 do
          Model.apply_one m
        done;
        Model.op_compact m
      done);
  Model.audit_now m;
  Model.check_agreement m;
  assert_clean "compaction boundary chaos" (Model.violations m)

(* ------------------------------------------------------------------ *)
(* Multi-domain: 2 writers + 1 reader + 1 compactor                    *)
(* ------------------------------------------------------------------ *)

let layout =
  Layout.create ~name:"stress_mt" [ ("key", Layout.Int); ("payload", Layout.Int) ]

let key_word = (Layout.field layout "key").Layout.word
let payload_word = (Layout.field layout "payload").Layout.word

(* Payload is a pure function of the key (never 0), so the racing reader can
   validate any object it observes without sharing the writers' models. *)
let payload_of h = ((h * 0x9E3779B1) lxor (h lsr 13)) land 0x3FFF_FFFF lor 1

type wstate = {
  w_id : int;
  w_live : (int, int) Hashtbl.t;  (* handle -> packed ref *)
  mutable w_handles : int array;
  mutable w_n : int;
  w_pos : (int, int) Hashtbl.t;
  mutable w_next : int;
}

let new_wstate w_id =
  {
    w_id;
    w_live = Hashtbl.create 512;
    w_handles = Array.make 512 0;
    w_n = 0;
    w_pos = Hashtbl.create 512;
    w_next = 0;
  }

let w_push st h =
  if st.w_n = Array.length st.w_handles then begin
    let bigger = Array.make (2 * st.w_n) 0 in
    Array.blit st.w_handles 0 bigger 0 st.w_n;
    st.w_handles <- bigger
  end;
  st.w_handles.(st.w_n) <- h;
  Hashtbl.replace st.w_pos h st.w_n;
  st.w_n <- st.w_n + 1

let w_drop st h =
  let i = Hashtbl.find st.w_pos h in
  let last = st.w_handles.(st.w_n - 1) in
  st.w_handles.(i) <- last;
  Hashtbl.replace st.w_pos last i;
  st.w_n <- st.w_n - 1;
  Hashtbl.remove st.w_pos h

(* Writer handles interleave (writer 0 odd, writer 1 even+disjoint) so the
   two private models can be merged without collisions. *)
let writer_round (ctx : Context.t) st prng ops errs =
  let em = ctx.Context.rt.Runtime.epoch in
  for _ = 1 to ops do
    let d = Smc_util.Prng.int prng 100 in
    if d < 45 || st.w_n = 0 then begin
      let h = 1 + st.w_id + (2 * st.w_next) in
      st.w_next <- st.w_next + 1;
      let r = Context.alloc ctx in
      Epoch.enter_critical em;
      (match Context.resolve ctx r with
      | None -> errs := Printf.sprintf "writer %d: fresh ref does not resolve" st.w_id :: !errs
      | Some (blk, slot) ->
        Block.set_word blk ~slot ~word:payload_word (payload_of h);
        Block.set_word blk ~slot ~word:key_word h);
      Epoch.exit_critical em;
      Hashtbl.replace st.w_live h r;
      w_push st h
    end
    else if d < 80 then begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Hashtbl.find st.w_live h in
      if not (Context.free ctx r) then
        errs := Printf.sprintf "writer %d: free of live handle %d failed" st.w_id h :: !errs;
      Hashtbl.remove st.w_live h;
      w_drop st h
    end
    else begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Hashtbl.find st.w_live h in
      Epoch.enter_critical em;
      (match Context.resolve ctx r with
      | None ->
        errs := Printf.sprintf "writer %d: live handle %d does not resolve" st.w_id h :: !errs
      | Some (blk, slot) ->
        let k = Block.get_word blk ~slot ~word:key_word in
        let p = Block.get_word blk ~slot ~word:payload_word in
        if k <> h || p <> payload_of h then
          errs :=
            Printf.sprintf "writer %d: handle %d reads key %d payload %d" st.w_id h k p
            :: !errs);
      Epoch.exit_critical em
    end
  done

let reader_round (ctx : Context.t) sweeps errs =
  let em = ctx.Context.rt.Runtime.epoch in
  for _ = 1 to sweeps do
    Epoch.enter_critical em;
    iter_valid ctx ~f:(fun blk slot ->
        let k = Block.get_word blk ~slot ~word:key_word in
        let p = Block.get_word blk ~slot ~word:payload_word in
        (* k = 0 or p = 0: object caught between allocation and its field
           writes — bag semantics admits observing it. *)
        if k <> 0 && p <> 0 && p <> payload_of k then
          errs := Printf.sprintf "reader: key %d carries payload %d" k p :: !errs);
    Epoch.exit_critical em;
    Domain.cpu_relax ()
  done

(* Parallel reader: the same validation as [reader_round], but sweeping
   with the block-partitioned parallel scan — pool workers race the writers
   and the compactor, each block scanned in its own critical section, with
   per-worker error lists spliced on the caller. *)
let par_reader_round pool (ctx : Context.t) sweeps errs =
  for _ = 1 to sweeps do
    let local =
      Smc_parallel.Par_scan.fold_valid_par ~pool ~domains:3 ctx
        ~init:(fun () -> [])
        ~f:(fun acc blk slot ->
          let k = Block.get_word blk ~slot ~word:key_word in
          let p = Block.get_word blk ~slot ~word:payload_word in
          if k <> 0 && p <> 0 && p <> payload_of k then
            Printf.sprintf "par reader: key %d carries payload %d" k p :: acc
          else acc)
        ~combine:(fun a b -> List.rev_append b a)
    in
    errs := local @ !errs;
    Domain.cpu_relax ()
  done

let compactor_round (ctx : Context.t) passes =
  for _ = 1 to passes do
    ignore (Compaction.run ctx ~occupancy_threshold:0.45 ~max_wait_spins:5_000_000 () : Compaction.report)
  done

let check_merged ctx (writers : wstate array) errs =
  let em = ctx.Context.rt.Runtime.epoch in
  let expected = Hashtbl.create 1024 in
  Array.iter (fun st -> Hashtbl.iter (fun h _ -> Hashtbl.replace expected h ()) st.w_live) writers;
  let seen = Hashtbl.create 1024 in
  Epoch.enter_critical em;
  iter_valid ctx ~f:(fun blk slot ->
      let k = Block.get_word blk ~slot ~word:key_word in
      let p = Block.get_word blk ~slot ~word:payload_word in
      if not (Hashtbl.mem expected k) then
        errs := Printf.sprintf "checkpoint: unexpected key %d in collection" k :: !errs
      else if p <> payload_of k then
        errs := Printf.sprintf "checkpoint: key %d carries payload %d" k p :: !errs;
      if Hashtbl.mem seen k then
        errs := Printf.sprintf "checkpoint: key %d enumerated twice" k :: !errs;
      Hashtbl.replace seen k ());
  Epoch.exit_critical em;
  Hashtbl.iter
    (fun h () ->
      if not (Hashtbl.mem seen h) then
        errs := Printf.sprintf "checkpoint: live key %d missing from collection" h :: !errs)
    expected;
  let total = Hashtbl.length expected in
  if Context.valid_count ctx <> total then
    errs :=
      Printf.sprintf "checkpoint: valid_count %d but writers hold %d objects"
        (Context.valid_count ctx) total
      :: !errs

let test_multi_domain mode () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout ~mode ~slots_per_block:128 ~reclaim_threshold:0.25 ()
  in
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let rounds = 6 in
  let per_writer = max 200 (iters / 12) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng = Smc_util.Prng.create ~seed:(subseed ((1000 * round) + st.w_id)) () in
          Domain.spawn (fun () ->
              let local = ref [] in
              writer_round ctx st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let rd =
      Domain.spawn (fun () ->
          let local = ref [] in
          reader_round ctx (5 + (per_writer / 50)) local;
          Epoch.release_current_domain ();
          !local)
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round ctx 8;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    errs := Domain.join rd @ !errs;
    Domain.join cd;
    (* Quiescent checkpoint: every domain joined, nobody in a critical
       section — audit the whole runtime, then diff against the merged
       writer models. *)
    audit_quiescent (Printf.sprintf "multi-domain round %d" round) auditor rt ctx;
    check_merged ctx writers errs;
    assert_clean (Printf.sprintf "multi-domain checkpoint, round %d" round) !errs
  done

(* Like [test_multi_domain], but the sequential reader domain is replaced
   by parallel query sweeps running on the main domain over a reusable
   pool: 2 writer domains + compactor domain + 3-way parallel reads racing
   on the same context, audited and diffed at every quiescent point. *)
let test_multi_domain_parallel mode () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout ~mode ~slots_per_block:128 ~reclaim_threshold:0.25 ()
  in
  let auditor = Audit.create rt in
  let pool = Smc_parallel.Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let writers = [| new_wstate 0; new_wstate 1 |] in
      let rounds = 4 in
      let per_writer = max 200 (iters / 12) in
      let errs = ref [] in
      for round = 1 to rounds do
        let wd =
          Array.map
            (fun st ->
              let prng =
                Smc_util.Prng.create ~seed:(subseed ((1000 * round) + 500 + st.w_id)) ()
              in
              Domain.spawn (fun () ->
                  let local = ref [] in
                  writer_round ctx st prng per_writer local;
                  Epoch.release_current_domain ();
                  !local))
            writers
        in
        let cd =
          Domain.spawn (fun () ->
              compactor_round ctx 6;
              Epoch.release_current_domain ())
        in
        par_reader_round pool ctx (4 + (per_writer / 50)) errs;
        Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
        Domain.join cd;
        audit_quiescent (Printf.sprintf "parallel-reader round %d" round) auditor rt ctx;
        check_merged ctx writers errs;
        (* The parallel sweep at a quiescent point must agree exactly with
           the sequential checkpoint enumeration. *)
        let par_keys =
          Smc_parallel.Par_scan.fold_valid_par ~pool ~domains:3 ctx
            ~init:(fun () -> [])
            ~f:(fun acc blk slot -> Block.get_word blk ~slot ~word:key_word :: acc)
            ~combine:(fun a b -> List.rev_append b a)
        in
        let seq_keys = ref [] in
        Epoch.enter_critical rt.Runtime.epoch;
        iter_valid ctx ~f:(fun blk slot ->
            seq_keys := Block.get_word blk ~slot ~word:key_word :: !seq_keys);
        Epoch.exit_critical rt.Runtime.epoch;
        if List.sort compare par_keys <> List.sort compare !seq_keys then
          errs :=
            Printf.sprintf "round %d: parallel sweep (%d keys) disagrees with sequential (%d)"
              round (List.length par_keys) (List.length !seq_keys)
            :: !errs;
        assert_clean (Printf.sprintf "parallel-reader checkpoint, round %d" round) !errs
      done)

(* Queue race: tiny blocks and a high reclaim threshold make almost every
   remote free trip maybe_queue, while the writers' own allocations keep
   pulling blocks back out via acquire_block. Writers alloc and either free
   locally or hand the reference to a dedicated freer domain, so
   release_local on somebody else's block races the owner's
   release/acquire cycle — the interleaving behind the owner_tid/group
   TOCTOU fix. Every round ends at a quiescent point with the structural
   audit and the counter balances. *)
let test_queue_race mode () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout ~mode ~slots_per_block:8 ~reclaim_threshold:0.6 ()
  in
  let auditor = Audit.create rt in
  let q = Queue.create () in
  let qlock = Mutex.create () in
  let rounds = 4 in
  let per_writer = max 500 (iters / 8) in
  for round = 1 to rounds do
    let writers_done = Atomic.make 0 in
    let wd =
      List.init 2 (fun w ->
          Domain.spawn (fun () ->
              let prng =
                Smc_util.Prng.create ~seed:(subseed (7000 + (100 * round) + w)) ()
              in
              for _ = 1 to per_writer do
                let r = Context.alloc ctx in
                if Smc_util.Prng.int prng 100 < 70 then begin
                  Mutex.lock qlock;
                  Queue.push r q;
                  Mutex.unlock qlock
                end
                else ignore (Context.free ctx r : bool)
              done;
              Atomic.incr writers_done;
              Epoch.release_current_domain ()))
    in
    let fd =
      Domain.spawn (fun () ->
          let spins = ref 0 in
          let finished () = Atomic.get writers_done = 2 in
          let pop () =
            Mutex.lock qlock;
            let r = if Queue.is_empty q then None else Some (Queue.pop q) in
            Mutex.unlock qlock;
            r
          in
          let rec loop () =
            match pop () with
            | Some r ->
              if not (Context.free ctx r) then failwith "queue race: double free";
              incr spins;
              if !spins mod 64 = 0 then ignore (Epoch.try_advance rt.Runtime.epoch : bool);
              loop ()
            | None ->
              if finished () then ()
              else begin
                Domain.cpu_relax ();
                loop ()
              end
          in
          loop ();
          Epoch.release_current_domain ())
    in
    List.iter Domain.join wd;
    Domain.join fd;
    audit_quiescent (Printf.sprintf "queue-race round %d" round) auditor rt ctx
  done;
  (* The churn must actually have put blocks through the queue. *)
  let s = Smc_obs.snapshot rt.Runtime.obs in
  Alcotest.(check bool) "reclamation queue exercised" true
    (Smc_obs.get s Smc_obs.c_rq_pushes > 0);
  Alcotest.(check bool) "queued blocks were reused" true
    (Smc_obs.get s Smc_obs.c_rq_pops > 0)

(* ------------------------------------------------------------------ *)
(* Index churn: 2 writers churn keys through the Collection API (so the
   attached hash index sees every add and remove), a prober domain
   hammers the index concurrently, and a compactor relocates rows under
   everything. Every round ends at a quiescent point where the index
   audit runs on top of the structural audit and the counter balances,
   and the index is diffed against the merged writer models: every live
   key must probe, every removed key must miss. *)
(* ------------------------------------------------------------------ *)

module H = Smc_index.Hash_index

let ix_layout =
  Layout.create ~name:"stress_ix" [ ("key", Layout.Int); ("payload", Layout.Int) ]

(* Same handle discipline as [writer_round] (writer 0 odd, writer 1 even),
   but through the Collection API so the index hooks fire; packed refs fit
   the int-valued [wstate] table. The critical section spans resolve+init,
   same discipline as the Context-level writers above. *)
let ix_writer_round coll fkey fpay st prng ops errs =
  for _ = 1 to ops do
    let d = Smc_util.Prng.int prng 100 in
    if d < 55 || st.w_n = 0 then begin
      let h = 1 + st.w_id + (2 * st.w_next) in
      st.w_next <- st.w_next + 1;
      let r =
        Smc.Collection.with_read coll (fun () ->
            Smc.Collection.add coll ~init:(fun blk slot ->
                (* payload first: a racing prober that sees the key must
                   never see a half-initialised payload *)
                Smc.Field.set_int fpay blk slot (payload_of h);
                Smc.Field.set_int fkey blk slot h))
      in
      Hashtbl.replace st.w_live h (Smc.Ref.to_packed r);
      w_push st h
    end
    else begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      if not (Smc.Collection.remove coll r) then
        errs :=
          Printf.sprintf "index writer %d: remove of live handle %d failed" st.w_id h :: !errs;
      Hashtbl.remove st.w_live h;
      w_drop st h
    end
  done

(* Prober: random keys across the whole handle range, so probes hit live
   keys, removed keys, and never-allocated keys alike. Any emitted row
   must carry the probed key and its derived payload (p = 0 admits the
   window between bucket publication and field-write visibility). *)
let ix_prober_round ix fkey fpay ~seed:s ~sweeps ~key_bound errs =
  let prng = Smc_util.Prng.create ~seed:s () in
  for _ = 1 to sweeps do
    for _ = 1 to 200 do
      let k = 1 + Smc_util.Prng.int prng key_bound in
      H.probe ix (H.K_int k) ~f:(fun _r blk slot ->
          let k' = Smc.Field.get_int fkey blk slot in
          let p = Smc.Field.get_int fpay blk slot in
          if k' <> k then
            errs := Printf.sprintf "prober: probe of %d surfaced key %d" k k' :: !errs
          else if p <> 0 && p <> payload_of k then
            errs := Printf.sprintf "prober: key %d carries payload %d" k p :: !errs)
    done;
    Domain.cpu_relax ()
  done

let ix_check_merged coll ix (writers : wstate array) errs =
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun st -> Hashtbl.iter (fun h _ -> Hashtbl.replace expected h ()) st.w_live)
    writers;
  Hashtbl.iter
    (fun h () ->
      if not (H.contains ix (H.K_int h)) then
        errs := Printf.sprintf "index checkpoint: live key %d missing from index" h :: !errs)
    expected;
  Array.iter
    (fun st ->
      for i = 0 to st.w_next - 1 do
        let h = 1 + st.w_id + (2 * i) in
        if (not (Hashtbl.mem expected h)) && H.contains ix (H.K_int h) then
          errs := Printf.sprintf "index checkpoint: removed key %d still probes" h :: !errs
      done)
    writers;
  let total = Hashtbl.length expected in
  if Smc.Collection.count coll <> total then
    errs :=
      Printf.sprintf "index checkpoint: valid_count %d but writers hold %d objects"
        (Smc.Collection.count coll) total
      :: !errs

let test_index_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_ix" ~layout:ix_layout ~slots_per_block:128
      ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int ix_layout "key" and fpay = Smc.Field.int ix_layout "payload" in
  let ix = H.attach ~name:"stress_ix_by_key" ~key:(H.Int_key (Smc.Field.get_int fkey)) coll in
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let rounds = 5 in
  let per_writer = max 200 (iters / 12) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng = Smc_util.Prng.create ~seed:(subseed (9000 + (100 * round) + st.w_id)) () in
          Domain.spawn (fun () ->
              let local = ref [] in
              ix_writer_round coll fkey fpay st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let pd =
      Domain.spawn (fun () ->
          let local = ref [] in
          ix_prober_round ix fkey fpay
            ~seed:(subseed (9500 + round))
            ~sweeps:(5 + (per_writer / 50))
            ~key_bound:(2 * per_writer * round) local;
          Epoch.release_current_domain ();
          !local)
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    errs := Domain.join pd @ !errs;
    Domain.join cd;
    (* Quiescent checkpoint: structural audit, counter balances, index
       audit, then the model diff — both directions. *)
    audit_quiescent (Printf.sprintf "index-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    assert_clean (Printf.sprintf "index audit, round %d" round) (H.audit ix);
    ix_check_merged coll ix writers errs;
    assert_clean (Printf.sprintf "index-churn checkpoint, round %d" round) !errs;
    H.sweep ix;
    assert_clean
      (Printf.sprintf "index audit after sweep, round %d" round)
      (H.audit ix)
  done;
  let s = H.stats ix in
  Alcotest.(check bool) "index populated" true (s.H.occupied > 0)

(* ------------------------------------------------------------------ *)
(* Text-index churn: 2 writers churn rows through the Collection API
   (adds, removes, and whole-field text rewrites through the store hook),
   substring probers hammer the suffix array concurrently, and a
   compactor relocates rows under everything. Every round ends at a
   quiescent checkpoint where the text audit runs on top of the
   structural audit and the counter balances, and the index is diffed
   against the merged writer models: every live handle's current
   generation token must match, the flipped generation and every removed
   handle must miss. A maintenance pass (merge-rebuild on even rounds)
   then runs and the audit repeats. *)
(* ------------------------------------------------------------------ *)

module TX = Smc_text.Sa_index

let txt_layout =
  Layout.create ~name:"stress_txt" [ ("key", Layout.Int); ("txt", Layout.Str 28) ]

(* Generation tokens embed the handle digits at fixed positions, so even a
   probe racing a word-by-word rewrite (generation flip) can only surface
   rows of the probed handle: the two generations differ in the letter,
   never in the digits. *)
let txt_token gen h = Printf.sprintf "%c%09d" (if gen land 1 = 0 then 'a' else 'b') h
let txt_text gen h = txt_token gen h ^ " lorem"

let txt_store_text coll (f : Layout.field) r s =
  let words = Block.string_words f s in
  Array.iteri
    (fun i w -> Smc.Collection.store coll r ~word:(f.Layout.word + i) ~value:w)
    words

(* Same handle discipline as [ix_writer_round], plus a store arm: flipping
   a live row's text generation publishes [Store] ops to the index (old
   arena text must go stale, the new text must surface via the pending
   log). *)
let txt_writer_round coll fkey ftxt st gens prng ops errs =
  for _ = 1 to ops do
    let d = Smc_util.Prng.int prng 100 in
    if d < 50 || st.w_n = 0 then begin
      let h = 1 + st.w_id + (2 * st.w_next) in
      st.w_next <- st.w_next + 1;
      let r =
        Smc.Collection.with_read coll (fun () ->
            Smc.Collection.add coll ~init:(fun blk slot ->
                (* text first: a racing prober that sees the key must never
                   see a half-initialised text field *)
                Smc.Field.set_string ftxt blk slot (txt_text 0 h);
                Smc.Field.set_int fkey blk slot h))
      in
      Hashtbl.replace st.w_live h (Smc.Ref.to_packed r);
      Hashtbl.replace gens h 0;
      w_push st h
    end
    else if d < 75 then begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      let g = 1 - Hashtbl.find gens h in
      txt_store_text coll ftxt r (txt_text g h);
      Hashtbl.replace gens h g
    end
    else begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      if not (Smc.Collection.remove coll r) then
        errs :=
          Printf.sprintf "text writer %d: remove of live handle %d failed" st.w_id h :: !errs;
      Hashtbl.remove st.w_live h;
      w_drop st h
    end
  done

(* Prober: substring probes for either generation's token of random
   handles across the whole range, hitting live, flipped, removed, and
   never-allocated tokens alike. Every emission passed the index's live
   text re-check, the key field never changes after init, and the token
   digits pin the handle — so an emitted row must carry the probed
   handle. *)
let txt_prober_round ix fkey ~seed:s ~sweeps ~key_bound errs =
  let prng = Smc_util.Prng.create ~seed:s () in
  for _ = 1 to sweeps do
    for _ = 1 to 100 do
      let h = 1 + Smc_util.Prng.int prng key_bound in
      let gen = Smc_util.Prng.int prng 2 in
      TX.probe ix TX.Substring (txt_token gen h) ~f:(fun _r blk slot ->
          let k = Smc.Field.get_int fkey blk slot in
          if k <> h then
            errs := Printf.sprintf "text prober: token of %d surfaced key %d" h k :: !errs)
    done;
    Domain.cpu_relax ()
  done

let txt_check_merged coll ix (writers : wstate array) gens errs =
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun (st : wstate) ->
      Hashtbl.iter
        (fun h _ -> Hashtbl.replace expected h (Hashtbl.find gens.(st.w_id) h))
        st.w_live)
    writers;
  Hashtbl.iter
    (fun h g ->
      if not (TX.contains_match ix TX.Substring (txt_token g h)) then
        errs :=
          Printf.sprintf "text checkpoint: live handle %d (gen %d) missing from index" h g
          :: !errs;
      if TX.contains_match ix TX.Substring (txt_token (1 - g) h) then
        errs :=
          Printf.sprintf "text checkpoint: handle %d matches its flipped generation" h
          :: !errs)
    expected;
  Array.iter
    (fun st ->
      for i = 0 to st.w_next - 1 do
        let h = 1 + st.w_id + (2 * i) in
        if
          (not (Hashtbl.mem expected h))
          && (TX.contains_match ix TX.Substring (txt_token 0 h)
             || TX.contains_match ix TX.Substring (txt_token 1 h))
        then
          errs :=
            Printf.sprintf "text checkpoint: removed handle %d still matches" h :: !errs
      done)
    writers;
  let total = Hashtbl.length expected in
  if Smc.Collection.count coll <> total then
    errs :=
      Printf.sprintf "text checkpoint: valid_count %d but writers hold %d objects"
        (Smc.Collection.count coll) total
      :: !errs

let test_text_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_txt" ~layout:txt_layout ~slots_per_block:128
      ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int txt_layout "key" and ftxt = Smc.Field.str txt_layout "txt" in
  let ix = TX.attach ~name:"stress_txt_by_txt" ~column:"txt" coll in
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let gens = [| Hashtbl.create 512; Hashtbl.create 512 |] in
  let rounds = 5 in
  let per_writer = max 150 (iters / 16) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng =
            Smc_util.Prng.create ~seed:(subseed (11000 + (100 * round) + st.w_id)) ()
          in
          Domain.spawn (fun () ->
              let local = ref [] in
              txt_writer_round coll fkey ftxt st gens.(st.w_id) prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let pd =
      Domain.spawn (fun () ->
          let local = ref [] in
          txt_prober_round ix fkey
            ~seed:(subseed (11500 + round))
            ~sweeps:(5 + (per_writer / 50))
            ~key_bound:(2 * per_writer * round) local;
          Epoch.release_current_domain ();
          !local)
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    errs := Domain.join pd @ !errs;
    Domain.join cd;
    (* Quiescent checkpoint: structural audit, counter balances, text
       audit, then the model diff — both directions and both generations. *)
    audit_quiescent (Printf.sprintf "text-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    assert_clean (Printf.sprintf "text audit, round %d" round) (TX.audit ix);
    txt_check_merged coll ix writers gens errs;
    assert_clean (Printf.sprintf "text-churn checkpoint, round %d" round) !errs;
    if round mod 2 = 0 then TX.rebuild ix else TX.maintain ix;
    assert_clean
      (Printf.sprintf "text audit after maintenance, round %d" round)
      (TX.audit ix)
  done;
  let s = TX.stats ix in
  Alcotest.(check bool) "text index populated" true (s.TX.entries > 0)

(* ------------------------------------------------------------------ *)
(* Persistence under churn: 2 writers churn keys through the Collection
   API with a WAL attached and a compactor relocating rows underneath.
   Every round ends at a quiescent checkpoint where the previous round's
   snapshot is restored with the WAL tail replayed over it — the recovered
   image must pass the structural audit and the counter balances on its
   own fresh runtime, and must diff exactly against the merged writer
   models (the live state the log's history leads to). A new snapshot
   (recording the current cut) then covers the next round. *)
(* ------------------------------------------------------------------ *)

module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal

let persist_layout =
  Layout.create ~name:"stress_persist" [ ("key", Layout.Int); ("payload", Layout.Int) ]

let persist_check_restored (r : Snapshot.restored) (writers : wstate array) round errs =
  let coll = r.Snapshot.r_coll in
  let fkey = Smc.Field.int persist_layout "key" in
  let fpay = Smc.Field.int persist_layout "payload" in
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun st -> Hashtbl.iter (fun h _ -> Hashtbl.replace expected h ()) st.w_live)
    writers;
  let seen = Hashtbl.create 1024 in
  Smc.Collection.iter coll ~f:(fun blk slot ->
      let k = Smc.Field.get_int fkey blk slot in
      let p = Smc.Field.get_int fpay blk slot in
      if not (Hashtbl.mem expected k) then
        errs := Printf.sprintf "restored round %d: unexpected key %d" round k :: !errs
      else if p <> payload_of k then
        errs := Printf.sprintf "restored round %d: key %d carries payload %d" round k p :: !errs;
      if Hashtbl.mem seen k then
        errs := Printf.sprintf "restored round %d: key %d enumerated twice" round k :: !errs;
      Hashtbl.replace seen k ());
  Hashtbl.iter
    (fun h () ->
      if not (Hashtbl.mem seen h) then
        errs := Printf.sprintf "restored round %d: live key %d missing" round h :: !errs)
    expected;
  (* The recovered runtime is a fresh one: audit it end to end. *)
  errs :=
    Smc_check.Audit.check_once r.Snapshot.r_rt
      ~contexts:[ coll.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check r.Snapshot.r_rt ~contexts:[ coll.Smc.Collection.ctx ]
    @ !errs

let test_persist_under_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_persist" ~layout:persist_layout
      ~slots_per_block:128 ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int persist_layout "key" in
  let fpay = Smc.Field.int persist_layout "payload" in
  let dir = Filename.temp_file "smc_stress_persist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let snap_path round = Filename.concat dir (Printf.sprintf "round%d.smcsnap" round) in
  let wal_path = Filename.concat dir "churn.wal" in
  let wal = Wal.create ~path:wal_path ~name:"stress_persist" () in
  Wal.attach wal coll;
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let rounds = 4 in
  let per_writer = max 200 (iters / 12) in
  let errs = ref [] in
  (* Round 0 snapshot: empty image, so round 1's restore replays the whole
     first round from the log alone. *)
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:(snap_path 0) coll in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng =
            Smc_util.Prng.create ~seed:(subseed (11_000 + (100 * round) + st.w_id)) ()
          in
          Domain.spawn (fun () ->
              let local = ref [] in
              ix_writer_round coll fkey fpay st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    Domain.join cd;
    (* Quiescent checkpoint: audit the live runtime, then recover the
       previous snapshot + log tail and hold it to the same standard. *)
    audit_quiescent (Printf.sprintf "persist-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    Wal.flush wal;
    let r = Snapshot.restore ~wal:wal_path ~path:(snap_path (round - 1)) () in
    persist_check_restored r writers round errs;
    assert_clean (Printf.sprintf "persist-churn checkpoint, round %d" round) !errs;
    let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:(snap_path round) coll in
    Sys.remove (snap_path (round - 1))
  done;
  Wal.close wal;
  Sys.remove (snap_path rounds);
  Sys.remove wal_path;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let s = Smc_obs.snapshot rt.Runtime.obs in
  Alcotest.(check bool) "snapshots taken" true
    (Smc_obs.get s Smc_obs.c_persist_snapshots >= rounds);
  Alcotest.(check bool) "wal captured the churn" true
    (Smc_obs.get s Smc_obs.c_persist_wal_appends > 0)

(* ------------------------------------------------------------------ *)
(* Transactions under churn: 2 txn-writer domains each commit atomic
   *pairs* — two adds carrying payloads v and -v, two removes, or two
   copy-on-write stores rewriting both payloads — so at every commit
   boundary the collection-wide payload sum is 0 and every even key has
   its odd partner with the negated payload. A snapshot-view reader
   domain keeps asserting exactly that Q1-style invariant against open
   views while the writers commit and a compactor relocates rows
   underneath: any torn batch, drifting view, or loser write shows up as
   a non-zero sum or a widowed key. Every round ends at a quiescent
   checkpoint — structural audit, counter balances (including the
   transaction outcome and view balances), the CSN stamp sweep
   (Txn_check.check_quiescent) and a merged-model diff — and the run ends
   with a whole-log WAL recovery diffed against the same models. *)
(* ------------------------------------------------------------------ *)

let txn_layout =
  Layout.create ~name:"stress_txn" [ ("key", Layout.Int); ("payload", Layout.Int) ]

(* Pair [p] owns keys (2p, 2p+1); writer [w] owns pairs with p mod 2 = w,
   so the writers' staged references are disjoint and commits must never
   conflict. *)
type txn_wstate = {
  t_id : int;
  t_pairs : (int, int * Smc.Ref.t * Smc.Ref.t) Hashtbl.t;
      (* pair -> (v, even ref, odd ref) *)
  mutable t_live : int array;  (* live pair ids, dense prefix *)
  mutable t_n : int;
  t_pos : (int, int) Hashtbl.t;
  mutable t_next : int;
}

let new_txn_wstate id =
  {
    t_id = id;
    t_pairs = Hashtbl.create 256;
    t_live = Array.make 256 0;
    t_n = 0;
    t_pos = Hashtbl.create 256;
    t_next = 0;
  }

let t_push st p =
  if st.t_n = Array.length st.t_live then begin
    let next = Array.make (2 * st.t_n) 0 in
    Array.blit st.t_live 0 next 0 st.t_n;
    st.t_live <- next
  end;
  st.t_live.(st.t_n) <- p;
  Hashtbl.replace st.t_pos p st.t_n;
  st.t_n <- st.t_n + 1

let t_drop st p =
  let i = Hashtbl.find st.t_pos p in
  let last = st.t_live.(st.t_n - 1) in
  st.t_live.(i) <- last;
  Hashtbl.replace st.t_pos last i;
  Hashtbl.remove st.t_pos p;
  st.t_n <- st.t_n - 1

let pair_v p = 7 + (31 * p)

let txn_writer_round coll fkey fpay st prng txns errs =
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for _ = 1 to txns do
    let d = Smc_util.Prng.int prng 100 in
    if d < 45 || st.t_n = 0 then begin
      let p = st.t_id + (2 * st.t_next) in
      st.t_next <- st.t_next + 1;
      let v = pair_v p in
      let stage_one tx k pay =
        Smc.Collection.stage_add tx ~init:(fun blk slot ->
            Smc.Field.set_int fpay blk slot pay;
            Smc.Field.set_int fkey blk slot k)
      in
      match
        Smc.Collection.transact coll (fun tx ->
            stage_one tx (2 * p) v;
            stage_one tx ((2 * p) + 1) (-v))
      with
      | Smc.Collection.Committed [ re; ro ] ->
        Hashtbl.replace st.t_pairs p (v, re, ro);
        t_push st p
      | Smc.Collection.Committed refs ->
        fail "txn writer %d: pair add returned %d refs" st.t_id (List.length refs)
      | Smc.Collection.Conflict ->
        fail "txn writer %d: conflict on disjoint pair add" st.t_id
    end
    else begin
      let p = st.t_live.(Smc_util.Prng.int prng st.t_n) in
      let v, re, ro = Hashtbl.find st.t_pairs p in
      if d < 70 then begin
        match
          Smc.Collection.transact coll (fun tx ->
              Smc.Collection.stage_remove tx re;
              Smc.Collection.stage_remove tx ro)
        with
        | Smc.Collection.Committed [] ->
          Hashtbl.remove st.t_pairs p;
          t_drop st p
        | Smc.Collection.Committed _ -> fail "txn writer %d: removes returned refs" st.t_id
        | Smc.Collection.Conflict ->
          fail "txn writer %d: conflict on disjoint pair remove" st.t_id
      end
      else begin
        let v' = v + 1 + Smc_util.Prng.int prng 1000 in
        match
          Smc.Collection.transact coll (fun tx ->
              Smc.Collection.stage_store tx re ~word:fpay.Layout.word ~value:v';
              Smc.Collection.stage_store tx ro ~word:fpay.Layout.word ~value:(-v'))
        with
        | Smc.Collection.Committed [] -> Hashtbl.replace st.t_pairs p (v', re, ro)
        | Smc.Collection.Committed _ -> fail "txn writer %d: stores returned refs" st.t_id
        | Smc.Collection.Conflict ->
          fail "txn writer %d: conflict on disjoint pair update" st.t_id
      end
    end
  done

(* The snapshot reader: every sweep opens a view and checks the commit
   boundary it pinned — payload sum zero, no widowed keys, pairwise
   negation — then lets it go. Torn pair batches or payload drift under
   copy-on-write stores would break all three. *)
let txn_reader_round coll fkey fpay ~sweeps errs =
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for sweep = 1 to sweeps do
    Smc.Collection.with_view coll (fun v ->
        let sum = ref 0 and n = ref 0 in
        let keys = Hashtbl.create 512 in
        Smc.Collection.view_iter v ~f:(fun blk slot ->
            incr n;
            let k = Smc.Field.get_int fkey blk slot in
            let p = Smc.Field.get_int fpay blk slot in
            sum := !sum + p;
            if Hashtbl.mem keys k then fail "view sweep %d: key %d twice" sweep k;
            Hashtbl.replace keys k p);
        if !sum <> 0 then
          fail "view sweep %d: payload sum %d over %d rows (commit boundary torn)" sweep !sum
            !n;
        if !n mod 2 <> 0 then fail "view sweep %d: odd row count %d" sweep !n;
        Hashtbl.iter
          (fun k p ->
            let partner = if k mod 2 = 0 then k + 1 else k - 1 in
            match Hashtbl.find_opt keys partner with
            | None -> fail "view sweep %d: key %d has no partner" sweep k
            | Some p' -> if p + p' <> 0 then fail "view sweep %d: pair (%d,%d) sums %d" sweep k
                  partner (p + p'))
          keys);
    Domain.cpu_relax ()
  done

let txn_check_merged coll fkey fpay (writers : txn_wstate array) errs =
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun st ->
      Hashtbl.iter
        (fun p (v, _, _) ->
          Hashtbl.replace expected (2 * p) v;
          Hashtbl.replace expected ((2 * p) + 1) (-v))
        st.t_pairs)
    writers;
  let seen = Hashtbl.create 1024 in
  Smc.Collection.iter coll ~f:(fun blk slot ->
      let k = Smc.Field.get_int fkey blk slot in
      let p = Smc.Field.get_int fpay blk slot in
      (match Hashtbl.find_opt expected k with
      | None -> errs := Printf.sprintf "txn checkpoint: unexpected key %d" k :: !errs
      | Some v ->
        if p <> v then
          errs := Printf.sprintf "txn checkpoint: key %d carries %d, writers hold %d" k p v
            :: !errs);
      Hashtbl.replace seen k ());
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem seen k) then
        errs := Printf.sprintf "txn checkpoint: live key %d missing" k :: !errs)
    expected

let test_txn_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_txn" ~layout:txn_layout ~slots_per_block:128
      ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int txn_layout "key" in
  let fpay = Smc.Field.int txn_layout "payload" in
  let wal_path = Filename.temp_file "smc_stress_txn" ".wal" in
  let snap_path = Filename.temp_file "smc_stress_txn" ".smcsnap" in
  let wal = Wal.create ~path:wal_path ~name:"stress_txn" () in
  Wal.attach wal coll;
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap_path coll in
  let auditor = Audit.create rt in
  let writers = [| new_txn_wstate 0; new_txn_wstate 1 |] in
  let rounds = 4 in
  let per_writer = max 150 (iters / 15) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng =
            Smc_util.Prng.create ~seed:(subseed (13_000 + (100 * round) + st.t_id)) ()
          in
          Domain.spawn (fun () ->
              let local = ref [] in
              txn_writer_round coll fkey fpay st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let rd =
      Domain.spawn (fun () ->
          let local = ref [] in
          txn_reader_round coll fkey fpay ~sweeps:(4 + (per_writer / 40)) local;
          Epoch.release_current_domain ();
          !local)
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    errs := Domain.join rd @ !errs;
    Domain.join cd;
    (* Quiescent checkpoint: structural audit, counter balances (the
       transaction and view balances ride Obs_check), the CSN stamp
       sweep, then the merged-model diff. *)
    audit_quiescent (Printf.sprintf "txn-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    assert_clean
      (Printf.sprintf "txn stamp sweep, round %d" round)
      (Txn_check.check_quiescent coll);
    txn_check_merged coll fkey fpay writers errs;
    assert_clean (Printf.sprintf "txn-churn checkpoint, round %d" round) !errs
  done;
  (* Whole-log recovery holds the same invariants as the live state. *)
  Wal.flush wal;
  let r = Snapshot.restore ~wal:wal_path ~path:snap_path () in
  txn_check_merged r.Snapshot.r_coll fkey fpay writers errs;
  errs :=
    Smc_check.Audit.check_once r.Snapshot.r_rt
      ~contexts:[ r.Snapshot.r_coll.Smc.Collection.ctx ]
    @ !errs;
  assert_clean "txn-churn recovery" !errs;
  Wal.close wal;
  Sys.remove wal_path;
  Sys.remove snap_path;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  Alcotest.(check bool) "transactions committed" true
    (Smc_obs.get s Smc_obs.c_txn_commits > 0);
  Alcotest.(check int) "no conflicts between disjoint writers" 0
    (Smc_obs.get s Smc_obs.c_txn_conflicts);
  Alcotest.(check bool) "views opened" true (Smc_obs.get s Smc_obs.c_txn_views > 0);
  Alcotest.(check int) "all views closed" 0
    (Smc_obs.get s Smc_obs.c_txn_views - Smc_obs.get s Smc_obs.c_txn_view_closes)

(* ------------------------------------------------------------------ *)
(* Vectorized scans under churn: 2 writers churn keys through the
   Collection API while the main domain runs vectorized batch queries
   over a source on the same collection and a compactor relocates rows
   underneath. Every surfaced row must obey payload = payload_of key
   (k = 0 or p = 0 admits the allocation window, as in the row-at-a-time
   reader), a filtered scan must additionally satisfy its predicate on
   every kept row, and a projected scan runs with the payload column
   pruned from the batch fill — an unfilled chunk leaking into results
   would surface here as a malformed row. Every round ends at a
   quiescent point with the structural audit, the counter balances
   (including the vectorized-filter balance), and an exact diff of a
   vectorized scan — at the default and an adversarial chunk size —
   against the merged writer models. *)
(* ------------------------------------------------------------------ *)

module Q = Smc_query

let vec_layout =
  Layout.create ~name:"stress_vec" [ ("key", Layout.Int); ("payload", Layout.Int) ]

let vec_payload_ok k p = k = 0 || p = 0 || p = payload_of k

let vec_reader_round src sweeps errs =
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for sweep = 1 to sweeps do
    List.iter
      (function
        | [| Q.Value.Int k; Q.Value.Int p |] ->
          if not (vec_payload_ok k p) then
            fail "vec sweep %d: key %d carries payload %d" sweep k p
        | _ -> fail "vec sweep %d: full-scan row of unexpected shape" sweep)
      (Q.Vector.collect (Q.Plan.scan src));
    List.iter
      (function
        | [| Q.Value.Int k; Q.Value.Int p |] ->
          if p <= 0 then fail "vec sweep %d: filter kept payload %d" sweep p
          else if not (vec_payload_ok k p) then
            fail "vec sweep %d: filtered key %d carries payload %d" sweep k p
        | _ -> fail "vec sweep %d: filtered row of unexpected shape" sweep)
      (Q.Vector.collect
         (Q.Plan.where Q.Expr.(Gt (Col "payload", int 0)) (Q.Plan.scan src)));
    (* Projection keeps only [key]: the batch scan runs with the payload
       column pruned out of the fill. *)
    List.iter
      (function
        | [| Q.Value.Int _ |] -> ()
        | _ -> fail "vec sweep %d: projected row of unexpected shape" sweep)
      (Q.Vector.collect (Q.Plan.select [ ("key", Q.Expr.Col "key") ] (Q.Plan.scan src)));
    Domain.cpu_relax ()
  done

let vec_check_merged src (writers : wstate array) ~batch_rows errs =
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun st -> Hashtbl.iter (fun h _ -> Hashtbl.replace expected h ()) st.w_live)
    writers;
  let seen = Hashtbl.create 1024 in
  List.iter
    (function
      | [| Q.Value.Int k; Q.Value.Int p |] ->
        if not (Hashtbl.mem expected k) then
          errs := Printf.sprintf "vec checkpoint[%d]: unexpected key %d" batch_rows k :: !errs
        else if p <> payload_of k then
          errs :=
            Printf.sprintf "vec checkpoint[%d]: key %d carries payload %d" batch_rows k p
            :: !errs;
        if Hashtbl.mem seen k then
          errs :=
            Printf.sprintf "vec checkpoint[%d]: key %d enumerated twice" batch_rows k :: !errs;
        Hashtbl.replace seen k ()
      | _ ->
        errs := Printf.sprintf "vec checkpoint[%d]: row of unexpected shape" batch_rows :: !errs)
    (Q.Vector.collect ~batch_rows (Q.Plan.scan src));
  Hashtbl.iter
    (fun h () ->
      if not (Hashtbl.mem seen h) then
        errs := Printf.sprintf "vec checkpoint[%d]: live key %d missing" batch_rows h :: !errs)
    expected

let test_vector_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_vec" ~layout:vec_layout ~slots_per_block:128
      ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int vec_layout "key" and fpay = Smc.Field.int vec_layout "payload" in
  let src =
    Q.Source.of_smc coll
      ~columns:[ ("key", Q.Source.C_int fkey); ("payload", Q.Source.C_int fpay) ]
  in
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let rounds = 4 in
  let per_writer = max 200 (iters / 12) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng =
            Smc_util.Prng.create ~seed:(subseed (15_000 + (100 * round) + st.w_id)) ()
          in
          Domain.spawn (fun () ->
              let local = ref [] in
              ix_writer_round coll fkey fpay st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    vec_reader_round src (4 + (per_writer / 50)) errs;
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    Domain.join cd;
    audit_quiescent (Printf.sprintf "vector-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    vec_check_merged src writers ~batch_rows:1024 errs;
    vec_check_merged src writers ~batch_rows:3 errs;
    assert_clean (Printf.sprintf "vector-churn checkpoint, round %d" round) !errs
  done;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  Alcotest.(check bool) "batch scans ran" true (Smc_obs.get s Smc_obs.c_vec_batches > 0);
  Alcotest.(check bool) "vectorized filters ran" true
    (Smc_obs.get s Smc_obs.c_vec_filter_rows_in > 0)

(* ------------------------------------------------------------------ *)
(* Materialized-view churn: 2 writers churn rows through the Collection
   API (adds, removes, and stores to both the aggregate input and the
   group key — the latter moving contributions between groups through the
   remove+add delta pair), a view-reader domain hammers [Matview.read]
   concurrently, and a compactor relocates rows under everything. The
   reader checks only delta-atomic invariants (count and sum move
   together, so count >= 1 and, with all inputs >= 1, sum >= count);
   min/max may transiently read [Null] or cross over, because a dirty
   re-scan races rows whose remove hooks are still waiting on the view
   lock. Every round ends at a quiescent checkpoint where the view audit
   ([Matview.audit]) runs on top of the structural audit and the counter
   balances, and the maintained result is diffed against a from-scratch
   aggregation by the Volcano engine. *)
(* ------------------------------------------------------------------ *)

module MV = Smc_matview.Matview

let mv_layout =
  Layout.create ~name:"stress_mv" [ ("key", Layout.Int); ("value", Layout.Int) ]

let mv_keys = [ ("key", Q.Expr.Col "key") ]

let mv_plan_aggs =
  [
    ("n", Q.Plan.Count);
    ("s", Q.Plan.Sum (Q.Expr.Col "value"));
    ("mn", Q.Plan.Min (Q.Expr.Col "value"));
    ("mx", Q.Plan.Max (Q.Expr.Col "value"));
  ]

(* [ix_writer_round]'s handle discipline, plus two store arms: re-pointing
   the aggregate input drives the remove+add delta pair on one group, and
   re-pointing the group key moves the contribution between groups. All
   values stay >= 1 so the reader's sum >= count invariant holds. *)
let mv_writer_round coll fkey fval st prng ops errs =
  for _ = 1 to ops do
    let d = Smc_util.Prng.int prng 100 in
    if d < 45 || st.w_n = 0 then begin
      let h = 1 + st.w_id + (2 * st.w_next) in
      st.w_next <- st.w_next + 1;
      let r =
        Smc.Collection.with_read coll (fun () ->
            Smc.Collection.add coll ~init:(fun blk slot ->
                Smc.Field.set_int fval blk slot (payload_of h);
                Smc.Field.set_int fkey blk slot (h mod 13)))
      in
      Hashtbl.replace st.w_live h (Smc.Ref.to_packed r);
      w_push st h
    end
    else if d < 65 then begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      Smc.Collection.store coll r ~word:fval.Layout.word
        ~value:(1 + Smc_util.Prng.int prng 10_000)
    end
    else if d < 75 then begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      Smc.Collection.store coll r ~word:fkey.Layout.word
        ~value:(Smc_util.Prng.int prng 13)
    end
    else begin
      let h = st.w_handles.(Smc_util.Prng.int prng st.w_n) in
      let r = Smc.Ref.of_packed (Hashtbl.find st.w_live h) in
      if not (Smc.Collection.remove coll r) then
        errs :=
          Printf.sprintf "mv writer %d: remove of live handle %d failed" st.w_id h :: !errs;
      Hashtbl.remove st.w_live h;
      w_drop st h
    end
  done

let mv_reader_round mv sweeps errs =
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for sweep = 1 to sweeps do
    MV.read mv (fun row ->
        match row with
        | [| Q.Value.Int _; Q.Value.Int n; Q.Value.Int s; mn; mx |] ->
          if n < 1 then fail "mv sweep %d: emitted group with count %d" sweep n
          else if s < n then fail "mv sweep %d: sum %d below count %d" sweep s n;
          let int_or_null = function Q.Value.Int _ | Q.Value.Null -> true | _ -> false in
          if not (int_or_null mn && int_or_null mx) then
            fail "mv sweep %d: min/max of unexpected type" sweep
        | _ -> fail "mv sweep %d: group row of unexpected shape" sweep);
    Domain.cpu_relax ()
  done

let mv_check_parity src mv errs =
  let expected =
    List.sort Stdlib.compare
      (Q.Interp.collect (Q.Plan.group_by ~keys:mv_keys ~aggs:mv_plan_aggs (Q.Plan.scan src)))
  in
  let got = ref [] in
  MV.read mv (fun row -> got := Array.copy row :: !got);
  let got = List.sort Stdlib.compare !got in
  if not (List.equal (fun a b -> a = b) expected got) then
    errs :=
      Printf.sprintf "mv checkpoint: maintained result diverges (%d groups vs %d)"
        (List.length got) (List.length expected)
      :: !errs

let test_matview_churn () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_mv" ~layout:mv_layout ~slots_per_block:128
      ~reclaim_threshold:0.25 ()
  in
  let fkey = Smc.Field.int mv_layout "key" and fval = Smc.Field.int mv_layout "value" in
  let mv =
    MV.attach ~name:"stress_mv_by_key" coll
      ~columns:[ ("key", Q.Source.C_int fkey); ("value", Q.Source.C_int fval) ]
      ~keys:mv_keys
      ~aggs:(List.map (fun (n, a) -> (n, Q.Plan.view_agg_of_agg a)) mv_plan_aggs)
      ()
  in
  let src =
    Q.Source.of_smc coll
      ~columns:[ ("key", Q.Source.C_int fkey); ("value", Q.Source.C_int fval) ]
  in
  let auditor = Audit.create rt in
  let writers = [| new_wstate 0; new_wstate 1 |] in
  let rounds = 4 in
  let per_writer = max 150 (iters / 16) in
  let errs = ref [] in
  for round = 1 to rounds do
    let wd =
      Array.map
        (fun st ->
          let prng =
            Smc_util.Prng.create ~seed:(subseed (17_000 + (100 * round) + st.w_id)) ()
          in
          Domain.spawn (fun () ->
              let local = ref [] in
              mv_writer_round coll fkey fval st prng per_writer local;
              Epoch.release_current_domain ();
              !local))
        writers
    in
    let rd =
      Domain.spawn (fun () ->
          let local = ref [] in
          mv_reader_round mv (8 + (per_writer / 25)) local;
          Epoch.release_current_domain ();
          !local)
    in
    let cd =
      Domain.spawn (fun () ->
          compactor_round coll.Smc.Collection.ctx 6;
          Epoch.release_current_domain ())
    in
    Array.iter (fun d -> errs := Domain.join d @ !errs) wd;
    errs := Domain.join rd @ !errs;
    Domain.join cd;
    (* Quiescent checkpoint: structural audit, counter balances (incl. the
       mv delta/read balances), the view audit, then the engine diff. *)
    audit_quiescent (Printf.sprintf "mv-churn round %d" round) auditor rt
      coll.Smc.Collection.ctx;
    assert_clean (Printf.sprintf "mv audit, round %d" round) (MV.audit mv);
    mv_check_parity src mv errs;
    assert_clean (Printf.sprintf "mv-churn checkpoint, round %d" round) !errs;
    let st = MV.stats mv in
    if st.MV.st_invalid <> None then
      Alcotest.failf "mv-churn round %d: view invalidated (%s)" round
        (Option.value ~default:"?" st.MV.st_invalid)
  done;
  Alcotest.(check bool) "view populated" true ((MV.stats mv).MV.st_groups > 0)

(* ------------------------------------------------------------------ *)
(* Enumeration linearizability: a seeded property. Each trial fills a
   small collection (keys 1..n, each row carrying [check = 3k + 1], so a
   zeroed or half-built row is recognisable), thins about half its blocks
   so compaction has candidates, and runs one enumerator while one
   disturbance races it:
   - a compaction pass paused at one phase boundary until the walk has
     made some progress;
   - compaction passes under an epoch gate that refuses every advance
     until the walk has made some progress;
   - a domain making bare adds or removes;
   - on indirect collections, a domain committing copy-on-write
     [stage_store] batches over live rows (a third word, [note], that is
     neither key nor check), with a compaction pass now and then.
   The enumerators take turns: the walk with and without an outer
   [with_read] section, alone and shared by 2 workers; Source.batches on Row, Columnar and Direct
   collections; a Vector group-by keyed on the row key, run on 2 workers
   whose tables are merged; and a snapshot view's view_iter. Each must
   emit every row live for the whole walk exactly once (the group-by: one
   group per key, each of count 1), no row that was never live during it,
   and no zeroed or half-built row; a view emits exactly the rows at its
   frontier. The enumerators dawdle a little per range or chunk so
   disturbances land mid-walk.
   Over the run, walks must have read moved rows through a target
   ([walk_moved_ranges]) and group-bys must have merged worker tables
   ([par_group_merges]) — both paths are exercised, not just compiled. One
   latch-driven trial reads moved rows by construction. *)
(* ------------------------------------------------------------------ *)

let en_layout =
  Layout.create ~name:"stress_enum"
    [ ("key", Layout.Int); ("check", Layout.Int); ("note", Layout.Int) ]

let en_key = Smc.Field.int en_layout "key"
let en_check = Smc.Field.int en_layout "check"
let en_note = Smc.Field.int en_layout "note"
let en_slots = 16

type enumerator =
  | Walk of bool * int (* inside an outer [with_read] section, workers *)
  | Batches of Block.placement * Context.mode
  | Par_group
  | View_iter

let enumerators =
  [|
    Walk (false, 1);
    Walk (true, 1);
    Walk (false, 2);
    Walk (true, 2);
    Batches (Block.Row, Context.Indirect);
    Batches (Block.Columnar, Context.Indirect);
    Batches (Block.Row, Context.Direct);
    Par_group;
    View_iter;
  |]

let enumerator_name = function
  | Walk (outer, w) ->
    Printf.sprintf "walk %s x%d" (if outer then "in with_read" else "per-block") w
  | Batches (p, m) ->
    Printf.sprintf "batches %s/%s"
      (if p = Block.Row then "row" else "columnar")
      (if m = Context.Indirect then "indirect" else "direct")
  | Par_group -> "parallel vector group-by"
  | View_iter -> "view_iter"

let spin_us us =
  let stop = Int64.add (Smc_util.Timing.now_ns ()) (Int64.of_int (us * 1000)) in
  while Int64.compare (Smc_util.Timing.now_ns ()) stop < 0 do
    Domain.cpu_relax ()
  done

(* Wait (bounded) until [cond] holds; disturbances never block a walk for
   good. *)
let await ~ms cond =
  let stop = Int64.add (Smc_util.Timing.now_ns ()) (Int64.of_int (ms * 1_000_000)) in
  while (not (cond ())) && Int64.compare (Smc_util.Timing.now_ns ()) stop < 0 do
    Domain.cpu_relax ()
  done

let en_phases =
  Runtime.
    [|
      ("selected", Phase_selected);
      ("frozen", Phase_frozen);
      ("waiting", Phase_waiting);
      ("moving", Phase_moving);
      ("completed", Phase_completed);
    |]

let enumeration_trial pool trial moved merged =
  let prng = Smc_util.Prng.create ~seed:(subseed (20_000 + trial)) () in
  let enum = enumerators.(trial mod Array.length enumerators) in
  let placement, mode =
    match enum with
    | Batches (p, m) -> (p, m)
    | Walk _ | Par_group | View_iter ->
      Smc_util.Prng.pick prng
        [|
          (Block.Row, Context.Indirect);
          (Block.Columnar, Context.Indirect);
          (Block.Row, Context.Direct);
        |]
  in
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_enum" ~layout:en_layout ~placement ~mode
      ~slots_per_block:en_slots ()
  in
  let ctx = coll.Smc.Collection.ctx in
  let init ?(build_us = 0) k blk slot =
    Smc.Field.set_int en_key blk slot k;
    if build_us > 0 then spin_us build_us;
    Smc.Field.set_int en_check blk slot ((3 * k) + 1)
  in
  let n = en_slots * Smc_util.Prng.int_in prng 6 14 in
  let live0 = Hashtbl.create n in
  for k = 1 to n do
    Hashtbl.replace live0 k (Smc.Collection.add coll ~init:(init k))
  done;
  (* Thin about half the blocks to 2-4 rows and sprinkle holes elsewhere.
     Half the trials then compact and thin again, so the walk's view holds
     former targets and the mid-walk pass compacts some of them again. *)
  let thin () =
    let plan = Hashtbl.create 16 and kept = Hashtbl.create 16 in
    let rows = Hashtbl.fold (fun k r acc -> (k, r) :: acc) live0 [] |> List.sort compare in
    List.iter
      (fun (k, r) ->
        let id = (fst (Smc.Collection.deref coll r)).Block.id in
        let keep =
          match Hashtbl.find_opt plan id with
          | Some keep -> keep
          | None ->
            let keep =
              if Smc_util.Prng.bool prng then Smc_util.Prng.int_in prng 2 4 else en_slots
            in
            Hashtbl.replace plan id keep;
            keep
        in
        let seen = Option.value ~default:0 (Hashtbl.find_opt kept id) in
        if seen >= keep || (keep = en_slots && Smc_util.Prng.int prng 8 = 0) then begin
          ignore (Smc.Collection.remove coll r : bool);
          Hashtbl.remove live0 k
        end
        else Hashtbl.replace kept id (seen + 1))
      rows
  in
  thin ();
  if Smc_util.Prng.bool prng then begin
    ignore (Compaction.run ctx () : Compaction.report);
    thin ()
  end;
  let progress = Atomic.make 0 and walking = Atomic.make true and hooked = Atomic.make false in
  let target = Smc_util.Prng.int_in prng 1 4 in
  let moved_on () = Atomic.get progress >= target || not (Atomic.get walking) in
  let compact_during () =
    let rec go tries =
      if tries > 0 && Atomic.get walking then begin
        let r = Compaction.run ctx ~max_wait_spins:200_000 () in
        if r.Compaction.aborted || r.Compaction.groups_formed = 0 then go (tries - 1)
      end
    in
    go 20;
    Epoch.release_current_domain ()
  in
  let disturbance =
    match Smc_util.Prng.int prng 4 with 3 when mode = Context.Direct -> 2 | d -> d
  in
  let phase_name, phase = Smc_util.Prng.pick prng en_phases in
  (* Paused passes: half the walks take their view only once the pass is
     paused, so the view holds the pass's groups (targets and sources). *)
  let late = disturbance = 0 && enum <> View_iter && Smc_util.Prng.bool prng in
  let next_key = ref (n + 1) in
  let victims = Array.of_list (Hashtbl.fold (fun k r acc -> (k, r) :: acc) live0 []) in
  Smc_util.Prng.shuffle prng victims;
  let mutator_seed = Smc_util.Prng.next_int64 prng in
  (* The view, if any, is opened before anything races it: its frontier
     holds exactly [live0]. *)
  let view = match enum with View_iter -> Some (Smc.Collection.snapshot_view coll) | _ -> None in
  let disturber =
    Domain.spawn (fun () ->
        match disturbance with
        | 0 ->
          Chaos.with_compaction_hook rt
            ~hook:(fun p ->
              if p = phase then begin
                Atomic.set hooked true;
                await ~ms:50 moved_on
              end)
            compact_during;
          ([], [])
        | 1 ->
          Chaos.with_epoch_gate rt ~gate:moved_on compact_during;
          ([], [])
        | 3 ->
          let mp = Smc_util.Prng.create ~seed:mutator_seed () in
          let v = ref 0 in
          while Atomic.get walking do
            (match
               Smc.Collection.transact coll (fun tx ->
                   for _ = 0 to Smc_util.Prng.int mp 4 do
                     let _, r = victims.(!v mod Array.length victims) in
                     incr v;
                     Smc.Collection.stage_store tx r ~word:en_note.Layout.word ~value:!v
                   done)
             with
            | Smc.Collection.Committed _ -> ()
            | Smc.Collection.Conflict -> Alcotest.fail "uncontended store batch conflicted");
            if Smc_util.Prng.int mp 4 = 0 then
              ignore (Compaction.run ctx ~max_wait_spins:200_000 () : Compaction.report);
            spin_us 20
          done;
          Epoch.release_current_domain ();
          ([], [])
        | _ ->
          let mp = Smc_util.Prng.create ~seed:mutator_seed () in
          let added = ref [] and removed = ref [] and v = ref 0 in
          while Atomic.get walking && !v < Array.length victims do
            if Smc_util.Prng.bool mp then begin
              let k = !next_key in
              incr next_key;
              added := k :: !added;
              ignore (Smc.Collection.add coll ~init:(init ~build_us:30 k) : Smc.Ref.t)
            end
            else begin
              let k, r = victims.(!v) in
              incr v;
              removed := k :: !removed;
              ignore (Smc.Collection.remove coll r : bool)
            end;
            spin_us 20
          done;
          Epoch.release_current_domain ();
          (!added, !removed))
  in
  let emitted = ref [] in
  let bad = ref [] in
  let see acc k c =
    if k <= 0 || c <> (3 * k) + 1 then bad := (k, c) :: !bad else acc := k :: !acc
  in
  let scan w acc blk lo hi =
    Atomic.incr progress;
    Context.scan_slots w blk ~lo ~hi ~f:(fun slot ->
        see acc (Smc.Field.get_int en_key blk slot) (Smc.Field.get_int en_check blk slot))
  in
  let dawdle () = spin_us 100 in
  if late then await ~ms:50 (fun () -> Atomic.get hooked);
  (match enum with
  | Walk (outer, 1) ->
    let run () =
      Context.with_walk ctx (fun w ->
          Context.walk w ~scan:(fun blk lo hi ->
              dawdle ();
              scan w emitted blk lo hi))
    in
    if outer then Smc.Collection.with_read coll run else run ()
  | Walk (outer, workers) ->
    let per = Array.init workers (fun _ -> ref []) in
    Context.with_walk ctx (fun w ->
        Smc_parallel.Pool.run pool ~workers (fun i ->
            let run () = Context.walk w ~scan:(scan w per.(i)) in
            if outer then Smc.Collection.with_read coll run else run ()));
    Array.iter (fun r -> emitted := !r @ !emitted) per
  | Batches _ ->
    let src =
      Q.Source.of_smc coll
        ~columns:[ ("key", Q.Source.C_int en_key); ("check", Q.Source.C_int en_check) ]
    in
    Q.Source.batches src ~rows:8 (fun b ->
        Atomic.incr progress;
        dawdle ();
        match (b.Q.Batch.cols.(0), b.Q.Batch.cols.(1)) with
        | Q.Batch.V_int ks, Q.Batch.V_int cs ->
          for i = 0 to b.Q.Batch.len - 1 do
            let r = Bigarray.Array1.get b.Q.Batch.sel i in
            see emitted ks.(r) cs.(r)
          done
        | _ -> Alcotest.fail "batch columns are not int vectors")
  | Par_group ->
    (* The source's parallel walk, with each worker's chunks counted as
       progress and slowed like the other enumerators'. *)
    let src =
      Q.Source.of_smc ~pool ~domains:2 coll
        ~columns:[ ("key", Q.Source.C_int en_key); ("check", Q.Source.C_int en_check) ]
    in
    let par = Option.get src.Q.Source.par_batches in
    let run ~rows ?cols work =
      par.Q.Source.run ~rows ?cols (fun produce ->
          work (fun consume ->
              produce (fun stamp b ->
                  Atomic.incr progress;
                  dawdle ();
                  consume stamp b)))
    in
    let src = { src with Q.Source.par_batches = Some { Q.Source.run } } in
    let groups =
      Q.Vector.collect ~batch_rows:8
        Q.Plan.(
          group_by
            ~keys:[ ("key", Q.Expr.Col "key") ]
            ~aggs:[ ("n", Count); ("check", Max (Q.Expr.Col "check")) ]
            (scan src))
    in
    List.iter
      (function
        | [| Q.Value.Int k; Q.Value.Int 1; Q.Value.Int c |] -> see emitted k c
        | [| Q.Value.Int k; Q.Value.Int n; _ |] ->
          Alcotest.failf "parallel group-by: key %d counted %d times" k n
        | _ -> Alcotest.fail "parallel group-by: unexpected row shape")
      groups
  | View_iter ->
    let v = Option.get view in
    Fun.protect
      ~finally:(fun () -> Smc.Collection.close_view v)
      (fun () ->
        Smc.Collection.view_iter v ~f:(fun blk slot ->
            if slot mod 8 = 0 then begin
              Atomic.incr progress;
              dawdle ()
            end;
            see emitted (Smc.Field.get_int en_key blk slot)
              (Smc.Field.get_int en_check blk slot))));
  Atomic.set walking false;
  let added, removed = Domain.join disturber in
  let what =
    Printf.sprintf "trial %d, %s, disturbance %d%s (SMC_STRESS_SEED=%Ld)" trial
      (enumerator_name enum) disturbance
      (if disturbance = 0 then " at " ^ phase_name ^ if late then ", late view" else "" else "")
      seed
  in
  List.iter
    (fun (k, c) -> Alcotest.failf "%s: zeroed or half-built row (key %d, check %d)" what k c)
    !bad;
  let count = Hashtbl.create n in
  List.iter
    (fun k -> Hashtbl.replace count k (1 + Option.value ~default:0 (Hashtbl.find_opt count k)))
    !emitted;
  Hashtbl.iter
    (fun k c -> if c > 1 then Alcotest.failf "%s: row %d emitted %d times" what k c)
    count;
  let is_view = Option.is_some view in
  let added = if is_view then [] else added in
  let removed = if is_view then [] else removed in
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem live0 k || List.mem k added) then
        Alcotest.failf "%s: row %d was never live during the walk" what k)
    count;
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem count k || List.mem k removed) then
        Alcotest.failf "%s: row %d, live for the whole walk, was not emitted" what k)
    live0;
  audit_quiescent what (Audit.create rt) rt ctx;
  let counters = Smc_obs.snapshot rt.Runtime.obs in
  moved := !moved + Smc_obs.get counters Smc_obs.c_walk_moved_ranges;
  merged := !merged + Smc_obs.get counters Smc_obs.c_par_group_merges

(* The moved-rows path by construction: the walk takes its view while a
   pass is paused before moving, and draws its first position only once
   the pass completed — so it meets every source of the pass with its
   group done and reads the source's rows through the target. *)
let latched_moved_trial moved =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"stress_enum_latched" ~layout:en_layout
      ~slots_per_block:en_slots ()
  in
  let ctx = coll.Smc.Collection.ctx in
  let n = en_slots * 8 in
  let refs =
    Array.init n (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int en_key blk slot (i + 1);
            Smc.Field.set_int en_check blk slot ((3 * (i + 1)) + 1)))
  in
  (* Thin the first four blocks to two rows each. *)
  let live = Hashtbl.create n in
  Array.iteri
    (fun i r ->
      if i < 4 * en_slots && i mod en_slots >= 2 then
        ignore (Smc.Collection.remove coll r : bool)
      else Hashtbl.replace live (i + 1) ())
    refs;
  let paused = Atomic.make false and viewed = Atomic.make false in
  let compactor =
    Domain.spawn (fun () ->
        let report =
          Chaos.with_compaction_hook rt
            ~hook:(fun p ->
              if p = Runtime.Phase_waiting then begin
                Atomic.set paused true;
                await ~ms:5_000 (fun () -> Atomic.get viewed)
              end)
            (fun () -> Compaction.run ctx ())
        in
        Epoch.release_current_domain ();
        report)
  in
  await ~ms:5_000 (fun () -> Atomic.get paused);
  let seen = Hashtbl.create n in
  Context.with_walk ctx (fun w ->
      Atomic.set viewed true;
      let report = Domain.join compactor in
      if report.Compaction.aborted || report.Compaction.groups_formed = 0 then
        Alcotest.fail "latched trial: the paused pass did not complete a group";
      Context.walk w ~scan:(fun blk lo hi ->
          Context.scan_slots w blk ~lo ~hi ~f:(fun slot ->
              let k = Smc.Field.get_int en_key blk slot in
              if Smc.Field.get_int en_check blk slot <> (3 * k) + 1 then
                Alcotest.failf "latched trial: zeroed or half-built row (key %d)" k;
              if Hashtbl.mem seen k then Alcotest.failf "latched trial: row %d emitted twice" k;
              Hashtbl.replace seen k ())));
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem seen k) then Alcotest.failf "latched trial: row %d not emitted" k)
    live;
  if Hashtbl.length seen <> Hashtbl.length live then
    Alcotest.fail "latched trial: a removed row was emitted";
  audit_quiescent "latched trial" (Audit.create rt) rt ctx;
  let m = Smc_obs.get (Smc_obs.snapshot rt.Runtime.obs) Smc_obs.c_walk_moved_ranges in
  if m = 0 then Alcotest.fail "latched trial: the walk read no moved range";
  moved := !moved + m

let test_enumeration_property () =
  let pool = Smc_parallel.Pool.create ~size:1 () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let moved = ref 0 and merged = ref 0 in
      latched_moved_trial moved;
      for trial = 0 to max 16 (iters / 100) - 1 do
        enumeration_trial pool trial moved merged
      done;
      Alcotest.(check bool) "some walk read moved rows through a target" true (!moved > 0);
      Alcotest.(check bool) "some group-by merged worker tables" true (!merged > 0))

(* ------------------------------------------------------------------ *)

let () =
  (* The balance checks and queue-race assertions need counting on. *)
  Smc_obs.enabled := true;
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "stress"
    [
      ( "model",
        List.map (fun c -> qc (Model.config_name c) (test_model c)) configs
        @ [
            qc "quarantine churn (indirect)" (test_quarantine_churn Context.Indirect);
            qc "quarantine churn (direct)" (test_quarantine_churn Context.Direct);
          ] );
      ( "chaos",
        [
          qc "flaky epoch advancement" test_flaky_epoch;
          qc "stuck epoch advancement" test_stuck_epoch;
          qc "failing allocations" test_alloc_failures;
          qc "compaction phase boundaries (indirect)"
            (test_compaction_boundary_chaos Context.Indirect);
          qc "compaction phase boundaries (direct)"
            (test_compaction_boundary_chaos Context.Direct);
        ] );
      ( "domains",
        [
          qc "2 writers + reader + compactor (indirect)" (test_multi_domain Context.Indirect);
          qc "2 writers + reader + compactor (direct)" (test_multi_domain Context.Direct);
          qc "2 writers + parallel queries + compactor (indirect)"
            (test_multi_domain_parallel Context.Indirect);
          qc "2 writers + parallel queries + compactor (direct)"
            (test_multi_domain_parallel Context.Direct);
          qc "queue race: remote frees vs owner recycling (indirect)"
            (test_queue_race Context.Indirect);
          qc "queue race: remote frees vs owner recycling (direct)"
            (test_queue_race Context.Direct);
          qc "index churn: writers + probers + compactor" test_index_churn;
          qc "text churn: writers + substring probers + compactor" test_text_churn;
          qc "persistence: snapshots + WAL recovery under churn" test_persist_under_churn;
          qc "transactions: pair atomicity vs snapshot readers + compactor" test_txn_churn;
          qc "vectorized scans: writers + batch queries + compactor" test_vector_churn;
          qc "materialized views: writers + view reader + compactor" test_matview_churn;
        ] );
      ( "enum",
        [
          qc "every enumerator is linearizable under compaction and churn"
            test_enumeration_property;
        ] );
    ]
