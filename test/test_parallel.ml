(* Tests for the parallel query-execution layer: the reusable domain pool,
   block-partitioned parallel enumeration (equivalence with the sequential
   enumerators on every placement/mode configuration, a completed
   compaction group met by racing workers), the parallel TPC-H kernels,
   and the query engine's parallel source knob. *)

open Smc_offheap
module Pool = Smc_parallel.Pool
module Par_scan = Smc_parallel.Par_scan

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_submit_await () =
  let pool = Pool.create ~size:3 () in
  check Alcotest.int "size" 3 (Pool.size pool);
  (* Several batches over the same pool: workers are reused, not respawned. *)
  for round = 1 to 3 do
    let ps = List.init 8 (fun i -> Pool.submit pool (fun () -> i * round)) in
    let got = List.map Pool.await ps in
    check (Alcotest.list Alcotest.int) "results" (List.init 8 (fun i -> i * round)) got
  done;
  Pool.shutdown pool;
  (try
     ignore (Pool.submit pool (fun () -> 0) : int Pool.promise);
     Alcotest.fail "submit after shutdown should raise"
   with Invalid_argument _ -> ());
  (* Shutdown is idempotent. *)
  Pool.shutdown pool

let test_pool_run () =
  let pool = Pool.create ~size:3 () in
  check Alcotest.int "effective (wide request)" 4 (Pool.effective_workers pool ~requested:8);
  check Alcotest.int "effective (narrow request)" 2 (Pool.effective_workers pool ~requested:2);
  check Alcotest.int "effective (degenerate)" 1 (Pool.effective_workers pool ~requested:0);
  let hits = Array.make 4 0 in
  Pool.run pool ~workers:4 (fun w -> hits.(w) <- hits.(w) + 1);
  check (Alcotest.list Alcotest.int) "each worker index ran once" [ 1; 1; 1; 1 ]
    (Array.to_list hits);
  (* A zero-size pool degrades to sequential execution on the caller. *)
  let seq = Pool.create ~size:0 () in
  let ran = ref 0 in
  Pool.run seq ~workers:4 (fun w ->
      check Alcotest.int "only worker 0" 0 w;
      incr ran);
  check Alcotest.int "ran exactly once" 1 !ran;
  Pool.shutdown seq;
  Pool.shutdown pool

(* A [run] issued from inside one of the pool's own tasks, while every
   worker is busy with that task: the helper no worker can start runs on
   the caller instead of being waited for (a hang here is the failure). *)
let test_pool_run_nested () =
  let pool = Pool.create ~size:1 () in
  let hits =
    Pool.await
      (Pool.submit pool (fun () ->
           let hits = Array.make 2 0 in
           Pool.run pool ~workers:2 (fun w -> hits.(w) <- hits.(w) + 1);
           hits))
  in
  check (Alcotest.list Alcotest.int) "each index ran once" [ 1; 1 ] (Array.to_list hits);
  Pool.shutdown pool

(* Regression: pool workers register epoch thread slots when they touch a
   runtime; shutting a pool down must hand those slots back. Before slot
   recycling, ~128 create/use/shutdown cycles against one runtime exhausted
   the slot table and the worker died with "Epoch: too many threads". *)
let test_pool_cycles_recycle_epoch_slots () =
  let rt = Runtime.create () in
  for _cycle = 1 to 150 do
    let pool = Pool.create ~size:1 () in
    let p = Pool.submit pool (fun () -> Runtime.tid rt) in
    let tid = Pool.await p in
    Alcotest.(check bool) "worker got a slot" true (tid >= 0);
    Pool.shutdown pool
  done;
  Alcotest.(check bool) "slot high-water stays below the cap" true
    (Epoch.registered_threads rt.Runtime.epoch < 128)

(* Regression: the old spawn guard (`Queue.length tasks > 0`) was always
   true right after the push, so a pool ramped straight to its size cap
   even under strictly serial load, ignoring its parked idle workers. With
   demand accounting a size-8 pool serving sequential submit/await pairs
   spawns at most one domain. *)
let test_pool_serial_submits_spawn_one_domain () =
  let pool = Pool.create ~size:8 () in
  check Alcotest.int "nothing spawned before first use" 0 (Pool.spawned pool);
  for i = 1 to 20 do
    check Alcotest.int "task result" (i * i) (Pool.await (Pool.submit pool (fun () -> i * i)))
  done;
  check Alcotest.bool "serial load spawns at most one worker" true (Pool.spawned pool <= 1);
  (* Genuinely concurrent demand still grows the pool. *)
  let gate = Atomic.make false in
  let ps =
    List.init 4 (fun i ->
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            i))
  in
  check Alcotest.bool "parallel demand spawns more workers" true (Pool.spawned pool >= 4);
  Atomic.set gate true;
  check (Alcotest.list Alcotest.int) "all finish" [ 0; 1; 2; 3 ] (List.map Pool.await ps);
  Pool.shutdown pool

(* Regression: every recreation of the default pool after a shutdown used
   to register a fresh at_exit handler, accumulating one closure (pinning
   one shut-down pool) per cycle. The lifecycle now owns a single handler
   that shuts down whatever the current default is. *)
let test_default_pool_exit_handler_not_accumulated () =
  for _cycle = 1 to 100 do
    let p = Pool.default () in
    check Alcotest.int "default pool serves" 3 (Pool.await (Pool.submit p (fun () -> 3)));
    Pool.shutdown p
  done;
  check Alcotest.bool "at most one exit handler registered" true
    (Pool.default_exit_handlers () <= 1);
  (* The surviving handler covers the *current* default, not a dead one. *)
  let p = Pool.default () in
  check Alcotest.int "fresh default after cycles" 9 (Pool.await (Pool.submit p (fun () -> 9)))

exception Boom

let test_pool_exceptions () =
  let pool = Pool.create ~size:2 () in
  let p = Pool.submit pool (fun () -> raise Boom) in
  (try
     ignore (Pool.await p : unit);
     Alcotest.fail "await should re-raise"
   with Boom -> ());
  (* A failing task does not poison the pool. *)
  check Alcotest.int "pool still serves" 7 (Pool.await (Pool.submit pool (fun () -> 7)));
  (try
     Pool.run pool ~workers:3 (fun w -> if w = 1 then raise Boom);
     Alcotest.fail "run should re-raise"
   with Boom -> ());
  Pool.run pool ~workers:3 (fun _ -> ());
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Parallel enumeration vs the sequential enumerators                  *)
(* ------------------------------------------------------------------ *)

let kv_layout = Layout.create ~name:"kv_par" [ ("k", Layout.Int); ("v", Layout.Int) ]
let fk = Smc.Field.int kv_layout "k"
let fv = Smc.Field.int kv_layout "v"

(* A collection with several blocks and a sprinkling of limbo slots, so the
   parallel scan must skip free/limbo states exactly like the sequential
   one. *)
let build ~placement ~mode ~n () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"kv" ~layout:kv_layout ~placement ~mode
      ~slots_per_block:64 ()
  in
  let refs =
    Array.init n (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot i;
            Smc.Field.set_int fv blk slot ((7 * i) + 1)))
  in
  Array.iteri
    (fun i r -> if i mod 3 = 0 then ignore (Smc.Collection.remove coll r : bool))
    refs;
  (rt, coll)

let seq_sum_count coll =
  let sum = ref 0 and count = ref 0 in
  Smc.Collection.iter coll ~f:(fun blk slot ->
      sum := !sum + Smc.Field.get_int fv blk slot;
      incr count);
  (!sum, !count)

let configs =
  [
    ("row/indirect", Block.Row, Context.Indirect);
    ("row/direct", Block.Row, Context.Direct);
    ("columnar/indirect", Block.Columnar, Context.Indirect);
    ("columnar/direct", Block.Columnar, Context.Direct);
  ]

let test_par_equivalence (name, placement, mode) () =
  let _rt, coll = build ~placement ~mode ~n:2000 () in
  let ctx = coll.Smc.Collection.ctx in
  let pool = Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let expected = seq_sum_count coll in
      let pair = Alcotest.(pair int int) in
      let fold domains =
        Par_scan.fold_valid_par ~pool ~domains ctx
          ~init:(fun () -> (0, 0))
          ~f:(fun (s, c) blk slot -> (s + Smc.Field.get_int fv blk slot, c + 1))
          ~combine:(fun (s1, c1) (s2, c2) -> (s1 + s2, c1 + c2))
      in
      check pair (name ^ ": fold domains=4") expected (fold 4);
      check pair (name ^ ": fold sequential fast path") expected (fold 1);
      let sum = Atomic.make 0 and count = Atomic.make 0 in
      Context.with_walk ctx (fun w ->
          Pool.run pool ~workers:4 (fun _ ->
              Context.iter w ~on_block:(fun blk slot ->
                  ignore (Atomic.fetch_and_add sum (Smc.Field.get_int fv blk slot) : int);
                  Atomic.incr count)));
      check pair (name ^ ": iter domains=4") expected (Atomic.get sum, Atomic.get count);
      let v_word = (Layout.field kv_layout "v").Layout.word
      and sw = kv_layout.Layout.slot_words in
      let hoisted =
        Par_scan.fold_hoisted_par ~pool ~domains:4 ctx
          ~init:(fun () -> (ref 0, ref 0))
          ~on_block:(fun (s, c) blk ->
            let data = blk.Block.data in
            let word =
              match blk.Block.placement with
              | Block.Row -> fun slot -> Bigarray.Array1.get data ((slot * sw) + v_word)
              | Block.Columnar ->
                let base = v_word * blk.Block.nslots in
                fun slot -> Bigarray.Array1.get data (base + slot)
            in
            fun slot ->
              s := !s + word slot;
              incr c)
          ~combine:(fun (s1, c1) (s2, c2) ->
            s1 := !s1 + !s2;
            c1 := !c1 + !c2;
            (s1, c1))
      in
      check pair (name ^ ": hoisted domains=4") expected (!(fst hoisted), !(snd hoisted)))

(* ------------------------------------------------------------------ *)
(* A completed compaction group under a shared walk                    *)
(* ------------------------------------------------------------------ *)

(* A compaction group that completes after an enumeration took its view
   snapshot: the sources are still in the walk's view, dead, and their rows
   sit in a target the view does not hold. Four workers race over the
   shared walk: every row must be scanned exactly once, the moved ones
   through the target — each source's own range of it, never a dead
   block. *)
let test_done_group_scanned_once () =
  let pool = Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _trial = 1 to 20 do
        let rt = Runtime.create () in
        let coll =
          Smc.Collection.create rt ~name:"groups" ~layout:kv_layout ~slots_per_block:16 ()
        in
        let ctx = coll.Smc.Collection.ctx in
        let refs =
          Array.init (16 * 6) (fun i ->
              Smc.Collection.add coll ~init:(fun blk slot -> Smc.Field.set_int fk blk slot i))
        in
        (* Thin blocks 0-3 to three rows each: one group of three sources
           and one of one. Blocks 4 and 5 (the allocating one) stay full. *)
        Array.iteri
          (fun i r ->
            if i < 64 && i mod 16 >= 3 then ignore (Smc.Collection.remove coll r : bool))
          refs;
        let live = Smc.Collection.count coll in
        let seen = Array.init (Array.length refs) (fun _ -> Atomic.make 0) in
        let ranges = Atomic.make [] in
        let dead_scans = Atomic.make 0 in
        Context.with_walk ctx (fun w ->
            let report = Compaction.run ctx () in
            check Alcotest.bool "groups completed" true
              (report.Compaction.groups_formed >= 1 && not report.Compaction.aborted);
            Pool.run pool ~workers:4 (fun _ ->
                Context.walk w ~scan:(fun blk lo hi ->
                    if blk.Block.dead then Atomic.incr dead_scans;
                    if blk.Block.moved_in > 0 then begin
                      let rec push () =
                        let l = Atomic.get ranges in
                        if not (Atomic.compare_and_set ranges l ((blk.Block.id, lo, hi) :: l))
                        then push ()
                      in
                      push ()
                    end;
                    Context.scan_slots w blk ~lo ~hi ~f:(fun slot ->
                        Atomic.incr seen.(Smc.Field.get_int fk blk slot)))));
        check Alcotest.int "no dead block scanned" 0 (Atomic.get dead_scans);
        check Alcotest.int "every live row scanned"
          live
          (Array.fold_left (fun acc c -> acc + Atomic.get c) 0 seen);
        Array.iteri
          (fun i c ->
            if Atomic.get c > 1 then Alcotest.failf "row %d scanned %d times" i (Atomic.get c))
          seen;
        (* The targets' ranges tile each target's moved-in prefix. *)
        let by_target = Hashtbl.create 4 in
        List.iter
          (fun (id, lo, hi) ->
            Hashtbl.replace by_target id
              ((lo, hi) :: Option.value ~default:[] (Hashtbl.find_opt by_target id)))
          (Atomic.get ranges);
        check Alcotest.bool "moved rows reached through a target" true
          (Hashtbl.length by_target >= 1);
        Hashtbl.iter
          (fun _ rs ->
            let rs = List.sort compare rs in
            ignore
              (List.fold_left
                 (fun expect (lo, hi) ->
                   check Alcotest.int "ranges are disjoint and contiguous" expect lo;
                   hi)
                 0 rs
                : int))
          by_target
      done)

(* ------------------------------------------------------------------ *)
(* Parallel TPC-H kernels and the query-engine source knob             *)
(* ------------------------------------------------------------------ *)

let tpch_db = lazy (Smc_tpch.Db_smc.load (Smc_tpch.Dbgen.generate ~sf:0.01 ()))

let test_q1_q6_parity () =
  let db = Lazy.force tpch_db in
  let pool = Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let q1_seq = Smc_tpch.Q_smc.q1 ~unsafe:true db in
      check Alcotest.bool "q1 par(4) = seq" true
        (Smc_tpch.Q_smc.q1_par ~pool ~domains:4 db = q1_seq);
      check Alcotest.bool "q1 par(1) = seq" true
        (Smc_tpch.Q_smc.q1_par ~pool ~domains:1 db = q1_seq);
      check Alcotest.bool "q1 safe agrees" true (Smc_tpch.Q_smc.q1 ~unsafe:false db = q1_seq);
      let q6_seq = Smc_tpch.Q_smc.q6 ~unsafe:true db in
      check Alcotest.int "q6 par(4) = seq" q6_seq (Smc_tpch.Q_smc.q6_par ~pool ~domains:4 db);
      check Alcotest.int "q6 par(1) = seq" q6_seq (Smc_tpch.Q_smc.q6_par ~pool ~domains:1 db))

let test_source_parallel_knob () =
  let _rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:500 () in
  let columns = [ ("k", Smc_query.Source.C_int fk); ("v", Smc_query.Source.C_int fv) ] in
  let pool = Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let agg src =
        Smc_query.Interp.collect
          Smc_query.Plan.(
            group_by ~keys:[]
              ~aggs:
                [
                  ("total", Sum (Smc_query.Expr.Col "v"));
                  ("n", Count);
                  ("top", Max (Smc_query.Expr.Col "k"));
                ]
              (scan src))
      in
      let seq = agg (Smc_query.Source.of_smc coll ~columns) in
      let par = agg (Smc_query.Source.of_smc ~pool ~domains:4 coll ~columns) in
      check Alcotest.bool "volcano aggregate agrees" true (seq = par);
      (* domains <= 1 keeps the plain sequential scan, row order included. *)
      let seq_rows =
        Smc_query.Interp.collect
          (Smc_query.Plan.scan (Smc_query.Source.of_smc ~domains:1 coll ~columns))
      in
      let base_rows =
        Smc_query.Interp.collect (Smc_query.Plan.scan (Smc_query.Source.of_smc coll ~columns))
      in
      check Alcotest.bool "domains=1 is the sequential scan" true (seq_rows = base_rows))

(* ------------------------------------------------------------------ *)

let () =
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          qc "submit/await + reuse + shutdown" test_pool_submit_await;
          qc "run partitions worker indices" test_pool_run;
          qc "run nested in its own task" test_pool_run_nested;
          qc "exception propagation" test_pool_exceptions;
          qc "cycles recycle epoch slots" test_pool_cycles_recycle_epoch_slots;
          qc "serial submits spawn one domain" test_pool_serial_submits_spawn_one_domain;
          qc "default-pool exit handler not accumulated"
            test_default_pool_exit_handler_not_accumulated;
        ] );
      ( "par_scan",
        List.map (fun (name, p, m) -> qc name (test_par_equivalence (name, p, m))) configs );
      ( "groups", [ qc "done group scanned once by four workers" test_done_group_scanned_once ] );
      ( "queries",
        [
          qc "q1/q6 parallel = sequential" test_q1_q6_parity;
          qc "volcano source parallel knob" test_source_parallel_knob;
        ] );
    ]
