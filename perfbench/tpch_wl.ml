(* The olap and htap workloads: TPC-H lineitems in a self-managed
   collection with three access paths attached (a hash index on l_shipdate,
   a suffix-array index on l_comment, a materialized count/sum-of-quantity
   view by l_shipmode), and one closed-loop reader running a fixed
   rotation:

   - Q1 and Q6 through the planner on Vector, Fuse and Compiled;
   - one equality probe, one substring probe and one view read through the
     planner on all four engines, Volcano included.

   htap adds one writer domain running refresh stream pairs, and every few
   pairs it archives a contiguous slice of the oldest lineitems and compacts
   the collection. *)

open Smc_query
module C = Smc.Collection
module F = Smc.Field
module H = Smc_index.Hash_index
module T = Smc_text.Sa_index
module MV = Smc_matview.Matview
module Db = Smc_tpch.Db_smc
module R = Smc_tpch.Row
module O = Smc_obs
module Prng = Smc_util.Prng

type engine = Volcano | Fuse_e | Vector_e | Compiled

let engine_name = function
  | Volcano -> "volcano"
  | Fuse_e -> "fuse"
  | Vector_e -> "vector"
  | Compiled -> "compiled"

let all_engines = [ Volcano; Fuse_e; Vector_e; Compiled ]

type query = {
  name : string;
  raw : Plan.t;  (** as written; planned again before every execution *)
  planned : Plan.t;
  runner : (Value.t array -> unit) -> unit;  (** [Codegen.prepare]d at setup *)
  native : bool;  (** the runner is a loaded plugin, not the Fuse fallback *)
  mutable reference : Value.t array list;  (** Volcano rows, canonical order *)
}

type fx = {
  ds : R.dataset;
  db : Db.t;
  scan_src : Source.t;
  probe_src : Source.t;
  hix : H.t;
  tix : T.t;
  mv : MV.t;
  q1 : query;
  q6 : query;
  eqs : query array;
  subs : query array;
  view : query;
  compile_ms : float list;  (** prepares that compiled a plugin (cache misses) *)
  obs : O.t;
  mutable archived : int;  (** lineitem_refs below this index were archived *)
}

let probe_columns (lf : Db.lineitem_fields) =
  Source.
    [
      ("shipdate", C_date lf.Db.l_shipdate);
      ("discount", C_dec lf.Db.l_discount);
      ("quantity", C_dec lf.Db.l_quantity);
      ("price", C_dec lf.Db.l_extendedprice);
      ("tax", C_dec lf.Db.l_tax);
      ("returnflag", C_char lf.Db.l_returnflag);
      ("linestatus", C_char lf.Db.l_linestatus);
      ("shipmode", C_str lf.Db.l_shipmode);
      ("comment", C_str lf.Db.l_comment);
    ]

let view_keys = [ ("mode", Expr.Col "shipmode") ]

let rec leaves = function
  | Plan.Scan _ -> [ "Scan" ]
  | Plan.IndexScan _ -> [ "IndexScan" ]
  | Plan.TextScan _ -> [ "TextScan" ]
  | Plan.ViewRead _ -> [ "ViewRead" ]
  | Plan.Where (_, p) | Plan.Select (_, p) | Plan.OrderBy (_, p) | Plan.Limit (_, p)
  | Plan.Distinct p ->
    leaves p
  | Plan.GroupBy { input; _ } -> leaves input
  | Plan.HashJoin { left; right; _ } -> leaves left @ leaves right
  | Plan.IndexJoin { left; _ } -> "IndexJoin" :: leaves left

let compare_rows a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let canon rows = List.sort compare_rows rows

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Value.equal ra rb)
       a b

let plan q = Trace.span "query.plan" (fun () -> Planner.choose_access_paths q.raw)

(* One execution of [q] on engine [e]; rows in engine order. *)
let exec e q =
  let out = ref [] in
  let f row = out := row :: !out in
  let span = engine_name e ^ "." ^ q.name in
  (match e with
  | Volcano ->
    let p = plan q in
    Trace.span span (fun () -> Interp.run p ~f)
  | Fuse_e ->
    let p = plan q in
    Trace.span span (fun () -> Fuse.run p ~f)
  | Vector_e ->
    let p = plan q in
    Trace.span span (fun () -> Vector.run p ~f)
  | Compiled -> Trace.span span (fun () -> q.runner f));
  !out

(* ------------------------------------------------------------------ *)
(* Setup *)

let dataset_seed seed = Int64.add 19920101L (Int64.of_int seed)

let setup ~sf ~seed =
  let t0 = Clock.now_s () in
  let ds = Smc_tpch.Dbgen.generate ~seed:(dataset_seed seed) ~sf () in
  let db = Db.load ds in
  let lf = db.Db.lf in
  let li = db.Db.lineitems in
  let rows = Array.length ds.R.lineitems in
  let hix =
    H.attach ~initial_capacity:(2 * rows) ~name:"li_shipdate"
      ~key:(H.Int_key (F.get_date lf.Db.l_shipdate)) li
  in
  (* A merge-rebuild of the whole arena takes longer than a measured run
     here; with the default churn limit (a quarter of the entries) one lands
     in some htap runs and not others. This limit keeps it out of every
     run, so the pending log grows instead and probes pay for scanning it. *)
  let tix = T.attach ~churn_limit:rows ~name:"li_comment" ~column:"l_comment" li in
  let columns = probe_columns lf in
  let mv =
    MV.attach ~name:"li_by_shipmode" li ~columns ~keys:view_keys
      ~aggs:[ ("n", Source.V_count); ("qty", Source.V_sum (Expr.Col "quantity")) ]
      ()
  in
  let probe_src =
    Source.of_smc ~indexes:[ ("shipdate", hix) ] ~text_indexes:[ ("comment", tix) ]
      ~matviews:[ MV.info mv ] li ~columns
  in
  let scan_src = Smc_experiments.Linq_vs_compiled.lineitem_source db in
  let obs = db.Db.rt.Smc_offheap.Runtime.obs in
  let compile_ms = ref [] in
  let prepare name raw =
    let planned = Planner.choose_access_paths raw in
    let before = O.get (O.snapshot obs) O.c_cg_compiles in
    let (runner, outcome), dt = Clock.time (fun () -> Codegen.prepare planned) in
    if O.get (O.snapshot obs) O.c_cg_compiles > before then
      compile_ms := (dt *. 1e3) :: !compile_ms;
    let native = match outcome with Codegen.Native _ -> true | Codegen.Fallback _ -> false in
    { name; raw; planned; runner; native; reference = [] }
  in
  let g = Prng.create ~seed:(Int64.of_int (seed + 7)) () in
  let pick_lineitem () = ds.R.lineitems.(Prng.int g rows) in
  let k = 8 in
  let eqs =
    Array.init k (fun i ->
        (* Refresh inserts all carry the current date; probing it would
           measure the insert stream, not the access path. *)
        let rec pick_date () =
          let d = (pick_lineitem ()).R.l_shipdate in
          if d = Smc_tpch.Spec.current_date then pick_date () else d
        in
        let d = pick_date () in
        prepare (Printf.sprintf "eq%d" i)
          (Plan.where Expr.(Eq (Col "shipdate", Const (Value.Date d))) (Plan.scan probe_src)))
  in
  let subs =
    Array.init k (fun i ->
        (* The first two words of a real comment: a phrase that matches a
           few hundred rows at SF 0.1. *)
        let c = (pick_lineitem ()).R.l_comment in
        let needle =
          match String.split_on_char ' ' c with a :: b :: _ -> a ^ " " ^ b | _ -> c
        in
        prepare (Printf.sprintf "sub%d" i)
          (Plan.where (Expr.Contains (Expr.Col "comment", needle)) (Plan.scan probe_src)))
  in
  let view =
    prepare "view"
      (Plan.group_by ~keys:view_keys
         ~aggs:[ ("n", Plan.Count); ("qty", Plan.Sum (Expr.Col "quantity")) ]
         (Plan.scan probe_src))
  in
  let q1 = prepare "Q1" (Smc_experiments.Linq_vs_compiled.q1_plan scan_src) in
  let q6 = prepare "Q6" (Smc_experiments.Linq_vs_compiled.q6_plan scan_src) in
  let fx =
    {
      ds;
      db;
      scan_src;
      probe_src;
      hix;
      tix;
      mv;
      q1;
      q6;
      eqs;
      subs;
      view;
      compile_ms = List.rev !compile_ms;
      obs;
      archived = 0;
    }
  in
  (fx, Clock.elapsed_s t0)

let queries fx = (fx.q1 :: fx.q6 :: fx.view :: Array.to_list fx.eqs) @ Array.to_list fx.subs

let take_references fx =
  List.iter (fun q -> q.reference <- canon (exec Volcano q)) (queries fx)

(* Setup-time mechanism checks: the planner picked the access paths, Q1/Q6
   stay scans (also over the source that advertises the paths), and every
   prepared plan runs through a loaded plugin. *)
let mechanism_checks fx ~workload =
  let has kind q = List.mem kind (leaves q.planned) in
  Report.check (workload ^ ": eq probes plan to IndexScan")
    (Array.for_all (has "IndexScan") fx.eqs) "an equality probe kept its scan";
  Report.check (workload ^ ": substring probes plan to TextScan")
    (Array.for_all (has "TextScan") fx.subs) "a substring probe kept its scan";
  Report.check (workload ^ ": view query plans to ViewRead") (has "ViewRead" fx.view)
    "the view query kept its scan";
  let only_scans p = List.for_all (String.equal "Scan") (leaves p) in
  let over_paths mk = Planner.choose_access_paths (mk fx.probe_src) in
  Report.check (workload ^ ": Q1/Q6 are not rewritten to access paths")
    (only_scans fx.q1.planned && only_scans fx.q6.planned
    && only_scans (over_paths Smc_experiments.Linq_vs_compiled.q1_plan)
    && only_scans (over_paths Smc_experiments.Linq_vs_compiled.q6_plan))
    "Q1/Q6 planned to an access path";
  Report.check (workload ^ ": Compiled runs through a loaded plugin")
    (List.for_all (fun q -> q.native) (queries fx))
    "Codegen.prepare fell back to Fuse"

(* ------------------------------------------------------------------ *)
(* The reader rotation *)

type rstate = {
  vector : Clock.samples;  (** Q1+Q6 on Vector, ms per rotation *)
  fuse : Clock.samples;
  compiled : Clock.samples;
  heavy : Clock.samples;  (** Q1+Q6 on all three, ms per rotation *)
  light : Clock.samples;  (** one probe set (eq + substring + view × 4 engines), us *)
  mutable completed : int;
  mutable check_s : float;  (** time spent comparing results, excluded from ops_s *)
}

let rstate () =
  {
    vector = Clock.samples ();
    fuse = Clock.samples ();
    compiled = Clock.samples ();
    heavy = Clock.samples ();
    light = Clock.samples ();
    completed = 0;
    check_s = 0.0;
  }

let run_op st ~workload ~check e q =
  let t0 = Clock.now_s () in
  match exec e q with
  | rows ->
    let dt = Clock.now_s () -. t0 in
    st.completed <- st.completed + 1;
    let c0 = Clock.now_s () in
    let right = (not check) || rows_equal (canon rows) q.reference in
    st.check_s <- st.check_s +. Clock.elapsed_s c0;
    let why =
      Printf.sprintf "%s: %s on %s %s" workload q.name (engine_name e)
        (if right then "fell back to Fuse" else "differs from Volcano")
    in
    Report.op ~why (right && (e <> Compiled || q.native));
    dt
  | exception ex ->
    Report.op ~why:(Printf.sprintf "%s: %s on %s raised %s" workload q.name (engine_name e)
                      (Printexc.to_string ex))
      false;
    Clock.now_s () -. t0

(* Layer calls timed on their own in the traced rotation. *)
let mask src names = Array.map (fun c -> List.mem c names) src.Source.schema
let q1_cols = [ "shipdate"; "quantity"; "price"; "discount"; "returnflag"; "linestatus" ]
let q6_cols = [ "shipdate"; "quantity"; "price"; "discount" ]

let layer_probes fx i =
  let k = i mod Array.length fx.eqs in
  (match fx.scan_src.Source.scan_batches with
  | Some sb ->
    let fill cols () = sb ~rows:Batch.default_rows ~cols:(mask fx.scan_src cols) ignore in
    Trace.span "query.fill.Q1" (fill q1_cols);
    Trace.span "query.fill.Q6" (fill q6_cols)
  | None -> ());
  Trace.span "query.rowscan" (fun () -> fx.scan_src.Source.scan ignore);
  let d =
    match fx.eqs.(k).raw with
    | Plan.Where (Expr.Eq (_, Expr.Const (Value.Date d)), _) -> d
    | _ -> 0
  in
  Trace.span "index.probe" (fun () -> H.probe fx.hix (H.K_int d) ~f:(fun _ _ _ -> ()));
  let needle =
    match fx.subs.(k).raw with Plan.Where (Expr.Contains (_, n), _) -> n | _ -> ""
  in
  Trace.span "text.probe" (fun () -> T.probe fx.tix T.Substring needle ~f:(fun _ _ _ -> ()));
  Trace.span "matview.read" (fun () -> MV.read fx.mv ignore)

(* Probe sets (eq + substring + view, each on four engines) per rotation,
   each its own [light] sample: with one set per rotation a 4 s process
   had ~20 samples and its median moved ±15% from one process to the
   next. *)
let probe_sets = 4

let rotation fx st ~workload ~check ~layers i =
  Trace.request ();
  Trace.span "rotation" (fun () ->
      let scans = ref 0.0 in
      List.iter
        (fun (e, buf) ->
          let dt = run_op st ~workload ~check e fx.q1 +. run_op st ~workload ~check e fx.q6 in
          Clock.add buf (dt *. 1e3);
          scans := !scans +. dt)
        [ (Vector_e, st.vector); (Fuse_e, st.fuse); (Compiled, st.compiled) ];
      Clock.add st.heavy (!scans *. 1e3);
      for set = 0 to probe_sets - 1 do
        let k = ((i * probe_sets) + set) mod Array.length fx.eqs in
        let probes = ref 0.0 in
        List.iter
          (fun q ->
            List.iter (fun e -> probes := !probes +. run_op st ~workload ~check e q) all_engines)
          [ fx.eqs.(k); fx.subs.(k); fx.view ];
        Clock.add st.light (!probes *. 1e6)
      done;
      if layers then layer_probes fx i)

(* ------------------------------------------------------------------ *)
(* The htap writer *)

type wstate = {
  insert : Clock.samples;  (** ms per insert stream *)
  remove : Clock.samples;  (** ms per remove stream *)
  compact : Clock.samples;  (** ms per compaction pass *)
  mutable pairs : int;
  mutable moved : int;
  mutable wall : float;  (** the writer's own running time *)
}

let wstate () =
  {
    insert = Clock.samples ();
    remove = Clock.samples ();
    compact = Clock.samples ();
    pairs = 0;
    moved = 0;
    wall = 0.0;
  }

let archive_every = 8

let writer fx ws ~seed ~stop =
  let ops = Smc_tpch.Refresh.smc_ops fx.db fx.ds in
  let prng = Prng.create ~seed:(Int64.of_int (seed + 11)) () in
  let refs = fx.db.Db.lineitem_refs in
  let rows = Array.length refs in
  let batch = max 1 (rows / 1000) in
  (* An archive removes 7 of every 8 rows of a run of the oldest lineitems,
     in load order, so whole blocks fall under the occupancy threshold;
     inserts alone refill holes and leave compaction nothing to move. *)
  let slice = max 512 (rows / 100) in
  let t0 = Clock.now_s () in
  let guarded name f =
    match f () with
    | () -> Report.op true
    | exception e ->
      Report.op ~why:(Printf.sprintf "htap: %s raised %s" name (Printexc.to_string e)) false
  in
  while not (Atomic.get stop) do
    Trace.request ();
    guarded "refresh pair" (fun () ->
        Trace.span "refresh.pair" (fun () ->
            let insert () = ops.insert_batch ~count:batch in
            let (), dt = Clock.time (fun () -> Trace.span "refresh.insert" insert) in
            Clock.add ws.insert (dt *. 1e3);
            let keys = Hashtbl.create batch in
            for _ = 1 to max 1 (batch / 4) do
              Hashtbl.replace keys (ops.random_orderkey prng) ()
            done;
            let _, dt =
              Clock.time (fun () -> Trace.span "refresh.remove" (fun () -> ops.remove_batch ~keys))
            in
            Clock.add ws.remove (dt *. 1e3)));
    ws.pairs <- ws.pairs + 1;
    if ws.pairs mod archive_every = 0 && fx.archived + slice <= rows then
      guarded "archive+compact" (fun () ->
          Trace.span "archive" (fun () ->
              for j = fx.archived to fx.archived + slice - 1 do
                if j land 7 <> 0 then ignore (C.remove fx.db.Db.lineitems refs.(j) : bool)
              done);
          fx.archived <- fx.archived + slice;
          let compact () = C.compact fx.db.Db.lineitems () in
          let rep, dt = Clock.time (fun () -> Trace.span "offheap.compact" compact) in
          Clock.add ws.compact (dt *. 1e3);
          ws.moved <- ws.moved + rep.Smc_offheap.Compaction.objects_moved)
  done;
  ws.wall <- Clock.elapsed_s t0

(* ------------------------------------------------------------------ *)
(* Measured phases *)

type phase = {
  st : rstate;  (** untraced rotations *)
  traced_st : rstate;  (** traced rotations *)
  ws : wstate option;
  wall : float;  (** the reader's running time *)
  counters : O.snapshot;
}

(* Rotations for [seconds]. Rotation [i] is traced when [traced i]: it then
   records into [traced_st] and also times the layer calls. The reader's
   time ends with its last rotation, before the writer is stopped and
   joined, since the writer only sees [stop] between its steps. *)
let measure fx ~workload ~seed ~seconds ~writer:with_writer ~check ~traced =
  let st = rstate () and traced_st = rstate () in
  let stop = Atomic.make false in
  let before = O.snapshot fx.obs in
  let t0 = Clock.now_s () in
  let w =
    if with_writer then begin
      let ws = wstate () in
      (* The writer hands back its epoch thread slots when it ends, as
         pool workers do, so the counter balances still hold. *)
      Some
        ( ws,
          Domain.spawn (fun () ->
              Fun.protect ~finally:Smc_offheap.Epoch.release_current_domain (fun () ->
                  writer fx ws ~seed ~stop)) )
    end
    else None
  in
  let i = ref 0 in
  while Clock.elapsed_s t0 < seconds do
    let on = traced !i in
    Trace.enabled := on;
    rotation fx (if on then traced_st else st) ~workload ~check ~layers:on !i;
    incr i
  done;
  Trace.enabled := false;
  let wall = Clock.elapsed_s t0 in
  Atomic.set stop true;
  let ws = Option.map (fun (ws, d) -> Domain.join d; ws) w in
  { st; traced_st; ws; wall; counters = O.diff (O.snapshot fx.obs) before }

(* Quiescent end-of-run gates for htap: every engine against Volcano on the
   mutated data, then the structural audits. *)
let quiescent_checks fx ~workload =
  List.iter
    (fun q ->
      let reference = canon (exec Volcano q) in
      List.iter
        (fun e ->
          let ok =
            match canon (exec e q) with rows -> rows_equal rows reference | exception _ -> false
          in
          Report.check
            (Printf.sprintf "%s quiescent parity: %s on %s" workload q.name (engine_name e))
            ok "differs from Volcano")
        [ Fuse_e; Vector_e; Compiled ])
    [ fx.q1; fx.q6; fx.eqs.(0); fx.subs.(0); fx.view ];
  let db = fx.db in
  let contexts =
    List.map
      (fun (c : C.t) -> c.C.ctx)
      [ db.Db.regions; db.Db.nations; db.Db.suppliers; db.Db.parts; db.Db.partsupps;
        db.Db.customers; db.Db.orders; db.Db.lineitems ]
  in
  Report.gate (workload ^ ": Audit.check_once") (Smc_check.Audit.check_once db.Db.rt ~contexts);
  Report.gate (workload ^ ": Obs_check.check") (Smc_check.Obs_check.check db.Db.rt ~contexts);
  Report.gate (workload ^ ": Index_check") (Smc_check.Index_check.check [ fx.hix ]);
  Report.gate (workload ^ ": Text_check") (Smc_check.Text_check.check [ fx.tix ]);
  Report.gate (workload ^ ": Matview_check") (Smc_check.Matview_check.check [ fx.mv ])

let bytes_per_row fx =
  let li = fx.db.Db.lineitems in
  float (C.memory_words li * 8) /. float (max 1 (C.count li))

let ratio snap num den =
  let d = O.get snap den in
  if d = 0 then None else Some (float (O.get snap num) /. float d)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics *)

let run ~workload ~sf ~seed ~seconds ~writer:with_writer =
  let fx, setup_s = setup ~sf ~seed in
  Printf.printf "setup: %d lineitems, %.3f s (compiles: %s ms)\n%!" (C.count fx.db.Db.lineitems)
    setup_s (String.concat ", " (List.map (Printf.sprintf "%.1f") fx.compile_ms));
  Report.metric "setup_s" "s" setup_s;
  mechanism_checks fx ~workload;
  let check = not with_writer in
  if check then take_references fx;
  (* Warm-up: one rotation whose samples are dropped. *)
  rotation fx (rstate ()) ~workload ~check ~layers:false 0;
  let p = measure fx ~workload ~seed ~seconds ~writer:with_writer ~check ~traced:(fun _ -> false) in
  let st = p.st in
  let ops_s = float st.completed /. (p.wall -. st.check_s) in
  let sum name unit buf = let s = Clock.summary buf in Report.detail_summary name unit s; s in
  let heavy = sum "heavy" "ms" st.heavy in
  let light = sum "probe" "us" st.light in
  ignore (sum "vector.scan" "ms" st.vector : Clock.summary);
  ignore (sum "fuse.scan" "ms" st.fuse : Clock.summary);
  ignore (sum "compiled.scan" "ms" st.compiled : Clock.summary);
  Report.detail "ops_s" "ops/s" ops_s st.completed;
  (match p.ws with
  | Some ws ->
    Report.detail "refresh.pairs_s" "1/s" (float ws.pairs /. ws.wall) ws.pairs;
    Report.check "htap: compaction moved objects" (ws.moved > 0)
      (Printf.sprintf "objects_moved = %d over %d pairs" ws.moved ws.pairs);
    quiescent_checks fx ~workload
  | None -> ());
  Report.metric "ops_s" "ops/s" ops_s;
  Report.metric "heavy.p50_ms" "ms" heavy.Clock.median;
  Report.metric "light.p50_us" "us" light.Clock.median;
  Report.metric "mem.bytes_per_row" "B" (bytes_per_row fx)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics *)

(* Per-layer figures this fixture measured, by metric name. *)
let layers ~workload ~sf ~seed ~seconds ~writer:with_writer =
  let out = Hashtbl.create 64 in
  let put name v = if Float.is_finite v then Hashtbl.replace out name v in
  let fx, _ = setup ~sf ~seed in
  mechanism_checks fx ~workload;
  (match fx.compile_ms with [] -> () | l -> put "query.compile_ms" (Smc_util.Stats.median (Array.of_list l)));
  rotation fx (rstate ()) ~workload ~check:false ~layers:false 0;
  (* Untraced and traced rotations alternate in pairs, so both see the
     same data as the writer changes it: the ratio is the tracing overhead
     on the figures the end-to-end run reports. *)
  Trace.reset ();
  let p =
    measure fx ~workload ~seed ~seconds ~writer:with_writer ~check:false
      ~traced:(fun i -> (i / 2) land 1 = 1)
  in
  let med buf = (Clock.summary buf).Clock.median in
  put "trace.heavy_ratio" (med p.traced_st.heavy /. med p.st.heavy);
  put "trace.light_ratio" (med p.traced_st.light /. med p.st.light);
  let self = Trace.self_times () in
  let ms name = Option.map (fun v -> v /. 1e6) (Trace.self_median self name) in
  let us name = Option.map (fun v -> v /. 1e3) (Trace.self_median self name) in
  let opt name = function Some v -> put name v | None -> () in
  opt "query.plan_us" (us "query.plan");
  let fill1 = ms "query.fill.Q1" and fill6 = ms "query.fill.Q6" and rowscan = ms "query.rowscan" in
  (match (fill1, fill6) with Some a, Some b -> put "query.fill_ms" ((a +. b) /. 2.0) | _ -> ());
  let engine_self e scan1 scan6 =
    match (ms (e ^ ".Q1"), ms (e ^ ".Q6"), scan1, scan6) with
    | Some a, Some b, Some s1, Some s6 -> put ("query." ^ e ^ "_self_ms") (a +. b -. s1 -. s6)
    | _ -> ()
  in
  engine_self "vector" fill1 fill6;
  engine_self "fuse" rowscan rowscan;
  engine_self "compiled" rowscan rowscan;
  opt "index.probe_us" (us "index.probe");
  opt "text.probe_us" (us "text.probe");
  opt "matview.read_us" (us "matview.read");
  let c = p.counters in
  let ratio_put name num den = opt name (ratio c num den) in
  ratio_put "query.filter_keep_ratio" O.c_vec_filter_rows_kept O.c_vec_filter_rows_in;
  ratio_put "query.batch_rows_avg" O.c_vec_batch_rows O.c_vec_batches;
  ratio_put "index.hits_per_probe" O.c_idx_hits O.c_idx_probes;
  ratio_put "text.hit_ratio" O.c_txt_hits O.c_txt_candidates;
  put "text.rebuilds" (float (O.get c O.c_txt_rebuilds));
  ratio_put "matview.rescan_ratio" O.c_mv_rescans O.c_mv_reads;
  put "matview.applied" (float (O.get c O.c_mv_applied));
  (* Epoch critical section and checked dereference, timed in batches of
     a thousand calls on the lineitem collection. *)
  let li = fx.db.Db.lineitems in
  let refs = fx.db.Db.lineitem_refs in
  let crit = Clock.samples () and deref = Clock.samples () in
  for _ = 1 to 200 do
    let (), dt = Clock.time (fun () -> for _ = 1 to 1000 do C.with_read li ignore done) in
    Clock.add crit (dt *. 1e6);
    let (), dt =
      Clock.time (fun () ->
          C.with_read li (fun () ->
              for j = 0 to 999 do
                let r = refs.((j * 7919) mod Array.length refs) in
                ignore (Sys.opaque_identity (C.deref_opt li r))
              done))
    in
    Clock.add deref (dt *. 1e6)
  done;
  put "offheap.crit_ns" (med crit);
  put "offheap.deref_ns" (med deref);
  (match p.ws with
  | Some ws ->
    put "offheap.objects_moved" (float (O.get c O.c_objects_moved));
    put "offheap.compact_aborts" (float (O.get c O.c_compaction_aborts));
    put "offheap.reloc_helps" (float (O.get c O.c_reloc_helps));
    put "offheap.reloc_bails" (float (O.get c O.c_reloc_bails));
    ratio_put "offheap.slot_recycle_ratio" O.c_slot_recycles O.c_allocs;
    (let ok = O.get c O.c_epoch_adv_ok and fail = O.get c O.c_epoch_adv_fail in
     if ok + fail > 0 then put "offheap.epoch_adv_ok_ratio" (float ok /. float (ok + fail)));
    if Clock.count ws.compact > 0 then put "offheap.compact_ms" (med ws.compact);
    if Clock.count ws.insert > 0 then begin
      put "refresh.insert_ms" (med ws.insert);
      put "refresh.remove_ms" (med ws.remove)
    end;
    Report.check (workload ^ ": compaction moved objects") (ws.moved > 0)
      (Printf.sprintf "objects_moved = %d" ws.moved);
    quiescent_checks fx ~workload
  | None -> ());
  Trace.write ~path:(Printf.sprintf ".bench_run/spans-%s-%d-sf%g.tsv" workload seed sf);
  Trace.reset ();
  out
