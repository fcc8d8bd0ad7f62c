(* Four-engine comparison on TPC-H Q1/Q6: the tagged-value Volcano
   interpreter, the fused push pipeline, the vectorized batch engine and
   the Dynlink-compiled plan — same plans, same SMC lineitem source. A
   [Fill] row per query times the source's batch scan alone, with the
   query's column mask and no consumer: the floor every batch engine pays.
   Every row is the median of [samples] runs, with the spread printed.

   The run is also a correctness gate: every engine's rows must be
   bit-identical (Value.equal, same order) to the Volcano reference, the
   compiled path must actually execute through a loaded plugin (or report
   exactly why it was skipped), and the runtime must pass the structural
   audit and counter balances afterwards. Violations are returned; empty
   means every gate held. *)

open Smc_util
module Q = Smc_query
module V = Smc_query.Value

type point = {
  query : string;  (** ["Q1"] | ["Q6"] *)
  engine : string;  (** ["Fill"] | ["Volcano"] | ["Fuse"] | ["Vector"] | ["Compiled"] *)
  ms : float;  (** median wall time; [nan] when the engine was skipped *)
  iqr_ms : float;  (** spread: 75th minus 25th percentile of the samples *)
  krows_s : float;  (** source rows per second through the plan *)
  vs_fuse : float;  (** throughput relative to Fuse (>1 = faster); [nan] when skipped *)
  identical : bool;  (** rows bit-identical to the Volcano reference *)
  note : string;  (** compile outcome, skip reason, or [""] *)
}

let samples = 7

let time_ms f =
  let xs = Timing.repeat ~warmup:1 samples (fun () -> ignore (Sys.opaque_identity (f ()))) in
  (Stats.median xs, Stats.percentile xs 75.0 -. Stats.percentile xs 25.0)

(* The column mask Vector's [Scan] leaf reads under the Q1/Q6 shape
   (GroupBy over Where over Scan). *)
let rec scan_mask need = function
  | Q.Plan.GroupBy { keys; aggs; input } -> scan_mask (Q.Kernel.group_need keys aggs) input
  | Q.Plan.Where (pred, input) ->
    scan_mask (Q.Kernel.need_union need (Q.Expr.columns pred)) input
  | Q.Plan.Scan src -> Q.Kernel.scan_mask src.Q.Source.schema need
  | _ -> None

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 V.equal ra rb)
       a b

let run ?(sf = 0.1) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  let src = Linq_vs_compiled.lineitem_source db in
  let rows = Array.length ds.Smc_tpch.Row.lineitems in
  let violations = ref [] in
  let note_violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let points = ref [] in
  let bench query plan =
    let reference = Q.Interp.collect plan in
    if reference = [] then note_violation "%s: empty reference result" query;
    let fuse_ms, _ = time_ms (fun () -> Q.Fuse.collect plan) in
    let emit engine (ms, iqr_ms) identical note =
      points :=
        {
          query;
          engine;
          ms;
          iqr_ms;
          krows_s = (if Float.is_nan ms then Float.nan else float rows /. ms);
          vs_fuse = (if Float.is_nan ms then Float.nan else fuse_ms /. ms);
          identical;
          note;
        }
        :: !points;
      if not identical then note_violation "%s/%s: rows differ from the Volcano reference" query engine
    in
    let timed engine f note =
      let identical = rows_equal reference (f ()) in
      emit engine (time_ms f) identical note
    in
    let mask = scan_mask Q.Kernel.All plan in
    let fill () = Q.Source.batches src ~rows:Q.Batch.default_rows ?cols:mask ignore in
    emit "Fill" (time_ms fill) true
      (match mask with
      | Some m ->
        Printf.sprintf "scan_batches, %d of %d columns"
          (Array.fold_left (fun n b -> if b then n + 1 else n) 0 m)
          (Array.length m)
      | None -> "scan_batches, all columns");
    timed "Volcano" (fun () -> Q.Interp.collect plan) "";
    timed "Fuse" (fun () -> Q.Fuse.collect plan) "";
    timed "Vector" (fun () -> Q.Vector.collect plan) "";
    (* Prepare once so the compile (or the decision to skip) happens outside
       the timed region; the runner is the cached plugin function. *)
    (match Q.Codegen.prepare plan with
    | runner, Q.Codegen.Native digest ->
      let collect () =
        let out = ref [] in
        runner (fun row -> out := row :: !out);
        List.rev !out
      in
      timed "Compiled" collect (Printf.sprintf "dynlink %s" (String.sub digest 0 12))
    | _, Q.Codegen.Fallback reason ->
      (* Report the skip explicitly rather than timing the Fuse fallback as
         if it were compiled code. *)
      emit "Compiled" (Float.nan, Float.nan) true (Printf.sprintf "skipped: %s" reason))
  in
  bench "Q6" (Linq_vs_compiled.q6_plan src);
  bench "Q1" (Linq_vs_compiled.q1_plan src);
  let contexts =
    List.map
      (fun (c : Smc.Collection.t) -> c.Smc.Collection.ctx)
      Smc_tpch.Db_smc.
        [
          db.regions; db.nations; db.suppliers; db.parts; db.partsupps; db.customers;
          db.orders; db.lineitems;
        ]
  in
  violations :=
    !violations
    @ Smc_check.Audit.check_once db.Smc_tpch.Db_smc.rt ~contexts
    @ Smc_check.Obs_check.check db.Smc_tpch.Db_smc.rt ~contexts;
  (List.rev !points, List.rev !violations)

let table points =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Vectorized batch engine vs Volcano/Fuse/Compiled (TPC-H, median of %d)" samples)
      ~columns:[ "query"; "engine"; "ms"; "IQR ms"; "krows/s"; "vs Fuse"; "identical"; "note" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.query;
          p.engine;
          (if Float.is_nan p.ms then "-" else Printf.sprintf "%.2f" p.ms);
          (if Float.is_nan p.iqr_ms then "-" else Printf.sprintf "%.2f" p.iqr_ms);
          (if Float.is_nan p.ms then "-" else Printf.sprintf "%.0f" p.krows_s);
          (if Float.is_nan p.vs_fuse then "-" else Printf.sprintf "%.2fx" p.vs_fuse);
          (if p.identical then "yes" else "NO");
          p.note;
        ])
    points;
  t
