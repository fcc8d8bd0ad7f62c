(* Suffix-array text access paths vs full scans.

   A synthetic document table: each row carries a fixed-width unique head
   token ("doc%07d") followed by pseudo-random filler tokens, with a rare
   marker token ("zqxj") planted in ~1/10000 rows. Substring and prefix
   selections run twice from the same logical plan — as written (full
   scan with the byte-loop predicate) and through
   [Planner.choose_access_paths] (TextScan over the suffix array) — on
   all four engines, verifying the rewritten plan returns exactly the
   scan plan's rows. A churn phase then removes rows (their head tokens
   must stop matching — staleness must never resurrect), overwrites
   surviving rows' text through the store hook (old text must miss, new
   text must hit from the pending tail or a sealed run), forces a
   merge-rebuild and re-verifies parity, so a bench run is also the
   text-index self-check workload. *)

open Smc_util
module Q = Smc_query
module V = Smc_query.Value
module T = Smc_text.Sa_index

type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;
}

let median_ms f =
  Stats.median (Timing.repeat ~warmup:1 3 (fun () -> ignore (Sys.opaque_identity (f ()))))

let sorted_rows rows = List.sort Stdlib.compare rows

let same_rows a b =
  List.equal (fun x y -> Array.for_all2 V.equal x y) (sorted_rows a) (sorted_rows b)

let measure ~case ~engine ~collect ~scan_plan ~idx_plan =
  let scan_rows = collect scan_plan and idx_rows = collect idx_plan in
  let scan_ms = median_ms (fun () -> collect scan_plan) in
  let idx_ms = median_ms (fun () -> collect idx_plan) in
  {
    case;
    engine;
    rows_out = List.length idx_rows;
    scan_ms;
    idx_ms;
    speedup = (if idx_ms > 0.0 then scan_ms /. idx_ms else infinity);
    identical = same_rows scan_rows idx_rows;
  }

(* ---- corpus --------------------------------------------------------- *)

let tokens =
  [| "alpha"; "bravo"; "china"; "delta"; "early"; "forge"; "grain"; "hotel";
     "igloo"; "knife"; "lemon"; "motor"; "noble"; "ocean"; "piano"; "river";
     "sugar"; "tango"; "umbra"; "vigor"; "wheat"; "yacht"; "amber"; "blaze";
     "cedar"; "dough"; "ember"; "flint"; "gleam"; "haven"; "ivory"; "karma" |]

(* The rare marker: tokens are separated by spaces and none contains it,
   so it can neither occur in filler nor straddle a token boundary. *)
let marker = "zqxj"
let marker_step = 9973

let head_token i = Printf.sprintf "doc%07d" i
let upd_token i = Printf.sprintf "upd%07d" i

let doc_text i =
  let h = (i * 2654435761) land 0x3FFFFFFF in
  Printf.sprintf "%s %s %s%s" (head_token i)
    tokens.(h land 31)
    tokens.((h lsr 5) land 31)
    (if i mod marker_step = 0 then " " ^ marker else "")

let store_string coll (f : Smc_offheap.Layout.field) r s =
  let words = Smc_offheap.Block.string_words f s in
  Array.iteri
    (fun i w -> Smc.Collection.store coll r ~word:(f.Smc_offheap.Layout.word + i) ~value:w)
    words

(* ---- run ------------------------------------------------------------ *)

let run ?(rows = 1_000_000) () =
  let rt = Smc_offheap.Runtime.create () in
  let layout =
    Smc_offheap.Layout.create ~name:"docs"
      [ ("id", Smc_offheap.Layout.Int); ("txt", Smc_offheap.Layout.Str 42) ]
  in
  let docs = Smc.Collection.create rt ~name:"docs" ~layout () in
  let fid = Smc.Field.int layout "id" and ftxt = Smc.Field.str layout "txt" in
  let refs = Array.make rows Smc.Ref.null in
  for i = 0 to rows - 1 do
    refs.(i) <-
      Smc.Collection.add docs ~init:(fun blk slot ->
          Smc.Field.set_int fid blk slot i;
          Smc.Field.set_string ftxt blk slot (doc_text i))
  done;
  let tix = T.attach ~name:"docs_by_txt" ~column:"txt" docs in
  let src =
    Q.Source.of_smc docs
      ~text_indexes:[ ("txt", tix) ]
      ~columns:[ ("id", Q.Source.C_int fid); ("txt", Q.Source.C_str ftxt) ]
  in
  let indexed plan =
    let p = Q.Planner.choose_access_paths plan in
    assert (Q.Planner.uses_index p);
    p
  in
  let violations = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Rare substring: ~rows/10k hits out of [rows]. *)
  let sub_plan = Q.Plan.(where Q.Expr.(Contains (Col "txt", marker)) (scan src)) in
  (* Prefix over the fixed-width head tokens: "doc00042" matches exactly
     ids 4200-4299 (the width pins every other id's digits away). *)
  let prefix = "doc00042" in
  let pre_plan = Q.Plan.(where Q.Expr.(StartsWith (Col "txt", prefix)) (scan src)) in
  (* Conjunction with a residual the index cannot answer — the rewrite
     must keep it as a filter over the probe. *)
  let mix_plan =
    Q.Plan.(
      where
        Q.Expr.(And (Contains (Col "txt", marker), Ge (Col "id", int (rows / 2))))
        (scan src))
  in
  let engines =
    [
      ("Volcano", Q.Interp.collect);
      ("Fuse", Q.Fuse.collect);
      ("Vector", fun p -> Q.Vector.collect p);
      ("Compiled", Q.Codegen.collect);
    ]
  in
  let points =
    List.concat_map
      (fun (engine, collect) ->
        [
          measure ~case:("substring " ^ marker) ~engine ~collect ~scan_plan:sub_plan
            ~idx_plan:(indexed sub_plan);
          measure ~case:("prefix " ^ prefix) ~engine ~collect ~scan_plan:pre_plan
            ~idx_plan:(indexed pre_plan);
        ])
      engines
    @ [
        measure ~case:"substring (+residual)" ~engine:"Fuse" ~collect:Q.Fuse.collect
          ~scan_plan:mix_plan ~idx_plan:(indexed mix_plan);
        measure ~case:"substring (+residual)" ~engine:"Vector"
          ~collect:(fun p -> Q.Vector.collect p)
          ~scan_plan:mix_plan ~idx_plan:(indexed mix_plan);
      ]
  in
  List.iter
    (fun p -> if not p.identical then vf "text plan result mismatch: %s/%s" p.case p.engine)
    points;
  (* The high-selectivity gate: a needle hitting ~1/10k rows must beat the
     full scan by a wide margin. The floor scales down with the corpus —
     at smoke sizes the scan is only a few hundred microseconds. *)
  let floor = if rows >= 500_000 then 100.0 else 3.0 in
  List.iter
    (fun p ->
      if String.equal p.engine "Fuse" && String.equal p.case ("substring " ^ marker) then
        if p.speedup < floor then
          vf "text path speedup %.1fx below the %.0fx floor (%s/%s)" p.speedup floor
            p.case p.engine)
    points;
  (* ---- churn: removals must go stale, stores must re-key ------------- *)
  let removed = ref [] in
  let i = ref 0 in
  while !i < rows do
    if Smc.Collection.remove docs refs.(!i) then removed := !i :: !removed;
    i := !i + 97
  done;
  List.iter
    (fun k ->
      if T.contains_match tix T.Prefix (head_token k) then
        vf "removed row %d still matches its head token" k)
    !removed;
  let updated = ref [] in
  let max_runs = ref 0 in
  let i = ref 1 in
  while !i < rows do
    (* Skip the removed stride (multiples of 97): stores need a live row. *)
    if !i mod 97 <> 0 then begin
      store_string docs ftxt refs.(!i) (Printf.sprintf "%s %s" (upd_token !i) marker);
      updated := !i :: !updated;
      max_runs := max !max_runs (T.stats tix).T.runs
    end;
    i := !i + 199
  done;
  (* Every rewrite appends once per word of the column (six for Str 42),
     so even the smoke corpus's ~250 rewrites cross several seals of the
     pending tail and merge runs before the forced rebuild below; if runs
     never appeared, the run path went untested. *)
  if !max_runs = 0 then vf "churn phase never sealed a run (the run path went unexercised)";
  (* New text must hit from the pending tail or a sealed run; the old head
     token must read as a miss (the arena entry went stale via the
     re-check). *)
  List.iter
    (fun k ->
      if not (T.contains_match tix T.Prefix (upd_token k)) then
        vf "updated row %d not findable by its new head token (pending path)" k;
      if T.contains_match tix T.Prefix (head_token k) then
        vf "updated row %d still matches its old head token" k)
    !updated;
  T.rebuild tix;
  List.iter
    (fun k ->
      if not (T.contains_match tix T.Prefix (upd_token k)) then
        vf "updated row %d not findable after the merge-rebuild" k)
    !updated;
  (* Post-churn parity: the rewritten plan must still match the scan. *)
  let post = Q.Fuse.collect sub_plan and post_ix = Q.Fuse.collect (indexed sub_plan) in
  if not (same_rows post post_ix) then
    vf "post-churn substring parity: indexed plan diverged from the scan";
  (* Similarity smoke: a live row's own text must surface itself. *)
  let probe_row = 3 in
  (match T.top_k_similar tix ~k:3 (doc_text probe_row) with
  | [] -> vf "top_k_similar returned nothing for a live row's own text"
  | (_, score) :: _ when score <= 0 -> vf "top_k_similar best score not positive"
  | _ -> ());
  let final =
    !violations
    @ Smc_text.Sa_index.audit tix
    @ Smc_check.Audit.check_once rt ~contexts:[ docs.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check rt ~contexts:[ docs.Smc.Collection.ctx ]
  in
  (points, List.rev final)

let table points =
  let t =
    Table.create ~title:"Text access paths: suffix-array probes vs full scans"
      ~columns:[ "case"; "engine"; "rows out"; "scan ms"; "text ms"; "speedup"; "identical" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.case;
          p.engine;
          string_of_int p.rows_out;
          Printf.sprintf "%.3f" p.scan_ms;
          Printf.sprintf "%.3f" p.idx_ms;
          Printf.sprintf "%.1fx" p.speedup;
          string_of_bool p.identical;
        ])
    points;
  t
