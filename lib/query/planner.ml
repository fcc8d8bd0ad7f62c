(* Access-path selection: a single bottom-up rewrite that lowers logical
   shapes onto the index paths sources advertise. Deliberately a separate,
   explicit pass — plans run unchanged unless the caller opts in, which is
   what lets the test suite compare indexed and scan-only executions of the
   same logical plan. *)

(* Flatten a conjunction into its conjuncts. *)
let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* [col = const] in either orientation, as an (column, value) pair. *)
let eq_const = function
  | Expr.Eq (Expr.Col c, Expr.Const v) | Expr.Eq (Expr.Const v, Expr.Col c) -> Some (c, v)
  | _ -> None

(* A substring/prefix test over a bare column, as (column, op, needle).
   Empty needles are not routed: they match every row, so the probe would
   be a slower full scan. *)
let text_const = function
  | Expr.Contains (Expr.Col c, s) when s <> "" -> Some (c, Smc_text.Sa_index.Substring, s)
  | Expr.ContainsCI (Expr.Col c, s) when s <> "" ->
    Some (c, Smc_text.Sa_index.Substring_ci, s)
  | Expr.StartsWith (Expr.Col c, s) when s <> "" -> Some (c, Smc_text.Sa_index.Prefix, s)
  | _ -> None

(* Pick the first conjunct the source can answer with an index probe. The
   whole predicate — matched equality included — stays behind as a
   residual filter over the probe's output: the probe is an access path,
   not the authority on the predicate. Re-checking the matched conjunct
   is cheap relative to the probe and belt-and-braces against the cases
   where a probe and the logical predicate can disagree (key words alias
   across value types; a column/index association that violates the
   [Source.of_smc] agreement contract). *)
let rewrite_where pred src =
  let eq e =
    match eq_const e with
    | Some (c, v) ->
      (match Source.find_index src c with
      | Some index when index.Source.ix_accepts v ->
        Some (Plan.IndexScan { src; index; value = v })
      | _ -> None)
    | None -> None
  in
  let text e =
    match text_const e with
    | Some (c, op, needle) ->
      Option.map (fun text -> Plan.TextScan { src; text; op; needle }) (Source.find_text src c)
    | None -> None
  in
  let cs = conjuncts pred in
  (* Equality probes first: a hash/suffix tie would be rare, and the
     equality path is the more selective one when both apply. *)
  let base = match List.find_map eq cs with Some _ as b -> b | None -> List.find_map text cs in
  Option.map (fun base -> Plan.Where (pred, base)) base

(* A [GroupBy] whose shape is exactly a view's reified plan — same keys,
   same aggregates, same filter (or no filter), over a bare scan of the
   advertising source — reads the maintained result instead of
   re-aggregating. The match is structural on the Expr ASTs, so spelling
   the query differently (commuted conjuncts, renamed output columns)
   deliberately does NOT match: the view answers exactly the plan it
   reified, nothing it would have to prove equivalent. *)
let rewrite_group_by ~keys ~aggs input =
  let shape =
    match input with
    | Plan.Scan src -> Some (src, None)
    | Plan.Where (pred, Plan.Scan src) -> Some (src, Some pred)
    | _ -> None
  in
  match shape with
  | None -> None
  | Some (src, where) ->
    let vaggs = List.map (fun (n, a) -> (n, Plan.view_agg_of_agg a)) aggs in
    (match Source.find_matview src ~keys ~aggs:vaggs ~where with
    | Some matview -> Some (Plan.ViewRead { src; matview })
    | None -> None)

let rec choose_access_paths plan =
  match plan with
  | Plan.Scan _ | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ -> plan
  | Plan.Where (pred, input) ->
    (match choose_access_paths input with
    | Plan.Scan src as input' ->
      (match rewrite_where pred src with
      | Some rewritten -> rewritten
      | None -> Plan.Where (pred, input'))
    | input' -> Plan.Where (pred, input'))
  | Plan.Select (cols, p) -> Plan.Select (cols, choose_access_paths p)
  | Plan.HashJoin { left; right; on } ->
    let left = choose_access_paths left in
    (match (right, on) with
    | Plan.Scan src, [ (left_col, right_col) ] ->
      (match Source.find_index src right_col with
      | Some index -> Plan.IndexJoin { left; src; index; left_col }
      | None -> Plan.HashJoin { left; right = choose_access_paths right; on })
    | _ -> Plan.HashJoin { left; right = choose_access_paths right; on })
  | Plan.IndexJoin { left; src; index; left_col } ->
    Plan.IndexJoin { left = choose_access_paths left; src; index; left_col }
  | Plan.GroupBy { keys; aggs; input } ->
    (* The view match runs against the ORIGINAL input shape: a lower
       rewrite (e.g. the filter lowering to a TextScan) would hide the
       [Where (pred, Scan src)] pattern the view reified. *)
    (match rewrite_group_by ~keys ~aggs input with
    | Some rewritten -> rewritten
    | None -> Plan.GroupBy { keys; aggs; input = choose_access_paths input })
  | Plan.OrderBy (specs, p) -> Plan.OrderBy (specs, choose_access_paths p)
  | Plan.Limit (n, p) -> Plan.Limit (n, choose_access_paths p)
  | Plan.Distinct p -> Plan.Distinct (choose_access_paths p)

let rec uses_index = function
  | Plan.Scan _ -> false
  | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ | Plan.IndexJoin _ -> true
  | p -> List.exists uses_index (Plan.children p)
