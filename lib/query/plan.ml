type dir = Asc | Desc

type agg =
  | Count
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type t =
  | Scan of Source.t
  | IndexScan of { src : Source.t; index : Source.index_info; value : Value.t }
  | TextScan of {
      src : Source.t;
      text : Source.text_info;
      op : Smc_text.Sa_index.op;
      needle : string;
    }
  | ViewRead of { src : Source.t; matview : Source.matview_info }
  | Where of Expr.t * t
  | Select of (string * Expr.t) list * t
  | HashJoin of { left : t; right : t; on : (string * string) list }
  | IndexJoin of { left : t; src : Source.t; index : Source.index_info; left_col : string }
  | GroupBy of { keys : (string * Expr.t) list; aggs : (string * agg) list; input : t }
  | OrderBy of (Expr.t * dir) list * t
  | Limit of int * t
  | Distinct of t

let joined_schema ls rs =
  let combined = Array.append ls rs in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c then
        invalid_arg ("Plan.schema: duplicate column in join output: " ^ c);
      Hashtbl.add seen c ())
    combined;
  combined

let rec schema = function
  | Scan src | IndexScan { src; _ } | TextScan { src; _ } -> src.Source.schema
  | ViewRead { matview; _ } ->
    Array.of_list
      (List.map fst matview.Source.mv_keys @ List.map fst matview.Source.mv_aggs)
  | Where (_, p) | OrderBy (_, p) | Limit (_, p) | Distinct p -> schema p
  | Select (cols, _) -> Array.of_list (List.map fst cols)
  | GroupBy { keys; aggs; _ } ->
    Array.of_list (List.map fst keys @ List.map fst aggs)
  | HashJoin { left; right; _ } -> joined_schema (schema left) (schema right)
  | IndexJoin { left; src; _ } -> joined_schema (schema left) src.Source.schema

(* What a leaf does, in one place: the scan, or the probe bound to its
   argument. Engines run every leaf through this push, or through its
   chunk form below, instead of knowing one access path from another. *)
let leaf_rows = function
  | Scan src -> src.Source.scan
  | IndexScan { index; value; _ } -> index.Source.ix_probe value
  | TextScan { text; op; needle; _ } -> text.Source.tx_probe op needle
  | ViewRead { matview; _ } -> matview.Source.mv_read
  | _ -> invalid_arg "Plan.leaf_rows: not a leaf"

(* The chunk form of a leaf, for the chunk engines: a [Scan] fills typed
   chunks ([Source.batches]); a probe's rows are packed into boxed ones,
   the packing [Source.batches] does for a source without a batch path. *)
let leaf_kinds = function
  | Scan src -> src.Source.kinds
  | (IndexScan _ | TextScan _ | ViewRead _) as leaf ->
    Array.map (fun _ -> Batch.K_any) (schema leaf)
  | _ -> invalid_arg "Plan.leaf_kinds: not a leaf"

let leaf_batches leaf ~rows ?cols emit =
  match leaf with
  | Scan src -> Source.batches src ~rows ?cols emit
  | _ -> Batch.of_rows ~ncols:(Array.length (schema leaf)) ~rows (leaf_rows leaf) emit

let children = function
  | Scan _ | IndexScan _ | TextScan _ | ViewRead _ -> []
  | Where (_, p) | Select (_, p) | OrderBy (_, p) | Limit (_, p) | Distinct p -> [ p ]
  | GroupBy { input; _ } -> [ input ]
  | HashJoin { left; right; _ } -> [ left; right ]
  | IndexJoin { left; _ } -> [ left ]

let rec sources = function
  | Scan src | IndexScan { src; _ } | TextScan { src; _ } | ViewRead { src; _ } -> [ src ]
  | IndexJoin { left; src; _ } -> sources left @ [ src ]
  | p -> List.concat_map sources (children p)

(* Eager column validation: unknown references fail at plan construction,
   naming the operator and the input schema, instead of surfacing as an
   [Expr.compile] error deep inside Interp/Fuse at run time. *)

let check_columns op input_schema cols =
  List.iter
    (fun c ->
      if not (Array.exists (String.equal c) input_schema) then
        invalid_arg
          (Printf.sprintf "Plan.%s: unknown column %S (input columns: %s)" op c
             (String.concat ", " (Array.to_list input_schema))))
    cols

let agg_columns = function
  | Count -> []
  | Sum e | Min e | Max e | Avg e -> Expr.columns e

let scan src = Scan src

let index_scan src ~column ~value =
  match Source.find_index src column with
  | None ->
    invalid_arg
      (Printf.sprintf "Plan.index_scan: source %s has no index on column %S"
         src.Source.name column)
  | Some index ->
    if not (index.Source.ix_accepts value) then
      invalid_arg
        (Printf.sprintf "Plan.index_scan: index %s cannot hold constant %s"
           index.Source.ix_name (Value.to_string value));
    IndexScan { src; index; value }

let text_scan src ~column ~op ~needle =
  match Source.find_text src column with
  | None ->
    invalid_arg
      (Printf.sprintf "Plan.text_scan: source %s has no text index on column %S"
         src.Source.name column)
  | Some text -> TextScan { src; text; op; needle }

(* Translate Plan aggregates into Source's mirror type (Source sits below
   Plan, so the view advertises its reified plan in [Source.view_agg]). *)
let view_agg_of_agg = function
  | Count -> Source.V_count
  | Sum e -> Source.V_sum e
  | Min e -> Source.V_min e
  | Max e -> Source.V_max e
  | Avg e -> Source.V_avg e

let view_read src ~keys ~aggs ~where =
  let vaggs = List.map (fun (n, a) -> (n, view_agg_of_agg a)) aggs in
  match Source.find_matview src ~keys ~aggs:vaggs ~where with
  | None ->
    invalid_arg
      (Printf.sprintf
         "Plan.view_read: source %s advertises no materialized view matching the \
          requested aggregate shape"
         src.Source.name)
  | Some matview -> ViewRead { src; matview }

let where e p =
  check_columns "Where" (schema p) (Expr.columns e);
  Where (e, p)

let select cols p =
  check_columns "Select" (schema p) (List.concat_map (fun (_, e) -> Expr.columns e) cols);
  Select (cols, p)

let join ~on left right =
  check_columns "HashJoin(left)" (schema left) (List.map fst on);
  check_columns "HashJoin(right)" (schema right) (List.map snd on);
  HashJoin { left; right; on }

let index_join ~on:(left_col, right_col) left src =
  check_columns "IndexJoin(left)" (schema left) [ left_col ];
  match Source.find_index src right_col with
  | None ->
    invalid_arg
      (Printf.sprintf "Plan.index_join: source %s has no index on column %S"
         src.Source.name right_col)
  | Some index -> IndexJoin { left; src; index; left_col }

let group_by ~keys ~aggs input =
  let s = schema input in
  check_columns "GroupBy(keys)" s (List.concat_map (fun (_, e) -> Expr.columns e) keys);
  check_columns "GroupBy(aggs)" s (List.concat_map (fun (_, a) -> agg_columns a) aggs);
  GroupBy { keys; aggs; input }

let order_by specs p =
  check_columns "OrderBy" (schema p) (List.concat_map (fun (e, _) -> Expr.columns e) specs);
  OrderBy (specs, p)

let limit n p = Limit (n, p)
let distinct p = Distinct p
