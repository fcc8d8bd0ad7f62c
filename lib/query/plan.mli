(** Logical query plans — the language-integrated query AST.

    The structure mirrors the LINQ operator set used by the paper's TPC-H
    adaptation: scans over collections, predicate filters, projections,
    equi hash joins, grouped aggregation, ordering, and limits — plus the
    physical access paths {!Planner} introduces over sources that advertise
    them: [IndexScan] and [IndexJoin] over attached hash indexes,
    [TextScan] over attached suffix-array text indexes, and [ViewRead] over
    maintained aggregate views. A plan can be evaluated by {!Interp}
    (pull-based Volcano iterators — the LINQ-to-objects comparison point),
    {!Fuse} (a fused push pipeline — the query-compilation analogue) or
    {!Vector} (column batches through typed kernels), and compiled to
    native code by {!Codegen}. Engines do not tell one access path from
    another: {!Interp} runs every leaf through {!leaf_rows}, {!Fuse},
    {!Vector} and {!Codegen} run every leaf as column chunks through
    {!leaf_batches}, and every engine runs an [IndexJoin] probe through
    {!Source.keyed_probe}.

    The smart constructors validate column references eagerly: an unknown
    column in a predicate, projection, grouping, or ordering raises
    [Invalid_argument] naming the operator, the column, and the input
    schema at plan-construction time, rather than erroring deep inside an
    evaluator at run time. *)

type dir = Asc | Desc

type agg =
  | Count
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t  (** decimal average regardless of input tag *)

type t =
  | Scan of Source.t
  | IndexScan of { src : Source.t; index : Source.index_info; value : Value.t }
      (** rows of [src] whose indexed column equals [value], via one index
          probe instead of a full scan; same schema and bag of rows as
          [Where (col = value, Scan src)], row order unspecified *)
  | TextScan of {
      src : Source.t;
      text : Source.text_info;
      op : Smc_text.Sa_index.op;
      needle : string;
    }
      (** rows of [src] whose indexed string column matches [(op, needle)]
          ([Prefix] = starts-with, [Substring] = contains), via a
          suffix-array probe instead of a full scan; same schema and bag of
          rows as the equivalent [Where (StartsWith/Contains, Scan src)],
          row order unspecified *)
  | ViewRead of { src : Source.t; matview : Source.matview_info }
      (** the maintained result of the view's reified aggregate plan
          ([GroupBy (keys, aggs)] over [Where (mv_where)] over [Scan src]),
          read in O(groups) instead of re-aggregating the whole scan; same
          schema and bag of rows as evaluating that plan from scratch,
          group order unspecified *)
  | Where of Expr.t * t
  | Select of (string * Expr.t) list * t
  | HashJoin of { left : t; right : t; on : (string * string) list }
      (** inner equi-join; result schema is left columns then right columns *)
  | IndexJoin of { left : t; src : Source.t; index : Source.index_info; left_col : string }
      (** index nested-loop join: for each left row, probe [src]'s index
          with the [left_col] value instead of building a hash table on the
          right side; same bag of rows as the equivalent single-key
          [HashJoin], match order unspecified *)
  | GroupBy of { keys : (string * Expr.t) list; aggs : (string * agg) list; input : t }
  | OrderBy of (Expr.t * dir) list * t
  | Limit of int * t
  | Distinct of t  (** duplicate elimination over whole rows *)

val agg_columns : agg -> string list
(** The columns an aggregate's operand reads ([Count] reads none). *)

val schema : t -> string array
(** Output column names. Raises [Invalid_argument] on name collisions in a
    join's combined schema. *)

val leaf_rows : t -> (Value.t array -> unit) -> unit
(** The row push of a leaf: a [Scan]'s full scan, or the probe of an
    [IndexScan]/[TextScan]/[ViewRead] bound to its argument. Each call of
    the result re-runs the scan or probe. Raises [Invalid_argument] on a
    non-leaf node. *)

val leaf_kinds : t -> Batch.kind array
(** The column kinds of a leaf's chunks ({!leaf_batches}): a [Scan]'s
    source kinds, [K_any] for every column of a probe leaf. Raises
    [Invalid_argument] on a non-leaf node. *)

val leaf_batches : t -> rows:int -> ?cols:bool array -> (Batch.t -> unit) -> unit
(** A leaf as column chunks of at most [rows] rows, how {!Vector},
    {!Fuse} and {!Codegen} read every leaf: a [Scan] through
    {!Source.batches} (filling only the columns [cols] marks), a probe
    leaf's {!leaf_rows} packed into boxed chunks by {!Batch.of_rows}
    (every column). Each call re-runs the scan or probe. Raises
    [Invalid_argument] on a non-leaf node. *)

val children : t -> t list
(** Direct sub-plans, left to right ([IndexJoin]'s right side is a source,
    not a sub-plan). Leaves have none. *)

val sources : t -> Source.t list
(** Every source the plan reads, left to right, with repeats. *)

val scan : Source.t -> t

val index_scan : Source.t -> column:string -> value:Value.t -> t
(** Raises [Invalid_argument] when the source has no index on [column] or
    the index cannot hold [value]. {!Planner.choose_access_paths} builds
    these automatically from eligible [Where] shapes. *)

val text_scan :
  Source.t -> column:string -> op:Smc_text.Sa_index.op -> needle:string -> t
(** Raises [Invalid_argument] when the source has no text index on
    [column]. {!Planner.choose_access_paths} builds these automatically
    from [Contains]/[StartsWith] conjuncts in eligible [Where] shapes. *)

val view_read :
  Source.t ->
  keys:(string * Expr.t) list ->
  aggs:(string * agg) list ->
  where:Expr.t option ->
  t
(** Raises [Invalid_argument] when the source advertises no materialized
    view whose reified plan matches the given shape structurally.
    {!Planner.choose_access_paths} builds these automatically from
    eligible [GroupBy] shapes. *)

val view_agg_of_agg : agg -> Source.view_agg
(** Translation into {!Source.view_agg}, the mirror type materialized
    views describe their reified plans in. *)

val where : Expr.t -> t -> t
val select : (string * Expr.t) list -> t -> t
val join : on:(string * string) list -> t -> t -> t

val index_join : on:string * string -> t -> Source.t -> t
(** [index_join ~on:(left_col, right_col) left src] — raises
    [Invalid_argument] when [src] has no index on [right_col]. *)

val group_by : keys:(string * Expr.t) list -> aggs:(string * agg) list -> t -> t
val order_by : (Expr.t * dir) list -> t -> t
val limit : int -> t -> t
val distinct : t -> t
