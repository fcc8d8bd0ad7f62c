(** Typed evaluation over column chunks, shared by {!Vector} (a chunk at a
    time) and {!Fuse} (one row at a time), and printed by {!Codegen}.

    {!lower} resolves an expression against its input's column kinds once,
    into a typed {!form}; every engine consumes that form, so each kind
    rule (Int→Dec promotion, a compare's domain, [Between]'s order, char
    and string coercion, a key's shape, an aggregate's cell) lives in one
    function here. The interpreters bind a chunk once — its typed arrays
    and selection vector — and then evaluate by selection {e position}
    ([0 ≤ i < len]): [f bt] per chunk, then [(f bt) i] per row. Typed
    nodes exist only where they provably reproduce the scalar
    {!Value}/{!Expr}/{!Aggregate} semantics (including raises); [K_any]
    nodes run {!Value}'s own operations on boxed values. *)

val int_array_of_vec : Batch.vec -> int array
(** The word array of an Int/Dec/Date/Char column. *)

(** {2 The typed form} *)

type cmp_op = O_eq | O_ne | O_lt | O_le | O_gt | O_ge
type arith = A_add | A_sub | A_mul | A_div

(** The domain a compare runs in. *)
type dom =
  | On_words
      (** int words of one kind: two sides of the same int-like kind, or
          Int against Dec with the Int side under [Promote] *)
  | On_strings  (** [String.compare]; a Char side under [Chr] *)
  | On_bools  (** [Bool.compare] *)
  | On_values  (** {!Value.compare} of the boxed sides, raises included *)

type text_op = T_contains | T_contains_ci | T_starts_with

type form = { kind : Batch.kind; node : node }
(** A node and the kind of its value. Int/Dec/Date/Char nodes are
    unboxed words, [K_bool] nodes bools, [K_str] nodes strings; a [K_any]
    node is a boxed {!Value.t}. *)

and node =
  | Col of int  (** a column of the input, read in its kind *)
  | Const of Value.t
  | Subj  (** inside a [Between] bound: the subject's value *)
  | Promote of form  (** an Int word as a Dec word ([Decimal.of_int]) *)
  | Chr of form  (** a Char word as its 1-char string *)
  | Show of form  (** any value as a string, through {!Value.to_string} *)
  | Neg of form  (** a word, or {!Value.neg} when [K_any] *)
  | Arith of arith * form * form
      (** Int or Dec words (both sides already the result kind), or the
          {!Value} operation when [K_any] *)
  | Cmp of cmp_op * dom * form * form
  | And of form * form
  | Or of form * form
  | Not of form
  | Between of form * form * form
      (** [Between (subject, first, second)]: the subject is read once,
          then the first bound's compare, and the second only when the
          first held; each bound is a [Cmp] whose left side is [Subj]
          (under [Promote] or [Chr] when its domain asks) *)
  | Text of text_op * string * form  (** a substring or prefix test of a [K_str] form *)

val lower : schema:string array -> kinds:Batch.kind array -> Expr.t -> form
(** The typed form of an expression over an input with these column names
    and kinds. Raises [Invalid_argument] for an unknown column, like
    {!Expr.compile}. *)

val word_of : Value.t -> int
(** The word of an Int, Dec or Date constant. *)

val test : form -> Batch.t -> int -> bool
(** Per-row truth of a form: a [K_bool] form typed, anything else through
    {!Value.to_bool}. [And], [Or] and [Between] evaluate their later parts
    only where the scalar short-circuit does. *)

val compile_select :
  schema:string array ->
  kinds:Batch.kind array ->
  Expr.t list ->
  Batch.kind array * (Batch.t -> Batch.t -> int -> unit)
(** [(out_kinds, write)] for a projection. [write out bt i] evaluates every
    expression, in order, on position [i] of [bt] and stores the results at
    position [i] of [out], a chunk created with [out_kinds]. *)

(** {2 Group-id tables}

    One table serves every engine's group-by: Vector and Fuse through
    {!group_table}, compiled plans by calling it from the generated code.
    Groups get dense ids in first-seen order; each aggregate keeps a flat
    array indexed by id. *)

type key_shape =
  | No_key  (** a global aggregate: group 0, no table *)
  | Word of Batch.kind  (** one int-like key: its word *)
  | Chars of int  (** 2–7 Char keys, 8 bits each in one word ({!pack_char}) *)
  | Words of Batch.kind array  (** other int-like keys: an int array *)
  | Boxed  (** anything else: the boxed key list *)

val pack_char : int -> int -> int
(** [pack_char key w] appends Char word [w] to a packed key (start at 0). *)

(** Per-group state of one aggregate. Word cells hold an Int/Dec sum or an
    int-like extremum (starting at the far extreme); value cells hold
    {!Aggregate}'s boxed accumulator, starting at [Null]. Every group has
    a row count. *)
type cell =
  | Count
  | Sum_word of Batch.kind
  | Avg_word of Batch.kind
  | Min_word of Batch.kind
  | Max_word of Batch.kind
  | Sum_val
  | Avg_val
  | Min_val
  | Max_val

type group_form = { key_forms : form list; key : key_shape; agg_forms : (cell * form option) list }
(** A lowered group-by: its key forms, how its key is held, and each
    aggregate's cell with its operand ([None] for [Count]). *)

val lower_group :
  schema:string array ->
  kinds:Batch.kind array ->
  keys:Expr.t list ->
  aggs:Plan.agg list ->
  group_form
(** Sums and averages keep a word cell over an Int or Dec operand, and
    extrema over any int-like operand; every other operand keeps
    {!Aggregate}'s boxed accumulator. *)

type index

type table = private {
  shape : key_shape;
  cells : cell array;
  index : index;
  mutable groups : int;  (** ids are [0 .. groups - 1] *)
  mutable rows : int array;  (** rows per group id *)
  words : int array array;  (** per aggregate: its word per group id *)
  vals : Value.t array array;  (** per aggregate: its accumulator per group id *)
  mutable keys : int array;
  mutable boxed_keys : Value.t list array;
  mutable stamp : int;  (** stamp of the chunk being aggregated ({!run_groups}) *)
  mutable first : int array;  (** per group id: [stamp] when the group was made *)
}
(** Read the per-group arrays through the record after each [id_of_*]
    call: a new group may replace them with larger ones. *)

val create_table : key_shape -> cell array -> table

val id_of_word : table -> int -> int
(** The group id of a [Word] or [Chars] key, made on first sight:
    open addressing with an inline multiplicative hash. *)

val id_of_none : table -> int
(** Group 0 of a [No_key] table, made by the first row. *)

val id_of_words : table -> int array -> int
val id_of_boxed : table -> Value.t list -> int

val iter_groups : table -> (Value.t array -> unit) -> unit
(** One finished row per group (keys, then aggregates), in id order. *)

type groups = {
  create : unit -> table;  (** an empty table for these keys and aggregates *)
  add : table -> Batch.t -> int -> unit;
      (** per table, then chunk, then row: evaluate the keys, then update
          every aggregate in order *)
  add_chunk : (table -> Batch.t -> unit) option;
      (** per table (it makes the table's scratch), then the whole chunk at
          once, when the key is absent or a word and every cell is Count
          or a word ({!mergeable} tables); [None] otherwise *)
}

val group_table :
  schema:string array -> kinds:Batch.kind array -> keys:Expr.t list -> aggs:Plan.agg list -> groups
(** Compiles the keys and aggregates once. *)

(** {2 Parallel group-by}

    One driver runs a group-by whose input is a Where/Select chain over a
    [Scan], for Vector, Fuse and compiled plans alike. *)

val mergeable : table -> bool
(** Whether worker tables of this shape merge exactly: no key or a [Word]
    or [Chars] key, and every aggregate Count or a word cell. *)

val run_groups :
  create:(unit -> table) ->
  Source.t ->
  rows:int ->
  ?cols:bool array ->
  (table -> ((Batch.t -> unit) -> unit) -> unit) ->
  table
(** [run_groups ~create src ~rows ?cols phase] aggregates [src]'s scan
    into a table and returns it. [phase t produce] is the aggregation
    phase: it must feed every chunk [produce] pushes, through the chain's
    operators, into [t]. When the source has a parallel batch walk
    ({!Source.par_batches}) and [create ()] is {!mergeable}, every worker
    of that walk runs [phase] on its own table and its own chunks, and
    the tables are merged: rows, sums and averages add, extrema compare,
    and the groups come out in the order the sequential scan first meets
    them, so {!iter_groups} emits exactly the sequential result (merges of
    two or more tables are counted in [par_group_merges]; one worker's
    table is returned as it is). Otherwise [phase] runs once over the
    sequential scan ({!Source.batches}). Either way the chunks hold at most
    [min rows 256] rows, so their columns are minor-heap blocks. An
    exception raised in any worker is re-raised once every worker
    stopped. *)

type 'push chain = {
  src : Source.t;
  cols : bool array option;  (** the scan's column mask *)
  through : 'push -> 'push;
      (** the chain as a function of its consumer; each call makes a fresh
          instance (with its own Select output chunks), so a parallel
          group-by runs one per worker *)
}
(** A Where/Select chain over a [Scan], as {!Vector} and {!Fuse} compile
    it for {!run_groups}; ['push] is the engine's chunk consumer. *)

(** {2 Column needs}

    The columns a subtree's consumer reads, threaded down to the scan so it
    fills only those ({!Source.batches} [?cols]). Select and GroupBy read
    exactly their expressions' columns; Where adds its predicate's; every
    row-consuming operator, and the final emit, reads [All]. *)

type need = All | Only of string list

val need_union : need -> string list -> need
val select_need : (string * Expr.t) list -> need
val group_need : (string * Expr.t) list -> (string * Plan.agg) list -> need

val scan_mask : string array -> need -> bool array option
(** The column mask to scan a leaf of this schema with. *)
