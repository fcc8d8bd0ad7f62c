(** Typed evaluation over column chunks, shared by {!Vector} (a chunk at a
    time) and {!Fuse} (one row at a time).

    Every compiled piece binds a chunk once — its typed arrays and
    selection vector — and then evaluates by selection {e position}
    ([0 ≤ i < len]): [f bt] per chunk, then [(f bt) i] per row. Int, Dec,
    Date and Char columns are read as unboxed words; typed code exists only
    where it provably reproduces the scalar {!Value}/{!Expr}/{!Aggregate}
    semantics (including raises), and everything else runs
    {!Expr.compile} itself over a small boxed row gathered from the
    chunk. *)

val resolve : string array -> string -> int
(** Column position; raises [Invalid_argument] like {!Expr.compile}. *)

val int_array_of_vec : Batch.vec -> int array
(** The word array of an Int/Dec/Date/Char column. *)

val compile_select :
  schema:string array ->
  kinds:Batch.kind array ->
  Expr.t list ->
  Batch.kind array * (Batch.t -> Batch.t -> int -> unit)
(** [(out_kinds, write)] for a projection. [write out bt i] evaluates every
    expression, in order, on position [i] of [bt] and stores the results at
    position [i] of [out], a chunk created with [out_kinds]. *)

type cmp_op = O_eq | O_ne | O_lt | O_le | O_gt | O_ge

val col_const :
  schema:string array -> kinds:Batch.kind array -> Expr.t -> (int * cmp_op * int) option
(** [Some (column, op, word)] when the predicate compares a typed int-like
    column with a constant whose comparison is a plain word compare (column
    on the left, the operator mirrored if it was on the right). *)

val col_between :
  schema:string array -> kinds:Batch.kind array -> Expr.t -> (int * int * int) option
(** [Some (column, lo, hi)] for [Between] of a typed int-like column and two
    constants that compare as words. *)

val compile_test :
  schema:string array -> kinds:Batch.kind array -> Expr.t -> Batch.t -> int -> bool
(** Per-row predicate test. [And] and [Between] evaluate their right side
    only on rows the left side keeps, like the scalar [&&]. *)

type groups = {
  add : Batch.t -> int -> unit;
      (** per chunk, then per row: evaluate the keys, then update every
          aggregate in order *)
  iter : (Value.t array -> unit) -> unit;
      (** one finished row per group (keys then aggregates), in first-seen
          order *)
}

val group_table :
  schema:string array ->
  kinds:Batch.kind array ->
  keys:Expr.t list ->
  aggs:Plan.agg list ->
  unit ->
  groups
(** Compiles the keys and aggregates once; each call of the unit makes an
    empty table. Char-only keys (up to seven) pack into one int, other
    int-like keys into an int array, everything else into the boxed key
    list. *)

(** {2 Column needs}

    The columns a subtree's consumer reads, threaded down to the scan so it
    fills only those ({!Source.batches} [?cols]). Select and GroupBy read
    exactly their expressions' columns; Where adds its predicate's; every
    row-consuming operator, and the final emit, reads [All]. *)

type need = All | Only of string list

val need_union : need -> string list -> need
val select_need : (string * Expr.t) list -> need
val group_need : (string * Expr.t) list -> (string * Plan.agg) list -> need

val scan_mask : Source.t -> need -> bool array option
(** The column mask to scan [src] with. *)
