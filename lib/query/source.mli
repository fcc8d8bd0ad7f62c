(** Query sources: anything that can produce rows of tagged values.

    A source wraps a scan over an SMC collection (in block order, one
    critical section per block) or over any in-memory sequence — the query
    engine is agnostic, like LINQ-to-objects. A source over an SMC collection can also
    advertise attached {!Smc_index.Hash_index}es as alternative access
    paths; {!Planner} uses them to lower equality predicates and join build
    sides to index probes. *)

type index_info = {
  ix_name : string;  (** index name (diagnostics, codegen) *)
  ix_column : string;  (** the source column the index keys on *)
  ix_probe : Value.t -> (Value.t array -> unit) -> unit;
      (** push every live row whose declared column is structurally equal
          to the value (each probe hit is re-checked against the
          extracted column, so key-word aliasing across types — [Int n]
          vs [Date n] — never over-matches); emits nothing for values the
          index cannot hold (wrong type, [Null]) *)
  ix_accepts : Value.t -> bool;
      (** whether a constant of this shape can be routed to the index;
          executors must fall back to scan-equality for rejected values *)
}

type text_info = {
  tx_name : string;  (** text index name (diagnostics, codegen) *)
  tx_column : string;  (** the source string column the index covers *)
  tx_probe : Smc_text.Sa_index.op -> string -> (Value.t array -> unit) -> unit;
      (** push every live row whose declared column matches the
          (operator, needle) pair — suffix-array candidates are
          incarnation-validated and text-re-checked by the index, then the
          extracted row value is re-tested here, so a text path and a scan
          path produce identical row bags *)
}

(** Aggregate spec mirror of [Plan.agg] ([Source] sits below [Plan] in the
    dependency order): a materialized view describes its reified plan in
    these terms and {!Planner} translates when matching a [GroupBy] node. *)
type view_agg =
  | V_count
  | V_sum of Expr.t
  | V_min of Expr.t
  | V_max of Expr.t
  | V_avg of Expr.t

type matview_info = {
  mv_name : string;  (** view name (diagnostics, codegen) *)
  mv_keys : (string * Expr.t) list;  (** the reified plan's group-by keys *)
  mv_aggs : (string * view_agg) list;  (** the reified plan's aggregates *)
  mv_where : Expr.t option;  (** the filter under the aggregate, if any *)
  mv_read : (Value.t array -> unit) -> unit;
      (** push the maintained result rows (key columns then aggregate
          columns, group order unspecified) — bit-identical to evaluating
          the reified plan from scratch at the view's frontier *)
  mv_frontier : unit -> int;  (** CSN frontier the maintained state reflects *)
  mv_collection : Smc.Collection.t;  (** backing collection (identity check) *)
}

(** A source's parallel batch walk: one block walk shared by several
    workers, each reading its own column chunks. *)
type par_batches = {
  run :
    'a. rows:int -> ?cols:bool array -> (((int -> Batch.t -> unit) -> unit) -> 'a) -> 'a list;
      (** [run ~rows ?cols work] runs [work produce] once per worker and
          returns the results (one when the walk runs sequentially).
          [produce consume] pushes the worker's share of the scan, as
          chunks like [scan_batches]'s, each with its {e stamp}
          ([consume stamp bt]): stamps are distinct across the whole scan
          and increase in the order the sequential scan emits the chunks'
          rows. *)
}

type t = {
  name : string;
  schema : string array;
  kinds : Batch.kind array;  (** static column kinds; [K_any] = opaque *)
  scan : (Value.t array -> unit) -> unit;  (** push a full scan *)
  scan_batches : (rows:int -> ?cols:bool array -> (Batch.t -> unit) -> unit) option;
      (** push the scan as reused column chunks of ≤ [rows] rows (the loan
          contract of {!Batch}), each with the identity selection; [None]
          when the source has no batch path and consumers re-batch the row
          scan ({!batches}). [cols]
          (indexed like [schema]) marks the columns the consumer will read:
          unmarked columns are not filled and have zero-length storage.
          Omitted = fill all. *)
  par_batches : par_batches option;
      (** the parallel form of [scan_batches], when the source has one; a
          source that rebuilds another's record must reset it unless its
          rows are exactly the other's *)
  obs : Smc_obs.t option;  (** counter instance of the backing runtime *)
  indexes : index_info list;  (** access paths advertised to the planner *)
  texts : text_info list;  (** substring/prefix access paths *)
  matviews : matview_info list;  (** maintained aggregate access paths *)
}

(** Typed column spec. Naming the field's layout kind lets the batch path
    fill unboxed column chunks with hoisted placement arithmetic and the
    vectorized engine pick typed kernels; [C_fn] is the escape hatch for
    computed or Null-bearing columns, scanned at boxed-vector speed. *)
type column =
  | C_int of Smc_offheap.Layout.field
  | C_dec of Smc_offheap.Layout.field
  | C_date of Smc_offheap.Layout.field
  | C_bool of Smc_offheap.Layout.field
  | C_char of Smc_offheap.Layout.field
      (** 1-byte char field surfaced as a 1-char [Str] value *)
  | C_str of Smc_offheap.Layout.field
  | C_fn of (Smc_offheap.Block.t -> int -> Value.t)

val of_smc :
  ?pool:Smc_parallel.Pool.t ->
  ?domains:int ->
  ?view:Smc.Collection.view ->
  ?indexes:(string * Smc_index.Hash_index.t) list ->
  ?text_indexes:(string * Smc_text.Sa_index.t) list ->
  ?matviews:matview_info list ->
  Smc.Collection.t ->
  columns:(string * column) list ->
  t
(** Scans the collection with one {!Smc_offheap.Context.walk}, extracting
    the named columns from each row visible at the frontier the scan takes
    when it starts ({!Smc_offheap.Context.with_walk}); like every walk, it
    reads each view position inside its own epoch critical section. The
    batch path ([scan_batches]) fills column chunks with
    {!Smc_offheap.Context.fill_block}, one pass per chunk that tests each
    slot and copies its Int/Dec/Date/Char words (Bool, string and [C_fn]
    columns are then gathered through the slot indices that pass wrote).

    [par_batches] is the same fill as a block-partitioned walk shared by
    several workers ({!Smc_parallel.Par_scan.batch_workers}), each with
    its own chunk. The
    engines run a typed group-by over it (see {!Kernel.run_groups}); every
    other scan, the row scan included, is sequential. [?pool] (default
    {!Smc_parallel.Pool.default}) supplies the workers and [?domains] caps
    them: absent, the walk uses the pool's full width. On a 1-core host,
    or with [~domains:1], that is one worker, running on the caller.

    [?view] hands every scan (sequential or parallel) an open snapshot
    view's older CSN frontier ({!Smc.Collection.snapshot_view}): queries over the
    source read one commit boundary, stable under concurrent committers.
    The view must stay open while the source is consumed. Mutually
    exclusive with [?indexes] (probes validate against current state, which
    can disagree with the frozen frontier) — raises [Invalid_argument] when
    both are given.

    [?indexes] advertises attached hash indexes as access paths: each
    [(col, ix)] pair asserts that [ix]'s key extractor agrees with the
    [col] column extractor on every row (int/date columns need an
    [Int_key], strings a [Str_key]). Raises [Invalid_argument] when [ix]
    is attached to a different collection than the one being scanned, or
    when [col] is not in the declared schema — a mispaired association
    would otherwise silently answer queries from the wrong rows. Probe
    results are extracted with the same [columns] closures as the scan
    and re-checked against the probe value, so an index path and a scan
    path produce identical rows for matching keys.

    [?text_indexes] advertises attached {!Smc_text.Sa_index}es the same
    way, as substring/prefix access paths ([texts]); the same attachment
    and schema checks apply, with the same [Invalid_argument]s, and probe
    hits are re-tested against the extracted column value. Mutually
    exclusive with [?view] like [?indexes].

    [?matviews] advertises maintained aggregate results (built by
    [Smc_matview.Matview.info]) so {!Planner.choose_access_paths} can
    rewrite a structurally matching [GroupBy] to a [ViewRead] leaf.
    Raises [Invalid_argument] when a view is maintained over a different
    collection than the one being scanned. Mutually exclusive with
    [?view]: a view read reflects the maintained frontier, not a frozen
    snapshot. *)

val extract_column : column -> Smc_offheap.Block.t -> int -> Value.t
(** The extraction closure a column spec compiles to — the exact closure
    [of_smc]'s scan and probe paths use, exported so maintenance
    structures (materialized views) extract row values in verbatim
    agreement with the sources that advertise them. Call only on a live
    (block, slot) inside a critical section. *)

val of_array : name:string -> schema:string list -> Value.t array array -> t

val batches : t -> rows:int -> ?cols:bool array -> (Batch.t -> unit) -> unit
(** The scan as column chunks of ≤ [rows] rows: [scan_batches] when the
    source has one, else [scan] re-packed by {!Batch.rebatcher} into boxed
    chunks. Either way each chunk's selection is the identity (its live
    rows are [0 .. len-1]) and the {!Batch} loan contract holds. [cols]
    as in [scan_batches]. How the vectorized, fused and compiled engines
    read a [Scan] leaf. *)

val find_index : t -> string -> index_info option
(** The advertised access path keyed on the given column, if any. *)

val find_text : t -> string -> text_info option
(** The advertised text access path over the given column, if any. *)

val keyed_probe : t -> index_info -> unit -> Value.t -> (Value.t array -> unit) -> unit
(** [keyed_probe src index ()] is one run's [IndexJoin] probe: it pushes
    every row of [src] whose indexed column structurally equals the key,
    exactly the rows a single-key [HashJoin] would match. Keys the index
    accepts go through [ix_probe]; any other key (Null, decimals,
    booleans) is looked up in a hash table over [src]'s scan, built on the
    first such key and kept for the rest of the run. Raises [Not_found]
    before the unit when the index column is not in [src]'s schema. *)

val find_matview :
  t ->
  keys:(string * Expr.t) list ->
  aggs:(string * view_agg) list ->
  where:Expr.t option ->
  matview_info option
(** The advertised view whose reified plan (keys, aggregates, filter) is
    structurally equal to the given shape, if any. *)
