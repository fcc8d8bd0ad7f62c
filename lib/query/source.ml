module Block = Smc_offheap.Block
module Layout = Smc_offheap.Layout
module Context = Smc_offheap.Context
module Runtime = Smc_offheap.Runtime

type index_info = {
  ix_name : string;
  ix_column : string;
  ix_probe : Value.t -> (Value.t array -> unit) -> unit;
  ix_accepts : Value.t -> bool;
}

type text_info = {
  tx_name : string;
  tx_column : string;
  tx_probe : Smc_text.Sa_index.op -> string -> (Value.t array -> unit) -> unit;
}

(* Aggregate spec mirror of [Plan.agg]. Source sits below Plan in the
   dependency order, so a materialized view describes its reified plan in
   these terms and [Planner] translates when matching a [GroupBy] node. *)
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

(* Typed column spec: naming the field's layout kind (instead of handing
   over an opaque closure) is what lets the batch path fill unboxed column
   chunks and the vectorized engine pick typed kernels. [C_fn] keeps the
   old escape hatch — computed or Null-bearing columns — at boxed-vector
   speed. *)
type column =
  | C_int of Layout.field
  | C_dec of Layout.field
  | C_date of Layout.field
  | C_bool of Layout.field
  | C_char of Layout.field  (** 1-byte char field surfaced as a 1-char [Str] *)
  | C_str of Layout.field
  | C_fn of (Block.t -> int -> Value.t)

type par_batches = {
  run :
    'a. rows:int -> ?cols:bool array -> (((int -> Batch.t -> unit) -> unit) -> 'a) -> 'a list;
}

type t = {
  name : string;
  schema : string array;
  kinds : Batch.kind array;
  scan : (Value.t array -> unit) -> unit;
  scan_batches : (rows:int -> ?cols:bool array -> (Batch.t -> unit) -> unit) option;
  par_batches : par_batches option;
  obs : Smc_obs.t option;
  indexes : index_info list;
  texts : text_info list;
  matviews : matview_info list;
}

let kind_of_column = function
  | C_int _ -> Batch.K_int
  | C_dec _ -> Batch.K_dec
  | C_date _ -> Batch.K_date
  | C_bool _ -> Batch.K_bool
  | C_char _ -> Batch.K_char
  | C_str _ -> Batch.K_str
  | C_fn _ -> Batch.K_any

(* Row extractor for one column — the boxed path Volcano/Fuse scan with.
   Char columns box through the shared 1-char string table; structural
   equality with [String.make 1 c] is preserved. *)
let extractor_of_column = function
  | C_int f -> fun blk slot -> Value.Int (Smc.Field.get_int f blk slot)
  | C_dec f -> fun blk slot -> Value.Dec (Smc.Field.get_dec f blk slot)
  | C_date f -> fun blk slot -> Value.Date (Smc.Field.get_date f blk slot)
  | C_bool f -> fun blk slot -> Value.Bool (Smc.Field.get_bool f blk slot)
  | C_char f -> fun blk slot -> Value.Str (Batch.char_str (Smc.Field.get_int f blk slot))
  | C_str f -> fun blk slot -> Value.Str (Smc.Field.get_string f blk slot)
  | C_fn fn -> fn

let extract_column = extractor_of_column

(* The columns [Context.fill_block] does not write: one gather per column
   through the slot indices the same pass recorded. *)
let fill_column col vec blk slots n =
  match (col, vec) with
  | C_bool f, Batch.V_bool dst ->
    let word = f.Layout.word in
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get slots i in
      Array.unsafe_set dst i (Block.get_word blk ~slot:s ~word <> 0)
    done
  | C_str f, Batch.V_str dst ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get slots i in
      Array.unsafe_set dst i (Smc.Field.get_string f blk s)
    done
  | C_fn fn, Batch.V_val dst ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get slots i in
      Array.unsafe_set dst i (fn blk s)
    done
  | _ -> assert false (* word columns are filled by [Context.fill_block] *)

(* Constant values the planner may route through an index of the given key
   kind. The conversion mirrors the key encoding: ints and dates (epoch
   days) are int keys, strings are string keys; anything else — Null,
   decimals, booleans — is unindexable ([ix_accepts] = false), so the
   planner leaves such predicates on the scan path and the IndexJoin
   executors fall back to a hash build for such left keys (Null joins
   Null under HashJoin's structural equality; an index probe could never
   reproduce that). *)
let key_of_value kind v =
  match (kind, v) with
  | `Int, Value.Int n -> Some (Smc_index.Hash_index.K_int n)
  | `Int, Value.Date d -> Some (Smc_index.Hash_index.K_int d)
  | `Str, Value.Str s -> Some (Smc_index.Hash_index.K_str s)
  | _ -> None

let column_index schema col =
  let rec go i =
    if i >= Array.length schema then None
    else if String.equal schema.(i) col then Some i
    else go (i + 1)
  in
  go 0

(* [pool] and [domains] size the parallel batch walk ([par_batches]),
   which the engines run a typed group-by on: [domains] caps the workers
   and defaults to the pool's width (the default pool's, without [pool]).
   Every other scan is sequential.

   Every scan reads at the frontier it takes when it starts; [view] hands
   it the open snapshot view's older one instead, so every scan of the
   plan reads one stable frontier regardless of concurrent committers. The
   view must stay open while the source is consumed, and index access
   paths are rejected — index probes validate against current state and
   would disagree with the frozen frontier. *)
let of_smc ?pool ?domains ?view ?(indexes = []) ?(text_indexes = []) ?(matviews = []) coll
    ~columns =
  (match view with
  | Some _ when indexes <> [] || text_indexes <> [] || matviews <> [] ->
    invalid_arg
      (Printf.sprintf
         "Source.of_smc: collection %S: snapshot views and index access paths are \
          mutually exclusive (probes read current state, not the view frontier)"
         coll.Smc.Collection.name)
  | _ -> ());
  List.iter
    (fun mv ->
      (* Same claims-checked-where-made discipline as indexes and text
         indexes: a view maintained over a different collection would
         silently answer the aggregate from the wrong rows. *)
      if mv.mv_collection != coll then
        invalid_arg
          (Printf.sprintf
             "Source.of_smc: materialized view %S is maintained over collection %S, not %S"
             mv.mv_name mv.mv_collection.Smc.Collection.name coll.Smc.Collection.name))
    matviews;
  let schema = Array.of_list (List.map fst columns) in
  let cols = Array.of_list (List.map snd columns) in
  let kinds = Array.map kind_of_column cols in
  let extractors = Array.map extractor_of_column cols in
  let extract blk slot = Array.map (fun e -> e blk slot) extractors in
  let ctx = coll.Smc.Collection.ctx in
  let obs = ctx.Context.rt.Runtime.obs in
  let with_walk f =
    match view with Some v -> f (Smc.Collection.view_walk v) | None -> Context.with_walk ctx f
  in
  let scan emit =
    with_walk (fun w ->
        Context.walk w ~scan:(fun blk lo hi ->
            Context.scan_slots w blk ~lo ~hi ~f:(fun slot -> emit (extract blk slot))))
  in
  (* A batch reader: one [Context.fill_block] pass per chunk writes the
     slot indices and every wanted word-backed column (Int/Dec/Date, Char
     masked to its byte); Bool/Str/[C_fn] columns are then gathered through
     the slot indices that pass recorded. [mask] (from the consumer's
     [?cols]) drops the columns the plan never reads, and the batch gives
     them no storage. Each scan makes one reader, and a parallel scan one
     per worker: the batch is reused for every chunk (loan contract). *)
  let reader ~rows mask =
    let cap = max rows 1 in
    let want c = match mask with None -> true | Some m -> m.(c) in
    let word_cols = ref [] and others = ref [] in
    Array.iteri
      (fun c col ->
        if want c then
          match col with
          | C_int f | C_dec f | C_date f -> word_cols := (c, f.Layout.word, -1) :: !word_cols
          | C_char f -> word_cols := (c, f.Layout.word, 0xFF) :: !word_cols
          | C_bool _ | C_str _ | C_fn _ -> others := c :: !others)
      cols;
    let word_cols = Array.of_list (List.rev !word_cols) and others = List.rev !others in
    let b = Batch.create ?cols:mask ~kinds ~cap () in
    let chunk =
      {
        Context.slots = Context.make_sel cap;
        words = Array.map (fun (_, w, _) -> w) word_cols;
        masks = Array.map (fun (_, _, m) -> m) word_cols;
        dsts =
          Array.map
            (fun (c, _, _) ->
              match b.Batch.cols.(c) with
              | Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a -> a
              | _ -> assert false)
            word_cols;
      }
    in
    let finish blk n =
      List.iter (fun c -> fill_column cols.(c) b.Batch.cols.(c) blk chunk.Context.slots n) others;
      Batch.set_identity b n
    in
    (b, chunk, finish)
  in
  let scan_batches ~rows ?cols:mask emit =
    let b, chunk, finish = reader ~rows mask in
    let on_batch blk n =
      finish blk n;
      emit b
    in
    with_walk (fun w ->
        Context.walk w ~scan:(fun blk lo hi -> Context.fill_block w blk ~lo ~hi chunk ~on_batch))
  in
  (* The parallel batch walk: one [Par_scan] walk shared by the workers,
     one reader per worker, each chunk handed over with its stamp. *)
  let par_batches =
    {
      run =
        (fun ~rows ?cols:mask work ->
          with_walk (fun w ->
              Smc_parallel.Par_scan.batch_workers ?pool ?domains w (fun share ->
                  let b, chunk, finish = reader ~rows mask in
                  work (fun consume ->
                      share ~chunk ~on_batch:(fun stamp blk n ->
                          finish blk n;
                          consume stamp b)))));
    }
  in
  (* Claims are checked where they are made: an index attached to another
     collection would make IndexScan/IndexJoin/TextScan silently answer
     from the wrong rows. The wrong-column half of the contract can't be
     checked structurally, but the probe-side value re-checks below keep
     it from ever emitting a non-matching row. Returns the column's
     position in the schema. *)
  let attached ~what ~name owner col =
    if owner != coll then
      invalid_arg
        (Printf.sprintf "Source.of_smc: %s %S is attached to collection %S, not %S" what
           name owner.Smc.Collection.name coll.Smc.Collection.name);
    match column_index schema col with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf
           "Source.of_smc: %s %S declared on column %S, which is not in the source schema"
           what name col)
  in
  let indexes =
    List.map
      (fun (col, ix) ->
        let ci =
          attached ~what:"index" ~name:(Smc_index.Hash_index.name ix)
            (Smc_index.Hash_index.collection ix) col
        in
        let kind = Smc_index.Hash_index.key_kind ix in
        {
          ix_name = Smc_index.Hash_index.name ix;
          ix_column = col;
          ix_probe =
            (fun v emit ->
              match key_of_value kind v with
              | None -> ()
              | Some key ->
                Smc_index.Hash_index.probe ix key ~f:(fun _r blk slot ->
                    let row = extract blk slot in
                    (* Structural re-check against the declared column:
                       key words alias across types ([Int n] and [Date n]
                       both encode as [n]), and the probe only sees the
                       word. Mirroring HashJoin's structural match keeps
                       index paths from ever over-matching the scan
                       plan. *)
                    if row.(ci) = v then emit row));
          ix_accepts = (fun v -> key_of_value kind v <> None);
        })
      indexes
  in
  let texts =
    List.map
      (fun (col, tx) ->
        let ci =
          attached ~what:"text index" ~name:(Smc_text.Sa_index.name tx)
            (Smc_text.Sa_index.collection tx) col
        in
        {
          tx_name = Smc_text.Sa_index.name tx;
          tx_column = col;
          tx_probe =
            (fun op needle emit ->
              Smc_text.Sa_index.probe tx op needle ~f:(fun _r blk slot ->
                  let row = extract blk slot in
                  (* Structural re-check against the declared column,
                     mirroring [ix_probe]: the probe validated the field
                     the index was attached over, this re-tests the value
                     the scan plan would see, so a mispaired column/index
                     association never over-matches. *)
                  let s =
                    match row.(ci) with Value.Str s -> s | v -> Value.to_string v
                  in
                  let ok =
                    match op with
                    | Smc_text.Sa_index.Prefix -> Expr.string_starts_with ~prefix:needle s
                    | Smc_text.Sa_index.Substring -> Expr.string_contains ~needle s
                    | Smc_text.Sa_index.Substring_ci -> Expr.string_contains_ci ~needle s
                  in
                  if ok then emit row));
        })
      text_indexes
  in
  {
    name = coll.Smc.Collection.name;
    schema;
    kinds;
    scan;
    scan_batches = Some scan_batches;
    par_batches = Some par_batches;
    obs = Some obs;
    indexes;
    texts;
    matviews;
  }

let of_array ~name ~schema rows =
  let schema = Array.of_list schema in
  {
    name;
    schema;
    kinds = Array.map (fun _ -> Batch.K_any) schema;
    scan = (fun emit -> Array.iter emit rows);
    scan_batches = None;
    par_batches = None;
    obs = None;
    indexes = [];
    texts = [];
    matviews = [];
  }

let batches src ~rows ?cols emit =
  match src.scan_batches with
  | Some sb -> sb ~rows ?cols emit
  | None -> Batch.of_rows ~ncols:(Array.length src.schema) ~rows src.scan emit

let find_index t col =
  List.find_opt (fun ix -> String.equal ix.ix_column col) t.indexes

let find_text t col = List.find_opt (fun tx -> String.equal tx.tx_column col) t.texts

(* IndexJoin's probe. Left keys the index cannot hold (Null, decimals,
   booleans) still join under HashJoin's structural equality — Null
   matches Null — so they route through a hash table over the scan, built
   only if such a key actually appears, once per call of the unit. *)
let keyed_probe src index =
  let ci = Option.get (column_index src.schema index.ix_column) in
  fun () ->
    let fallback =
      lazy
        (let tbl = Hashtbl.create 1024 in
         src.scan (fun r -> Hashtbl.add tbl r.(ci) r);
         tbl)
    in
    fun k emit ->
      if index.ix_accepts k then index.ix_probe k emit
      else List.iter emit (Hashtbl.find_all (Lazy.force fallback) k)

(* Matching a [GroupBy] shape against an advertised view is structural:
   Expr.t is a pure data AST, so OCaml's polymorphic equality decides
   whether the plan's keys/aggregates/filter are the reified ones. *)
let find_matview t ~keys ~aggs ~where =
  List.find_opt
    (fun mv -> mv.mv_keys = keys && mv.mv_aggs = aggs && mv.mv_where = where)
    t.matviews
