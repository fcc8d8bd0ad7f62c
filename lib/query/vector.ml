(* Vectorized batch-at-a-time engine (docs/vectorized.md).

   The fourth evaluator: the same [Plan.t] as Volcano/Fuse/Codegen, but
   operators process ~1024-row column chunks ([Batch.t]) instead of calling
   a closure chain per row. Filters refine the batch's selection vector in
   place with branchless write-then-conditionally-advance loops; the typed
   expression, predicate, aggregate and group-table code is [Kernel]'s,
   which Fuse runs one row at a time, so here it runs as "bind the chunk,
   then loop over its positions" — except a typed group-by, which
   aggregates the whole chunk one loop per aggregate ([Kernel]'s
   [add_chunk]).

   Exactness contract: every result row is bit-identical to Volcano's, in
   the same order. Typed kernels exist only where they provably reproduce
   the scalar [Value]/[Expr]/[Aggregate] semantics (including raises);
   every other expression or operator falls back to the scalar code
   itself, evaluated row-at-a-time over the batch — so vectorization can
   never change what a plan means, only what it costs. The one visible
   difference: a plan that raises mid-scan may raise at a different row
   when two stacked operators (say a [Where] over a [Where]) both raise,
   because each refines a whole chunk before the next sees it. Within one
   predicate, row order holds: conjuncts refine one after another only
   when the first cannot raise. *)

module K = Kernel

type pipe = {
  schema : string array;
  kinds : Batch.kind array;
  run : (Batch.t -> unit) -> unit;
  chain : (Batch.t -> unit) K.chain option;
  obs : Smc_obs.t option;
}

(* ---- filters (predicate context) ------------------------------------ *)

(* Refine [sel] in place keeping positions where [keep] holds; branchless
   write-then-conditionally-advance. The write cursor never passes the read
   cursor, so accessors by position remain valid during compaction. *)
let refine bt keep =
  let sel = bt.Batch.sel in
  let n = bt.Batch.len in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = Bigarray.Array1.unsafe_get sel i in
    Bigarray.Array1.unsafe_set sel !k s;
    k := !k + Bool.to_int (keep i)
  done;
  bt.Batch.len <- !k

(* Hot path: raw column word against an unboxed constant — one branchless
   loop per operator, no closures, no per-row allocation. *)
let filter_col_const ci (op : K.cmp_op) k0 bt =
  let arr = K.int_array_of_vec bt.Batch.cols.(ci) in
  let sel = bt.Batch.sel in
  let n = bt.Batch.len in
  let k = ref 0 in
  (match op with
  | O_eq ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s = k0)
    done
  | O_ne ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s <> k0)
    done
  | O_lt ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s < k0)
    done
  | O_le ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s <= k0)
    done
  | O_gt ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s > k0)
    done
  | O_ge ->
    for i = 0 to n - 1 do
      let s = Bigarray.Array1.unsafe_get sel i in
      Bigarray.Array1.unsafe_set sel !k s;
      k := !k + Bool.to_int (Array.unsafe_get arr s >= k0)
    done);
  bt.Batch.len <- !k

(* Range fast path: one pass for Between(col, lo, hi), inclusive. *)
let filter_col_between ci lo hi bt =
  let arr = K.int_array_of_vec bt.Batch.cols.(ci) in
  let sel = bt.Batch.sel in
  let n = bt.Batch.len in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = Bigarray.Array1.unsafe_get sel i in
    Bigarray.Array1.unsafe_set sel !k s;
    let v = Array.unsafe_get arr s in
    k := !k + Bool.to_int (v >= lo && v <= hi)
  done;
  bt.Batch.len <- !k

let flip_op : K.cmp_op -> K.cmp_op = function
  | O_eq -> O_eq
  | O_ne -> O_ne
  | O_lt -> O_gt
  | O_le -> O_ge
  | O_gt -> O_lt
  | O_ge -> O_le

(* Whether evaluating a form can raise: boxed operations, [Value.compare]
   across domains, a non-bool truth, and division. *)
let rec may_raise (f : K.form) =
  match f.node with
  | Col _ | Const _ | Subj -> false
  | Promote a | Chr a | Show a | Text (_, _, a) -> may_raise a
  | Neg a -> f.kind = Batch.K_any || may_raise a
  | Arith (op, a, b) -> f.kind = Batch.K_any || op = A_div || may_raise a || may_raise b
  | Cmp (_, dom, a, b) -> dom = On_values || may_raise a || may_raise b
  | And (a, b) | Or (a, b) ->
    a.kind <> Batch.K_bool || b.kind <> Batch.K_bool || may_raise a || may_raise b
  | Not a -> a.kind <> Batch.K_bool || may_raise a
  | Between (s, lo, hi) -> may_raise s || may_raise lo || may_raise hi

(* The chunk kernels take a typed column against constant words. [And]
   refines with its left side and then its right, which keeps &&'s
   short-circuit ([b] only ever evaluates on rows where [a] held), when
   the left side cannot raise: otherwise a row late in the chunk could
   raise before an earlier row's right side does. Every other predicate
   refines by the shared per-row test. *)
let rec compile_filter (f : K.form) : Batch.t -> unit =
  match f.node with
  | Cmp (op, On_words, { node = Col ci; _ }, { node = Const v; _ }) ->
    filter_col_const ci op (K.word_of v)
  | Cmp (op, On_words, { node = Const v; _ }, { node = Col ci; _ }) ->
    filter_col_const ci (flip_op op) (K.word_of v)
  | Between
      ( { node = Col ci; _ },
        { node = Cmp (O_ge, On_words, { node = Subj; _ }, { node = Const lo; _ }); _ },
        { node = Cmp (O_le, On_words, { node = Subj; _ }, { node = Const hi; _ }); _ } ) ->
    filter_col_between ci (K.word_of lo) (K.word_of hi)
  | And (a, b) when not (may_raise a) ->
    let fa = compile_filter a and fb = compile_filter b in
    fun bt ->
      fa bt;
      if bt.Batch.len > 0 then fb bt
  | _ ->
    let test = K.test f in
    fun bt -> refine bt (test bt)

(* ---- operators -------------------------------------------------------- *)

let all_any n = Array.make n Batch.K_any

let rows_of pipe emit = pipe.run (fun bt -> Batch.iter_rows bt ~f:emit)

let plan_obs plan = List.find_map (fun s -> s.Source.obs) (Plan.sources plan)

(* A chunk-to-chunk operator over [up]: [xform emit] makes one instance
   that consumes [up]'s chunks and emits its own. *)
let extend up xform =
  {
    up with
    run = (fun emit -> up.run (xform emit));
    chain =
      Option.map (fun c -> { c with K.through = (fun emit -> c.K.through (xform emit)) }) up.chain;
  }

let rec compile ~batch_rows ~need plan : pipe =
  match plan with
  | Plan.Where (pred, input) ->
    let up = compile ~batch_rows ~need:(K.need_union need (Expr.columns pred)) input in
    let filt = compile_filter (K.lower ~schema:up.schema ~kinds:up.kinds pred) in
    extend up (fun emit bt ->
        let before = bt.Batch.len in
        filt bt;
        (match up.obs with
        | Some o ->
          Smc_obs.add o Smc_obs.c_vec_filter_rows_in before;
          Smc_obs.add o Smc_obs.c_vec_filter_rows_kept bt.Batch.len;
          Smc_obs.add o Smc_obs.c_vec_filter_rows_dropped (before - bt.Batch.len)
        | None -> ());
        if bt.Batch.len > 0 then emit bt)
  | Plan.Select (cols, input) ->
    let up = compile ~batch_rows ~need:(K.select_need cols) input in
    let kinds, write =
      K.compile_select ~schema:up.schema ~kinds:up.kinds (List.map snd cols)
    in
    let p =
      extend up (fun emit ->
          let out = Batch.create ~kinds ~cap:batch_rows () in
          let write = write out in
          fun bt ->
            let n = bt.Batch.len in
            let w = write bt in
            for i = 0 to n - 1 do
              w i
            done;
            Batch.set_identity out n;
            emit out)
    in
    { p with schema = Array.of_list (List.map fst cols); kinds }
  | Plan.GroupBy { keys; aggs; input } ->
    let up = compile ~batch_rows ~need:(K.group_need keys aggs) input in
    let g =
      K.group_table ~schema:up.schema ~kinds:up.kinds ~keys:(List.map snd keys)
        ~aggs:(List.map snd aggs)
    in
    let ncols = List.length keys + List.length aggs in
    (* The aggregation phase into one table, a whole chunk at a time when
       the table allows it. *)
    let phase t produce =
      match g.K.add_chunk with
      | Some add_chunk ->
        let add_chunk = add_chunk t in
        produce (fun bt ->
            add_chunk bt;
            match up.obs with
            | Some o -> Smc_obs.add o Smc_obs.c_vec_agg_chunk_rows bt.Batch.len
            | None -> ())
      | None ->
        let add = g.K.add t in
        produce (fun bt ->
            let add = add bt in
            for i = 0 to bt.Batch.len - 1 do
              add i
            done)
    in
    let run emit =
      let t =
        match up.chain with
        | Some c ->
          K.run_groups ~create:g.K.create c.K.src ~rows:batch_rows ?cols:c.K.cols (fun t produce ->
              phase t (fun consume -> produce (c.K.through consume)))
        | None ->
          let t = g.K.create () in
          phase t up.run;
          t
      in
      Batch.of_rows ~ncols ~rows:batch_rows (K.iter_groups t) emit
    in
    { schema = Plan.schema plan; kinds = all_any ncols; run; chain = None; obs = up.obs }
  | Plan.HashJoin _ | Plan.IndexJoin _ | Plan.OrderBy _ | Plan.Distinct _ ->
    let ncols = Array.length (Plan.schema plan) in
    let rows = Fuse.row_operator plan (fun p -> rows_of (compile ~batch_rows ~need:K.All p)) in
    {
      schema = Plan.schema plan;
      kinds = all_any ncols;
      run = Batch.of_rows ~ncols ~rows:batch_rows rows;
      chain = None;
      obs = plan_obs plan;
    }
  | Plan.Limit (n, input) ->
    let up = compile ~batch_rows ~need input in
    (* A limit of 0 or less runs nothing, as in Volcano, which never pulls
       its input. *)
    let run emit =
      let taken = ref 0 in
      let exception Done in
      if n > 0 then
        try
          up.run (fun bt ->
              let remaining = n - !taken in
              if bt.Batch.len > remaining then bt.Batch.len <- remaining;
              if bt.Batch.len > 0 then begin
                taken := !taken + bt.Batch.len;
                emit bt
              end;
              if !taken >= n then raise Done)
        with Done -> ()
    in
    { up with run; chain = None }
  | leaf ->
    (* A leaf's chunks: typed from a [Scan], boxed from a probe. Only a
       [Scan] starts a chain, which a parallel group-by reads. *)
    let cols = K.scan_mask (Plan.schema leaf) need in
    {
      schema = Plan.schema leaf;
      kinds = Plan.leaf_kinds leaf;
      run = (fun emit -> Plan.leaf_batches leaf ~rows:batch_rows ?cols emit);
      chain =
        (match leaf with Plan.Scan src -> Some { K.src; cols; through = Fun.id } | _ -> None);
      obs = plan_obs leaf;
    }

let run ?(batch_rows = Batch.default_rows) plan ~f =
  let p = compile ~batch_rows:(max batch_rows 1) ~need:K.All plan in
  rows_of p f

let collect ?batch_rows plan =
  let out = ref [] in
  run ?batch_rows plan ~f:(fun row -> out := row :: !out);
  List.rev !out
