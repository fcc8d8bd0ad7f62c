(* Vectorized batch-at-a-time engine (docs/vectorized.md).

   The fourth evaluator: the same [Plan.t] as Volcano/Fuse/Codegen, but
   operators process ~1024-row column chunks ([Batch.t]) instead of calling
   a closure chain per row. Filters refine the batch's selection vector in
   place with branchless write-then-conditionally-advance loops; arithmetic
   runs over unboxed int words (Dec fixed-point, Date epoch days, Char byte
   codes share the int representation the blocks store).

   Exactness contract: every result row is bit-identical to Fuse's, in the
   same order. Typed kernels exist only where they provably reproduce the
   scalar [Value]/[Expr]/[Aggregate] semantics (including raises); every
   other expression or operator falls back to the scalar code itself,
   evaluated row-at-a-time over the batch — so vectorization can never
   change what a plan means, only what it costs. The one visible
   difference: a plan that raises mid-scan may raise at a different row,
   because a chunk evaluates sub-expressions column-by-column, not
   row-by-row. *)

module D = Smc_decimal.Decimal

type pipe = {
  schema : string array;
  kinds : Batch.kind array;
  run : (Batch.t -> unit) -> unit;
  obs : Smc_obs.t option;
}

let resolve schema name =
  let rec go i =
    if i >= Array.length schema then invalid_arg ("Expr.compile: unknown column " ^ name)
    else if String.equal schema.(i) name then i
    else go (i + 1)
  in
  go 0

let int_like = function
  | Batch.K_int | Batch.K_dec | Batch.K_date | Batch.K_char -> true
  | _ -> false

let int_array_of_vec = function
  | Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a -> a
  | _ -> assert false

let box_of_kind = function
  | Batch.K_int -> fun n -> Value.Int n
  | Batch.K_dec -> fun n -> Value.Dec n
  | Batch.K_date -> fun n -> Value.Date n
  | Batch.K_char -> fun n -> Value.Str (Batch.char_str n)
  | _ -> assert false

(* ---- expression compilation (value context) ------------------------- *)

(* A compiled expression yields, per batch, an accessor by selection
   *position* (0 ≤ i < len). Positions stay stable while a filter compacts
   [sel] in place (the write cursor never passes the read cursor), so the
   same accessor shape serves filters and materializers. *)
type ev =
  | E_scalar of Value.t
  | E_ints of Batch.kind * (Batch.t -> int -> int)  (* unboxed int-like *)
  | E_boxed of (Batch.t -> int -> Value.t)  (* scalar-code fallback *)

let boxed_col_prep ci bt =
  let v = bt.Batch.cols.(ci) in
  let sel = bt.Batch.sel in
  fun i -> Batch.box_vec v (Bigarray.Array1.unsafe_get sel i)

(* Row-at-a-time fallback: gather only the referenced columns into a small
   boxed row and run [Expr.compile] itself — semantics (and raises) are the
   scalar engine's by construction. *)
let fallback_ev ~schema e =
  let cols =
    List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] (Expr.columns e)
    |> List.rev
  in
  let sub_schema = Array.of_list cols in
  let f = Expr.compile ~schema:sub_schema e in
  let accs = Array.of_list (List.map (fun c -> boxed_col_prep (resolve schema c)) cols) in
  E_boxed
    (fun bt ->
      let gs = Array.map (fun a -> a bt) accs in
      fun i -> f (Array.map (fun g -> g i) gs))

let boxed_of_ev = function
  | E_scalar v -> fun _ _ -> v
  | E_boxed g -> g
  | E_ints (k, prep) ->
    let box = box_of_kind k in
    fun bt ->
      let g = prep bt in
      fun i -> box (g i)

(* An int-like side for a typed comparison/grouping kernel: the kind plus
   an unboxed accessor. [None] = this operand cannot enter a typed kernel.
   [dates] admits Date/Char sides (valid for compares and keys, not for
   arithmetic — [Value.arith] only accepts Int/Dec). *)
let num_side ~dates = function
  | E_ints (k, p)
    when k = Batch.K_int || k = Batch.K_dec
         || (dates && (k = Batch.K_date || k = Batch.K_char)) ->
    Some (k, p)
  | E_scalar (Value.Int n) -> Some (Batch.K_int, fun _ _ -> n)
  | E_scalar (Value.Dec d) -> Some (Batch.K_dec, fun _ _ -> d)
  | E_scalar (Value.Date d) when dates -> Some (Batch.K_date, fun _ _ -> d)
  | _ -> None

(* Int→Dec promotion, exactly [Value]'s [D.of_int] scaling. *)
let promote_side k p =
  if k = Batch.K_int then fun bt ->
    let g = p bt in
    fun i -> D.of_int (g i)
  else p

let rec compile_value ~schema ~kinds e : ev =
  (* Typed arithmetic exists only for Int/Dec operands — exactly the domain
     of [Value.arith]; everything else (Dates, Strs, Null…) must raise
     through the scalar code, so it falls back. *)
  let arith int_op dec_op a b =
    let ea = compile_value ~schema ~kinds a and eb = compile_value ~schema ~kinds b in
    match (num_side ~dates:false ea, num_side ~dates:false eb) with
    | Some (Batch.K_int, pa), Some (Batch.K_int, pb) ->
      E_ints
        ( Batch.K_int,
          fun bt ->
            let ga = pa bt and gb = pb bt in
            fun i -> int_op (ga i) (gb i) )
    | Some (ka, pa), Some (kb, pb) ->
      let pa = promote_side ka pa and pb = promote_side kb pb in
      E_ints
        ( Batch.K_dec,
          fun bt ->
            let ga = pa bt and gb = pb bt in
            fun i -> dec_op (ga i) (gb i) )
    | _ -> fallback_ev ~schema e
  in
  match e with
  | Expr.Col name ->
    let ci = resolve schema name in
    (match kinds.(ci) with
    | (Batch.K_int | Batch.K_dec | Batch.K_date | Batch.K_char) as k ->
      E_ints
        ( k,
          fun bt ->
            let arr = int_array_of_vec bt.Batch.cols.(ci) in
            let sel = bt.Batch.sel in
            fun i -> Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i) )
    | _ -> E_boxed (boxed_col_prep ci))
  | Expr.Const v -> E_scalar v
  | Expr.Add (a, b) -> arith ( + ) D.add a b
  | Expr.Sub (a, b) -> arith ( - ) D.sub a b
  | Expr.Mul (a, b) -> arith ( * ) D.mul a b
  | Expr.Div (a, b) -> arith ( / ) D.div a b
  | Expr.Neg a -> (
    match compile_value ~schema ~kinds a with
    | E_ints ((Batch.K_int | Batch.K_dec) as k, prep) ->
      E_ints
        ( k,
          fun bt ->
            let g = prep bt in
            fun i -> -g i )
    | E_scalar (Value.Int n) -> E_scalar (Value.Int (-n))
    | E_scalar (Value.Dec d) -> E_scalar (Value.Dec (D.neg d))
    | _ -> fallback_ev ~schema e)
  | _ -> fallback_ev ~schema e

let kind_of_ev = function
  | E_scalar (Value.Int _) -> Batch.K_int
  | E_scalar (Value.Dec _) -> Batch.K_dec
  | E_scalar (Value.Date _) -> Batch.K_date
  | E_scalar (Value.Bool _) -> Batch.K_bool
  | E_scalar (Value.Str _) -> Batch.K_str
  | E_scalar Value.Null -> Batch.K_any
  | E_ints (k, _) -> k
  | E_boxed _ -> Batch.K_any

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

type cmp_op = O_eq | O_ne | O_lt | O_le | O_gt | O_ge

let op_test = function
  | O_eq -> fun c -> c = 0
  | O_ne -> fun c -> c <> 0
  | O_lt -> fun c -> c < 0
  | O_le -> fun c -> c <= 0
  | O_gt -> fun c -> c > 0
  | O_ge -> fun c -> c >= 0

(* Mirror the operator across operand swap: [compare a b ⊛ 0] ⇔
   [compare b a ⊛' 0]. Exact because [Value.compare] is antisymmetric on
   every non-raising pair — and swapped operands only ever enter typed
   kernels, which never raise. *)
let flip_op = function
  | O_eq -> O_eq
  | O_ne -> O_ne
  | O_lt -> O_gt
  | O_le -> O_ge
  | O_gt -> O_lt
  | O_ge -> O_le

(* Hot path: raw column word against an unboxed constant — one branchless
   loop per operator, no closures, no per-row allocation. *)
let filter_col_const ci op k0 bt =
  let arr = int_array_of_vec bt.Batch.cols.(ci) in
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
  let arr = int_array_of_vec bt.Batch.cols.(ci) in
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

(* Constant word for comparing a typed int-like column against a constant,
   under [Value.compare]'s Int/Dec promotion. None = the scalar comparison
   would not be a same-representation int compare, so the fast loop does
   not apply (it may be the char/Null special case, or a type error that
   must raise through the fallback). *)
let const_word col_kind v =
  match (col_kind, v) with
  | Batch.K_int, Value.Int n -> Some n
  | Batch.K_dec, Value.Dec d -> Some d
  | Batch.K_dec, Value.Int n -> Some (D.of_int n)
  | Batch.K_date, Value.Date d -> Some d
  | _ -> None

(* [Value.compare] of a 1-char string (Char column) against a string
   constant, on byte codes: first-byte order, then length as the
   tiebreak — exactly [String.compare] on a 1-char left operand. *)
let char_cmp_const s =
  if String.length s = 0 then fun _ -> 1
  else begin
    let c0 = Char.code s.[0] in
    let tail = if String.length s = 1 then 0 else -1 in
    fun c ->
      let d = Int.compare c c0 in
      if d <> 0 then d else tail
  end

let rebuild op a b =
  match op with
  | O_eq -> Expr.Eq (a, b)
  | O_ne -> Expr.Ne (a, b)
  | O_lt -> Expr.Lt (a, b)
  | O_le -> Expr.Le (a, b)
  | O_gt -> Expr.Gt (a, b)
  | O_ge -> Expr.Ge (a, b)

let rec compile_filter ~schema ~kinds pred : Batch.t -> unit =
  let value e = compile_value ~schema ~kinds e in
  (* Scalar fallback: [Expr.compile]'s own evaluation over the surviving
     rows only — the rows the row engines would evaluate it on. *)
  let boxed_keep e =
    let g = boxed_of_ev (value e) in
    fun bt ->
      let gv = g bt in
      refine bt (fun i -> Value.to_bool (gv i))
  in
  let col_kind = function
    | Expr.Col name ->
      let ci = resolve schema name in
      Some (ci, kinds.(ci))
    | _ -> None
  in
  let cmp op0 a0 b0 =
    (* Put the column on the left; fall back with the ORIGINAL operands so
       type-error messages keep their operand order. *)
    let op, a, b =
      match (a0, b0) with
      | Expr.Const _, Expr.Col _ -> (flip_op op0, b0, a0)
      | _ -> (op0, a0, b0)
    in
    let orig () = boxed_keep (rebuild op0 a0 b0) in
    match (col_kind a, b) with
    | Some (ci, k), Expr.Const v when int_like k -> (
      match const_word k v with
      | Some w -> filter_col_const ci op w
      | None -> (
        match (k, v) with
        | Batch.K_char, Value.Str s ->
          let cmp_c = char_cmp_const s in
          let test = op_test op in
          fun bt ->
            let arr = int_array_of_vec bt.Batch.cols.(ci) in
            let sel = bt.Batch.sel in
            refine bt (fun i ->
                test (cmp_c (Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i))))
        | _, Value.Null ->
          (* A typed column is never Null, so [Value.compare v Null] = 1
             for every row: the whole chunk passes or fails at once. *)
          let keep = op_test op 1 in
          fun bt -> if not keep then bt.Batch.len <- 0
        | _ -> orig ()))
    | _ -> (
      (* Generic unboxed tier: accessor closures over int-like sides, with
         Int→Dec promotion. Same-kind Date/Char compares are raw int
         compares too ([Int.compare] epoch days; byte order = 1-char
         [String.compare]). Anything else falls back. *)
      match (num_side ~dates:true (value a), num_side ~dates:true (value b)) with
      | Some (ka, pa), Some (kb, pb)
        when ka = kb
             || (ka = Batch.K_int && kb = Batch.K_dec)
             || (ka = Batch.K_dec && kb = Batch.K_int) ->
        let pa, pb =
          if ka = kb then (pa, pb) else (promote_side ka pa, promote_side kb pb)
        in
        let test = op_test op in
        fun bt ->
          let ga = pa bt and gb = pb bt in
          refine bt (fun i -> test (Int.compare (ga i) (gb i)))
      | _ -> orig ())
  in
  (* Typed substring/prefix kernels over string and char columns. A K_str
     column's vec is always [V_str] and never holds Null, so the scalar
     Contains/StartsWith semantics collapse to the allocation-free byte
     loops from [Expr]. A K_char column boxes as a 1-char [Str]: the empty
     needle matches everything, a 1-byte needle is byte equality, anything
     longer matches nothing. Other kinds keep the boxed fallback (its
     [Value.to_string] coercions, verbatim). *)
  let text_filter e col needle ~is_prefix =
    let ci = resolve schema col in
    match kinds.(ci) with
    | Batch.K_str ->
      let test =
        if is_prefix then Expr.string_starts_with ~prefix:needle
        else Expr.string_contains ~needle
      in
      fun bt ->
        let arr =
          match bt.Batch.cols.(ci) with Batch.V_str a -> a | _ -> assert false
        in
        let sel = bt.Batch.sel in
        refine bt (fun i ->
            test (Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i)))
    | Batch.K_char ->
      let n = String.length needle in
      if n = 0 then fun _ -> ()
      else if n > 1 then fun bt -> bt.Batch.len <- 0
      else begin
        let c0 = Char.code needle.[0] in
        fun bt ->
          let arr = int_array_of_vec bt.Batch.cols.(ci) in
          let sel = bt.Batch.sel in
          refine bt (fun i ->
              Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i) = c0)
      end
    | _ -> boxed_keep e
  in
  match pred with
  | Expr.And (a, b) ->
    (* Sequential refinement preserves &&'s short-circuit: [b] only ever
       evaluates on rows where [a] held. *)
    let fa = compile_filter ~schema ~kinds a and fb = compile_filter ~schema ~kinds b in
    fun bt ->
      fa bt;
      if bt.Batch.len > 0 then fb bt
  | Expr.Eq (a, b) -> cmp O_eq a b
  | Expr.Ne (a, b) -> cmp O_ne a b
  | Expr.Lt (a, b) -> cmp O_lt a b
  | Expr.Le (a, b) -> cmp O_le a b
  | Expr.Gt (a, b) -> cmp O_gt a b
  | Expr.Ge (a, b) -> cmp O_ge a b
  | Expr.Between (x, lo, hi) -> (
    (* ≡ And (Ge (x, lo), Le (x, hi)) for our pure expressions — including
       raises and short-circuit: a row cut by the lower bound never meets
       the upper one, exactly like the scalar &&. *)
    match (col_kind x, lo, hi) with
    | Some (ci, k), Expr.Const vlo, Expr.Const vhi when int_like k -> (
      match (const_word k vlo, const_word k vhi) with
      | Some wlo, Some whi -> filter_col_between ci wlo whi
      | _ -> compile_filter ~schema ~kinds (Expr.And (Expr.Ge (x, lo), Expr.Le (x, hi))))
    | _ -> compile_filter ~schema ~kinds (Expr.And (Expr.Ge (x, lo), Expr.Le (x, hi))))
  | Expr.Contains (Expr.Col col, needle) as e -> text_filter e col needle ~is_prefix:false
  | Expr.StartsWith (Expr.Col col, needle) as e -> text_filter e col needle ~is_prefix:true
  | other -> boxed_keep other

(* ---- aggregation ----------------------------------------------------- *)

(* Typed cells where the update provably matches [Aggregate]'s boxed cell,
   generic cells (the scalar code itself) everywhere else. *)
type gen_cell = { mutable count : int; mutable acc : Value.t }

type vcell =
  | VC_num of { mutable n : int; mutable s : int }  (* Count/Sum/Avg over Int or Dec *)
  | VC_ext of { mutable n : int; mutable m : int }  (* Min/Max over int-like *)
  | VC_gen of gen_cell  (* the scalar Aggregate cell, verbatim *)

type agg_kernel = {
  ak_fresh : unit -> vcell;
  ak_prep : Batch.t -> vcell -> int -> unit;
  ak_finish : vcell -> Value.t;
}

let promote_dec = function Value.Int x -> Value.Dec (D.of_int x) | v -> v

let generic_kernel update finish prep_g =
  {
    ak_fresh = (fun () -> VC_gen { count = 0; acc = Value.Null });
    ak_prep =
      (fun bt ->
        let g = prep_g bt in
        fun cell i ->
          match cell with VC_gen c -> update c (g i) | _ -> assert false);
    ak_finish = (function VC_gen c -> finish c | _ -> assert false);
  }

let compile_agg ~schema ~kinds agg : agg_kernel =
  let value e = compile_value ~schema ~kinds e in
  match agg with
  | Plan.Count ->
    {
      ak_fresh = (fun () -> VC_num { n = 0; s = 0 });
      ak_prep =
        (fun _ cell _ -> match cell with VC_num c -> c.n <- c.n + 1 | _ -> assert false);
      ak_finish = (function VC_num c -> Value.Int c.n | _ -> assert false);
    }
  | Plan.Sum e | Plan.Avg e -> (
    let is_avg = match agg with Plan.Avg _ -> true | _ -> false in
    match value e with
    | E_ints ((Batch.K_int | Batch.K_dec) as k, prep) ->
      (* Null never enters a typed column, so the scalar cell's
         Null-to-first-value transition collapses to a plain running sum;
         Int overflow wraps exactly like [( + )] in [Value.add]. *)
      let box = if k = Batch.K_int then fun s -> Value.Int s else fun s -> Value.Dec s in
      {
        ak_fresh = (fun () -> VC_num { n = 0; s = 0 });
        ak_prep =
          (fun bt ->
            let g = prep bt in
            fun cell i ->
              match cell with
              | VC_num c ->
                c.n <- c.n + 1;
                c.s <- c.s + g i
              | _ -> assert false);
        ak_finish =
          (function
          | VC_num c ->
            if c.n = 0 then Value.Null
            else if is_avg then Value.div (promote_dec (box c.s)) (Value.Int c.n)
            else box c.s
          | _ -> assert false);
      }
    | ev ->
      (* [Aggregate]'s cell verbatim: Sum over a Date column is legal for a
         single row and raises on the second — the generic path keeps that
         quirk bit-exact. *)
      generic_kernel
        (fun c v ->
          c.count <- c.count + 1;
          c.acc <- (if c.acc = Value.Null then v else Value.add c.acc v))
        (fun c ->
          if not is_avg then c.acc
          else if c.count = 0 then Value.Null
          else Value.div (promote_dec c.acc) (Value.Int c.count))
        (boxed_of_ev ev))
  | Plan.Min e | Plan.Max e -> (
    let want = match agg with Plan.Min _ -> -1 | _ -> 1 in
    match value e with
    | E_ints (k, prep) when int_like k ->
      let box = box_of_kind k in
      {
        ak_fresh = (fun () -> VC_ext { n = 0; m = 0 });
        ak_prep =
          (fun bt ->
            let g = prep bt in
            fun cell i ->
              match cell with
              | VC_ext c ->
                let v = g i in
                if c.n = 0 || Int.compare v c.m = want then c.m <- v;
                c.n <- c.n + 1
              | _ -> assert false);
        ak_finish =
          (function
          | VC_ext c -> if c.n = 0 then Value.Null else box c.m
          | _ -> assert false);
      }
    | ev ->
      generic_kernel
        (fun c v ->
          if c.acc = Value.Null || Value.compare v c.acc = want then c.acc <- v)
        (fun c -> c.acc)
        (boxed_of_ev ev))

(* ---- operators -------------------------------------------------------- *)

let all_any n = Array.make n Batch.K_any

let rows_of pipe emit = pipe.run (fun bt -> Batch.iter_rows bt ~f:emit)

(* Bridge a row producer back into the batch stream — used below every
   row-at-a-time operator (joins, sorts, distinct, index probes). *)
let batches_of ~ncols ~rows produce emit =
  let push, flush = Batch.rebatcher ~ncols ~rows ~emit in
  produce push;
  flush ()

let first_obs a b = match a with Some _ -> a | None -> b

(* Columns a subtree's consumer will actually read, threaded down to the
   scan so it can skip filling the rest ([Source.scan_batches ?cols]).
   [All] = every column materializes (the top-level row boxing, and every
   row-bridged operator, read whole rows). Only projections narrow it:
   Select and GroupBy read exactly their expressions' columns — and they
   evaluate every expression on every surviving row, like Fuse, so nothing
   an expression could raise on is ever skipped. *)
type need = All | Only of string list

let need_union need cols =
  match need with
  | All -> All
  | Only have ->
    Only (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) have cols)

let agg_columns = function
  | Plan.Count -> []
  | Plan.Sum e | Plan.Avg e | Plan.Min e | Plan.Max e -> Expr.columns e

let rec compile ~batch_rows ~need plan : pipe =
  match plan with
  | Plan.Scan src ->
    let mask =
      match need with
      | All -> None
      | Only cols -> Some (Array.map (fun c -> List.mem c cols) src.Source.schema)
    in
    let run emit = Source.batches src ~rows:batch_rows ?cols:mask emit in
    { schema = src.Source.schema; kinds = src.Source.kinds; run; obs = src.Source.obs }
  | Plan.IndexScan { src; _ } | Plan.TextScan { src; _ } | Plan.ViewRead { src; _ } ->
    (* Probe hits and view groups arrive as boxed rows, so the batch is
       all [K_any] and residual predicates above this node route through
       the fallback filter — semantics-exact by construction. *)
    let schema = Plan.schema plan in
    let ncols = Array.length schema in
    let rows = Plan.leaf_rows plan in
    {
      schema;
      kinds = all_any ncols;
      run = (fun emit -> batches_of ~ncols ~rows:batch_rows rows emit);
      obs = src.Source.obs;
    }
  | Plan.Where (pred, input) ->
    let up = compile ~batch_rows ~need:(need_union need (Expr.columns pred)) input in
    let filt = compile_filter ~schema:up.schema ~kinds:up.kinds pred in
    let run emit =
      up.run (fun bt ->
          let before = bt.Batch.len in
          filt bt;
          (match up.obs with
          | Some o ->
            Smc_obs.add o Smc_obs.c_vec_filter_rows_in before;
            Smc_obs.add o Smc_obs.c_vec_filter_rows_kept bt.Batch.len;
            Smc_obs.add o Smc_obs.c_vec_filter_rows_dropped (before - bt.Batch.len)
          | None -> ());
          if bt.Batch.len > 0 then emit bt)
    in
    { up with run }
  | Plan.Select (cols, input) ->
    let up =
      compile ~batch_rows
        ~need:(need_union (Only []) (List.concat_map (fun (_, e) -> Expr.columns e) cols))
        input
    in
    let evs =
      Array.of_list
        (List.map (fun (_, e) -> compile_value ~schema:up.schema ~kinds:up.kinds e) cols)
    in
    let kinds = Array.map kind_of_ev evs in
    let out = Batch.create ~kinds ~cap:batch_rows in
    let fill ev vec bt n =
      match (ev, vec) with
      | E_ints (_, prep), (Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a)
        ->
        let g = prep bt in
        for i = 0 to n - 1 do
          Array.unsafe_set a i (g i)
        done
      | E_boxed prep, Batch.V_val a ->
        let g = prep bt in
        for i = 0 to n - 1 do
          Array.unsafe_set a i (g i)
        done
      | E_scalar (Value.Int v), Batch.V_int a
      | E_scalar (Value.Dec v), Batch.V_dec a
      | E_scalar (Value.Date v), Batch.V_date a ->
        Array.fill a 0 n v
      | E_scalar (Value.Bool v), Batch.V_bool a -> Array.fill a 0 n v
      | E_scalar (Value.Str v), Batch.V_str a -> Array.fill a 0 n v
      | E_scalar Value.Null, Batch.V_val a -> Array.fill a 0 n Value.Null
      | _ -> assert false
    in
    let run emit =
      up.run (fun bt ->
          let n = bt.Batch.len in
          Array.iteri (fun c ev -> fill ev out.Batch.cols.(c) bt n) evs;
          Batch.set_identity out n;
          emit out)
    in
    { schema = Array.of_list (List.map fst cols); kinds; run; obs = up.obs }
  | Plan.GroupBy { keys; aggs; input } ->
    let up =
      compile ~batch_rows
        ~need:
          (need_union (Only [])
             (List.concat_map (fun (_, e) -> Expr.columns e) keys
             @ List.concat_map (fun (_, a) -> agg_columns a) aggs))
        input
    in
    let key_evs =
      Array.of_list
        (List.map (fun (_, e) -> compile_value ~schema:up.schema ~kinds:up.kinds e) keys)
    in
    let kernels =
      Array.of_list
        (List.map (fun (_, a) -> compile_agg ~schema:up.schema ~kinds:up.kinds a) aggs)
    in
    let nkeys = Array.length key_evs and naggs = Array.length kernels in
    let out_schema = Array.of_list (List.map fst keys @ List.map fst aggs) in
    (* Unboxed grouping when every key is int-like: structural equality of
       the packed int key coincides with structural equality of the boxed
       key list, because each position's kind is fixed and boxing is
       injective per kind. Char-only keys (TPC-H Q1) pack into a single
       tagged int — zero allocation per row. *)
    let int_key_sides =
      let ok = ref (nkeys > 0) in
      let sides =
        Array.map
          (fun ev ->
            match num_side ~dates:true ev with
            | Some s -> s
            | None ->
              ok := false;
              (Batch.K_any, fun _ _ -> 0))
          key_evs
      in
      if !ok then Some sides else None
    in
    let finish_row boxed_key cells =
      Array.append (Array.of_list boxed_key)
        (Array.init naggs (fun a -> kernels.(a).ak_finish cells.(a)))
    in
    let run emit =
      let push_groups =
        match int_key_sides with
        | Some sides
          when nkeys <= 8 && Array.for_all (fun (k, _) -> k = Batch.K_char) sides ->
          (* char-packed: the whole key fits one int *)
          let groups : (int, Value.t list * vcell array) Hashtbl.t = Hashtbl.create 64 in
          let order = ref [] in
          up.run (fun bt ->
              let n = bt.Batch.len in
              let upds = Array.map (fun k -> k.ak_prep bt) kernels in
              let gs = Array.map (fun (_, p) -> p bt) sides in
              for i = 0 to n - 1 do
                let key = ref 0 in
                for j = 0 to nkeys - 1 do
                  key := (!key lsl 8) lor (gs.(j) i land 0xFF)
                done;
                let key = !key in
                let cells =
                  match Hashtbl.find_opt groups key with
                  | Some (_, cells) -> cells
                  | None ->
                    let cells = Array.map (fun k -> k.ak_fresh ()) kernels in
                    let boxed =
                      List.init nkeys (fun j -> Value.Str (Batch.char_str (gs.(j) i)))
                    in
                    Hashtbl.add groups key (boxed, cells);
                    order := key :: !order;
                    cells
                in
                for a = 0 to naggs - 1 do
                  upds.(a) cells.(a) i
                done
              done);
          fun push ->
            List.iter
              (fun key ->
                let boxed, cells = Hashtbl.find groups key in
                push (finish_row boxed cells))
              (List.rev !order)
        | Some sides ->
          let groups : (int array, Value.t list * vcell array) Hashtbl.t =
            Hashtbl.create 256
          in
          let order = ref [] in
          let boxers = Array.map (fun (k, _) -> box_of_kind k) sides in
          up.run (fun bt ->
              let n = bt.Batch.len in
              let upds = Array.map (fun k -> k.ak_prep bt) kernels in
              let gs = Array.map (fun (_, p) -> p bt) sides in
              for i = 0 to n - 1 do
                let key = Array.init nkeys (fun j -> gs.(j) i) in
                let cells =
                  match Hashtbl.find_opt groups key with
                  | Some (_, cells) -> cells
                  | None ->
                    let cells = Array.map (fun k -> k.ak_fresh ()) kernels in
                    let boxed = List.init nkeys (fun j -> boxers.(j) key.(j)) in
                    Hashtbl.add groups key (boxed, cells);
                    order := key :: !order;
                    cells
                in
                for a = 0 to naggs - 1 do
                  upds.(a) cells.(a) i
                done
              done);
          fun push ->
            List.iter
              (fun key ->
                let boxed, cells = Hashtbl.find groups key in
                push (finish_row boxed cells))
              (List.rev !order)
        | None ->
          (* Boxed keys — exactly Fuse's [group_key] list, covering Null,
             strings, mixed kinds and the zero-key aggregate. *)
          let groups : (Value.t list, vcell array) Hashtbl.t = Hashtbl.create 256 in
          let order = ref [] in
          up.run (fun bt ->
              let n = bt.Batch.len in
              let upds = Array.map (fun k -> k.ak_prep bt) kernels in
              let gs = Array.map (fun ev -> boxed_of_ev ev bt) key_evs in
              for i = 0 to n - 1 do
                let key = Array.to_list (Array.map (fun g -> g i) gs) in
                let cells =
                  match Hashtbl.find_opt groups key with
                  | Some cells -> cells
                  | None ->
                    let cells = Array.map (fun k -> k.ak_fresh ()) kernels in
                    Hashtbl.add groups key cells;
                    order := key :: !order;
                    cells
                in
                for a = 0 to naggs - 1 do
                  upds.(a) cells.(a) i
                done
              done);
          fun push ->
            List.iter
              (fun key -> push (finish_row key (Hashtbl.find groups key)))
              (List.rev !order)
      in
      batches_of ~ncols:(nkeys + naggs) ~rows:batch_rows push_groups emit
    in
    { schema = out_schema; kinds = all_any (nkeys + naggs); run; obs = up.obs }
  | Plan.HashJoin { left; right; on } ->
    let lp = compile ~batch_rows ~need:All left
    and rp = compile ~batch_rows ~need:All right in
    let lkeys = List.map (fun (lc, _) -> resolve lp.schema lc) on in
    let rkeys = List.map (fun (_, rc) -> resolve rp.schema rc) on in
    let schema = Plan.schema plan in
    let ncols = Array.length schema in
    let run emit =
      batches_of ~ncols ~rows:batch_rows
        (fun push ->
          let table = Hashtbl.create 1024 in
          rows_of rp (fun row ->
              Hashtbl.add table (List.map (fun ci -> row.(ci)) rkeys) row);
          rows_of lp (fun l ->
              List.iter
                (fun r -> push (Array.append l r))
                (Hashtbl.find_all table (List.map (fun ci -> l.(ci)) lkeys))))
        emit
    in
    { schema; kinds = all_any ncols; run; obs = first_obs lp.obs rp.obs }
  | Plan.IndexJoin { left; src; index; left_col } ->
    let lp = compile ~batch_rows ~need:All left in
    let li = resolve lp.schema left_col in
    let keyed = Source.keyed_probe src index in
    let schema = Plan.schema plan in
    let ncols = Array.length schema in
    let run emit =
      batches_of ~ncols ~rows:batch_rows
        (fun push ->
          let keyed = keyed () in
          rows_of lp (fun l -> keyed l.(li) (fun r -> push (Array.append l r))))
        emit
    in
    { schema; kinds = all_any ncols; run; obs = first_obs lp.obs src.Source.obs }
  | Plan.OrderBy (specs, input) ->
    let up = compile ~batch_rows ~need:All input in
    let fns = List.map (fun (e, d) -> (Expr.compile ~schema:up.schema e, d)) specs in
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (f, d) :: rest ->
          let c = Value.compare (f a) (f b) in
          let c = match d with Plan.Asc -> c | Plan.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go fns
    in
    let ncols = Array.length up.schema in
    let run emit =
      batches_of ~ncols ~rows:batch_rows
        (fun push ->
          let rows = ref [] in
          rows_of up (fun row -> rows := row :: !rows);
          List.iter push (List.stable_sort compare_rows (List.rev !rows)))
        emit
    in
    { up with kinds = all_any ncols; run }
  | Plan.Distinct input ->
    let up = compile ~batch_rows ~need:All input in
    let ncols = Array.length up.schema in
    let run emit =
      batches_of ~ncols ~rows:batch_rows
        (fun push ->
          let seen = Hashtbl.create 256 in
          rows_of up (fun row ->
              let key = Array.to_list row in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                push row
              end))
        emit
    in
    { up with kinds = all_any ncols; run }
  | Plan.Limit (n, input) ->
    let up = compile ~batch_rows ~need input in
    let run emit =
      let taken = ref 0 in
      let exception Done in
      try
        up.run (fun bt ->
            let remaining = n - !taken in
            if remaining <= 0 then raise Done;
            if bt.Batch.len > remaining then bt.Batch.len <- remaining;
            if bt.Batch.len > 0 then begin
              taken := !taken + bt.Batch.len;
              emit bt
            end;
            if !taken >= n then raise Done)
      with Done -> ()
    in
    { up with run }

let default_batch_rows = Batch.default_rows

let run ?(batch_rows = default_batch_rows) plan ~f =
  let p = compile ~batch_rows:(max batch_rows 1) ~need:All plan in
  rows_of p f

let collect ?batch_rows plan =
  let out = ref [] in
  run ?batch_rows plan ~f:(fun row -> out := row :: !out);
  List.rev !out
