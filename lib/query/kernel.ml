(* Typed evaluation over column chunks, shared by the vectorized engine
   ({!Vector}, which runs it over a chunk at a time) and the fused pipeline
   ({!Fuse}, which runs it one row at a time through a closure chain). The
   group-id table is also what compiled plans ({!Codegen}) call.

   Every compiled piece has the same two-step shape: bind a chunk once
   (fetch its typed arrays and selection vector), then evaluate by
   selection *position* (0 ≤ i < len). Arithmetic and compares run over
   unboxed int words (Dec fixed-point, Date epoch days, Char byte codes
   share the int representation the blocks store).

   Typed code exists only where it provably reproduces the scalar
   [Value]/[Expr]/[Aggregate] semantics (including raises); every other
   expression falls back to [Expr.compile] itself over a small boxed row
   gathered from the chunk, so the typed tier can never change what a plan
   means, only what it costs. *)

module D = Smc_decimal.Decimal

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

(* Positions stay stable while a filter compacts [sel] in place (the write
   cursor never passes the read cursor), so the same accessor shape serves
   filters and materializers. *)
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

(* ---- projections ------------------------------------------------------ *)

(* Select writes position i's outputs at position i of its output chunk,
   every expression in column order — the order the row engines evaluate a
   projection in, so the same row raises first. *)
let compile_select ~schema ~kinds exprs =
  let evs = Array.of_list (List.map (compile_value ~schema ~kinds) exprs) in
  let writer ev vec : Batch.t -> int -> unit =
    match (ev, vec) with
    | E_ints (_, prep), (Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a) ->
      fun bt ->
        let g = prep bt in
        fun i -> Array.unsafe_set a i (g i)
    | E_boxed prep, Batch.V_val a ->
      fun bt ->
        let g = prep bt in
        fun i -> Array.unsafe_set a i (g i)
    | E_scalar (Value.Int v), Batch.V_int a
    | E_scalar (Value.Dec v), Batch.V_dec a
    | E_scalar (Value.Date v), Batch.V_date a ->
      fun _ i -> Array.unsafe_set a i v
    | E_scalar (Value.Bool v), Batch.V_bool a -> fun _ i -> Array.unsafe_set a i v
    | E_scalar (Value.Str v), Batch.V_str a -> fun _ i -> Array.unsafe_set a i v
    | E_scalar Value.Null, Batch.V_val a -> fun _ i -> Array.unsafe_set a i Value.Null
    | _ -> assert false
  in
  let write out =
    let ws = Array.mapi (fun c ev -> writer ev out.Batch.cols.(c)) evs in
    fun bt ->
      let ws = Array.map (fun w -> w bt) ws in
      fun i ->
        for c = 0 to Array.length ws - 1 do
          (Array.unsafe_get ws c) i
        done
  in
  (Array.map kind_of_ev evs, write)

(* ---- predicates ------------------------------------------------------- *)

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

let cmp_parts = function
  | Expr.Eq (a, b) -> Some (O_eq, a, b)
  | Expr.Ne (a, b) -> Some (O_ne, a, b)
  | Expr.Lt (a, b) -> Some (O_lt, a, b)
  | Expr.Le (a, b) -> Some (O_le, a, b)
  | Expr.Gt (a, b) -> Some (O_gt, a, b)
  | Expr.Ge (a, b) -> Some (O_ge, a, b)
  | _ -> None

(* Put the column on the left. *)
let col_left (op, a, b) =
  match (a, b) with Expr.Const _, Expr.Col _ -> (flip_op op, b, a) | _ -> (op, a, b)

(* Constant word for comparing a typed int-like column against a constant,
   under [Value.compare]'s Int/Dec promotion. None = the scalar comparison
   would not be a same-representation int compare, so the word kernels do
   not apply (it may be the char/Null special case, or a type error that
   must raise through the fallback). *)
let const_word col_kind v =
  match (col_kind, v) with
  | Batch.K_int, Value.Int n -> Some n
  | Batch.K_dec, Value.Dec d -> Some d
  | Batch.K_dec, Value.Int n -> Some (D.of_int n)
  | Batch.K_date, Value.Date d -> Some d
  | _ -> None

let typed_col ~schema ~kinds = function
  | Expr.Col name ->
    let ci = resolve schema name in
    if int_like kinds.(ci) then Some (ci, kinds.(ci)) else None
  | _ -> None

let col_const ~schema ~kinds pred =
  match cmp_parts pred with
  | None -> None
  | Some parts -> (
    match col_left parts with
    | op, a, Expr.Const v -> (
      match typed_col ~schema ~kinds a with
      | Some (ci, k) -> Option.map (fun w -> (ci, op, w)) (const_word k v)
      | None -> None)
    | _ -> None)

let col_between ~schema ~kinds = function
  | Expr.Between (x, Expr.Const lo, Expr.Const hi) -> (
    match typed_col ~schema ~kinds x with
    | Some (ci, k) -> (
      match (const_word k lo, const_word k hi) with
      | Some wlo, Some whi -> Some (ci, wlo, whi)
      | _ -> None)
    | None -> None)
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

(* Per-position word accessor of a typed column. *)
let words ci bt =
  let arr = int_array_of_vec bt.Batch.cols.(ci) in
  let sel = bt.Batch.sel in
  fun i -> Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i)

let word_test ci op w : Batch.t -> int -> bool =
  match op with
  | O_eq -> fun bt -> let g = words ci bt in fun i -> g i = w
  | O_ne -> fun bt -> let g = words ci bt in fun i -> g i <> w
  | O_lt -> fun bt -> let g = words ci bt in fun i -> g i < w
  | O_le -> fun bt -> let g = words ci bt in fun i -> g i <= w
  | O_gt -> fun bt -> let g = words ci bt in fun i -> g i > w
  | O_ge -> fun bt -> let g = words ci bt in fun i -> g i >= w

(* Generic unboxed compare tier: two int-like sides as words that compare
   like [Value.compare], with Int→Dec promotion. Same-kind Date/Char
   compares are raw int compares too ([Int.compare] epoch days; byte order
   = 1-char [String.compare]). [None] = the compare must run the scalar
   code (it may raise). *)
let comparable ea eb =
  match (num_side ~dates:true ea, num_side ~dates:true eb) with
  | Some (ka, pa), Some (kb, pb) when ka = kb -> Some (pa, pb)
  | Some (ka, pa), Some (kb, pb)
    when (ka = Batch.K_int && kb = Batch.K_dec) || (ka = Batch.K_dec && kb = Batch.K_int) ->
    Some (promote_side ka pa, promote_side kb pb)
  | _ -> None

let rec compile_test ~schema ~kinds pred : Batch.t -> int -> bool =
  let value e = compile_value ~schema ~kinds e in
  (* Scalar fallback: [Expr.compile]'s own evaluation, on the rows that
     reach the test — the rows the row engines would evaluate it on. *)
  let boxed e =
    let g = boxed_of_ev (value e) in
    fun bt ->
      let gv = g bt in
      fun i -> Value.to_bool (gv i)
  in
  let cmp parts =
    (* Fall back with the ORIGINAL operands so type-error messages keep
       their operand order. *)
    let op, a, b = col_left parts in
    match (typed_col ~schema ~kinds a, b) with
    | Some (ci, k), Expr.Const v -> (
      match (k, v) with
      | Batch.K_char, Value.Str s ->
        let cmp_c = char_cmp_const s in
        let test = op_test op in
        fun bt ->
          let g = words ci bt in
          fun i -> test (cmp_c (g i))
      | _, Value.Null ->
        (* A typed column is never Null, so [Value.compare v Null] = 1 for
           every row. *)
        let keep = op_test op 1 in
        fun _ _ -> keep
      | _ -> boxed pred)
    | _ -> (
      match comparable (value a) (value b) with
      | Some (pa, pb) ->
        let test = op_test op in
        fun bt ->
          let ga = pa bt and gb = pb bt in
          fun i -> test (Int.compare (ga i) (gb i))
      | None -> boxed pred)
  in
  (* Typed substring/prefix tests over string and char columns. A K_str
     column's vec is always [V_str] and never holds Null, so the scalar
     Contains/StartsWith semantics collapse to the allocation-free byte
     loops from [Expr]. A K_char column boxes as a 1-char [Str]: the empty
     needle matches everything, a 1-byte needle is byte equality, anything
     longer matches nothing. Other kinds keep the boxed fallback (its
     [Value.to_string] coercions, verbatim). *)
  let text col needle ~is_prefix =
    let ci = resolve schema col in
    match kinds.(ci) with
    | Batch.K_str ->
      let test =
        if is_prefix then Expr.string_starts_with ~prefix:needle
        else Expr.string_contains ~needle
      in
      fun bt ->
        let arr = match bt.Batch.cols.(ci) with Batch.V_str a -> a | _ -> assert false in
        let sel = bt.Batch.sel in
        fun i -> test (Array.unsafe_get arr (Bigarray.Array1.unsafe_get sel i))
    | Batch.K_char ->
      let n = String.length needle in
      if n <> 1 then fun _ _ -> n = 0
      else begin
        let c0 = Char.code needle.[0] in
        fun bt ->
          let g = words ci bt in
          fun i -> g i = c0
      end
    | _ -> boxed pred
  in
  match col_const ~schema ~kinds pred with
  | Some (ci, op, w) -> word_test ci op w
  | None -> (
    match col_between ~schema ~kinds pred with
    | Some (ci, lo, hi) ->
      fun bt ->
        let g = words ci bt in
        fun i ->
          let v = g i in
          v >= lo && v <= hi
    | None -> (
      match pred with
      | Expr.And (a, b) ->
        let ta = compile_test ~schema ~kinds a and tb = compile_test ~schema ~kinds b in
        fun bt ->
          let ta = ta bt and tb = tb bt in
          fun i -> ta i && tb i
      | Expr.Between (x, lo, hi) -> (
        (* [Expr.compile]'s order: x, then lo, and hi only on rows that
           pass the lower bound. x is pure, so reading it again for the
           upper bound changes nothing. *)
        let ex = value x in
        match (comparable ex (value lo), comparable ex (value hi)) with
        | Some (px1, plo), Some (px2, phi) ->
          fun bt ->
            let gx1 = px1 bt and glo = plo bt and gx2 = px2 bt and ghi = phi bt in
            fun i ->
              let v = gx1 i in
              Int.compare v (glo i) >= 0
              &&
              let v = gx2 i in
              Int.compare v (ghi i) <= 0
        | _ -> boxed pred)
      | Expr.Contains (Expr.Col col, needle) -> text col needle ~is_prefix:false
      | Expr.StartsWith (Expr.Col col, needle) -> text col needle ~is_prefix:true
      | _ -> ( match cmp_parts pred with Some parts -> cmp parts | None -> boxed pred)))

(* ---- chunk expressions ------------------------------------------------ *)

(* [compile_value]'s typed arithmetic as data, evaluated a whole chunk at a
   time into word arrays: the same domain (Int/Dec operands, Int→Dec
   promotion through [D.of_int], Int op Int staying Int) and the same word
   operations, so every position gets the word [compile_value] computes
   for it. A Date or Char column or constant is a word only where no
   arithmetic touches it (a key or an extremum). [None] = the expression
   has no chunk form. *)
type wop = W_add | W_sub | W_imul | W_idiv | W_dmul | W_ddiv

type wx =
  | X_const of Batch.kind * int
  | X_col of Batch.kind * int
  | X_promote of wx  (* Int words → Dec words *)
  | X_neg of Batch.kind * wx
  | X_bin of Batch.kind * wop * wx * wx

let wx_kind = function
  | X_const (k, _) | X_col (k, _) | X_neg (k, _) | X_bin (k, _, _, _) -> k
  | X_promote _ -> Batch.K_dec

let rec chunk_expr ~schema ~kinds e =
  let num x = match wx_kind x with Batch.K_int | Batch.K_dec -> true | _ -> false in
  let promote = function
    | X_const (Batch.K_int, n) -> X_const (Batch.K_dec, D.of_int n)
    | x when wx_kind x = Batch.K_int -> X_promote x
    | x -> x
  in
  let arith iop dop a b =
    match (chunk_expr ~schema ~kinds a, chunk_expr ~schema ~kinds b) with
    | Some xa, Some xb when num xa && num xb ->
      if wx_kind xa = Batch.K_int && wx_kind xb = Batch.K_int then
        Some (X_bin (Batch.K_int, iop, xa, xb))
      else Some (X_bin (Batch.K_dec, dop, promote xa, promote xb))
    | _ -> None
  in
  match e with
  | Expr.Col name ->
    let ci = resolve schema name in
    if int_like kinds.(ci) then Some (X_col (kinds.(ci), ci)) else None
  | Expr.Const (Value.Int n) -> Some (X_const (Batch.K_int, n))
  | Expr.Const (Value.Dec d) -> Some (X_const (Batch.K_dec, d))
  | Expr.Const (Value.Date d) -> Some (X_const (Batch.K_date, d))
  | Expr.Add (a, b) -> arith W_add W_add a b
  | Expr.Sub (a, b) -> arith W_sub W_sub a b
  | Expr.Mul (a, b) -> arith W_imul W_dmul a b
  | Expr.Div (a, b) -> arith W_idiv W_ddiv a b
  | Expr.Neg a -> (
    (* [compile_value] folds a negated constant; Decimal negation is [-] *)
    match chunk_expr ~schema ~kinds a with
    | Some (X_const (((Batch.K_int | Batch.K_dec) as k), n)) -> Some (X_const (k, -n))
    | Some x when num x -> Some (X_neg (wx_kind x, x))
    | _ -> None)
  | _ -> None

let[@inline] wapply op a b =
  match op with
  | W_add -> a + b
  | W_sub -> a - b
  | W_imul -> a * b
  | W_idiv -> a / b
  | W_dmul -> D.mul a b
  | W_ddiv -> D.div a b

(* Chunks are aggregated in slices of at most [slice] positions, so every
   scratch array is a minor-heap block ([Max_young_wosize] words): a
   chunk-sized one would go straight to the major heap on every run and
   add major-GC work that later queries pay for. *)
let slice = 256

(* Per run: how to read the words of positions [lo .. lo + n - 1] of a
   chunk ([fetch bt lo n]). [direct] words are a column's own array, read
   at [sel.(lo + i)] (no gather); the others are the node's scratch array,
   holding position [lo + i] at [i]. *)
type words = { direct : bool; fetch : Batch.t -> int -> int -> int array }

let[@inline] word_at direct (a : int array) (sel : Batch.sel) lo i =
  if direct then Array.unsafe_get a (Bigarray.Array1.unsafe_get sel (lo + i))
  else Array.unsafe_get a i

let rec instantiate x : words =
  let computed fill = { direct = false; fetch = fill (Array.make slice 0) } in
  match x with
  | X_col (_, ci) -> { direct = true; fetch = (fun bt _ _ -> int_array_of_vec bt.Batch.cols.(ci)) }
  | X_const (_, c) ->
    computed (fun d ->
        Array.fill d 0 slice c;
        fun _ _ _ -> d)
  | X_promote x ->
    let { direct; fetch } = instantiate x in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (D.of_int (word_at direct a sel lo i))
        done;
        d)
  | X_neg (_, x) ->
    let { direct; fetch } = instantiate x in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (-word_at direct a sel lo i)
        done;
        d)
  | X_bin (_, op, xa, X_const (_, c)) ->
    let { direct; fetch } = instantiate xa in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (wapply op (word_at direct a sel lo i) c)
        done;
        d)
  | X_bin (_, op, X_const (_, c), xb) ->
    let { direct; fetch } = instantiate xb in
    computed (fun d bt lo n ->
        let b = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (wapply op c (word_at direct b sel lo i))
        done;
        d)
  | X_bin (_, op, xa, xb) ->
    let wa = instantiate xa and wb = instantiate xb in
    let da = wa.direct and db = wb.direct in
    computed (fun d bt lo n ->
        let a = wa.fetch bt lo n in
        let b = wb.fetch bt lo n in
        let sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (wapply op (word_at da a sel lo i) (word_at db b sel lo i))
        done;
        d)

(* ---- group-id tables -------------------------------------------------- *)

(* How a group's key is held. Int-like keys are words: equal words mean
   equal boxed key lists, because each position's kind is fixed and boxing
   is injective per kind. One key is its word; up to seven Char keys pack
   8 bits each into one int (TPC-H Q1; seven fit OCaml's 63 bits); other
   int-like keys are an int array; everything else (strings, bools, Null,
   boxed columns) is the boxed key list itself. *)
type key_shape = No_key | Word of Batch.kind | Chars of int | Words of Batch.kind array | Boxed

let key_shape kinds =
  let n = List.length kinds in
  if n = 0 then No_key
  else if not (List.for_all int_like kinds) then Boxed
  else if n = 1 then Word (List.hd kinds)
  else if n <= 7 && List.for_all (fun k -> k = Batch.K_char) kinds then Chars n
  else Words (Array.of_list kinds)

let pack_char key w = (key lsl 8) lor (w land 0xFF)

(* What one aggregate keeps per group. A word cell starts at its fold's
   identity (0, or the far extreme, which the first value always
   replaces); a value cell is [Aggregate]'s accumulator verbatim, starting
   at Null. A group exists only once a row made it, so no cell needs
   [Aggregate]'s empty case, and the row count is kept once per group. *)
type cell =
  | Count
  | Sum_word of Batch.kind
  | Avg_word of Batch.kind
  | Min_word of Batch.kind
  | Max_word of Batch.kind
  | Sum_val
  | Avg_val
  | Ext_val

let cell_init = function Min_word _ -> max_int | Max_word _ -> min_int | _ -> 0

type open_ix = { mutable slots : int array; mutable shift : int }

type index =
  | Single
  | Open of open_ix  (* slot → group id, or -1 *)
  | By_words of (int array, int) Hashtbl.t
  | By_boxed of (Value.t list, int) Hashtbl.t

(* [stamp] is the stamp of the chunk being aggregated (a parallel scan's
   chunks carry one, {!Source.par_batches}) and [first] records it for each
   group when the group is made: with the group ids, it orders a worker's
   groups among every other worker's by where the sequential scan first
   meets them. *)
type table = {
  shape : key_shape;
  cells : cell array;
  index : index;
  mutable groups : int;
  mutable rows : int array;
  words : int array array;
  vals : Value.t array array;
  mutable keys : int array;
  mutable boxed_keys : Value.t list array;
  mutable stamp : int;
  mutable first : int array;
}

let create_table shape cells =
  let cap = 8 in
  let word_cell = function Sum_word _ | Avg_word _ | Min_word _ | Max_word _ -> true | _ -> false in
  let val_cell = function Sum_val | Avg_val | Ext_val -> true | _ -> false in
  let word_key = match shape with Word _ | Chars _ -> true | _ -> false in
  let list_key = match shape with Words _ | Boxed -> true | _ -> false in
  {
    shape;
    cells;
    index =
      (match shape with
      | No_key -> Single
      | Word _ | Chars _ -> Open { slots = Array.make 16 (-1); shift = Sys.int_size - 4 }
      | Words _ -> By_words (Hashtbl.create 64)
      | Boxed -> By_boxed (Hashtbl.create 64));
    groups = 0;
    rows = Array.make cap 0;
    words = Array.map (fun c -> if word_cell c then Array.make cap (cell_init c) else [||]) cells;
    vals = Array.map (fun c -> if val_cell c then Array.make cap Value.Null else [||]) cells;
    keys = (if word_key then Array.make cap 0 else [||]);
    boxed_keys = (if list_key then Array.make cap [] else [||]);
    stamp = 0;
    first = Array.make cap 0;
  }

(* Double a per-group array that is in use (non-empty), keeping [n]. *)
let extend a n fill =
  if Array.length a = 0 then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b
  end

let new_group t =
  let id = t.groups in
  if id = Array.length t.rows then begin
    t.rows <- extend t.rows id 0;
    Array.iteri (fun j a -> t.words.(j) <- extend a id (cell_init t.cells.(j))) t.words;
    Array.iteri (fun j a -> t.vals.(j) <- extend a id Value.Null) t.vals;
    t.keys <- extend t.keys id 0;
    t.boxed_keys <- extend t.boxed_keys id [];
    t.first <- extend t.first id 0
  end;
  Array.unsafe_set t.first id t.stamp;
  t.groups <- id + 1;
  id

(* Fibonacci hashing: the top bits of the key times 2^62/φ (odd). *)
let[@inline] slot_of key shift = (key * 0x278DDE6E5FD29F05) lsr shift

let rehash t o =
  let size = 2 * Array.length o.slots in
  let slots = Array.make size (-1) in
  o.shift <- o.shift - 1;
  for id = 0 to t.groups - 1 do
    let h = ref (slot_of t.keys.(id) o.shift) in
    while slots.(!h) >= 0 do
      h := (!h + 1) land (size - 1)
    done;
    slots.(!h) <- id
  done;
  o.slots <- slots

(* A miss from [id_of_word]: probe on from slot [h]; make the group if the
   key is new. *)
let id_of_word_probe t o key h =
  let slots = o.slots in
  let mask = Array.length slots - 1 in
  let h = ref h in
  let id = ref (Array.unsafe_get slots !h) in
  while !id >= 0 && Array.unsafe_get t.keys !id <> key do
    h := (!h + 1) land mask;
    id := Array.unsafe_get slots !h
  done;
  if !id >= 0 then !id
  else begin
    let id = new_group t in
    Array.unsafe_set t.keys id key;
    Array.unsafe_set slots !h id;
    if 2 * t.groups > Array.length slots then rehash t o;
    id
  end

(* The hit at the key's own slot is inlined into callers (compiled plans
   included); everything else takes [id_of_word_probe]. *)
let[@inline] id_of_word t key =
  match t.index with
  | Open o ->
    let h = slot_of key o.shift in
    let id = Array.unsafe_get o.slots h in
    if id >= 0 && Array.unsafe_get t.keys id = key then id else id_of_word_probe t o key h
  | _ -> invalid_arg "Kernel.id_of_word: the key is not one word"

let id_of_none t = if t.groups = 0 then new_group t else 0

let id_of_words t key =
  match (t.index, t.shape) with
  | By_words h, Words kinds -> (
    match Hashtbl.find_opt h key with
    | Some id -> id
    | None ->
      let id = new_group t in
      t.boxed_keys.(id) <- List.init (Array.length kinds) (fun j -> box_of_kind kinds.(j) key.(j));
      Hashtbl.add h key id;
      id)
  | _ -> invalid_arg "Kernel.id_of_words: the key is not an int array"

let id_of_boxed t key =
  match t.index with
  | By_boxed h -> (
    match Hashtbl.find_opt h key with
    | Some id -> id
    | None ->
      let id = new_group t in
      t.boxed_keys.(id) <- key;
      Hashtbl.add h key id;
      id)
  | _ -> invalid_arg "Kernel.id_of_boxed: the key is not boxed"

let promote_dec = function Value.Int x -> Value.Dec (D.of_int x) | v -> v

let group_key t id =
  match t.shape with
  | No_key -> []
  | Word k -> [ box_of_kind k t.keys.(id) ]
  | Chars n ->
    let w = t.keys.(id) in
    List.init n (fun j -> Value.Str (Batch.char_str ((w lsr (8 * (n - 1 - j))) land 0xFF)))
  | Words _ | Boxed -> t.boxed_keys.(id)

let finish_cell t j id =
  let n = t.rows.(id) in
  match t.cells.(j) with
  | Count -> Value.Int n
  | Sum_word k | Min_word k | Max_word k -> box_of_kind k t.words.(j).(id)
  | Avg_word k -> Value.div (promote_dec (box_of_kind k t.words.(j).(id))) (Value.Int n)
  | Sum_val | Ext_val -> t.vals.(j).(id)
  | Avg_val -> Value.div (promote_dec t.vals.(j).(id)) (Value.Int n)

let iter_groups t push =
  for id = 0 to t.groups - 1 do
    push
      (Array.append
         (Array.of_list (group_key t id))
         (Array.init (Array.length t.cells) (fun j -> finish_cell t j id)))
  done

(* ---- aggregation ------------------------------------------------------ *)

(* One aggregate over a table: its cell, its per-row update (per chunk,
   then per group id and position; [None] for Count, which the row count
   already is) and, for a word cell, its operand as a chunk expression. *)
type agg = {
  cell : cell;
  update : (table -> Batch.t -> int -> int -> unit) option;
  operand : wx option;
}

let compile_agg ~schema ~kinds j agg =
  let value e = compile_value ~schema ~kinds e in
  let word_cell cell e p =
    let update : table -> Batch.t -> int -> int -> unit =
      match cell with
      | Sum_word _ | Avg_word _ ->
        (* Null never enters a typed column, so the scalar cell's
           Null-to-first-value step is a plain running sum; Int overflow
           wraps exactly like [( + )] in [Value.add]. *)
        fun t bt ->
          let g = p bt in
          fun id i ->
            let v = g i in
            let w = Array.unsafe_get t.words j in
            Array.unsafe_set w id (Array.unsafe_get w id + v)
      | Min_word _ ->
        fun t bt ->
          let g = p bt in
          fun id i ->
            let v = g i in
            let w = Array.unsafe_get t.words j in
            if v < Array.unsafe_get w id then Array.unsafe_set w id v
      | _ ->
        fun t bt ->
          let g = p bt in
          fun id i ->
            let v = g i in
            let w = Array.unsafe_get t.words j in
            if v > Array.unsafe_get w id then Array.unsafe_set w id v
    in
    { cell; update = Some update; operand = chunk_expr ~schema ~kinds e }
  in
  (* [Aggregate]'s cell verbatim: Sum over a Date column is legal for a
     single row and raises on the second, which this keeps bit-exact. *)
  let val_cell cell step ev =
    let prep = boxed_of_ev ev in
    let update t bt =
      let g = prep bt in
      fun id i ->
        let v = g i in
        let a = Array.unsafe_get t.vals j in
        step a id v
    in
    { cell; update = Some update; operand = None }
  in
  let sum a id v =
    let acc = Array.unsafe_get a id in
    Array.unsafe_set a id (if acc = Value.Null then v else Value.add acc v)
  in
  let ext better a id v =
    let acc = Array.unsafe_get a id in
    if acc = Value.Null || better (Value.compare v acc) then Array.unsafe_set a id v
  in
  match agg with
  | Plan.Count -> { cell = Count; update = None; operand = None }
  | Plan.Sum e | Plan.Avg e -> (
    let avg = match agg with Plan.Avg _ -> true | _ -> false in
    let ev = value e in
    match num_side ~dates:false ev with
    | Some (k, p) -> word_cell (if avg then Avg_word k else Sum_word k) e p
    | None -> val_cell (if avg then Avg_val else Sum_val) sum ev)
  | Plan.Min e | Plan.Max e -> (
    let min = match agg with Plan.Min _ -> true | _ -> false in
    let ev = value e in
    match num_side ~dates:true ev with
    | Some (k, p) -> word_cell (if min then Min_word k else Max_word k) e p
    | None -> val_cell Ext_val (ext (if min then fun c -> c < 0 else fun c -> c > 0)) ev)

(* One slice of a word cell's updates: position [lo + i] adds (or
   offers) its operand word to group [ids.(i)]. *)
let chunk_update t j cell { direct; fetch } bt lo n (ids : int array) =
  let w = t.words.(j) and vs = fetch bt lo n and sel = bt.Batch.sel in
  match cell with
  | Sum_word _ | Avg_word _ ->
    for i = 0 to n - 1 do
      let g = Array.unsafe_get ids i in
      Array.unsafe_set w g (Array.unsafe_get w g + word_at direct vs sel lo i)
    done
  | Min_word _ ->
    for i = 0 to n - 1 do
      let g = Array.unsafe_get ids i and v = word_at direct vs sel lo i in
      if v < Array.unsafe_get w g then Array.unsafe_set w g v
    done
  | Max_word _ ->
    for i = 0 to n - 1 do
      let g = Array.unsafe_get ids i and v = word_at direct vs sel lo i in
      if v > Array.unsafe_get w g then Array.unsafe_set w g v
    done
  | Count | Sum_val | Avg_val | Ext_val -> ()

type groups = {
  create : unit -> table;
  add : table -> Batch.t -> int -> unit;
  add_chunk : (table -> Batch.t -> unit) option;
}

let group_table ~schema ~kinds ~keys ~aggs =
  let key_evs = Array.of_list (List.map (compile_value ~schema ~kinds) keys) in
  let nkeys = Array.length key_evs in
  let shape = key_shape (Array.to_list (Array.map kind_of_ev key_evs)) in
  let aggs = Array.of_list (List.mapi (compile_agg ~schema ~kinds) aggs) in
  let cells = Array.map (fun a -> a.cell) aggs in
  let updates = Array.of_list (List.filter_map (fun a -> a.update) (Array.to_list aggs)) in
  let word_keys () =
    Array.map
      (fun ev -> match num_side ~dates:true ev with Some (_, p) -> p | None -> assert false)
      key_evs
  in
  (* Per row: the key is read first, then every aggregate updates in
     aggregate order. *)
  let find : table -> Batch.t -> int -> int =
    match shape with
    | No_key -> fun t _ _ -> id_of_none t
    | Word _ ->
      let p = (word_keys ()).(0) in
      fun t bt ->
        let g = p bt in
        fun i -> id_of_word t (g i)
    | Chars _ ->
      let ps = word_keys () in
      fun t bt ->
        let gs = Array.map (fun p -> p bt) ps in
        fun i ->
          let key = ref 0 in
          for j = 0 to nkeys - 1 do
            key := pack_char !key ((Array.unsafe_get gs j) i)
          done;
          id_of_word t !key
    | Words _ ->
      let ps = word_keys () in
      fun t bt ->
        let gs = Array.map (fun p -> p bt) ps in
        fun i -> id_of_words t (Array.init nkeys (fun j -> gs.(j) i))
    | Boxed ->
      let gs = Array.map boxed_of_ev key_evs in
      fun t bt ->
        let gs = Array.map (fun g -> g bt) gs in
        fun i -> id_of_boxed t (Array.to_list (Array.map (fun g -> g i) gs))
  in
  let add t bt =
    let find = find t bt in
    let upds = Array.map (fun u -> u t bt) updates in
    fun i ->
      let id = find i in
      let rows = t.rows in
      Array.unsafe_set rows id (Array.unsafe_get rows id + 1);
      for a = 0 to Array.length upds - 1 do
        (Array.unsafe_get upds a) id i
      done
  in
  (* A whole chunk at a time when the key is a word (or absent) and every
     cell is Count or a word cell with a chunk operand: one pass assigns
     each position its group id, in position order (so ids stay
     first-seen), then each aggregate runs one loop over its operand's
     words. The only raise a chunk expression has is Division_by_zero,
     so evaluating keys and aggregates column by column instead of row by
     row raises exactly when, and what, the row order would. *)
  let chunk_keys =
    match shape with
    | No_key | Word _ | Chars _ ->
      let xs = List.filter_map (chunk_expr ~schema ~kinds) keys in
      if List.length xs = nkeys then Some (Array.of_list xs) else None
    | Words _ | Boxed -> None
  in
  let chunk_ops =
    List.fold_right
      (fun (j, a) acc ->
        match (acc, a.cell, a.operand) with
        | Some ops, Count, _ -> Some ops
        | Some ops, _, Some x -> Some ((j, x) :: ops)
        | _ -> None)
      (List.mapi (fun j a -> (j, a)) (Array.to_list aggs))
      (Some [])
  in
  let add_chunk =
    match (chunk_keys, chunk_ops) with
    | Some kxs, Some oxs ->
      Some
        (fun t ->
          let kfs = Array.map instantiate kxs in
          let ofs = List.map (fun (j, x) -> (j, instantiate x)) oxs in
          let ids = Array.make slice 0 in
          let add_slice bt lo n =
            let sel = bt.Batch.sel in
            (match shape with
            | Word _ ->
              let { direct; fetch } = kfs.(0) in
              let ks = fetch bt lo n in
              for i = 0 to n - 1 do
                Array.unsafe_set ids i (id_of_word t (word_at direct ks sel lo i))
              done
            | Chars _ ->
              let ks = Array.map (fun w -> w.fetch bt lo n) kfs in
              for i = 0 to n - 1 do
                let key = ref 0 in
                for j = 0 to nkeys - 1 do
                  let w = Array.unsafe_get kfs j in
                  key := pack_char !key (word_at w.direct (Array.unsafe_get ks j) sel lo i)
                done;
                Array.unsafe_set ids i (id_of_word t !key)
              done
            | _ ->
              ignore (id_of_none t : int);
              Array.fill ids 0 n 0);
            let rows = t.rows in
            for i = 0 to n - 1 do
              let g = Array.unsafe_get ids i in
              Array.unsafe_set rows g (Array.unsafe_get rows g + 1)
            done;
            List.iter (fun (j, w) -> chunk_update t j cells.(j) w bt lo n ids) ofs
          in
          fun bt ->
            let lo = ref 0 in
            while !lo < bt.Batch.len do
              let n = min slice (bt.Batch.len - !lo) in
              add_slice bt !lo n;
              lo := !lo + n
            done)
    | _ -> None
  in
  { create = (fun () -> create_table shape cells); add; add_chunk }

(* ---- parallel group-by ------------------------------------------------ *)

(* Tables that merge exactly: a word key (or none) and word cells, whose
   per-worker partial states combine by [+], [min] and [max] — Int
   overflow wraps the same in any order, and Avg divides the merged sum
   once, in [finish_cell]. *)
let mergeable t =
  (match t.shape with No_key | Word _ | Chars _ -> true | Words _ | Boxed -> false)
  && Array.for_all
       (function
         | Count | Sum_word _ | Avg_word _ | Min_word _ | Max_word _ -> true
         | Sum_val | Avg_val | Ext_val -> false)
       t.cells

(* Every worker's groups, in the order the sequential scan first meets
   them: by the stamp of the chunk a group was made in, then by id (a
   chunk belongs to one worker, whose ids are first-seen). Inserting them
   in that order into a fresh table gives each key its sequential id. *)
let merge tables =
  let t0 = List.hd tables in
  let firsts =
    List.concat_map (fun t -> List.init t.groups (fun id -> (t.first.(id), id, t))) tables
  in
  let m = create_table t0.shape t0.cells in
  List.iter
    (fun (_, id, t) ->
      let g = match t.shape with No_key -> id_of_none m | _ -> id_of_word m t.keys.(id) in
      m.rows.(g) <- m.rows.(g) + t.rows.(id);
      Array.iteri
        (fun j w ->
          if Array.length w > 0 then begin
            let v = t.words.(j).(id) in
            w.(g) <-
              (match m.cells.(j) with
              | Min_word _ -> min w.(g) v
              | Max_word _ -> max w.(g) v
              | _ -> w.(g) + v)
          end)
        m.words)
    (List.sort (fun (sa, ia, _) (sb, ib, _) -> compare (sa, ia) (sb, ib)) firsts);
  m

(* A group-by consumes each chunk before the next is filled, so it reads
   chunks of at most [slice] rows: each reader's columns are then
   minor-heap blocks, and a scan adds no major-heap work for later queries
   to pay, however many workers read it. *)
let run_groups ~create src ~rows ?cols phase =
  let rows = min rows slice in
  match src.Source.par_batches with
  | Some par when mergeable (create ()) -> (
    let tables =
      par.Source.run ~rows ?cols (fun produce ->
          let t = create () in
          phase t (fun consume ->
              produce (fun stamp bt ->
                  t.stamp <- stamp;
                  consume bt));
          t)
    in
    match tables with
    | [ t ] -> t
    | ts ->
      Option.iter (fun o -> Smc_obs.incr o Smc_obs.c_par_group_merges) src.Source.obs;
      merge ts)
  | _ ->
    let t = create () in
    phase t (Source.batches src ~rows ?cols);
    t

(* ---- column needs ----------------------------------------------------- *)

type need = All | Only of string list

let need_union need cols =
  match need with
  | All -> All
  | Only have ->
    Only (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) have cols)

let agg_columns = function
  | Plan.Count -> []
  | Plan.Sum e | Plan.Avg e | Plan.Min e | Plan.Max e -> Expr.columns e

let select_need cols = need_union (Only []) (List.concat_map (fun (_, e) -> Expr.columns e) cols)

let group_need keys aggs =
  need_union (Only [])
    (List.concat_map (fun (_, e) -> Expr.columns e) keys
    @ List.concat_map (fun (_, a) -> agg_columns a) aggs)

let scan_mask src = function
  | All -> None
  | Only cols -> Some (Array.map (fun c -> List.mem c cols) src.Source.schema)
