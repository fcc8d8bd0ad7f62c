(* Typed evaluation over column chunks, shared by the vectorized engine
   ({!Vector}, which runs it over a chunk at a time), the fused pipeline
   ({!Fuse}, one row at a time through a closure chain) and compiled plans
   ({!Codegen}, which prints the same form as OCaml source and calls the
   group-id table from it).

   [lower] resolves an expression against its input's column kinds once,
   into a small typed form. Every node carries the kind of its value, and
   the lowering is the one place that decides Int→Dec promotion, the
   domain a compare runs in, [Between]'s evaluation order, char and
   string coercion, how a group key is held and which cell an aggregate
   keeps. Word nodes (Int, Dec, Date, Char) compute unboxed ints, the
   representation the blocks store; [K_any] nodes run [Value]'s own
   operations on boxed values. Typed nodes exist only where they provably
   reproduce the scalar [Value]/[Expr]/[Aggregate] semantics (including
   raises), so the typed tier can never change what a plan means, only
   what it costs.

   The interpreters below bind a chunk once (fetch its typed arrays and
   selection vector), then evaluate by selection *position*
   (0 ≤ i < len). *)

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

let num k = k = Batch.K_int || k = Batch.K_dec

let int_array_of_vec = function
  | Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a -> a
  | _ -> assert false

let box_of_kind = function
  | Batch.K_int -> fun n -> Value.Int n
  | Batch.K_dec -> fun n -> Value.Dec n
  | Batch.K_date -> fun n -> Value.Date n
  | Batch.K_char -> fun n -> Value.Str (Batch.char_str n)
  | _ -> assert false

(* ---- the typed form --------------------------------------------------- *)

type cmp_op = O_eq | O_ne | O_lt | O_le | O_gt | O_ge
type arith = A_add | A_sub | A_mul | A_div
type dom = On_words | On_strings | On_bools | On_values
type text_op = T_contains | T_contains_ci | T_starts_with

type form = { kind : Batch.kind; node : node }

and node =
  | Col of int
  | Const of Value.t
  | Subj
  | Promote of form
  | Chr of form
  | Show of form
  | Neg of form
  | Arith of arith * form * form
  | Cmp of cmp_op * dom * form * form
  | And of form * form
  | Or of form * form
  | Not of form
  | Between of form * form * form
  | Text of text_op * string * form

let const v =
  let kind =
    match v with
    | Value.Int _ -> Batch.K_int
    | Value.Dec _ -> Batch.K_dec
    | Value.Date _ -> Batch.K_date
    | Value.Bool _ -> Batch.K_bool
    | Value.Str _ -> Batch.K_str
    | Value.Null -> Batch.K_any
  in
  { kind; node = Const v }

let bool_node node = { kind = Batch.K_bool; node }
let str_node node = { kind = Batch.K_str; node }

(* Int→Dec promotion, exactly [Value]'s [D.of_int] scaling; a constant is
   promoted here, once. *)
let promote f =
  match f.node with
  | Const (Value.Int n) -> const (Value.Dec (D.of_int n))
  | _ -> { kind = Batch.K_dec; node = Promote f }

(* Two Int/Dec words meeting in arithmetic or a compare: Int with Int
   stays Int, and any Dec promotes the Int side — [Value.arith]'s and
   [Value.compare]'s rule. *)
let meet a b =
  if a.kind = Batch.K_int && b.kind = Batch.K_int then (Batch.K_int, a, b)
  else
    let up f = if f.kind = Batch.K_int then promote f else f in
    (Batch.K_dec, up a, up b)

(* A value read as a string, with [Expr]'s coercion: a string as it is, a
   char as its 1-char string, anything else through [Value.to_string]. *)
let as_string f =
  match f.kind with
  | Batch.K_str -> f
  | Batch.K_char -> str_node (Chr f)
  | _ -> str_node (Show f)

(* A compare's domain. [On_words]: the same int-like kind on both sides
   (epoch days; byte codes, whose order is 1-char [String.compare]'s), or
   Int against Dec, promoted. [On_strings]: strings and chars, read as
   strings. [On_bools]. [On_values]: every other pair, boxed through
   [Value.compare], which raises where the scalar code does. *)
let comparison op a b =
  let cmp dom a b = bool_node (Cmp (op, dom, a, b)) in
  match (a.kind, b.kind) with
  | ka, kb when ka = kb && int_like ka -> cmp On_words a b
  | (Batch.K_int | Batch.K_dec), (Batch.K_int | Batch.K_dec) ->
    let _, a, b = meet a b in
    cmp On_words a b
  | (Batch.K_str | Batch.K_char), (Batch.K_str | Batch.K_char) ->
    cmp On_strings (as_string a) (as_string b)
  | Batch.K_bool, Batch.K_bool -> cmp On_bools a b
  | _ -> cmp On_values a b

let lower ~schema ~kinds e =
  let rec go e =
    let arith op a b =
      let a = go a and b = go b in
      if num a.kind && num b.kind then
        let kind, a, b = meet a b in
        { kind; node = Arith (op, a, b) }
      else { kind = Batch.K_any; node = Arith (op, a, b) }
    in
    match e with
    | Expr.Col name ->
      let ci = resolve schema name in
      { kind = kinds.(ci); node = Col ci }
    | Expr.Const v -> const v
    | Expr.Add (a, b) -> arith A_add a b
    | Expr.Sub (a, b) -> arith A_sub a b
    | Expr.Mul (a, b) -> arith A_mul a b
    | Expr.Div (a, b) -> arith A_div a b
    | Expr.Neg a -> (
      let a = go a in
      match a.node with
      | Const (Value.Int n) -> const (Value.Int (-n))
      | Const (Value.Dec d) -> const (Value.Dec (D.neg d))
      | _ -> { kind = (if num a.kind then a.kind else Batch.K_any); node = Neg a })
    | Expr.Eq (a, b) -> comparison O_eq (go a) (go b)
    | Expr.Ne (a, b) -> comparison O_ne (go a) (go b)
    | Expr.Lt (a, b) -> comparison O_lt (go a) (go b)
    | Expr.Le (a, b) -> comparison O_le (go a) (go b)
    | Expr.Gt (a, b) -> comparison O_gt (go a) (go b)
    | Expr.Ge (a, b) -> comparison O_ge (go a) (go b)
    | Expr.And (a, b) -> bool_node (And (go a, go b))
    | Expr.Or (a, b) -> bool_node (Or (go a, go b))
    | Expr.Not a -> bool_node (Not (go a))
    | Expr.Between (x, lo, hi) ->
      (* [Expr.compile]'s order: the subject, then the lower bound, and the
         upper bound only on rows that pass the lower one. Each bound
         compares against [Subj], the subject's value. *)
      let s = go x in
      let subj = { kind = s.kind; node = Subj } in
      bool_node (Between (s, comparison O_ge subj (go lo), comparison O_le subj (go hi)))
    | Expr.Contains (a, needle) -> bool_node (Text (T_contains, needle, as_string (go a)))
    | Expr.ContainsCI (a, needle) -> bool_node (Text (T_contains_ci, needle, as_string (go a)))
    | Expr.StartsWith (a, prefix) -> bool_node (Text (T_starts_with, prefix, as_string (go a)))
  in
  go e

(* ---- interpreting the form over a chunk ------------------------------- *)

let word_of = function
  | Value.Int n | Value.Dec n | Value.Date n -> n
  | _ -> invalid_arg "Kernel.word_of: not a word constant"

let[@inline] word_op kind op a b =
  match (op, kind) with
  | A_add, Batch.K_int -> a + b
  | A_sub, Batch.K_int -> a - b
  | A_mul, Batch.K_int -> a * b
  | A_div, Batch.K_int -> a / b
  | A_add, _ -> D.add a b
  | A_sub, _ -> D.sub a b
  | A_mul, _ -> D.mul a b
  | A_div, _ -> D.div a b

let value_op = function
  | A_add -> Value.add
  | A_sub -> Value.sub
  | A_mul -> Value.mul
  | A_div -> Value.div

let text_test op needle =
  match op with
  | T_contains -> Expr.string_contains ~needle
  | T_contains_ci -> Expr.string_contains_ci ~needle
  | T_starts_with -> Expr.string_starts_with ~prefix:needle

let op_test = function
  | O_eq -> fun c -> c = 0
  | O_ne -> fun c -> c <> 0
  | O_lt -> fun c -> c < 0
  | O_le -> fun c -> c <= 0
  | O_gt -> fun c -> c > 0
  | O_ge -> fun c -> c >= 0

(* A word against a constant word, the operator inlined. *)
let word_vs op (w : int) g : Batch.t -> int -> bool =
  match op with
  | O_eq -> fun bt -> let g = g bt in fun i -> g i = w
  | O_ne -> fun bt -> let g = g bt in fun i -> g i <> w
  | O_lt -> fun bt -> let g = g bt in fun i -> g i < w
  | O_le -> fun bt -> let g = g bt in fun i -> g i <= w
  | O_gt -> fun bt -> let g = g bt in fun i -> g i > w
  | O_ge -> fun bt -> let g = g bt in fun i -> g i >= w

let map1 f g bt =
  let g = g bt in
  fun i -> f (g i)

(* [f (ga i) (gb i)]: the application shape [Expr.compile] uses, so both
   evaluate their operands in the same order. *)
let map2 f ga gb bt =
  let ga = ga bt and gb = gb bt in
  fun i -> f (ga i) (gb i)

(* Column readers, one per array type: a polymorphic one would test every
   element for a float array. *)
let col_words ci bt =
  let a = int_array_of_vec bt.Batch.cols.(ci) and sel = bt.Batch.sel in
  fun i -> Array.unsafe_get a (Bigarray.Array1.unsafe_get sel i)

let col_bools ci bt =
  let a = match bt.Batch.cols.(ci) with Batch.V_bool a -> a | _ -> assert false in
  let sel = bt.Batch.sel in
  fun i -> Array.unsafe_get a (Bigarray.Array1.unsafe_get sel i)

let col_strs ci bt =
  let a = match bt.Batch.cols.(ci) with Batch.V_str a -> a | _ -> assert false in
  let sel = bt.Batch.sel in
  fun i -> Array.unsafe_get a (Bigarray.Array1.unsafe_get sel i)

let col_boxed ci bt =
  let v = bt.Batch.cols.(ci) and sel = bt.Batch.sel in
  fun i -> Batch.box_vec v (Bigarray.Array1.unsafe_get sel i)

let rec words f : Batch.t -> int -> int =
  match f.node with
  | Col ci -> col_words ci
  | Const v ->
    let w = word_of v in
    fun _ _ -> w
  | Promote a -> map1 D.of_int (words a)
  | Neg a -> map1 Int.neg (words a)
  | Arith (op, a, b) ->
    let kind = f.kind in
    map2 (fun x y -> word_op kind op x y) (words a) (words b)
  | _ -> invalid_arg "Kernel.words: not a word form"

(* A condition's truth: a bool node typed, anything else through
   [Value.to_bool] of its boxed value (Null is false; other kinds raise). *)
and bools f : Batch.t -> int -> bool =
  match f.node with
  | Col ci when f.kind = Batch.K_bool -> col_bools ci
  | Const (Value.Bool b) -> fun _ _ -> b
  | Cmp (op, On_words, a, { node = Const v; _ }) -> word_vs op (word_of v) (words a)
  | Cmp (op, dom, a, b) -> (
    let t = op_test op in
    match dom with
    | On_words -> map2 (fun x y -> t (Int.compare x y)) (words a) (words b)
    | On_strings -> map2 (fun x y -> t (String.compare x y)) (strs a) (strs b)
    | On_bools -> map2 (fun x y -> t (Bool.compare x y)) (bools a) (bools b)
    | On_values -> map2 (fun x y -> t (Value.compare x y)) (boxed a) (boxed b))
  | And (a, b) ->
    let ga = bools a and gb = bools b in
    fun bt ->
      let ga = ga bt and gb = gb bt in
      fun i -> ga i && gb i
  | Or (a, b) ->
    let ga = bools a and gb = bools b in
    fun bt ->
      let ga = ga bt and gb = gb bt in
      fun i -> ga i || gb i
  | Not a -> map1 not (bools a)
  | Between (s, lo, hi) -> between s lo hi
  | Text (op, needle, a) -> map1 (text_test op needle) (strs a)
  | _ -> map1 Value.to_bool (boxed f)

(* The subject is read once. A word subject takes the word kernels (the
   Int side promoted where the lowering says so); any other domain boxes,
   and [Value.compare] of the boxed subject with each boxed bound is the
   scalar compare by definition. *)
and between s lo hi =
  match (lo.node, hi.node) with
  | ( Cmp (O_ge, On_words, { node = Subj; _ }, { node = Const l; _ }),
      Cmp (O_le, On_words, { node = Subj; _ }, { node = Const h; _ }) ) ->
    let l = word_of l and h = word_of h and g = words s in
    fun bt ->
      let g = g bt in
      fun i ->
        let v = g i in
        v >= l && v <= h
  | Cmp (op1, On_words, l1, r1), Cmp (op2, On_words, l2, r2) ->
    let bound op l r =
      let t = op_test op and gr = words r in
      let lift = match l.node with Promote _ -> D.of_int | _ -> Fun.id in
      fun bt ->
        let gr = gr bt in
        fun i v -> t (Int.compare (lift v) (gr i))
    in
    let g = words s and b1 = bound op1 l1 r1 and b2 = bound op2 l2 r2 in
    fun bt ->
      let g = g bt and b1 = b1 bt and b2 = b2 bt in
      fun i ->
        let v = g i in
        b1 i v && b2 i v
  | Cmp (op1, _, _, r1), Cmp (op2, _, _, r2) ->
    let t1 = op_test op1 and t2 = op_test op2 in
    let g = boxed s and g1 = boxed r1 and g2 = boxed r2 in
    fun bt ->
      let g = g bt and g1 = g1 bt and g2 = g2 bt in
      fun i ->
        let v = g i in
        t1 (Value.compare v (g1 i)) && t2 (Value.compare v (g2 i))
  | _ -> invalid_arg "Kernel.between: bounds are not compares"

and strs f : Batch.t -> int -> string =
  match f.node with
  | Col ci -> col_strs ci
  | Const (Value.Str s) -> fun _ _ -> s
  | Chr a -> map1 Batch.char_str (words a)
  | Show a -> map1 Value.to_string (boxed a)
  | _ -> invalid_arg "Kernel.strs: not a string form"

and boxed f : Batch.t -> int -> Value.t =
  match (f.kind, f.node) with
  | _, Const v -> fun _ _ -> v
  | Batch.K_any, Col ci -> col_boxed ci
  | Batch.K_any, Arith (op, a, b) -> map2 (value_op op) (boxed a) (boxed b)
  | Batch.K_any, Neg a -> map1 Value.neg (boxed a)
  | Batch.K_any, _ -> invalid_arg "Kernel.boxed: no boxed form"
  | Batch.K_bool, _ -> map1 (fun b -> Value.Bool b) (bools f)
  | Batch.K_str, _ -> map1 (fun s -> Value.Str s) (strs f)
  | k, _ -> map1 (box_of_kind k) (words f)

let test = bools

(* ---- projections ------------------------------------------------------ *)

(* Select writes position i's outputs at position i of its output chunk,
   every expression in column order — the order the row engines evaluate a
   projection in, so the same row raises first. *)
let compile_select ~schema ~kinds exprs =
  let forms = Array.of_list (List.map (lower ~schema ~kinds) exprs) in
  (* one store per array type, like the column readers *)
  let writer f : Batch.vec -> Batch.t -> int -> unit = function
    | Batch.V_int a | Batch.V_dec a | Batch.V_date a | Batch.V_char a ->
      let g = words f in
      fun bt ->
        let g = g bt in
        fun i -> Array.unsafe_set a i (g i)
    | Batch.V_bool a ->
      let g = bools f in
      fun bt ->
        let g = g bt in
        fun i -> Array.unsafe_set a i (g i)
    | Batch.V_str a ->
      let g = strs f in
      fun bt ->
        let g = g bt in
        fun i -> Array.unsafe_set a i (g i)
    | Batch.V_val a ->
      let g = boxed f in
      fun bt ->
        let g = g bt in
        fun i -> Array.unsafe_set a i (g i)
  in
  let write out =
    let ws = Array.mapi (fun c f -> writer f out.Batch.cols.(c)) forms in
    fun bt ->
      let ws = Array.map (fun w -> w bt) ws in
      fun i ->
        for c = 0 to Array.length ws - 1 do
          (Array.unsafe_get ws c) i
        done
  in
  (Array.map (fun f -> f.kind) forms, write)

(* ---- chunk expressions ------------------------------------------------ *)

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

(* A word form evaluated a slice at a time into scratch arrays: the same
   word operations [words] applies per position, one loop per node. *)
let rec instantiate f : words =
  let computed fill = { direct = false; fetch = fill (Array.make slice 0) } in
  match f.node with
  | Col ci -> { direct = true; fetch = (fun bt _ _ -> int_array_of_vec bt.Batch.cols.(ci)) }
  | Const v ->
    let c = word_of v in
    computed (fun d ->
        Array.fill d 0 slice c;
        fun _ _ _ -> d)
  | Promote a ->
    let { direct; fetch } = instantiate a in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (D.of_int (word_at direct a sel lo i))
        done;
        d)
  | Neg a ->
    (* Decimal negation is [-] on the word, like Int's *)
    let { direct; fetch } = instantiate a in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (-word_at direct a sel lo i)
        done;
        d)
  | Arith (op, a, { node = Const c; _ }) ->
    let { direct; fetch } = instantiate a and c = word_of c and kind = f.kind in
    computed (fun d bt lo n ->
        let a = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (word_op kind op (word_at direct a sel lo i) c)
        done;
        d)
  | Arith (op, { node = Const c; _ }, b) ->
    let { direct; fetch } = instantiate b and c = word_of c and kind = f.kind in
    computed (fun d bt lo n ->
        let b = fetch bt lo n and sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (word_op kind op c (word_at direct b sel lo i))
        done;
        d)
  | Arith (op, a, b) ->
    let wa = instantiate a and wb = instantiate b and kind = f.kind in
    let da = wa.direct and db = wb.direct in
    computed (fun d bt lo n ->
        let a = wa.fetch bt lo n in
        let b = wb.fetch bt lo n in
        let sel = bt.Batch.sel in
        for i = 0 to n - 1 do
          Array.unsafe_set d i (word_op kind op (word_at da a sel lo i) (word_at db b sel lo i))
        done;
        d)
  | _ -> invalid_arg "Kernel.instantiate: not a word form"

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
  | Min_val
  | Max_val

let word_cell = function Sum_word _ | Avg_word _ | Min_word _ | Max_word _ -> true | _ -> false
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
  let val_cell c = c <> Count && not (word_cell c) in
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
  | Sum_val | Min_val | Max_val -> t.vals.(j).(id)
  | Avg_val -> Value.div (promote_dec t.vals.(j).(id)) (Value.Int n)

let iter_groups t push =
  for id = 0 to t.groups - 1 do
    push
      (Array.append
         (Array.of_list (group_key t id))
         (Array.init (Array.length t.cells) (fun j -> finish_cell t j id)))
  done


(* ---- lowering a group-by ---------------------------------------------- *)

(* A group-by against its input's kinds: the key forms, how the key is
   held, and each aggregate's cell with its operand ([None] for Count,
   which the row count already is). A sum or average keeps a word when
   its operand is Int or Dec ([Value.arith]'s domain), an extremum when
   its operand is any int-like kind; every other operand keeps
   [Aggregate]'s accumulator verbatim — Sum over a Date column is legal
   for one row and raises on the second, which that keeps bit-exact. *)
type group_form = { key_forms : form list; key : key_shape; agg_forms : (cell * form option) list }

let lower_group ~schema ~kinds ~keys ~aggs =
  let keys = List.map (lower ~schema ~kinds) keys in
  let agg a =
    let operand e = lower ~schema ~kinds e in
    match a with
    | Plan.Count -> (Count, None)
    | Plan.Sum e ->
      let f = operand e in
      ((if num f.kind then Sum_word f.kind else Sum_val), Some f)
    | Plan.Avg e ->
      let f = operand e in
      ((if num f.kind then Avg_word f.kind else Avg_val), Some f)
    | Plan.Min e ->
      let f = operand e in
      ((if int_like f.kind then Min_word f.kind else Min_val), Some f)
    | Plan.Max e ->
      let f = operand e in
      ((if int_like f.kind then Max_word f.kind else Max_val), Some f)
  in
  { key_forms = keys; key = key_shape (List.map (fun f -> f.kind) keys); agg_forms = List.map agg aggs }

(* Tables whose key is absent or one word and whose cells are all Count
   or words: they aggregate a chunk at a time, and worker tables of them
   merge exactly. *)
let typed shape cells =
  (match shape with No_key | Word _ | Chars _ -> true | Words _ | Boxed -> false)
  && Array.for_all (fun c -> c = Count || word_cell c) cells

(* ---- aggregation ------------------------------------------------------ *)

(* One aggregate's per-row update into cell [j]: per table and chunk, then
   per group id and position. Null never enters a word, so the scalar
   cell's Null-to-first-value step is a plain running sum there, and Int
   overflow wraps exactly like [( + )] in [Value.add]. *)
let update j cell f : table -> Batch.t -> int -> int -> unit =
  let ext better =
    let g = boxed f in
    fun t bt ->
      let g = g bt in
      fun id i ->
        let v = g i in
        let a = Array.unsafe_get t.vals j in
        let acc = Array.unsafe_get a id in
        if acc = Value.Null || better (Value.compare v acc) then Array.unsafe_set a id v
  in
  match cell with
  | Sum_word _ | Avg_word _ ->
    let g = words f in
    fun t bt ->
      let g = g bt in
      fun id i ->
        let v = g i in
        let w = Array.unsafe_get t.words j in
        Array.unsafe_set w id (Array.unsafe_get w id + v)
  | Min_word _ ->
    let g = words f in
    fun t bt ->
      let g = g bt in
      fun id i ->
        let v = g i in
        let w = Array.unsafe_get t.words j in
        if v < Array.unsafe_get w id then Array.unsafe_set w id v
  | Max_word _ ->
    let g = words f in
    fun t bt ->
      let g = g bt in
      fun id i ->
        let v = g i in
        let w = Array.unsafe_get t.words j in
        if v > Array.unsafe_get w id then Array.unsafe_set w id v
  | Sum_val | Avg_val ->
    let g = boxed f in
    fun t bt ->
      let g = g bt in
      fun id i ->
        let v = g i in
        let a = Array.unsafe_get t.vals j in
        let acc = Array.unsafe_get a id in
        Array.unsafe_set a id (if acc = Value.Null then v else Value.add acc v)
  | Min_val -> ext (fun c -> c < 0)
  | Max_val -> ext (fun c -> c > 0)
  | Count -> invalid_arg "Kernel.update: Count has no operand"

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
  | Count | Sum_val | Avg_val | Min_val | Max_val -> ()

type groups = {
  create : unit -> table;
  add : table -> Batch.t -> int -> unit;
  add_chunk : (table -> Batch.t -> unit) option;
}

let group_table ~schema ~kinds ~keys ~aggs =
  let g = lower_group ~schema ~kinds ~keys ~aggs in
  let shape = g.key in
  let cells = Array.of_list (List.map fst g.agg_forms) in
  let nkeys = List.length g.key_forms in
  let updates =
    Array.of_list
      (List.concat (List.mapi (fun j (cell, f) -> Option.to_list (Option.map (update j cell) f)) g.agg_forms))
  in
  let word_keys () = Array.of_list (List.map words g.key_forms) in
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
      let gs = Array.of_list (List.map boxed g.key_forms) in
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
  (* A typed table takes a whole chunk at a time: one pass assigns each
     position its group id, in position order (so ids stay first-seen),
     then each aggregate runs one loop over its operand's words. The only
     raise a word form has is Division_by_zero, so evaluating keys and
     aggregates column by column instead of row by row raises exactly
     when, and what, the row order would. *)
  let add_chunk t =
    let kfs = Array.of_list (List.map instantiate g.key_forms) in
    let ofs =
      List.concat
        (List.mapi (fun j (_, f) -> Option.to_list (Option.map (fun f -> (j, instantiate f)) f)) g.agg_forms)
    in
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
      done
  in
  {
    create = (fun () -> create_table shape cells);
    add;
    add_chunk = (if typed shape cells then Some add_chunk else None);
  }

(* ---- parallel group-by ------------------------------------------------ *)

(* Typed tables merge exactly: their per-worker partial states combine
   by [+], [min] and [max] — Int overflow wraps the same in any order, and
   Avg divides the merged sum once, in [finish_cell]. *)
let mergeable t = typed t.shape t.cells

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

type 'push chain = { src : Source.t; cols : bool array option; through : 'push -> 'push }

(* ---- column needs ----------------------------------------------------- *)

type need = All | Only of string list

let need_union need cols =
  match need with
  | All -> All
  | Only have ->
    Only (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) have cols)

let select_need cols = need_union (Only []) (List.concat_map (fun (_, e) -> Expr.columns e) cols)

let group_need keys aggs =
  need_union (Only [])
    (List.concat_map (fun (_, e) -> Expr.columns e) keys
    @ List.concat_map (fun (_, a) -> Plan.agg_columns a) aggs)

let scan_mask schema = function
  | All -> None
  | Only cols -> Some (Array.map (fun c -> List.mem c cols) schema)
