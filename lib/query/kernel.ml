(* Typed evaluation over column chunks, shared by the vectorized engine
   ({!Vector}, which runs it over a chunk at a time) and the fused pipeline
   ({!Fuse}, which runs it one row at a time through a closure chain).

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
        fun cell i -> match cell with VC_gen c -> update c (g i) | _ -> assert false);
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
          (function VC_ext c -> if c.n = 0 then Value.Null else box c.m | _ -> assert false);
      }
    | ev ->
      generic_kernel
        (fun c v -> if c.acc = Value.Null || Value.compare v c.acc = want then c.acc <- v)
        (fun c -> c.acc)
        (boxed_of_ev ev))

(* ---- group tables ----------------------------------------------------- *)

type groups = { add : Batch.t -> int -> unit; iter : (Value.t array -> unit) -> unit }

module IH = Hashtbl.Make (Int)

let group_table ~schema ~kinds ~keys ~aggs =
  let key_evs = Array.of_list (List.map (compile_value ~schema ~kinds) keys) in
  let kernels = Array.of_list (List.map (compile_agg ~schema ~kinds) aggs) in
  let nkeys = Array.length key_evs and naggs = Array.length kernels in
  (* A table is a [lookup]: given the list that records new groups, it
     makes a fresh table and returns the per-chunk key binding that maps a
     position to its group's cells. Per row the key is read first, then
     every aggregate cell updates in aggregate order. *)
  let make lookup () =
    let entries = ref [] in
    let find = lookup entries in
    let add bt =
      let find = find bt in
      let upds = Array.map (fun k -> k.ak_prep bt) kernels in
      fun i ->
        let cells = find i in
        for a = 0 to naggs - 1 do
          (Array.unsafe_get upds a) (Array.unsafe_get cells a) i
        done
    in
    let iter push =
      List.iter
        (fun (boxed_key, cells) ->
          push
            (Array.append (Array.of_list boxed_key)
               (Array.init naggs (fun a -> kernels.(a).ak_finish cells.(a)))))
        (List.rev !entries)
    in
    { add; iter }
  in
  let new_group entries boxed_key =
    let cells = Array.map (fun k -> k.ak_fresh ()) kernels in
    entries := (boxed_key, cells) :: !entries;
    cells
  in
  (* Unboxed grouping when every key is int-like: structural equality of
     the packed int key coincides with structural equality of the boxed key
     list, because each position's kind is fixed and boxing is injective per
     kind. Char-only keys (TPC-H Q1) pack 8 bits each into a single int —
     zero allocation per row; seven fit OCaml's 63-bit int. *)
  let int_key_sides =
    let sides = Array.map (num_side ~dates:true) key_evs in
    if nkeys > 0 && Array.for_all Option.is_some sides then Some (Array.map Option.get sides)
    else None
  in
  match int_key_sides with
  | Some sides when nkeys <= 7 && Array.for_all (fun (k, _) -> k = Batch.K_char) sides ->
    make (fun entries ->
        let groups = IH.create 64 in
        fun bt ->
          let gs = Array.map (fun (_, p) -> p bt) sides in
          fun i ->
            let key = ref 0 in
            for j = 0 to nkeys - 1 do
              key := (!key lsl 8) lor ((Array.unsafe_get gs j) i land 0xFF)
            done;
            match IH.find_opt groups !key with
            | Some cells -> cells
            | None ->
              let boxed = List.init nkeys (fun j -> Value.Str (Batch.char_str (gs.(j) i))) in
              let cells = new_group entries boxed in
              IH.add groups !key cells;
              cells)
  | Some sides ->
    let boxers = Array.map (fun (k, _) -> box_of_kind k) sides in
    make (fun entries ->
        let groups : (int array, vcell array) Hashtbl.t = Hashtbl.create 256 in
        fun bt ->
          let gs = Array.map (fun (_, p) -> p bt) sides in
          fun i ->
            let key = Array.init nkeys (fun j -> gs.(j) i) in
            match Hashtbl.find_opt groups key with
            | Some cells -> cells
            | None ->
              let cells = new_group entries (List.init nkeys (fun j -> boxers.(j) key.(j))) in
              Hashtbl.add groups key cells;
              cells)
  | None ->
    (* Boxed keys — exactly the row engines' key list, covering Null,
       strings, mixed kinds and the zero-key aggregate. *)
    let key_gs = Array.map boxed_of_ev key_evs in
    make (fun entries ->
        let groups : (Value.t list, vcell array) Hashtbl.t = Hashtbl.create 256 in
        fun bt ->
          let gs = Array.map (fun g -> g bt) key_gs in
          fun i ->
            let key = Array.to_list (Array.map (fun g -> g i) gs) in
            match Hashtbl.find_opt groups key with
            | Some cells -> cells
            | None ->
              let cells = new_group entries key in
              Hashtbl.add groups key cells;
              cells)

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
