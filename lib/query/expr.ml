type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Between of t * t * t
  | Contains of t * string
  | ContainsCI of t * string
  | StartsWith of t * string

let int n = Const (Value.Int n)
let dec s = Const (Value.Dec (Smc_decimal.Decimal.of_string s))
let str s = Const (Value.Str s)
let date s = Const (Value.Date (Smc_util.Date.of_string s))
let bool b = Const (Value.Bool b)

(* The engines' scalar text predicates, shared with the text index's
   live-row re-check. *)
let string_starts_with = Smc.Field.starts_with
let string_contains = Smc.Field.contains
let string_contains_ci = Smc.Field.contains_ci

let rec compile ~schema expr =
  let resolve name =
    let rec go i =
      if i >= Array.length schema then
        invalid_arg ("Expr.compile: unknown column " ^ name)
      else if String.equal schema.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let bin ctor a b =
    let fa = compile ~schema a and fb = compile ~schema b in
    fun row -> ctor (fa row) (fb row)
  in
  let cmp op a b =
    let fa = compile ~schema a and fb = compile ~schema b in
    fun row -> Value.Bool (op (Value.compare (fa row) (fb row)) 0)
  in
  match expr with
  | Col name ->
    let i = resolve name in
    fun row -> row.(i)
  | Const v -> fun _ -> v
  | Add (a, b) -> bin Value.add a b
  | Sub (a, b) -> bin Value.sub a b
  | Mul (a, b) -> bin Value.mul a b
  | Div (a, b) -> bin Value.div a b
  | Neg a ->
    let fa = compile ~schema a in
    fun row -> Value.neg (fa row)
  | Eq (a, b) -> cmp ( = ) a b
  | Ne (a, b) -> cmp ( <> ) a b
  | Lt (a, b) -> cmp ( < ) a b
  | Le (a, b) -> cmp ( <= ) a b
  | Gt (a, b) -> cmp ( > ) a b
  | Ge (a, b) -> cmp ( >= ) a b
  | And (a, b) ->
    let fa = compile ~schema a and fb = compile ~schema b in
    fun row -> Value.Bool (Value.to_bool (fa row) && Value.to_bool (fb row))
  | Or (a, b) ->
    let fa = compile ~schema a and fb = compile ~schema b in
    fun row -> Value.Bool (Value.to_bool (fa row) || Value.to_bool (fb row))
  | Not a ->
    let fa = compile ~schema a in
    fun row -> Value.Bool (not (Value.to_bool (fa row)))
  | Between (x, lo, hi) ->
    let fx = compile ~schema x and flo = compile ~schema lo and fhi = compile ~schema hi in
    fun row ->
      let v = fx row in
      Value.Bool (Value.compare v (flo row) >= 0 && Value.compare v (fhi row) <= 0)
  | Contains (a, needle) ->
    let fa = compile ~schema a in
    fun row ->
      (match fa row with
      | Value.Str s -> Value.Bool (string_contains ~needle s)
      | v -> Value.Bool (string_contains ~needle (Value.to_string v)))
  | ContainsCI (a, needle) ->
    let fa = compile ~schema a in
    fun row ->
      (match fa row with
      | Value.Str s -> Value.Bool (string_contains_ci ~needle s)
      | v -> Value.Bool (string_contains_ci ~needle (Value.to_string v)))
  | StartsWith (a, prefix) ->
    let fa = compile ~schema a in
    fun row ->
      (match fa row with
      | Value.Str s -> Value.Bool (string_starts_with ~prefix s)
      | v -> Value.Bool (string_starts_with ~prefix (Value.to_string v)))

let compile_pred ~schema expr =
  let f = compile ~schema expr in
  fun row -> Value.to_bool (f row)

let rec to_string = function
  | Col c -> c
  | Const v -> Value.to_string v
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Div (a, b) -> Printf.sprintf "(%s / %s)" (to_string a) (to_string b)
  | Neg a -> Printf.sprintf "(- %s)" (to_string a)
  | Eq (a, b) -> Printf.sprintf "(%s = %s)" (to_string a) (to_string b)
  | Ne (a, b) -> Printf.sprintf "(%s <> %s)" (to_string a) (to_string b)
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (to_string a) (to_string b)
  | Le (a, b) -> Printf.sprintf "(%s <= %s)" (to_string a) (to_string b)
  | Gt (a, b) -> Printf.sprintf "(%s > %s)" (to_string a) (to_string b)
  | Ge (a, b) -> Printf.sprintf "(%s >= %s)" (to_string a) (to_string b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (to_string a) (to_string b)
  | Not a -> Printf.sprintf "(not %s)" (to_string a)
  | Between (x, lo, hi) ->
    Printf.sprintf "(%s between %s and %s)" (to_string x) (to_string lo) (to_string hi)
  | Contains (a, s) -> Printf.sprintf "(%s contains %S)" (to_string a) s
  | ContainsCI (a, s) -> Printf.sprintf "(%s contains_ci %S)" (to_string a) s
  | StartsWith (a, s) -> Printf.sprintf "(%s starts_with %S)" (to_string a) s

let columns expr =
  let acc = ref [] in
  let rec go = function
    | Col c -> acc := c :: !acc
    | Const _ -> ()
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b)
    | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b)
    | And (a, b) | Or (a, b) ->
      go a;
      go b
    | Neg a | Not a | Contains (a, _) | ContainsCI (a, _) | StartsWith (a, _) -> go a
    | Between (x, lo, hi) ->
      go x;
      go lo;
      go hi
  in
  go expr;
  List.rev !acc
