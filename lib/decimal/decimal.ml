type t = int

let scale = 10_000
let zero = 0
let one = scale

let of_int n = n * scale
let of_cents c = c * (scale / 100)

let to_float t = float_of_int t /. float_of_int scale

let add = ( + )
let sub = ( - )
let neg x = -x

(* Round half away from zero, like C# decimal's default midpoint rounding
   direction for these workloads. Inlined, so [mul]'s division by the
   constant [scale] compiles to a multiply instead of two [idiv]s. *)
let[@inline] round_div num den =
  let q = num / den and r = num mod den in
  if abs (2 * r) >= den then q + (if (num >= 0) = (den >= 0) then 1 else -1)
  else q

let mul x y = round_div (x * y) scale

let div x y =
  if y = 0 then raise Division_by_zero;
  round_div (x * scale) y

let avg ~sum ~count = if count = 0 then 0 else round_div sum count

let compare = Int.compare
let equal = Int.equal

let of_string s =
  let negative = String.length s > 0 && s.[0] = '-' in
  let s = if negative then String.sub s 1 (String.length s - 1) else s in
  let whole, frac =
    match String.index_opt s '.' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  if String.length frac > 4 then invalid_arg ("Decimal.of_string: too many digits: " ^ s);
  let frac_padded = frac ^ String.make (4 - String.length frac) '0' in
  let whole_v = if whole = "" then 0 else int_of_string whole in
  let v = (whole_v * scale) + int_of_string ("0" ^ frac_padded) in
  if negative then -v else v

let to_string t =
  let sign = if t < 0 then "-" else "" in
  let t = abs t in
  let whole = t / scale and frac = t mod scale in
  if frac = 0 then Printf.sprintf "%s%d.00" sign whole
  else if frac mod 100 = 0 then Printf.sprintf "%s%d.%02d" sign whole (frac / 100)
  else Printf.sprintf "%s%d.%04d" sign whole frac

module Acc = struct
  type nonrec t = { mutable v : t }

  let make () = { v = 0 }
  let add a x = a.v <- a.v + x
  let add_mul a x y = a.v <- a.v + round_div (x * y) scale
  let get a = a.v
  let reset a = a.v <- 0
end
