(** Fixed-point decimal arithmetic.

    TPC-H money values have two fractional digits and the paper's C# port
    uses the 16-byte [decimal] type; exact decimal math dominates Q1's cost.
    We represent decimals as [int] values scaled by 10^4 (four fractional
    digits), which is exact for every TPC-H quantity, price, discount and tax
    value and for the products appearing in Q1's aggregates
    (price * (1-disc) and price * (1-disc) * (1+tax) round to the scale).

    The module also exposes an in-place accumulator mirroring the paper's
    "unsafe" optimisation of passing direct pointers to decimal values so
    arithmetic happens in place rather than via copied operands. *)

type t = int
(** Scaled by {!scale}. OCaml 63-bit ints give head-room past 10^14 whole
    units, far above any TPC-H aggregate at the scale factors used here. *)

val scale : int
(** 10_000: four fractional digits. *)

val zero : t
val one : t

val of_int : int -> t
(** Whole units to decimal. *)

val of_cents : int -> t
(** Hundredths (TPC-H native money granularity) to decimal. *)

val to_float : t -> float

val of_string : string -> t
(** Parses ["123.45"], up to four fractional digits. *)

val to_string : t -> string

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Rounded to nearest (half away from zero). *)

val div : t -> t -> t
(** Rounded to nearest; raises [Division_by_zero] on a zero divisor. *)

val avg : sum:t -> count:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 In-place accumulation}

    [Acc] is a one-cell mutable accumulator. The fused SMC query code sums
    into these without allocating intermediate boxes — the stand-in for the
    paper's by-pointer decimal math in unsafe C#. *)
module Acc : sig
  type nonrec t = { mutable v : t }

  val make : unit -> t
  val add : t -> int -> unit
  val add_mul : t -> int -> int -> unit
  (** [add_mul a x y] accumulates [mul x y] with a single rounding. *)

  val get : t -> int
  val reset : t -> unit
end
