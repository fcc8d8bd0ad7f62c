(** Calendar dates represented as days since 1970-01-01 (proleptic
    Gregorian). TPC-H dates span 1992-01-01 .. 1998-12-31; storing them as
    small integers makes range predicates single comparisons, as in the
    paper's object-oriented TPC-H adaptation. *)

type t = int
(** Days since the Unix epoch. *)

val of_ymd : int -> int -> int -> t
(** [of_ymd y m d]; raises [Invalid_argument] on out-of-range month/day. *)

val to_ymd : t -> int * int * int
(** Inverse of {!of_ymd}. *)

val of_string : string -> t
(** Parses ["YYYY-MM-DD"]. *)

val to_string : t -> string
(** Formats as ["YYYY-MM-DD"]. *)

val add_days : t -> int -> t
val add_months : t -> int -> t
(** Adds calendar months, clamping the day to the target month's length. *)
