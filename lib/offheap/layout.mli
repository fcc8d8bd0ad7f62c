(** Record layouts for tabular types.

    A layout describes the off-heap representation of one tabular class
    (§2 of the paper): a fixed sequence of fixed-size fields. All objects of
    a collection share one layout, which is what makes type-stable blocks
    (§3.1) possible. Layouts are word-granular: every field occupies one or
    more 8-byte words of the block's object store, so a scalar access is a
    single indexed load.

    Strings are fixed-capacity, NUL-padded and stored inline — the paper
    treats strings referenced by tabular classes as part of the object, with
    matching lifetime. Floats are stored with the low mantissa bit dropped
    (63-bit payload); exact numerics should use [Dec] (scaled fixed-point),
    which is what the TPC-H substrate does. *)

type field_type =
  | Int  (** 63-bit integer, one word *)
  | Dec  (** fixed-point decimal ({!Smc_decimal.Decimal.t}), one word *)
  | Date  (** calendar date as epoch days, one word *)
  | Bool  (** one word *)
  | Float  (** IEEE double with 1-ulp mantissa truncation, one word *)
  | Str of int
      (** fixed capacity in bytes, NUL-padded, ceil(n/7) words (7 bytes per
          63-bit word) *)
  | Ref of string
      (** reference to an object of the named tabular type, one word; stored
          as a packed indirect or direct reference depending on the
          referenced context's mode *)

type field = private {
  name : string;
  ftype : field_type;
  index : int;  (** position in the declaration order *)
  word : int;  (** first word offset within the slot *)
  words : int;  (** number of words occupied *)
}

type t = private {
  type_name : string;
  fields : field array;
  slot_words : int;  (** total words per object slot *)
}

val create : name:string -> (string * field_type) list -> t
(** [create ~name spec] computes word offsets in declaration order.
    Raises [Invalid_argument] on duplicate field names, empty field lists,
    or non-positive string capacities. *)

val field : t -> string -> field
(** Lookup by name; raises [Not_found]. *)

val field_opt : t -> string -> field option

val str_bytes_per_word : int
(** 7: string bytes packed per 63-bit word. *)

val str_capacity : field -> int
(** Byte capacity of a [Str] field; raises [Invalid_argument] otherwise. *)
