(** Compressed columns for the in-memory columnstore baseline.

    The paper's Figure 13 compares SMCs against SQL Server 2014's compressed
    in-memory columnstore; this module provides the equivalent storage
    characteristics: integer columns choose between raw, run-length and
    dictionary encodings by measured size; string columns are
    dictionary-encoded. Integer columns carry per-segment min/max metadata
    so scans can eliminate whole segments against range predicates (the
    columnstore's "segment elimination"). *)

type int_encoding =
  | Raw of int array
  | Rle of { starts : int array; values : int array }
      (** [starts.(i)] is the first row of run [i]; runs cover all rows *)
  | Dict of { dict : int array; codes : Bytes.t; width : int }
      (** [width]-byte little-endian codes into [dict] *)

type t =
  | Ints of { enc : int_encoding; length : int; seg_min : int array; seg_max : int array }
  | Strs of { dict : string array; codes : int array }

val encode_ints : int array -> t
(** Picks the smallest of raw / RLE / dictionary encodings. *)

val encode_strings : string array -> t

val length : t -> int

val get_int : t -> int -> int
(** Raises [Invalid_argument] on a string column. *)

val get_string : t -> int -> string

val iter_int_range : t -> lo:int -> hi:int -> f:(int -> int -> unit) -> unit
(** [iter_int_range col ~lo ~hi ~f] calls [f row value] for every row whose
    value is within [\[lo, hi\]], skipping segments whose min/max metadata
    excludes the range. *)

val bytes_estimate : t -> int
(** Approximate compressed size, for compression-ratio reporting. *)
