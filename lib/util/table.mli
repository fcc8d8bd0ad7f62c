(** Plain-text table rendering for experiment output. Every benchmark prints
    its figure/table through this module so EXPERIMENTS.md rows can be pasted
    verbatim. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows must have as many cells as there are columns. *)

val add_rowf : t -> ('a, unit, string, unit) format4 -> 'a
(** Convenience: formats a single pre-joined row using ['|'] separators. *)

val to_string : t -> string
val print : t -> unit

val to_json : t -> string
(** The table as one JSON object [{"title", "columns", "rows"}], cells as
    the same strings {!to_string} renders — for machine-readable benchmark
    artifacts. *)
