(** {!Smc_text.Sa_index.audit} over a list of indexes. Only the
    benchmark's end-of-run gates use this list form; everything else calls
    the audit directly. *)

val check : Smc_text.Sa_index.t list -> string list
(** Violations found, empty when every index is consistent. *)
