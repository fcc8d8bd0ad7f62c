(** {!Smc_matview.Matview.audit} over a list of views. Only the
    benchmark's end-of-run gates use this list form; everything else calls
    the audit directly. *)

val check : Smc_matview.Matview.t list -> string list
(** One message per violation across all given views; [[]] when clean. *)
