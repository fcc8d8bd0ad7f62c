(** Boxed aggregate cells: the Volcano engine's ({!Interp}) and the
    materialized views' aggregate state. *)

type cell

val compile :
  schema:string array ->
  Plan.agg ->
  (unit -> cell) * (cell -> Value.t array -> unit) * (cell -> Value.t)
(** [(fresh, update, finish)] for one aggregate compiled against a schema. *)
