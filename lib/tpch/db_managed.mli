(** TPC-H stored in managed (garbage-collected) collections — the paper's
    baselines. One wrapper type exposes enumeration over whichever backing
    collection is used, so the compiled queries in {!Q_managed} run
    unchanged against [List<T>]-style vectors or [ConcurrentDictionary]
    analogues. *)

type t = {
  kind : string;  (** "list" / "dict" *)
  iter_lineitems : (Row.lineitem -> unit) -> unit;
  iter_orders : (Row.order -> unit) -> unit;
  iter_customers : (Row.customer -> unit) -> unit;
  iter_partsupps : (Row.partsupp -> unit) -> unit;
}

val of_vectors : Row.dataset -> t
val of_dicts : Row.dataset -> t
