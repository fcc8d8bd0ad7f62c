module V = Smc_managed.Vector
module CD = Smc_managed.Concurrent_dictionary

type t = {
  kind : string;
  iter_lineitems : (Row.lineitem -> unit) -> unit;
  iter_orders : (Row.order -> unit) -> unit;
  iter_customers : (Row.customer -> unit) -> unit;
  iter_partsupps : (Row.partsupp -> unit) -> unit;
}

let of_vectors (ds : Row.dataset) =
  let vec arr =
    let v = V.create ~capacity:(Array.length arr) () in
    Array.iter (fun x -> V.add v x) arr;
    v
  in
  let lineitems = vec ds.Row.lineitems
  and orders = vec ds.Row.orders
  and customers = vec ds.Row.customers
  and partsupps = vec ds.Row.partsupps in
  {
    kind = "list";
    iter_lineitems = (fun f -> V.iter lineitems ~f);
    iter_orders = (fun f -> V.iter orders ~f);
    iter_customers = (fun f -> V.iter customers ~f);
    iter_partsupps = (fun f -> V.iter partsupps ~f);
  }

let of_dicts (ds : Row.dataset) =
  let dict key arr =
    let d = CD.create ~capacity:(Array.length arr) () in
    Array.iteri (fun i x -> CD.add d ~key:(key i x) x) arr;
    d
  in
  let lineitems = dict (fun _ li -> Dbgen.lineitem_key li) ds.Row.lineitems
  and orders = dict (fun _ (o : Row.order) -> o.Row.o_orderkey) ds.Row.orders
  and customers = dict (fun _ (c : Row.customer) -> c.Row.c_custkey) ds.Row.customers
  and partsupps = dict (fun i _ -> i) ds.Row.partsupps in
  {
    kind = "dict";
    iter_lineitems = (fun f -> CD.iter lineitems ~f:(fun _ x -> f x));
    iter_orders = (fun f -> CD.iter orders ~f:(fun _ x -> f x));
    iter_customers = (fun f -> CD.iter customers ~f:(fun _ x -> f x));
    iter_partsupps = (fun f -> CD.iter partsupps ~f:(fun _ x -> f x));
  }
