(* Hash-partitioned collections: one logical collection spread over N
   per-shard memory contexts, each with its own runtime (epoch manager,
   reclamation, counters), its own transaction lock, and — when persistence
   is attached — its own WAL and snapshot file. Single operations route by
   key hash; transactions spanning shards commit through the collection
   layer's two-phase primitives (prepare everything in ascending shard
   order, publish only if every shard validated); queries fan out one
   per-shard source and merge in shard order, so every engine sees one
   ordinary [Source.t].

   Giving each shard a whole runtime rather than one context in a shared
   runtime is deliberate: epoch advancement, reclamation queues, CSN planes
   and counter stripes all stay shard-private, so shards never contend on
   anything but the work the caller actually spreads across them. *)

open Smc_offheap
module C = Smc.Collection
module Pool = Smc_parallel.Pool
module Source = Smc_query.Source
module Wal = Smc_persist.Wal
module Snapshot = Smc_persist.Snapshot

type t = {
  name : string;
  layout : Layout.t;
  colls : C.t array;
  rts : Runtime.t array;
  obs : Smc_obs.t; (* coordinator counters: routes, txn outcomes, fan-outs *)
  mutable wals : Wal.t array; (* [||] until [attach_wals] *)
}

type sref = { sr_shard : int; sr_ref : Smc.Ref.t }

let n_shards t = Array.length t.colls
let collection t i = t.colls.(i)
let runtime t i = t.rts.(i)
let obs t = t.obs
let name t = t.name
let layout t = t.layout
let sref_shard r = r.sr_shard
let sref_ref r = r.sr_ref

let shard_name name i = Printf.sprintf "%s.%d" name i

let create ?(shards = 4) ~name ~layout ?placement ?mode ?slots_per_block ?reclaim_threshold
    () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let rts = Array.init shards (fun _ -> Runtime.create ()) in
  let colls =
    Array.init shards (fun i ->
        C.create rts.(i) ~name:(shard_name name i) ~layout ?placement ?mode ?slots_per_block
          ?reclaim_threshold ())
  in
  { name; layout; colls; rts; obs = Smc_obs.create ~label:(name ^ ".shard") (); wals = [||] }

(* SplitMix64 finalizer over the routing key: adjacent keys land on
   unrelated shards, so range-clustered key spaces still spread evenly. *)
let mix k =
  let k = Int64.of_int k in
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 30)) 0xbf58476d1ce4e5b9L in
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor k (Int64.shift_right_logical k 31)) land max_int

let shard_of t ~key =
  let n = Array.length t.colls in
  if n = 1 then 0 else mix key mod n

(* ---- Routed single operations ---------------------------------------- *)

let add t ~key ~init =
  Smc_obs.incr t.obs Smc_obs.c_shard_routes;
  let s = shard_of t ~key in
  { sr_shard = s; sr_ref = C.add t.colls.(s) ~init }

let remove t r =
  Smc_obs.incr t.obs Smc_obs.c_shard_routes;
  C.remove t.colls.(r.sr_shard) r.sr_ref

let store t r ~word ~value =
  Smc_obs.incr t.obs Smc_obs.c_shard_routes;
  C.store t.colls.(r.sr_shard) r.sr_ref ~word ~value

let mem t r = C.mem t.colls.(r.sr_shard) r.sr_ref
let deref_opt t r = C.deref_opt t.colls.(r.sr_shard) r.sr_ref

let count t = Array.fold_left (fun acc c -> acc + C.count c) 0 t.colls
let memory_words t = Array.fold_left (fun acc c -> acc + C.memory_words c) 0 t.colls

let compact t ?occupancy_threshold () =
  Array.map (fun c -> C.compact c ?occupancy_threshold ()) t.colls

(* ---- Cross-shard transactions -----------------------------------------
   Staging routes each op to its owning shard; commit opens one collection
   transaction per participating shard, stages the per-shard slices, then
   runs two-phase commit over the per-shard transaction locks: prepare in
   ascending shard order (validate holding lock + epoch pin), and only if
   every shard validated, publish each prepared half. A conflict on any
   shard aborts every prepared sibling before anything was published, so
   the cross-shard batch is all-or-nothing in memory.

   Durability is per-shard: each shard's WAL frames its slice atomically,
   but there is no cross-shard commit record — a crash between two shards'
   log syncs can recover one shard's slice without the other's. See
   docs/sharding.md for the contract. *)

type staged =
  | St_add of int * (Block.t -> int -> unit)
  | St_remove of sref
  | St_store of sref * int * int

type txn = { tx_sh : t; mutable tx_ops : staged list (* newest first *); mutable tx_done : bool }

type txn_result = Committed of sref list | Conflict

let txn t = { tx_sh = t; tx_ops = []; tx_done = false }

let check_open tx what =
  if tx.tx_done then
    invalid_arg (Printf.sprintf "Shard.%s: transaction already committed or aborted" what)

let stage_add tx ~key ~init =
  check_open tx "stage_add";
  tx.tx_ops <- St_add (shard_of tx.tx_sh ~key, init) :: tx.tx_ops

let stage_remove tx r =
  check_open tx "stage_remove";
  tx.tx_ops <- St_remove r :: tx.tx_ops

let stage_store tx r ~word ~value =
  check_open tx "stage_store";
  tx.tx_ops <- St_store (r, word, value) :: tx.tx_ops

let abort tx =
  check_open tx "abort";
  tx.tx_done <- true;
  tx.tx_ops <- []

let commit tx =
  check_open tx "commit";
  tx.tx_done <- true;
  let t = tx.tx_sh in
  Smc_obs.incr t.obs Smc_obs.c_shard_txns;
  let n = Array.length t.colls in
  let by_shard = Array.make n [] in
  let ops = List.rev tx.tx_ops (* staging order *) in
  List.iter
    (fun op ->
      let s =
        match op with
        | St_add (s, _) -> s
        | St_remove r | St_store (r, _, _) -> r.sr_shard
      in
      if s < 0 || s >= n then invalid_arg "Shard.commit: reference from a different sharding";
      by_shard.(s) <- op :: by_shard.(s))
    ops;
  let participating = ref [] in
  for s = n - 1 downto 0 do
    if by_shard.(s) <> [] then participating := s :: !participating
  done;
  match !participating with
  | [] ->
    Smc_obs.incr t.obs Smc_obs.c_shard_txn_commits;
    Committed []
  | shards ->
    let subs =
      List.map
        (fun s ->
          let sub = C.txn t.colls.(s) in
          List.iter
            (fun op ->
              match op with
              | St_add (_, init) -> C.stage_add sub ~init
              | St_remove r -> C.stage_remove sub r.sr_ref
              | St_store (r, word, value) -> C.stage_store sub r.sr_ref ~word ~value)
            (List.rev by_shard.(s));
          (s, sub))
        shards
    in
    (* Phase 1: validate every shard in ascending order, accumulating the
       held locks. On the first conflict, release every prepared sibling
       unpublished and close the sub-transactions that were never reached. *)
    let rec prep acc = function
      | [] -> Some (List.rev acc)
      | (s, sub) :: rest -> (
        match C.prepare sub with
        | Some pr -> prep ((s, pr) :: acc) rest
        | None ->
          List.iter (fun (_, pr) -> C.abort_prepared pr) (List.rev acc);
          List.iter (fun (_, sub) -> C.abort sub) rest;
          None)
    in
    (match prep [] subs with
    | None ->
      Smc_obs.incr t.obs Smc_obs.c_shard_txn_conflicts;
      Conflict
    | Some prepared ->
      (* Phase 2: publish. Every shard validated under a lock it still
         holds, so no publish can fail validation now. *)
      let refs_by_shard = Array.make n [] in
      List.iter (fun (s, pr) -> refs_by_shard.(s) <- C.commit_prepared pr) prepared;
      Smc_obs.incr t.obs Smc_obs.c_shard_txn_commits;
      if List.length shards > 1 then Smc_obs.incr t.obs Smc_obs.c_shard_txn_multi;
      (* Weave the per-shard add refs back into overall staging order. *)
      let srefs =
        List.filter_map
          (fun op ->
            match op with
            | St_add (s, _) -> (
              match refs_by_shard.(s) with
              | r :: rest ->
                refs_by_shard.(s) <- rest;
                Some { sr_shard = s; sr_ref = r }
              | [] -> assert false)
            | St_remove _ | St_store _ -> None)
          ops
      in
      Committed srefs)

let transact t f =
  let tx = txn t in
  (match f tx with
  | () -> ()
  | exception e ->
    if not tx.tx_done then abort tx;
    raise e);
  if tx.tx_done then invalid_arg "Shard.transact: body committed or aborted the transaction"
  else commit tx

(* ---- Consistent views -------------------------------------------------
   One frontier per shard, read while holding every shard's transaction
   lock in ascending order ({!C.snapshot_views}) — the same order commit
   prepares in, so a cross-shard transaction is visible in all of the
   per-shard views or in none of them. *)

type view = C.view array

let view t = Array.of_list (C.snapshot_views (Array.to_list t.colls))
let close_view v = Array.iter C.close_view v

let with_view t f =
  let v = view t in
  Fun.protect ~finally:(fun () -> close_view v) (fun () -> f v)

(* ---- Fan-out queries -------------------------------------------------- *)

(* Per-shard jobs, optionally spread over a pool; results in shard order. *)
let par_map ?pool jobs =
  match pool with
  | None -> Array.map (fun f -> f ()) jobs
  | Some p ->
    let ps = Array.map (fun f -> Pool.submit p f) jobs in
    Array.map Pool.await ps

let fold ?pool t ~init ~f ~combine =
  Smc_obs.incr t.obs Smc_obs.c_shard_fanouts;
  let parts = par_map ?pool (Array.mapi (fun i coll () -> f i coll) t.colls) in
  Array.fold_left combine init parts

let source ?pool ?domains ?view t ~columns =
  let per =
    Array.mapi
      (fun i coll ->
        let view = Option.map (fun v -> v.(i)) view in
        Source.of_smc ?pool ?domains ?view coll ~columns)
      t.colls
  in
  let s0 = per.(0) in
  let scan push =
    Smc_obs.incr t.obs Smc_obs.c_shard_fanouts;
    Array.iter (fun (s : Source.t) -> s.Source.scan push) per
  in
  (* The merged batch path concatenates the per-shard batch streams in
     shard order — the same row order as the merged [scan], so the
     vectorized engine answers bit-identically to the row engines. *)
  let scan_batches =
    if Array.for_all (fun (s : Source.t) -> s.Source.scan_batches <> None) per then
      Some
        (fun ~rows ?cols consume ->
          Smc_obs.incr t.obs Smc_obs.c_shard_fanouts;
          Array.iter
            (fun (s : Source.t) ->
              match s.Source.scan_batches with
              | Some sb -> sb ~rows ?cols consume
              | None -> assert false)
            per)
    else None
  in
  (* [par_batches] walks one shard; the merged source has none, so its
     group-bys run over the merged sequential stream. *)
  { s0 with Source.name = t.name; scan; scan_batches; par_batches = None; indexes = [] }

(* ---- Per-shard persistence --------------------------------------------
   One WAL and one snapshot file per shard, so group commit, snapshot
   writes and restore run per-shard-parallel: N files stream (and fsync)
   concurrently instead of one. *)

let snap_path dir name i = Filename.concat dir (Printf.sprintf "%s.%d.smcsnap" name i)
let wal_path dir name i = Filename.concat dir (Printf.sprintf "%s.%d.wal" name i)

let attach_wals ?sync t ~dir =
  if t.wals <> [||] then invalid_arg "Shard.attach_wals: WALs already attached";
  let wals =
    Array.init (Array.length t.colls) (fun i ->
        Wal.create ?sync ~path:(wal_path dir t.name i) ~name:(shard_name t.name i) ())
  in
  Array.iteri (fun i wal -> Wal.attach wal t.colls.(i)) wals;
  t.wals <- wals;
  wals

let wals t = t.wals

let snapshot ?pool t ~dir =
  let jobs =
    Array.mapi
      (fun i coll () ->
        let wal = if Array.length t.wals = 0 then None else Some t.wals.(i) in
        Snapshot.write ?wal ~path:(snap_path dir t.name i) coll)
      t.colls
  in
  par_map ?pool jobs

type restored = {
  r_shard : t;
  r_bytes : int;
  r_replayed : int;
  r_torn_dropped : int;
}

let restore ?pool ~dir ~name ~shards () =
  if shards < 1 then invalid_arg "Shard.restore: shards must be >= 1";
  let jobs =
    Array.init shards (fun i () ->
        let path = snap_path dir name i in
        let wal =
          let w = wal_path dir name i in
          if Sys.file_exists w then Some w else None
        in
        Snapshot.restore ?wal ~path ())
  in
  let rs = par_map ?pool jobs in
  let t =
    {
      name;
      layout = rs.(0).Snapshot.r_coll.C.layout;
      colls = Array.map (fun r -> r.Snapshot.r_coll) rs;
      rts = Array.map (fun r -> r.Snapshot.r_rt) rs;
      obs = Smc_obs.create ~label:(name ^ ".shard") ();
      wals = [||];
    }
  in
  {
    r_shard = t;
    r_bytes = Array.fold_left (fun acc r -> acc + r.Snapshot.r_bytes) 0 rs;
    r_replayed = Array.fold_left (fun acc r -> acc + r.Snapshot.r_replayed) 0 rs;
    r_torn_dropped = Array.fold_left (fun acc r -> acc + r.Snapshot.r_torn_dropped) 0 rs;
  }
