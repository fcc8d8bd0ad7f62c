(* Hash-partitioned collections: one logical collection spread over N
   per-shard memory contexts, each with its own runtime (epoch manager,
   reclamation, counters), its own transaction lock, and — when persistence
   is attached — its own WAL and snapshot file. Single operations route by
   key hash; transactions spanning shards commit through the collection
   layer's coordinated commit ([C.commit_all] in ascending shard order:
   publish only if every shard validated); queries fan out one
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
   A sharded transaction is one collection transaction per shard, all
   opened with it, so each shard's conflict frontier is read before any op
   is staged; staging routes each op into its owning shard's transaction.
   Commit aborts the shards' transactions that staged nothing and hands
   the rest, in ascending shard id (the global lock order), to
   [C.commit_all]: a conflict on any shard publishes nothing anywhere, so
   the cross-shard batch is all-or-nothing in memory.

   Durability is per-shard: each shard's WAL writes its slice as one
   record, but there is no cross-shard commit record — a crash between two shards'
   log syncs can recover one shard's slice without the other's. See
   docs/sharding.md for the contract. *)

type txn = {
  tx_sh : t;
  tx_subs : C.txn array; (* one per shard *)
  tx_staged : bool array; (* whether shard [i]'s transaction staged anything *)
  mutable tx_adds : int list; (* the shard of each staged add, newest first *)
  mutable tx_done : bool;
}

type txn_result = Committed of sref list | Conflict

let txn t =
  {
    tx_sh = t;
    tx_subs = Array.map C.txn t.colls;
    tx_staged = Array.make (n_shards t) false;
    tx_adds = [];
    tx_done = false;
  }

let check_open tx what =
  if tx.tx_done then
    invalid_arg (Printf.sprintf "Shard.%s: transaction already committed or aborted" what)

(* Stages into shard [s]'s transaction through [f], and marks it staged. *)
let stage tx what s f =
  check_open tx what;
  if s < 0 || s >= Array.length tx.tx_subs then
    invalid_arg (Printf.sprintf "Shard.%s: reference from a different sharding" what);
  f tx.tx_subs.(s);
  tx.tx_staged.(s) <- true

let stage_add tx ~key ~init =
  let s = shard_of tx.tx_sh ~key in
  stage tx "stage_add" s (C.stage_add ~init);
  tx.tx_adds <- s :: tx.tx_adds

let stage_remove tx r = stage tx "stage_remove" r.sr_shard (fun sub -> C.stage_remove sub r.sr_ref)

let stage_store tx r ~word ~value =
  stage tx "stage_store" r.sr_shard (fun sub -> C.stage_store sub r.sr_ref ~word ~value)

let abort tx =
  check_open tx "abort";
  tx.tx_done <- true;
  Array.iter C.abort tx.tx_subs

let commit tx =
  check_open tx "commit";
  tx.tx_done <- true;
  let t = tx.tx_sh in
  let shards = List.filter (fun s -> tx.tx_staged.(s)) (List.init (n_shards t) Fun.id) in
  Array.iteri (fun s sub -> if not tx.tx_staged.(s) then C.abort sub) tx.tx_subs;
  let outcome = C.commit_all (List.map (fun s -> tx.tx_subs.(s)) shards) in
  Smc_obs.incr t.obs Smc_obs.c_shard_txns;
  match outcome with
  | None ->
    Smc_obs.incr t.obs Smc_obs.c_shard_txn_conflicts;
    Conflict
  | Some refs ->
    Smc_obs.incr t.obs Smc_obs.c_shard_txn_commits;
    if List.length shards > 1 then Smc_obs.incr t.obs Smc_obs.c_shard_txn_multi;
    (* Weave the per-shard add refs back into overall staging order. *)
    let by_shard = Array.make (n_shards t) [] in
    List.iter2 (fun s rs -> by_shard.(s) <- rs) shards refs;
    Committed
      (List.map
         (fun s ->
           match by_shard.(s) with
           | r :: rest ->
             by_shard.(s) <- rest;
             { sr_shard = s; sr_ref = r }
           | [] -> assert false)
         (List.rev tx.tx_adds))

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
   validates in, so a cross-shard transaction is visible in all of the
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
