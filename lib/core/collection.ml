open Smc_offheap

(* One published mutation. Adds carry their location so a log can serialise
   the slot image; every firing point runs while that location is stable. *)
type op =
  | Add of Ref.t * Block.t * int
  | Remove of Ref.t
  | Store of Ref.t * int * int

type subscriber = { name : string; on_commit : op list -> unit }

type t = {
  name : string;
  layout : Layout.t;
  ctx : Context.t;
  rt : Runtime.t;
  mutable subs : subscriber list;
  txn_lock : Mutex.t;
}

let create rt ~name ~layout ?placement ?mode ?slots_per_block ?reclaim_threshold () =
  let ctx = Context.create rt ~layout ?placement ?mode ?slots_per_block ?reclaim_threshold () in
  { name; layout; ctx; rt; subs = []; txn_lock = Mutex.create () }

(* The one firing path: one unit goes to every subscriber in attachment
   order. Callers test [t.subs != []] first, so an unwatched mutation
   builds no op. *)
let publish t ops = List.iter (fun s -> s.on_commit ops) t.subs

let add t ~init =
  let packed = Context.alloc ~init t.ctx in
  let r = Ref.of_packed packed in
  (if t.subs != [] then
     match Context.resolve t.ctx packed with
     | Some (blk, slot) -> publish t [ Add (r, blk, slot) ]
     | None -> assert false (* a freshly allocated object cannot be dead *));
  r

let remove t r =
  (* With anyone listening, pin the epoch across free + publish: while this
     domain stays in a critical section the freed slot cannot clear its
     grace period, so no other domain can recycle the entry and publish a
     later incarnation's Add before this Remove — a log's replay order
     stays sound. *)
  let pin = t.subs != [] in
  let em = t.rt.Runtime.epoch in
  if pin then Epoch.enter_critical em;
  Fun.protect
    ~finally:(fun () -> if pin then Epoch.exit_critical em)
    (fun () ->
      let removed = Context.free t.ctx (Ref.to_packed r) in
      if removed && pin then publish t [ Remove r ];
      removed)

let store t r ~word ~value =
  if word < 0 || word >= t.layout.Layout.slot_words then
    invalid_arg "Collection.store: word offset outside the layout";
  (* A one-op commit: the transaction lock serialises it against commit
     validation, and the critical section keeps locations stable across
     the copy-on-write store and the publish. *)
  Mutex.lock t.txn_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.txn_lock)
    (fun () ->
      Epoch.critical t.rt.Runtime.epoch (fun () ->
          let csn = Context.begin_commit t.ctx in
          Fun.protect
            ~finally:(fun () -> Context.end_commit t.ctx)
            (fun () ->
              if not (Context.store_versioned t.ctx (Ref.to_packed r) ~csn ~word ~value) then
                raise Constants.Null_reference;
              if t.subs != [] then publish t [ Store (r, word, value) ];
              Smc_obs.incr t.rt.Runtime.obs Smc_obs.c_bare_stores)))

let subscribe t (s : subscriber) =
  if t.ctx.Context.mode = Context.Direct then
    invalid_arg
      (Printf.sprintf
         "Collection.subscribe: collection %S uses direct references; subscribers \
          (indexes, views, logs) require indirect mode (refs stable across compaction)"
         t.name);
  if List.exists (fun (x : subscriber) -> String.equal x.name s.name) t.subs then
    invalid_arg
      (Printf.sprintf "Collection.subscribe: subscriber %S already attached to %S" s.name
         t.name);
  t.subs <- t.subs @ [ s ]

let unsubscribe t name =
  let named (s : subscriber) = String.equal s.name name in
  if not (List.exists named t.subs) then
    invalid_arg
      (Printf.sprintf "Collection.unsubscribe: no subscriber %S attached to %S" name t.name);
  t.subs <- List.filter (fun s -> not (named s)) t.subs

let subscribers t = List.map (fun (s : subscriber) -> s.name) t.subs

let deref_opt t r = Context.resolve t.ctx (Ref.to_packed r)

let deref t r =
  match deref_opt t r with
  | Some loc -> loc
  | None -> raise Constants.Null_reference

let mem t r = deref_opt t r <> None

let with_read t f = Epoch.critical t.rt.Runtime.epoch f

let iter t ~f = Context.with_walk t.ctx (fun w -> Context.iter w ~on_block:f)

let loc_block t loc = Context.block_of_loc t.ctx loc
let loc_slot loc = Constants.ptr_slot loc

let ref_of_slot t blk slot = Ref.of_packed (Context.indirect_ref_of_slot t.ctx blk slot)

let iter_refs t ~f = iter t ~f:(fun blk slot -> f (ref_of_slot t blk slot))

let fold t ~init ~f =
  let acc = ref init in
  iter t ~f:(fun blk slot -> acc := f !acc blk slot);
  !acc

let count t = Context.valid_count t.ctx

let compact t ?occupancy_threshold () = Compaction.run t.ctx ?occupancy_threshold ()

let memory_words t = Context.off_heap_words t.ctx
let block_count t = Context.block_count t.ctx
let limbo_count t = Context.stats_limbo t.ctx

(* ---- Atomic multi-op transactions -------------------------------------
   A transaction stages adds/removes/stores privately, then commits them as
   one unit: write-write conflicts are validated against the staging-time
   CSN frontier (first committer wins), the whole batch is published under
   the collection's transaction lock with a single commit CSN — so snapshot
   views observe all of it or none of it — and every subscriber receives
   the batch as one unit after it is applied (a WAL writes it as one
   record, which recovery replays whole or not at all).

   The transaction lock is deliberately separate from the context lock:
   applying the batch calls [Context.alloc]/[Context.free], which take the
   context lock internally (reclamation queue, view publication), and OCaml
   mutexes are not reentrant. Bare [add]/[remove] calls do not take the
   transaction lock — they stay lock-free as before. The cost is that a
   bare mutation is a single-op unit with its own CSN: it can land between
   a walk's frontier and a transaction's commit CSN. A bare [store] is a
   one-op commit under the transaction lock, so validation sees it; only
   raw [Field.set_*] pokes stay invisible. Use transactions for multi-op
   consistency. *)

type staged_op =
  | S_add of (Block.t -> int -> unit)
  | S_remove of Ref.t
  | S_store of Ref.t * int * int

type txn = {
  tx_coll : t;
  tx_begin_csn : int;
  mutable tx_ops : staged_op list; (* newest first *)
  mutable tx_done : bool;
}

type txn_result = Committed of Ref.t list | Conflict

let obs_incr t c = Smc_obs.incr t.rt.Runtime.obs c

let txn t =
  (* Transactions lean on the indirection layer twice over: commit-time
     validation resolves staged references, and copy-on-write stores swing
     entries to updated copies. Direct mode has neither (same restriction
     as subscribing). *)
  if t.ctx.Context.mode <> Context.Indirect then
    invalid_arg
      (Printf.sprintf "Collection.txn: %S uses direct references; transactions need indirect \
                       mode" t.name);
  obs_incr t Smc_obs.c_txn_begins;
  { tx_coll = t; tx_begin_csn = Context.csn_now t.ctx; tx_ops = []; tx_done = false }

let check_open tx what =
  if tx.tx_done then
    invalid_arg (Printf.sprintf "Collection.%s: transaction already committed or aborted" what)

let stage_add tx ~init =
  check_open tx "stage_add";
  tx.tx_ops <- S_add init :: tx.tx_ops

let stage_remove tx r =
  check_open tx "stage_remove";
  tx.tx_ops <- S_remove r :: tx.tx_ops

let stage_store tx r ~word ~value =
  check_open tx "stage_store";
  if word < 0 || word >= tx.tx_coll.layout.Layout.slot_words then
    invalid_arg "Collection.stage_store: word offset outside the layout";
  tx.tx_ops <- S_store (r, word, value) :: tx.tx_ops

let abort tx =
  check_open tx "abort";
  tx.tx_done <- true;
  tx.tx_ops <- [];
  obs_incr tx.tx_coll Smc_obs.c_txn_aborts

(* Rejected before any lock is taken: two transactions on one collection
   (its transaction lock is not reentrant) and a reference staged twice in
   one transaction. *)
let rec check_staging = function
  | [] -> ()
  | tx :: rest ->
    if List.exists (fun o -> o.tx_coll == tx.tx_coll) rest then
      invalid_arg
        (Printf.sprintf "Collection.commit_all: two transactions on %S" tx.tx_coll.name);
    let seen = Hashtbl.create 8 in
    List.iter
      (function
        | S_add _ -> ()
        | S_remove r | S_store (r, _, _) ->
          let packed = Ref.to_packed r in
          if Hashtbl.mem seen packed then
            invalid_arg "Collection.commit: reference staged twice in one transaction";
          Hashtbl.add seen packed ())
      tx.tx_ops;
    check_staging rest

(* Write-write validation (first committer wins): every ref this
   transaction removes or stores must still resolve, and its slot's last
   write CSN must not exceed the transaction's begin frontier — a later
   stamp means some other unit committed a write to the row after we
   staged against it. Runs inside the commit critical section, so resolved
   locations stay stable for the subsequent apply. *)
let validate_locked tx =
  let ctx = tx.tx_coll.ctx in
  List.for_all
    (fun op ->
      match op with
      | S_add _ -> true
      | S_remove r | S_store (r, _, _) -> (
        match Context.resolve ctx (Ref.to_packed r) with
        | None -> false
        | Some (blk, slot) ->
          Bigarray.Array1.unsafe_get blk.Block.csn_write slot <= tx.tx_begin_csn))
    tx.tx_ops

(* Applies the staged batch in staging order and returns its adds'
   references and, only when anyone listens, its ops for [publish_locked]
   to publish as one unit. *)
let apply_locked tx ~csn =
  let t = tx.tx_coll in
  let ctx = t.ctx in
  let listening = t.subs != [] in
  let adds = ref [] and ops = ref [] in
  let emit op = if listening then ops := op :: !ops in
  let vanished () =
    (* Validation saw the row alive moments ago inside this same critical
       section; only a concurrent bare [remove] can have killed it since.
       That interleaving voids the atomicity contract, so fail loudly
       rather than publish half a batch. *)
    failwith
      (Printf.sprintf
         "Collection.commit: reference vanished between validation and apply in %S \
          (concurrent bare remove of a transactionally-written row)"
         t.name)
  in
  List.iter
    (fun op ->
      match op with
      | S_add init ->
        let packed = Context.alloc ~csn ~init ctx in
        let r = Ref.of_packed packed in
        adds := r :: !adds;
        if listening then (
          match Context.resolve ctx packed with
          | Some (blk, slot) -> emit (Add (r, blk, slot))
          | None -> assert false)
      | S_remove r ->
        if not (Context.free ~csn ctx (Ref.to_packed r)) then vanished ();
        emit (Remove r)
      | S_store (r, word, value) ->
        (* Copy-on-write: the updated row is published in a fresh slot and
           the old copy retired to limbo with death stamp [csn], so open
           snapshot views keep reading the pre-commit payload. *)
        if not (Context.store_versioned ctx (Ref.to_packed r) ~csn ~word ~value) then
          vanished ();
        emit (Store (r, word, value)))
    (List.rev tx.tx_ops);
  (List.rev !adds, List.rev !ops)

(* ---- Coordinated commit ------------------------------------------------
   [commit_all] commits one or many transactions, each on its own
   collection, as one unit. Each is validated in list order under its
   collection's commit locks — the transaction lock and an epoch critical
   section — and keeps them while the rest validate, so no competing
   committer, bare store or view-frontier read can slip in between its
   validation and its publication. Only once every one has validated does
   each publish and release, in list order; a conflict releases the
   validated ones unpublished. Locks and critical sections are bound to
   the calling domain, and callers committing several collections pass
   them in one global order (ascending shard id), so concurrent
   coordinators cannot deadlock. *)

let unlock t =
  Epoch.exit_critical t.rt.Runtime.epoch;
  Mutex.unlock t.txn_lock

(* Releases [tx]'s commit locks unpublished, counting it as [outcome]. *)
let release outcome tx =
  obs_incr tx.tx_coll outcome;
  unlock tx.tx_coll

(* Takes [tx]'s commit locks and validates; returns holding them only when
   validation passed. *)
let lock_and_validate tx =
  let t = tx.tx_coll in
  Runtime.fire_txn_hook t.rt Runtime.Txn_staged;
  Mutex.lock t.txn_lock;
  (* One critical section around validate + apply + log: resolved
     locations stay stable, freed slots cannot clear their grace period
     before the WAL batch lands (same discipline as bare [remove]'s
     free-then-append pinning), and the commit CSN stays adjacent to
     the published stamps. *)
  Epoch.enter_critical t.rt.Runtime.epoch;
  if validate_locked tx then begin
    Runtime.fire_txn_hook t.rt Runtime.Txn_validated;
    true
  end
  else begin
    release Smc_obs.c_txn_conflicts tx;
    false
  end

(* Publishes a validated transaction (apply, then one unit to every
   subscriber), releases its locks, and returns its adds' references. An
   empty commit has nothing to publish. *)
let publish_locked tx =
  let t = tx.tx_coll in
  let csn = Context.begin_commit t.ctx in
  Fun.protect
    ~finally:(fun () ->
      Context.end_commit t.ctx;
      unlock t)
    (fun () ->
      let adds, ops = apply_locked tx ~csn in
      Runtime.fire_txn_hook t.rt Runtime.Txn_applied;
      if ops <> [] then publish t ops;
      Runtime.fire_txn_hook t.rt Runtime.Txn_logged;
      obs_incr t Smc_obs.c_txn_commits;
      adds)

let commit_all txs =
  List.iter (fun tx -> check_open tx "commit") txs;
  (match check_staging txs with
  | () -> List.iter (fun tx -> tx.tx_done <- true) txs
  | exception e ->
    List.iter (fun tx -> if not tx.tx_done then abort tx) txs;
    raise e);
  let rec validate held = function
    | [] -> Some (List.rev held)
    | tx :: rest when lock_and_validate tx -> validate (tx :: held) rest
    | _ :: rest ->
      (* The ones already validated are released unpublished and counted as
         conflicts, so each runtime's outcome balance still partitions its
         begins; the ones never reached count as aborts. *)
      List.iter (release Smc_obs.c_txn_conflicts) held;
      List.iter (fun tx -> obs_incr tx.tx_coll Smc_obs.c_txn_aborts) rest;
      None
  in
  let rec publish_all = function
    | [] -> []
    | tx :: rest -> (
      match publish_locked tx with
      | adds -> adds :: publish_all rest
      | exception e ->
        List.iter (release Smc_obs.c_txn_aborts) rest;
        raise e)
  in
  Option.map publish_all (validate [] txs)

let commit tx =
  match commit_all [ tx ] with
  | Some [ adds ] -> Committed adds
  | Some _ -> assert false
  | None -> Conflict

let transact t f =
  let tx = txn t in
  (match f tx with
  | () -> ()
  | exception e ->
    if not tx.tx_done then abort tx;
    raise e);
  if tx.tx_done then invalid_arg "Collection.transact: body committed or aborted the transaction"
  else commit tx

(* ---- Snapshot views ---------------------------------------------------
   A view is one registered CSN frontier, read while holding the
   transaction lock of every collection in the vector, so it never splits
   a committed batch — including a coordinated one that spans the
   collections. Every walk reads the same way; a view only keeps its
   frontier open for longer, and the registry keeps every row it can see
   from being recycled or dropped by compaction. A view holds no critical
   section, so epochs advance and compaction runs while it is open. Views
   are bound to the opening domain (the registry cell is per domain) and
   must be closed; [with_view] brackets the common case. *)

type view = { vw_coll : t; vw_csn : int; mutable vw_open : bool }

let snapshot_views ts =
  List.iter (fun t -> Mutex.lock t.txn_lock) ts;
  let views =
    List.map
      (fun t ->
        let csn = Context.open_frontier t.ctx in
        obs_incr t Smc_obs.c_txn_views;
        { vw_coll = t; vw_csn = csn; vw_open = true })
      ts
  in
  List.iter (fun t -> Mutex.unlock t.txn_lock) ts;
  views

let snapshot_view t = List.hd (snapshot_views [ t ])

let close_view v =
  if v.vw_open then begin
    let t = v.vw_coll in
    v.vw_open <- false;
    Context.close_frontier t.ctx;
    obs_incr t Smc_obs.c_txn_view_closes
  end

let view_csn v = v.vw_csn

let view_walk v =
  if not v.vw_open then invalid_arg "Collection.view_walk: view already closed";
  Context.walk_from v.vw_coll.ctx ~csn:v.vw_csn

let view_iter v ~f = Context.iter (view_walk v) ~on_block:f

let view_fold v ~init ~f =
  let acc = ref init in
  view_iter v ~f:(fun blk slot -> acc := f !acc blk slot);
  !acc

let view_count v = view_fold v ~init:0 ~f:(fun acc _ _ -> acc + 1)

let with_view t f =
  let v = snapshot_view t in
  Fun.protect ~finally:(fun () -> close_view v) (fun () -> f v)
