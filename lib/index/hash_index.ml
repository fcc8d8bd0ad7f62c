(* Off-heap open-addressing hash index (see hash_index.mli for the
   contract).

   Storage: the bucket array is a set of off-heap Bigarray chunks of
   [chunk_buckets] buckets each, two words per bucket —

     word 0: packed indirect reference ([empty] / [tomb] sentinels)
     word 1: key word (the int key itself, or a string hash)

   Chunking keeps rebuilds from needing one huge contiguous mapping and
   caps per-allocation size the same way the runtime's blocks do. The
   chunks are private to the index: they are not runtime blocks and are
   not registered with the block registry, so the runtime's structural
   audit (which treats unaccounted registered blocks as leaks) is
   unaffected, and the index can drop a whole store on rebuild without a
   block-free protocol — the old chunks die with the old store value.

   Probes snapshot [t.store] once (a single mutable-field read yields a
   consistent cap/mask/chunks triple) and never write, so they need no
   lock: a rebuild publishes a fresh store and in-flight probes finish
   against the old one. Racy bucket reads against a concurrent insert are
   harmless because emission requires both incarnation validation and key
   re-extraction from the live row — a torn entry can only miss, never
   fabricate a hit. *)

open Smc_offheap

type key = K_int of int | K_str of string

type key_spec =
  | Int_key of (Block.t -> int -> int)
  | Str_key of (Block.t -> int -> string)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_bits = 12
let chunk_buckets = 1 lsl chunk_bits (* 4096 buckets = 64 KiB per chunk *)
let chunk_mask = chunk_buckets - 1

(* Sentinels live in the ref word; key words are unconstrained. *)
let empty = -1
let tomb = -2

type store = {
  cap : int; (* total buckets, power of two, >= chunk_buckets *)
  mask : int;
  chunks : int_ba array;
}

let make_store cap =
  let n_chunks = cap lsr chunk_bits in
  let chunks =
    Array.init n_chunks (fun _ ->
        let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (chunk_buckets * 2) in
        for i = 0 to chunk_buckets - 1 do
          Bigarray.Array1.unsafe_set c (i * 2) empty
        done;
        c)
  in
  { cap; mask = cap - 1; chunks }

type t = {
  name : string;
  coll : Smc.Collection.t;
  spec : key_spec;
  max_load : float;
  lock : Mutex.t; (* serialises insert / sweep / rebuild *)
  mutable store : store;
  mutable occupied : int; (* buckets holding a (possibly stale) entry *)
  mutable tombstones : int;
  stale_seen : int Atomic.t; (* probe sightings of stale entries since last sweep *)
  dead_pending : int Atomic.t; (* removes since last sweep *)
  obs : Smc_obs.t;
}

(* Fibonacci-style multiplicative mix; [land max_int] clears the sign. *)
let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land max_int

(* The key word stored in the bucket. Int keys store the key itself (word
   equality is exact); string keys store a hash, so hits re-check the
   actual string. *)
let key_word spec k =
  match (spec, k) with
  | Int_key _, K_int k -> k
  | Str_key _, K_str s -> mix (Hashtbl.hash s)
  | Int_key _, K_str _ | Str_key _, K_int _ ->
      invalid_arg "Hash_index: probe key type does not match the index key spec"

(* Placement hash derived from the key word alone, so rebuilds re-place
   entries without re-extracting keys from rows. *)
let placement spec w = match spec with Int_key _ -> mix w | Str_key _ -> w land max_int

let extract spec blk slot =
  match spec with Int_key f -> K_int (f blk slot) | Str_key f -> K_str (f blk slot)

(* Final validation on a probe hit: the live row's key must equal the
   probe key. This is what makes racy bucket reads and string-hash
   collisions safe — word agreement alone never emits a row. *)
let key_matches spec k blk slot =
  match (spec, k) with
  | Int_key f, K_int k -> f blk slot = k
  | Str_key f, K_str s -> String.equal (f blk slot) s
  | Int_key _, K_str _ | Str_key _, K_int _ -> false

let bucket_chunk s i = Array.unsafe_get s.chunks (i lsr chunk_bits)
let bucket_off i = (i land chunk_mask) * 2

let name t = t.name
let collection t = t.coll
let key_kind t = match t.spec with Int_key _ -> `Int | Str_key _ -> `Str

(* ---- probes ------------------------------------------------------- *)

let probe t k ~f =
  Smc_obs.incr t.obs Smc_obs.c_idx_probes;
  let s = t.store in
  let w = key_word t.spec k in
  let h = placement t.spec w in
  Smc.Collection.with_read t.coll (fun () ->
      let i = ref (h land s.mask) in
      let dist = ref 0 in
      let continue_ = ref true in
      while !continue_ && !dist < s.cap do
        let c = bucket_chunk s !i in
        let off = bucket_off !i in
        let r = Bigarray.Array1.unsafe_get c off in
        if r = empty then continue_ := false
        else begin
          if r <> tomb && Bigarray.Array1.unsafe_get c (off + 1) = w then begin
            match Smc.Collection.deref_opt t.coll (Smc.Ref.of_packed r) with
            | None ->
                Atomic.incr t.stale_seen;
                Smc_obs.incr t.obs Smc_obs.c_idx_stale
            | Some (blk, slot) ->
                if key_matches t.spec k blk slot then begin
                  Smc_obs.incr t.obs Smc_obs.c_idx_hits;
                  f (Smc.Ref.of_packed r) blk slot
                end
          end;
          i := (!i + 1) land s.mask;
          incr dist
        end
      done)

let probe_refs t k =
  let acc = ref [] in
  probe t k ~f:(fun r _ _ -> acc := r :: !acc);
  List.rev !acc

let contains t k =
  let exception Found in
  try
    probe t k ~f:(fun _ _ _ -> raise Found);
    false
  with Found -> true

(* ---- writes (caller holds t.lock) --------------------------------- *)

(* Insert into the first reusable bucket of the probe chain of [s]. Key
   word is written before the ref word so a bucket is never observable
   with a fresh ref and no key at all; full safety still rests on
   probe-side validation, not on this ordering. Takes the store as an
   argument so a rebuild can populate a fresh, unpublished store; returns
   whether a tombstone was reused (callers maintain the counters). *)
let store_insert spec s w packed =
  let h = placement spec w in
  let i = ref (h land s.mask) in
  let reuse = ref (-1) in
  let target = ref (-1) in
  while !target < 0 do
    let c = bucket_chunk s !i in
    let off = bucket_off !i in
    let r = Bigarray.Array1.unsafe_get c off in
    if r = empty then target := (if !reuse >= 0 then !reuse else !i)
    else begin
      if r = tomb && !reuse < 0 then reuse := !i;
      i := (!i + 1) land s.mask
    end
  done;
  let c = bucket_chunk s !target in
  let off = bucket_off !target in
  let reused = Bigarray.Array1.unsafe_get c off = tomb in
  Bigarray.Array1.unsafe_set c (off + 1) w;
  Bigarray.Array1.unsafe_set c off packed;
  reused

let insert_locked t w packed =
  if store_insert t.spec t.store w packed then t.tombstones <- t.tombstones - 1;
  t.occupied <- t.occupied + 1

(* Tombstone every stale entry in place. Valid->tombstone transitions are
   the only writes, so concurrent probes stay correct (they either see the
   entry and find it stale, or see the tombstone and skip). *)
let sweep_locked t =
  let s = t.store in
  let purged = ref 0 in
  (* Drain the churn counters up front (exchange, not a trailing reset):
     probe/remove increments landing mid-sweep carry over to the next
     trigger instead of being lost. Entries they refer to may already be
     tombstoned by this sweep, which at worst re-arms the trigger early —
     heuristic drift in the safe direction. *)
  ignore (Atomic.exchange t.stale_seen 0 : int);
  ignore (Atomic.exchange t.dead_pending 0 : int);
  Smc.Collection.with_read t.coll (fun () ->
      for i = 0 to s.cap - 1 do
        let c = bucket_chunk s i in
        let off = bucket_off i in
        let r = Bigarray.Array1.unsafe_get c off in
        if r <> empty && r <> tomb
           && Smc.Collection.deref_opt t.coll (Smc.Ref.of_packed r) = None
        then begin
          Bigarray.Array1.unsafe_set c off tomb;
          t.occupied <- t.occupied - 1;
          t.tombstones <- t.tombstones + 1;
          incr purged
        end
      done);
  Smc_obs.add t.obs Smc_obs.c_idx_tombstones !purged

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

(* Collect live entries from the old store, size a fresh one to <= half
   load, and re-place them by key word. The fresh store is FULLY populated
   before the [t.store] assignment: that single write is the publication
   point, so a lock-free probe snapshots either the old store (complete)
   or the new one (complete) — never a half-built table that would miss
   rows live all along. The old chunks stay alive for any in-flight probe
   that already snapshotted them. *)
let rebuild_locked t =
  let s = t.store in
  (* Drain churn counters up front, same rationale as [sweep_locked]. *)
  ignore (Atomic.exchange t.stale_seen 0 : int);
  ignore (Atomic.exchange t.dead_pending 0 : int);
  let live = ref [] in
  let n_live = ref 0 in
  let dropped = ref 0 in
  Smc.Collection.with_read t.coll (fun () ->
      for i = 0 to s.cap - 1 do
        let c = bucket_chunk s i in
        let off = bucket_off i in
        let r = Bigarray.Array1.unsafe_get c off in
        if r <> empty && r <> tomb then
          if Smc.Collection.deref_opt t.coll (Smc.Ref.of_packed r) = None then incr dropped
          else begin
            live := (Bigarray.Array1.unsafe_get c (off + 1), r) :: !live;
            incr n_live
          end
      done);
  let cap = next_pow2 (max chunk_buckets (4 * !n_live)) chunk_buckets in
  let fresh = make_store cap in
  List.iter (fun (w, r) -> ignore (store_insert t.spec fresh w r : bool)) !live;
  t.store <- fresh;
  t.occupied <- !n_live;
  t.tombstones <- 0;
  Smc_obs.add t.obs Smc_obs.c_idx_tombstones !dropped;
  Smc_obs.incr t.obs Smc_obs.c_idx_rebuilds

(* Pre-insert housekeeping: purge when churn says a quarter of the table
   may be stale; rebuild when occupancy (entries + tombstones) crosses the
   load factor. *)
let maintain_locked t =
  let s = t.store in
  if Atomic.get t.stale_seen + Atomic.get t.dead_pending > s.cap / 4 then sweep_locked t;
  if
    float_of_int (t.occupied + t.tombstones + 1) > t.max_load *. float_of_int s.cap
  then rebuild_locked t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- maintenance hooks -------------------------------------------- *)

let apply_op t : Smc.Collection.op -> unit = function
  | Add (r, _, _) ->
    (* Re-resolve the reference inside the critical section rather than
       trusting the published (blk, slot): the row may have been relocated
       by a concurrent compaction since init ran, and the ref — stable in
       indirect mode — is the durable name. *)
    locked t (fun () ->
        Smc.Collection.with_read t.coll (fun () ->
            match Smc.Collection.deref_opt t.coll r with
            | None -> () (* removed before we got the lock; nothing to index *)
            | Some (blk, slot) ->
                let w = key_word t.spec (extract t.spec blk slot) in
                maintain_locked t;
                insert_locked t w (Smc.Ref.to_packed r);
                Smc_obs.incr t.obs Smc_obs.c_idx_inserts))
  | Remove _ ->
    (* O(1): the entry goes stale by incarnation and is purged lazily. No
       key extraction — the row is already gone. *)
    Atomic.incr t.dead_pending
  | Store _ ->
    (* Keys live in fields written once at add time (the documented
       contract: do not store to indexed key fields), so stores never
       re-key an entry. *)
    ()

let sweep t = locked t (fun () -> sweep_locked t)
let rebuild t = locked t (fun () -> rebuild_locked t)

(* ---- lifecycle ----------------------------------------------------- *)

let attach ?(initial_capacity = chunk_buckets) ?(max_load = 0.7) ~name ~key coll =
  if max_load <= 0.0 || max_load >= 1.0 then
    invalid_arg "Hash_index.attach: max_load must be in (0, 1)";
  let cap = next_pow2 (max chunk_buckets initial_capacity) chunk_buckets in
  let t =
    {
      name;
      coll;
      spec = key;
      max_load;
      lock = Mutex.create ();
      store = make_store cap;
      occupied = 0;
      tombstones = 0;
      stale_seen = Atomic.make 0;
      dead_pending = Atomic.make 0;
      obs = coll.Smc.Collection.rt.Runtime.obs;
    }
  in
  (* Subscribes first (rejects direct mode / duplicate names before any
     work), then bulk-loads; attach is a quiescent-point operation so no
     add can slip between the two. *)
  Smc.Collection.subscribe coll { name; on_commit = List.iter (apply_op t) };
  locked t (fun () ->
      Smc.Collection.iter coll ~f:(fun blk slot ->
          let r = Smc.Collection.ref_of_slot t.coll blk slot in
          let w = key_word t.spec (extract t.spec blk slot) in
          maintain_locked t;
          insert_locked t w (Smc.Ref.to_packed r);
          Smc_obs.incr t.obs Smc_obs.c_idx_inserts));
  t

let detach t = Smc.Collection.unsubscribe t.coll t.name

(* ---- introspection -------------------------------------------------- *)

type stats = { capacity : int; occupied : int; tombstones : int; memory_words : int }

let stats t =
  let s = t.store in
  {
    capacity = s.cap;
    occupied = t.occupied;
    tombstones = t.tombstones;
    memory_words = Array.fold_left (fun a c -> a + Bigarray.Array1.dim c) 0 s.chunks;
  }

let audit t =
  let s = t.store in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let n_occ = ref 0 and n_tomb = ref 0 and n_live = ref 0 in
  Smc.Collection.with_read t.coll (fun () ->
      for i = 0 to s.cap - 1 do
        let c = bucket_chunk s i in
        let off = bucket_off i in
        let r = Bigarray.Array1.unsafe_get c off in
        if r = tomb then incr n_tomb
        else if r <> empty then begin
          incr n_occ;
          let w = Bigarray.Array1.unsafe_get c (off + 1) in
          match Smc.Collection.deref_opt t.coll (Smc.Ref.of_packed r) with
          | None -> () (* stale entry awaiting purge: legal, not counted live *)
          | Some (blk, slot) ->
              incr n_live;
              if Block.slot_state blk slot <> Constants.state_valid then
                bad "index %s bucket %d: live entry resolves to slot in state %d" t.name i
                  (Block.slot_state blk slot);
              let w' = key_word t.spec (extract t.spec blk slot) in
              if w' <> w then
                bad "index %s bucket %d: key word %d disagrees with row key word %d" t.name i
                  w w'
        end
      done);
  if !n_occ <> t.occupied then
    bad "index %s: %d occupied buckets but counter says %d" t.name !n_occ t.occupied;
  if !n_tomb <> t.tombstones then
    bad "index %s: %d tombstones but counter says %d" t.name !n_tomb t.tombstones;
  let rows = Smc.Collection.count t.coll in
  if !n_live <> rows then
    bad "index %s: %d live entries but collection %s has %d live rows" t.name !n_live
      t.coll.Smc.Collection.name rows;
  List.rev !violations
