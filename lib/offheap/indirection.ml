type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type chunk = { inc : int_ba; ptr : int_ba }

type cache = { mutable items : int array; mutable count : int }

type t = {
  chunk_bits : int;
  chunk_mask : int;
  mutable chunks : chunk array; (* grow-only; old snapshots stay valid *)
  bump : int Atomic.t; (* next never-used entry index *)
  grow_lock : Mutex.t;
  free_lock : Mutex.t;
  mutable free_list : int array; (* global stack of recycled entries *)
  mutable free_count : int;
  caches : cache array; (* per thread-slot recycled-entry caches *)
  obs : Smc_obs.t option;
}

let oincr obs c = match obs with Some o -> Smc_obs.incr o c | None -> ()

let cache_refill = 256
let cache_spill = 1024
let max_threads = 128

let make_chunk n =
  let inc = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let ptr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill inc 0;
  Bigarray.Array1.fill ptr Constants.null_ref;
  { inc; ptr }

let create ?(chunk_bits = 16) ?obs () =
  let n = 1 lsl chunk_bits in
  {
    chunk_bits;
    chunk_mask = n - 1;
    chunks = [| make_chunk n |];
    bump = Atomic.make 0;
    grow_lock = Mutex.create ();
    free_lock = Mutex.create ();
    free_list = Array.make 4096 0;
    free_count = 0;
    caches = Array.init max_threads (fun _ -> { items = Array.make cache_spill 0; count = 0 });
    obs;
  }

let chunk_of t idx = t.chunks.(idx lsr t.chunk_bits)

let ensure_chunk t idx =
  let ci = idx lsr t.chunk_bits in
  if ci >= Array.length t.chunks then begin
    Mutex.lock t.grow_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.grow_lock)
      (fun () ->
        while ci >= Array.length t.chunks do
          let old = t.chunks in
          let next = Array.make (Array.length old + 1) old.(0) in
          Array.blit old 0 next 0 (Array.length old);
          next.(Array.length old) <- make_chunk (1 lsl t.chunk_bits);
          t.chunks <- next
        done)
  end

let pop_global t cache =
  Mutex.lock t.free_lock;
  let took =
    let n = min cache_refill t.free_count in
    Array.blit t.free_list (t.free_count - n) cache.items 0 n;
    t.free_count <- t.free_count - n;
    n
  in
  Mutex.unlock t.free_lock;
  cache.count <- took;
  took > 0

let alloc t ~tid =
  let cache = t.caches.(tid) in
  if cache.count > 0 || pop_global t cache then begin
    cache.count <- cache.count - 1;
    oincr t.obs Smc_obs.c_entries_recycled;
    cache.items.(cache.count)
  end
  else begin
    let idx = Atomic.fetch_and_add t.bump 1 in
    ensure_chunk t idx;
    oincr t.obs Smc_obs.c_entries_minted;
    idx
  end

let push_global t cache =
  Mutex.lock t.free_lock;
  let keep = cache.count / 2 in
  let spill = cache.count - keep in
  if t.free_count + spill > Array.length t.free_list then begin
    let next = Array.make (max (2 * Array.length t.free_list) (t.free_count + spill)) 0 in
    Array.blit t.free_list 0 next 0 t.free_count;
    t.free_list <- next
  end;
  Array.blit cache.items keep t.free_list t.free_count spill;
  t.free_count <- t.free_count + spill;
  Mutex.unlock t.free_lock;
  cache.count <- keep

let free t ~tid entry =
  let cache = t.caches.(tid) in
  if cache.count >= cache_spill then push_global t cache;
  cache.items.(cache.count) <- entry;
  cache.count <- cache.count + 1;
  oincr t.obs Smc_obs.c_entries_freed

let inc_word t idx =
  Bigarray.Array1.unsafe_get (chunk_of t idx).inc (idx land t.chunk_mask)

(* Fused liveness check + pointer load: one chunk resolution for the hot
   dereference path. Returns the packed pointer when the incarnation
   matches and no protocol flags are set, [-1] when the object is dead, and
   [min_int] when frozen/locked/forwarded (caller takes the slow path). *)
let live_ptr t idx inc =
  let c = chunk_of t idx in
  let off = idx land t.chunk_mask in
  let w = Bigarray.Array1.unsafe_get c.inc off in
  if w land (Constants.flags_mask lor Constants.inc_mask) = inc then
    Bigarray.Array1.unsafe_get c.ptr off
  else if w land Constants.inc_mask = inc then min_int
  else -1

let set_inc_word t idx v =
  Bigarray.Array1.unsafe_set (chunk_of t idx).inc (idx land t.chunk_mask) v

let ptr t idx = Bigarray.Array1.unsafe_get (chunk_of t idx).ptr (idx land t.chunk_mask)

let set_ptr t idx v =
  Bigarray.Array1.unsafe_set (chunk_of t idx).ptr (idx land t.chunk_mask) v

let capacity t = Atomic.get t.bump

(* Restore-time only: raise the never-used watermark so the entry indices
   named by a snapshot (and by WAL records logged after it) can be assigned
   verbatim without ever colliding with freshly minted entries. The table
   must still be private to the restoring thread. *)
let restore_reserve t ~capacity:cap =
  if cap > 0 then begin
    ensure_chunk t (cap - 1);
    let rec raise_to () =
      let cur = Atomic.get t.bump in
      if cur < cap && not (Atomic.compare_and_set t.bump cur cap) then raise_to ()
    in
    raise_to ()
  end

let words t = 2 * Array.length t.chunks * (1 lsl t.chunk_bits)

(* Audit accessors: enumerate every recycled-but-unallocated entry (global
   free stack plus the per-thread caches) so an invariant sweep can prove
   that no free entry is still reachable from a slot back-pointer. Only
   meaningful at a quiescent point. *)
let iter_free t ~f =
  Mutex.lock t.free_lock;
  for i = 0 to t.free_count - 1 do
    f t.free_list.(i)
  done;
  Mutex.unlock t.free_lock;
  Array.iter
    (fun cache ->
      for i = 0 to cache.count - 1 do
        f cache.items.(i)
      done)
    t.caches
