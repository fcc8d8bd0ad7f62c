(* Off-heap suffix-array text index (see sa_index.mli for the contract).

   Storage is log-structured in levels. Each [level] is a complete,
   immutable suffix-array index over a set of rows —

     arena    : byte arena of NUL-terminated entry texts, back to back
     ent_ref  : packed indirect reference per entry
     ent_off  : arena byte offset of each entry's first byte (ascending)
     ent_len  : entry text length in bytes (NUL excluded)
     sa       : [(entry lsl 32) lor arena offset] of every suffix, sorted
                lexicographically by suffix (suffixes end at their entry's
                NUL, so none crosses an entry boundary), equal suffixes in
                ascending position

   — and one published [store] value holds everything a probe needs: the
   [base] level (built by full rebuilds), the sealed [runs] (newest
   first), and a short [pending] tail of packed refs appended by write
   hooks since the last seal. When the tail reaches [run_size] refs it is
   sealed into a new run, and runs merge like a binary counter (the newest
   absorbs the one below while it is at least as large), so there are
   O(log) runs and a probe pays two binary searches per level plus a scan
   of fewer than [run_size] tail refs.

   The arrays are private off-heap Bigarrays: not runtime blocks, not
   registered with the block registry, so the structural audit is
   unaffected and a rebuild drops the old store without any free protocol.

   The runs and the tail live INSIDE the store record on purpose: plain
   OCaml mutable fields give no cross-field ordering, so a probe reading a
   separate [t.pending] could pair a pre-seal run list with a post-seal
   (emptied) tail and miss rows live all along. With everything in the
   record, the single [t.store <- ...] write is the only publication point
   — a lock-free probe snapshots one consistent (levels, tail) set,
   complete under bag semantics. Appending to the tail publishes a new
   record that shares the levels.

   Probes never trust the arena: a candidate is re-tested against the
   live row's text (inside the probe's critical section, after
   incarnation validation). The arena only narrows the candidate set;
   stale bytes can only cause a miss, never a hit. *)

open Smc_offheap

type op = Prefix | Substring | Substring_ci

type byte_ba = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type level = {
  arena : byte_ba;
  ent_ref : int_ba;
  ent_off : int_ba;
  ent_len : int_ba;
  n_entries : int;
  sa : int_ba;
  n_sa : int;
}

type store = {
  base : level;
  runs : level list; (* newest first *)
  pending : int list; (* newest first, fewer than [run_size] after maintenance *)
  n_pending : int;
}

(* Tail length that triggers a seal: bounds the linear part of every probe. *)
let run_size = 256

type t = {
  name : string;
  coll : Smc.Collection.t;
  field : Layout.field;
  col_name : string;
  churn_limit : int option;
  lock : Mutex.t; (* serialises appends, seals, merges and rebuilds *)
  mutable store : store;
  dead_pending : int Atomic.t; (* removes since last rebuild *)
  obs : Smc_obs.t;
}

let int_ba n : int_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let byte_ba n : byte_ba = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

let empty_level =
  {
    arena = byte_ba 0;
    ent_ref = int_ba 0;
    ent_off = int_ba 0;
    ent_len = int_ba 0;
    n_entries = 0;
    sa = int_ba 0;
    n_sa = 0;
  }

let empty_store = { base = empty_level; runs = []; pending = []; n_pending = 0 }

let iter_levels s f =
  f s.base;
  List.iter f s.runs

let run_entries s = List.fold_left (fun acc lv -> acc + lv.n_entries) 0 s.runs

let name t = t.name
let collection t = t.coll
let column t = t.col_name

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- scalar predicate over the live row's text --------------------- *)

(* ASCII case folding, byte-wise ({!Smc.Field.lower_byte}, the query
   layer's ContainsCI contract). The arena stores folded bytes — see
   [build_level] — so one suffix array serves both the case-sensitive and
   case-insensitive operators: searching with a folded needle yields every
   position where the folded text matches, a superset of the
   case-sensitive matches, and the live-text re-check against the
   original-case predicate decides. *)
let lower_byte = Smc.Field.lower_byte

let lower_code c = if c >= 65 && c <= 90 then c + 32 else c

(* The probe predicate over a live row: the case-sensitive operators read
   the field's words in place; only the case-insensitive one copies the
   text out. *)
let live_match field op needle =
  match op with
  | Prefix -> Smc.Field.string_prefix field needle
  | Substring -> Smc.Field.string_contains field needle
  | Substring_ci ->
    fun blk slot -> Smc.Field.contains_ci ~needle (Smc.Field.get_string field blk slot)

(* ---- suffix comparisons ------------------------------------------- *)

(* Full lexicographic order of two arena suffixes; entries are
   NUL-terminated, round-tripped column strings never contain an interior
   NUL ([Block.get_string] stops at the first), so 0 is a safe terminator
   and the shorter suffix sorts first. Top-level, like [pack_key]: a local
   [let rec] over the arena would allocate a closure per call, and the
   sort makes millions of these calls. *)
let rec compare_suffixes (arena : byte_ba) a b =
  let ca = Bigarray.Array1.unsafe_get arena a in
  let cb = Bigarray.Array1.unsafe_get arena b in
  if ca <> cb then ca - cb else if ca = 0 then 0 else compare_suffixes arena (a + 1) (b + 1)

(* Suffix vs needle, in the needle-truncated order the range search uses:
   negative when the suffix's first bytes sort below the needle (including
   the suffix running out at its NUL), 0 when the needle is a prefix of the
   suffix, positive when they sort above. Bytes are 0..255, so their
   difference carries the sign. *)
let compare_suffix_needle (arena : byte_ba) off needle =
  let n = String.length needle in
  let rec go j =
    if j >= n then 0
    else
      let c = Bigarray.Array1.unsafe_get arena (off + j) in
      let nc = Char.code (String.unsafe_get needle j) in
      if c <> nc then c - nc else go (j + 1)
  in
  go 0

(* A suffix word carries its owning entry above its arena offset, so a
   candidate costs no lookup; [build_level] bounds both halves. *)
let sa_off w = w land 0xFFFF_FFFF
let sa_entry w = w lsr 32

(* First index in [0, n) whose suffix compares >= (resp. >) the needle. *)
let search_bound lv needle ~upper =
  let lo = ref 0 and hi = ref lv.n_sa in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_suffix_needle lv.arena (sa_off (Bigarray.Array1.unsafe_get lv.sa mid)) needle in
    if c < 0 || (upper && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Calls [f off e] for every suffix of [lv] that starts with the (folded)
   needle: its arena offset and owning entry. *)
let iter_range lv needle f =
  let lo = search_bound lv needle ~upper:false in
  let hi = search_bound lv needle ~upper:true in
  for i = lo to hi - 1 do
    let w = Bigarray.Array1.unsafe_get lv.sa i in
    f (sa_off w) (sa_entry w)
  done

(* ---- probes -------------------------------------------------------- *)

let probe t op needle ~f =
  Smc_obs.incr t.obs Smc_obs.c_txt_probes;
  let s = t.store in
  let obs = t.obs in
  let matches = live_match t.field op needle in
  Smc.Collection.with_read t.coll (fun () ->
      let seen = Hashtbl.create 16 in
      (* One candidate sighting ends exactly one way — hit, stale, miss,
         or dup — which is the probe-side partition Obs_check balances. *)
      let candidate packed =
        Smc_obs.incr obs Smc_obs.c_txt_candidates;
        if Hashtbl.mem seen packed then Smc_obs.incr obs Smc_obs.c_txt_dups
        else begin
          Hashtbl.add seen packed ();
          let r = Smc.Ref.of_packed packed in
          match Smc.Collection.deref_opt t.coll r with
          | None -> Smc_obs.incr obs Smc_obs.c_txt_stale
          | Some (blk, slot) ->
            if matches blk slot then begin
              Smc_obs.incr obs Smc_obs.c_txt_hits;
              f r blk slot
            end
            else Smc_obs.incr obs Smc_obs.c_txt_misses
        end
      in
      if String.length needle = 0 then
        (* Every row matches the empty needle; walk entries, not suffixes
           (an empty-text entry has no suffix at all). *)
        iter_levels s (fun lv ->
            for e = 0 to lv.n_entries - 1 do
              candidate (Bigarray.Array1.unsafe_get lv.ent_ref e)
            done)
      else begin
        (* The arena is case-folded, so the range search always runs on the
           folded needle; for case-sensitive operators that widens the
           candidate range (folded matches ⊇ exact matches) and the
           live-text re-check above narrows it back. A row can own entries
           in several levels (old text in the base, new text in a run);
           [seen] makes the later sightings dups. *)
        let folded = String.map lower_byte needle in
        iter_levels s (fun lv ->
            iter_range lv folded (fun off e ->
                (* A Prefix probe only accepts the suffix that starts the
                   entry; interior suffixes witness containment, not
                   prefixhood. *)
                if op <> Prefix || Bigarray.Array1.unsafe_get lv.ent_off e = off then
                  candidate (Bigarray.Array1.unsafe_get lv.ent_ref e)))
      end;
      List.iter candidate s.pending)

let probe_refs t op needle =
  let acc = ref [] in
  probe t op needle ~f:(fun r _ _ -> acc := r :: !acc);
  List.rev !acc

let contains_match t op needle =
  let exception Found in
  try
    probe t op needle ~f:(fun _ _ _ -> raise Found);
    false
  with Found -> true

(* ---- top-k fragment similarity ------------------------------------ *)

let qgram = 3

let fragments_of query =
  let n = String.length query in
  let tbl = Hashtbl.create 16 in
  if n = 0 then []
  else if n < qgram then begin
    Hashtbl.replace tbl query ();
    [ query ]
  end
  else begin
    for i = 0 to n - qgram do
      let g = String.sub query i qgram in
      if not (Hashtbl.mem tbl g) then Hashtbl.replace tbl g ()
    done;
    Hashtbl.fold (fun g () acc -> g :: acc) tbl []
  end

let score_of frags text =
  List.fold_left (fun acc g -> if Smc.Field.contains ~needle:g text then acc + 1 else acc) 0 frags

let top_k_similar t ~k query =
  Smc_obs.incr t.obs Smc_obs.c_txt_probes;
  let s = t.store in
  let obs = t.obs in
  let frags = fragments_of query in
  let out = ref [] in
  Smc.Collection.with_read t.coll (fun () ->
      let seen = Hashtbl.create 64 in
      (* Candidates are narrowed by the suffix array per fragment, then
         scored against the live text — same hit/stale/miss/dup partition
         as [probe], with "matches" meaning a positive score. *)
      let candidate packed =
        Smc_obs.incr obs Smc_obs.c_txt_candidates;
        if Hashtbl.mem seen packed then Smc_obs.incr obs Smc_obs.c_txt_dups
        else begin
          Hashtbl.add seen packed ();
          let r = Smc.Ref.of_packed packed in
          match Smc.Collection.deref_opt t.coll r with
          | None -> Smc_obs.incr obs Smc_obs.c_txt_stale
          | Some (blk, slot) ->
            let score = score_of frags (Smc.Field.get_string t.field blk slot) in
            if score > 0 then begin
              Smc_obs.incr obs Smc_obs.c_txt_hits;
              out := (r, packed, score) :: !out
            end
            else Smc_obs.incr obs Smc_obs.c_txt_misses
        end
      in
      List.iter
        (fun g ->
          let g = String.map lower_byte g in
          iter_levels s (fun lv ->
              iter_range lv g (fun _off e ->
                  candidate (Bigarray.Array1.unsafe_get lv.ent_ref e))))
        frags;
      List.iter candidate s.pending);
  let ranked =
    List.sort
      (fun (_, pa, sa_) (_, pb, sb) -> if sa_ <> sb then compare sb sa_ else compare pa pb)
      !out
  in
  let rec take n = function
    | (r, _, sc) :: rest when n > 0 -> (r, sc) :: take (n - 1) rest
    | _ -> []
  in
  take k ranked

(* ---- sorting a level's suffixes ------------------------------------ *)

(* A radix sort on the arena bytes, in the level's own off-heap [sa] plus
   three off-heap temporaries of its size: nothing suffix-sized is on the
   OCaml heap.

   A segment of [sa] whose suffixes share their first [depth] bytes is
   sorted by key: the suffix's next [key_bytes] bytes from [depth],
   big-endian in one int and zero from its NUL on, so keys order as those
   bytes do (the NUL, 0, sorts below every byte: the shorter suffix
   first). The sort is a stable LSD radix, one byte per pass, that skips a
   pass where every key holds the same byte. A run of equal keys that has
   not reached its NUL (its last key byte is not 0; texts hold no interior
   NUL) is sorted the same way from [depth + key_bytes]; a run that has is a
   set of equal suffixes. A segment of at most [insertion_rows] suffixes is
   sorted by insertion, comparing bytes from [depth].

   [sa] comes in ascending position and every step is stable, so equal
   suffixes stay in ascending position: the one order that [audit]
   accepts. *)
let key_bytes = 7
let insertion_rows = 32

let rec pack_key (arena : byte_ba) off j k =
  if j = key_bytes then k
  else
    let c = Bigarray.Array1.unsafe_get arena (off + j) in
    if c = 0 then k lsl (8 * (key_bytes - j)) else pack_key arena off (j + 1) ((k lsl 8) lor c)

let suffix_key arena off = pack_key arena off 0 0

let sort_suffixes (arena : byte_ba) (sa : int_ba) =
  let n = Bigarray.Array1.dim sa in
  let key = int_ba n and tmp_sa = int_ba n and tmp_key = int_ba n in
  (* one histogram per key byte, least significant first *)
  let counts = Array.make (key_bytes * 256) 0 in
  let insertion lo hi depth =
    for i = lo + 1 to hi - 1 do
      let w = Bigarray.Array1.unsafe_get sa i in
      let o = sa_off w + depth in
      let j = ref (i - 1) in
      while
        !j >= lo
        && compare_suffixes arena (sa_off (Bigarray.Array1.unsafe_get sa !j) + depth) o > 0
      do
        Bigarray.Array1.unsafe_set sa (!j + 1) (Bigarray.Array1.unsafe_get sa !j);
        decr j
      done;
      Bigarray.Array1.unsafe_set sa (!j + 1) w
    done
  in
  (* Sorts [lo, hi) of [sa] and [key] by key; both end back in place. *)
  let radix lo hi =
    Array.fill counts 0 (Array.length counts) 0;
    for i = lo to hi - 1 do
      let k = Bigarray.Array1.unsafe_get key i in
      for p = 0 to key_bytes - 1 do
        let c = (p lsl 8) lor ((k lsr (8 * p)) land 0xFF) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
      done
    done;
    let src_sa = ref sa and src_key = ref key and dst_sa = ref tmp_sa and dst_key = ref tmp_key in
    for p = 0 to key_bytes - 1 do
      let b0 = p lsl 8 in
      let rec uniform c = c < 256 && (counts.(b0 + c) = hi - lo || uniform (c + 1)) in
      if not (uniform 0) then begin
        let start = ref lo in
        for c = b0 to b0 + 255 do
          let k = counts.(c) in
          counts.(c) <- !start;
          start := !start + k
        done;
        let s_sa = !src_sa and s_key = !src_key and d_sa = !dst_sa and d_key = !dst_key in
        let shift = 8 * p in
        for i = lo to hi - 1 do
          let k = Bigarray.Array1.unsafe_get s_key i in
          let c = b0 lor ((k lsr shift) land 0xFF) in
          let d = Array.unsafe_get counts c in
          Array.unsafe_set counts c (d + 1);
          Bigarray.Array1.unsafe_set d_sa d (Bigarray.Array1.unsafe_get s_sa i);
          Bigarray.Array1.unsafe_set d_key d k
        done;
        src_sa := d_sa;
        src_key := d_key;
        dst_sa := s_sa;
        dst_key := s_key
      end
    done;
    if !src_sa != sa then
      for i = lo to hi - 1 do
        Bigarray.Array1.unsafe_set sa i (Bigarray.Array1.unsafe_get tmp_sa i);
        Bigarray.Array1.unsafe_set key i (Bigarray.Array1.unsafe_get tmp_key i)
      done
  in
  let rec sort lo hi depth =
    if hi - lo <= insertion_rows then insertion lo hi depth
    else begin
      for i = lo to hi - 1 do
        Bigarray.Array1.unsafe_set key i
          (suffix_key arena (sa_off (Bigarray.Array1.unsafe_get sa i) + depth))
      done;
      radix lo hi;
      let i = ref lo in
      while !i < hi do
        let k = Bigarray.Array1.unsafe_get key !i in
        let j = ref (!i + 1) in
        while !j < hi && Bigarray.Array1.unsafe_get key !j = k do
          incr j
        done;
        if !j - !i > 1 && k land 0xFF <> 0 then sort !i !j (depth + key_bytes);
        i := !j
      done
    end
  in
  sort 0 n 0

(* ---- levels: build, rebuild, seal, merge ---------------------------- *)

let churn_limit t s =
  match t.churn_limit with Some l -> l | None -> max 64 (s.base.n_entries / 4)

let add_entries cand lv =
  for e = 0 to lv.n_entries - 1 do
    Hashtbl.replace cand (Bigarray.Array1.unsafe_get lv.ent_ref e) ()
  done

(* The one level builder — full rebuilds, seals and merges all come
   through here. [cand] is a deduplicated set of packed refs; each
   survivor's text is re-extracted from the live row inside a critical
   section, and dead refs are dropped (counted as [txt_dropped]). The
   level — arena, tables, sorted suffix array — is FULLY populated before
   it is returned; the caller's single [t.store] assignment is the
   publication point, so a lock-free probe snapshots either the old store
   (complete) or the new one (complete), never a half-built array. The
   old arrays stay alive for any in-flight probe that already
   snapshotted them. *)
let build_level t cand =
  let live = ref [] in
  let n_live = ref 0 and bytes = ref 0 and dropped = ref 0 in
  Smc.Collection.with_read t.coll (fun () ->
      Hashtbl.iter
        (fun p () ->
          match Smc.Collection.deref_opt t.coll (Smc.Ref.of_packed p) with
          | None -> incr dropped
          | Some (blk, slot) ->
            let text = Smc.Field.get_string t.field blk slot in
            live := (p, text) :: !live;
            incr n_live;
            bytes := !bytes + String.length text)
        cand);
  let n = !n_live in
  if !bytes + n >= 1 lsl 32 || n >= 1 lsl 30 then
    invalid_arg "Sa_index: a level holds < 2^32 arena bytes and < 2^30 entries";
  let arena = byte_ba (!bytes + n) in
  let ent_ref = int_ba n and ent_off = int_ba n and ent_len = int_ba n in
  let off = ref 0 in
  List.iteri
    (fun e (p, text) ->
      let len = String.length text in
      Bigarray.Array1.unsafe_set ent_ref e p;
      Bigarray.Array1.unsafe_set ent_off e !off;
      Bigarray.Array1.unsafe_set ent_len e len;
      for j = 0 to len - 1 do
        (* case-folded arena: one suffix array answers both Substring and
           Substring_ci ranges; probes re-check the original-case live
           text, so folding can only widen candidate sets, never corrupt
           results *)
        Bigarray.Array1.unsafe_set arena (!off + j)
          (lower_code (Char.code (String.unsafe_get text j)))
      done;
      Bigarray.Array1.unsafe_set arena (!off + len) 0;
      off := !off + len + 1)
    (List.rev !live);
  let n_sa = !bytes in
  (* every suffix word, in ascending position: the tie order the sort
     keeps *)
  let sa = int_ba n_sa in
  let si = ref 0 in
  for e = 0 to n - 1 do
    let o = Bigarray.Array1.unsafe_get ent_off e in
    for j = 0 to Bigarray.Array1.unsafe_get ent_len e - 1 do
      Bigarray.Array1.unsafe_set sa !si ((e lsl 32) lor (o + j));
      incr si
    done
  done;
  sort_suffixes arena sa;
  Smc_obs.add t.obs Smc_obs.c_txt_dropped !dropped;
  { arena; ent_ref; ent_off; ent_len; n_entries = n; sa; n_sa }

(* Full merge-rebuild: every level and the tail fold into a fresh base,
   dropping entries whose row died or whose text moved on. *)
let rebuild_locked t =
  let s = t.store in
  (* Drain the removal counter up front (exchange, not a trailing reset):
     increments landing mid-rebuild carry over to the next trigger instead
     of being lost. *)
  ignore (Atomic.exchange t.dead_pending 0 : int);
  let cand = Hashtbl.create (max 64 (s.base.n_entries + run_entries s + s.n_pending)) in
  iter_levels s (add_entries cand);
  List.iter (fun p -> Hashtbl.replace cand p ()) s.pending;
  t.store <- { base = build_level t cand; runs = []; pending = []; n_pending = 0 };
  Smc_obs.incr t.obs Smc_obs.c_txt_rebuilds

(* Seal the tail into a run, then carry like a binary counter: while the
   newest run holds at least as many entries as the one below it, rebuild
   the two as one. Run sizes therefore grow strictly toward the oldest and
   there are O(log (entries / run_size)) of them. Re-extracting texts on a
   merge is what drops dead rows and superseded texts from runs. *)
let seal_locked t =
  let s = t.store in
  let cand = Hashtbl.create (2 * s.n_pending) in
  List.iter (fun p -> Hashtbl.replace cand p ()) s.pending;
  let rec carry run = function
    | below :: older when run.n_entries >= below.n_entries ->
      let cand = Hashtbl.create (run.n_entries + below.n_entries) in
      add_entries cand run;
      add_entries cand below;
      carry (build_level t cand) older
    | runs -> run :: runs
  in
  let run = build_level t cand in
  let runs = if run.n_entries = 0 then s.runs else carry run s.runs in
  t.store <- { s with runs; pending = []; n_pending = 0 }

(* [churn_limit] counts what is not folded into the base: the tail, the
   runs' entries, and removals since the last rebuild. *)
let maintain_locked t =
  let s = t.store in
  if s.n_pending + run_entries s + Atomic.get t.dead_pending > churn_limit t s then
    rebuild_locked t
  else if s.n_pending >= run_size then seal_locked t

let rebuild t = locked t (fun () -> rebuild_locked t)
let maintain t = locked t (fun () -> maintain_locked t)

(* ---- maintenance hooks --------------------------------------------- *)

(* Appending publishes a new store record sharing the levels — the single
   publication point again. The ref alone is logged (no text): the probe
   re-extracts the live text anyway, so a pending entry is always exactly
   as fresh as the row itself. *)
let push_pending_locked t packed =
  let s = t.store in
  t.store <- { s with pending = packed :: s.pending; n_pending = s.n_pending + 1 };
  Smc_obs.incr t.obs Smc_obs.c_txt_adds

let append_pending_locked t packed =
  push_pending_locked t packed;
  maintain_locked t

let apply_op t : Smc.Collection.op -> unit = function
  | Add (r, _, _) ->
    (* The liveness check takes its own critical section so that a seal or
       merge triggered by this append runs outside it. *)
    locked t (fun () ->
        (* removed before we got the lock → nothing to index *)
        if Smc.Collection.with_read t.coll (fun () -> Smc.Collection.mem t.coll r) then
          append_pending_locked t (Smc.Ref.to_packed r))
  | Remove _ ->
    (* O(1): entries go stale by incarnation and are dropped by the next
       merge or rebuild that covers their level. No text extraction — the
       row is already gone. *)
    Atomic.incr t.dead_pending;
    Smc_obs.incr t.obs Smc_obs.c_txt_removes
  | Store (r, word, _) ->
    (* Re-keys the row iff the store hit the indexed column's words. The
       ref keeps its identity across the write (including the
       transactional copy-on-write path), so the old arena entry goes stale
       through the probe's text re-check, and the pending append makes the
       new text findable. *)
    if word >= t.field.Layout.word && word < t.field.Layout.word + t.field.Layout.words then
      locked t (fun () -> append_pending_locked t (Smc.Ref.to_packed r))

(* ---- lifecycle ------------------------------------------------------ *)

let attach ?churn_limit ~name ~column coll =
  let field = Smc.Field.str coll.Smc.Collection.layout column in
  (match churn_limit with
  | Some l when l <= 0 -> invalid_arg "Sa_index.attach: churn_limit must be positive"
  | _ -> ());
  let t =
    {
      name;
      coll;
      field;
      col_name = column;
      churn_limit;
      lock = Mutex.create ();
      store = empty_store;
      dead_pending = Atomic.make 0;
      obs = coll.Smc.Collection.rt.Runtime.obs;
    }
  in
  (* Subscribe first (rejects direct mode / duplicate names before any
     work), then the bulk load; attach is a quiescent-point operation so no
     add can slip between the two. The load stages every live row through
     the pending tail and runs one full rebuild — the same level builder
     incremental maintenance uses. *)
  Smc.Collection.subscribe coll { name; on_commit = List.iter (apply_op t) };
  locked t (fun () ->
      Smc.Collection.iter coll ~f:(fun blk slot ->
          let r = Smc.Collection.ref_of_slot coll blk slot in
          push_pending_locked t (Smc.Ref.to_packed r));
      rebuild_locked t);
  t

let detach t = Smc.Collection.unsubscribe t.coll t.name

(* ---- introspection -------------------------------------------------- *)

type stats = {
  entries : int;
  suffixes : int;
  pending : int;
  runs : int;
  arena_bytes : int;
  memory_words : int;
}

let stats t =
  let s = t.store in
  let words_of_bytes b = (b + 7) / 8 in
  let entries = ref 0 and suffixes = ref 0 and bytes = ref 0 and words = ref 0 in
  iter_levels s (fun lv ->
      let arena = Bigarray.Array1.dim lv.arena in
      entries := !entries + lv.n_entries;
      suffixes := !suffixes + lv.n_sa;
      bytes := !bytes + arena;
      words := !words + words_of_bytes arena + (3 * lv.n_entries) + lv.n_sa);
  {
    entries = !entries;
    suffixes = !suffixes;
    pending = s.n_pending;
    runs = List.length s.runs;
    arena_bytes = !bytes;
    memory_words = !words;
  }

let arena_text lv e =
  let o = Bigarray.Array1.get lv.ent_off e and l = Bigarray.Array1.get lv.ent_len e in
  String.init l (fun j -> Char.chr (Bigarray.Array1.get lv.arena (o + j)))

let audit t =
  let s = t.store in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let levels = List.mapi (fun i lv -> (Printf.sprintf "run %d" i, lv)) s.runs in
  let levels = ("base", s.base) :: levels in
  let audit_level (lname, lv) =
    (* entry tables: offsets ascending, back to back, NUL-terminated *)
    let expect_off = ref 0 in
    for e = 0 to lv.n_entries - 1 do
      let o = Bigarray.Array1.get lv.ent_off e and l = Bigarray.Array1.get lv.ent_len e in
      if o <> !expect_off then
        bad "text index %s %s entry %d: offset %d, expected %d" t.name lname e o !expect_off;
      if l < 0 then bad "text index %s %s entry %d: negative length %d" t.name lname e l;
      if o + l < Bigarray.Array1.dim lv.arena && Bigarray.Array1.get lv.arena (o + l) <> 0 then
        bad "text index %s %s entry %d: missing NUL terminator" t.name lname e;
      expect_off := o + l + 1
    done;
    (* suffix array: right size, sorted, covers each suffix exactly once *)
    let total = ref 0 in
    for e = 0 to lv.n_entries - 1 do
      total := !total + Bigarray.Array1.get lv.ent_len e
    done;
    if lv.n_sa <> !total then
      bad "text index %s %s: suffix array has %d offsets but entries hold %d bytes" t.name
        lname lv.n_sa !total;
    let marks = Bytes.make (Bigarray.Array1.dim lv.arena) '\000' in
    for i = 0 to lv.n_sa - 1 do
      let off = sa_off lv.sa.{i} and e = sa_entry lv.sa.{i} in
      if off >= Bigarray.Array1.dim lv.arena then
        bad "text index %s %s sa[%d]: offset %d outside the arena" t.name lname i off
      else begin
        if Bytes.get marks off <> '\000' then
          bad "text index %s %s sa[%d]: offset %d listed twice" t.name lname i off;
        Bytes.set marks off '\001';
        if Bigarray.Array1.get lv.arena off = 0 then
          bad "text index %s %s sa[%d]: offset %d points at a terminator" t.name lname i off
      end;
      let o = if e < lv.n_entries then Bigarray.Array1.get lv.ent_off e else max_int in
      if off < o || off >= o + Bigarray.Array1.get lv.ent_len e then
        bad "text index %s %s sa[%d]: entry %d does not own offset %d" t.name lname i e off;
      (* suffixes in order, equal ones in ascending position: one array *)
      if i > 0 then begin
        let c = compare_suffixes lv.arena (sa_off lv.sa.{i - 1}) off in
        if c > 0 then bad "text index %s %s: suffix array out of order at %d" t.name lname i
        else if c = 0 && lv.sa.{i - 1} > lv.sa.{i} then
          bad "text index %s %s: equal suffixes out of position order at %d" t.name lname i
      end
    done;
    let by_ref = Hashtbl.create (max 16 lv.n_entries) in
    for e = 0 to lv.n_entries - 1 do
      Hashtbl.replace by_ref (Bigarray.Array1.get lv.ent_ref e) e
    done;
    (lname, lv, by_ref)
  in
  let indexed = List.map audit_level levels in
  (* level shape: a maintained tail is shorter than a run, and the carry
     leaves run sizes strictly growing toward the oldest *)
  if s.n_pending <> List.length s.pending then
    bad "text index %s: pending count %d but the tail holds %d refs" t.name s.n_pending
      (List.length s.pending);
  if s.n_pending >= run_size then
    bad "text index %s: tail of %d refs was not sealed (run size %d)" t.name s.n_pending
      run_size;
  ignore
    (List.fold_left
       (fun newer lv ->
         if lv.n_entries <= newer then
           bad "text index %s: run of %d entries below a newer run of %d" t.name lv.n_entries
             newer;
         lv.n_entries)
       (-1) s.runs
      : int);
  (* every live row findable: in the pending tail, or an entry in some
     level whose arena text equals the row's current text (a live row
     whose every arena text went stale must be pending — the store hook
     guarantees it) *)
  let pend = Hashtbl.create (max 16 s.n_pending) in
  List.iter (fun p -> Hashtbl.replace pend p ()) s.pending;
  Smc.Collection.iter t.coll ~f:(fun blk slot ->
      let r = Smc.Collection.ref_of_slot t.coll blk slot in
      let p = Smc.Ref.to_packed r in
      if not (Hashtbl.mem pend p) then begin
        (* the arena stores case-folded bytes; compare folded forms *)
        let cur = Smc.Field.get_string t.field blk slot in
        let folded = String.map lower_byte cur in
        let entries =
          List.filter_map
            (fun (lname, lv, by_ref) ->
              Option.map (fun e -> (lname, lv, e)) (Hashtbl.find_opt by_ref p))
            indexed
        in
        match entries with
        | [] -> bad "text index %s: live row %d is neither indexed nor pending" t.name p
        | (lname, lv, e) :: _ ->
          let fresh (_, lv, e) = String.equal (arena_text lv e) folded in
          if not (List.exists fresh entries) then
            bad
              "text index %s %s entry %d: arena text %S stale for live row (now %S, not pending)"
              t.name lname e (arena_text lv e) cur
      end);
  List.rev !violations
