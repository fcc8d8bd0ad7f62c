open Smc_offheap
module BA1 = Bigarray.Array1

let magic = "SMCSNAP1"
let format_version = 1

type manifest = {
  version : int;
  collection : string;
  type_name : string;
  schema_hash : int;
  placement : Block.placement;
  mode : Context.mode;
  slots_per_block : int;
  reclaim_threshold : float;
  block_count : int;
  row_count : int;
  quarantined : int;
  ind_capacity : int;
  wal_name : string;
  wal_lsn : int;
  indexes : (string * string) list;
  git_rev : string;
  timestamp : float;
}

(* ------------------------------------------------------------------ *)
(* Layout spec: the self-describing schema embedded in the manifest    *)

let tag_int = 0
let tag_dec = 1
let tag_date = 2
let tag_bool = 3
let tag_float = 4
let tag_str = 5
let tag_ref = 6

let layout_spec_string (layout : Layout.t) =
  let buf = Buffer.create 256 in
  Pio.add_str buf layout.Layout.type_name;
  Pio.add_int buf (Array.length layout.Layout.fields);
  Array.iter
    (fun (f : Layout.field) ->
      Pio.add_str buf f.Layout.name;
      match f.Layout.ftype with
      | Layout.Int -> Pio.add_int buf tag_int
      | Layout.Dec -> Pio.add_int buf tag_dec
      | Layout.Date -> Pio.add_int buf tag_date
      | Layout.Bool -> Pio.add_int buf tag_bool
      | Layout.Float -> Pio.add_int buf tag_float
      | Layout.Str cap ->
        Pio.add_int buf tag_str;
        Pio.add_int buf cap
      | Layout.Ref target ->
        Pio.add_int buf tag_ref;
        Pio.add_str buf target)
    layout.Layout.fields;
  Buffer.contents buf

let layout_of_spec_string ~what s =
  let r = { Pio.bytes = Bytes.unsafe_of_string s; pos = 0; what } in
  let type_name = Pio.get_str r in
  let n = Pio.get_int r in
  if n <= 0 || n > 10_000 then Pio.corrupt "%s: implausible field count %d" what n;
  let spec =
    List.init n (fun _ ->
        let name = Pio.get_str r in
        let tag = Pio.get_int r in
        let ftype =
          if tag = tag_int then Layout.Int
          else if tag = tag_dec then Layout.Dec
          else if tag = tag_date then Layout.Date
          else if tag = tag_bool then Layout.Bool
          else if tag = tag_float then Layout.Float
          else if tag = tag_str then Layout.Str (Pio.get_int r)
          else if tag = tag_ref then Layout.Ref (Pio.get_str r)
          else Pio.corrupt "%s: unknown field type tag %d" what tag
        in
        (name, ftype))
  in
  Pio.expect_end r;
  try Layout.create ~name:type_name spec
  with Invalid_argument m -> Pio.corrupt "%s: layout rejected (%s)" what m

let foreign_ref_fields (layout : Layout.t) =
  Array.to_list layout.Layout.fields
  |> List.filter (fun (f : Layout.field) ->
         match f.Layout.ftype with
         | Layout.Ref target -> not (String.equal target layout.Layout.type_name)
         | _ -> false)

let self_ref_fields (layout : Layout.t) =
  Array.to_list layout.Layout.fields
  |> List.filter (fun (f : Layout.field) ->
         match f.Layout.ftype with
         | Layout.Ref target -> String.equal target layout.Layout.type_name
         | _ -> false)

(* ------------------------------------------------------------------ *)
(* Manifest section — written twice (placeholder, then patched in place
   once the block count is known), so serialisation must be a pure
   function of the record producing a byte-length that does not depend on
   the counts. *)

let manifest_to_buffer ~spec m =
  let buf = Buffer.create 512 in
  Pio.add_int buf m.version;
  Pio.add_str buf m.collection;
  Pio.add_str buf spec;
  Pio.add_int buf m.schema_hash;
  Pio.add_int buf (match m.placement with Block.Row -> 0 | Block.Columnar -> 1);
  Pio.add_int buf (match m.mode with Context.Indirect -> 0 | Context.Direct -> 1);
  Pio.add_int buf m.slots_per_block;
  Pio.add_float buf m.reclaim_threshold;
  Pio.add_int buf m.block_count;
  Pio.add_int buf m.row_count;
  Pio.add_int buf m.quarantined;
  Pio.add_int buf m.ind_capacity;
  Pio.add_str buf m.wal_name;
  Pio.add_int buf m.wal_lsn;
  Pio.add_int buf (List.length m.indexes);
  List.iter
    (fun (name, column) ->
      Pio.add_str buf name;
      Pio.add_str buf column)
    m.indexes;
  Pio.add_str buf m.git_rev;
  Pio.add_float buf m.timestamp;
  buf

let parse_manifest (r : Pio.reader) =
  let what = r.Pio.what in
  let version = Pio.get_int r in
  if version <> format_version then
    Pio.corrupt "%s: unsupported format version %d (this build reads %d)" what version
      format_version;
  let collection = Pio.get_str r in
  let spec = Pio.get_str r in
  let schema_hash = Pio.get_int r in
  let computed = Crc32.digest_string spec in
  if computed <> schema_hash then
    Pio.corrupt "%s: schema hash mismatch (stored %08x, computed %08x)" what schema_hash
      computed;
  let layout = layout_of_spec_string ~what:(what ^ " layout") spec in
  let placement =
    match Pio.get_int r with
    | 0 -> Block.Row
    | 1 -> Block.Columnar
    | p -> Pio.corrupt "%s: unknown placement %d" what p
  in
  let mode =
    match Pio.get_int r with
    | 0 -> Context.Indirect
    | 1 -> Context.Direct
    | m -> Pio.corrupt "%s: unknown reference mode %d" what m
  in
  let slots_per_block = Pio.get_int r in
  if slots_per_block <= 0 || slots_per_block > Constants.max_direct_slots then
    Pio.corrupt "%s: implausible slots_per_block %d" what slots_per_block;
  let reclaim_threshold = Pio.get_float r in
  let block_count = Pio.get_int r in
  let row_count = Pio.get_int r in
  let quarantined = Pio.get_int r in
  let ind_capacity = Pio.get_int r in
  if block_count < 0 || row_count < 0 || quarantined < 0 || ind_capacity < 0 then
    Pio.corrupt "%s: negative counts" what;
  let wal_name = Pio.get_str r in
  let wal_lsn = Pio.get_int r in
  let n_indexes = Pio.get_int r in
  if n_indexes < 0 || n_indexes > 10_000 then
    Pio.corrupt "%s: implausible index count %d" what n_indexes;
  let indexes =
    List.init n_indexes (fun _ ->
        let name = Pio.get_str r in
        let column = Pio.get_str r in
        (name, column))
  in
  let git_rev = Pio.get_str r in
  let timestamp = Pio.get_float r in
  Pio.expect_end r;
  ( {
      version;
      collection;
      type_name = layout.Layout.type_name;
      schema_hash;
      placement;
      mode;
      slots_per_block;
      reclaim_threshold;
      block_count;
      row_count;
      quarantined;
      ind_capacity;
      wal_name;
      wal_lsn;
      indexes;
      git_rev;
      timestamp;
    },
    layout )

let git_rev () =
  match Sys.getenv_opt "SMC_GIT_REV" with
  | Some r -> r
  | None -> (
    let read_line_of f =
      try
        let ic = open_in f in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> String.trim (input_line ic))
      with _ -> ""
    in
    let rec find_git dir =
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists cand then Some cand
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else find_git parent
    in
    match find_git (Sys.getcwd ()) with
    | None -> "unknown"
    | Some git ->
      let head = read_line_of (Filename.concat git "HEAD") in
      if String.length head > 5 && String.equal (String.sub head 0 5) "ref: " then begin
        let r =
          read_line_of (Filename.concat git (String.sub head 5 (String.length head - 5)))
        in
        if String.equal r "" then "unknown" else r
      end
      else if String.equal head "" then "unknown"
      else head)

(* ------------------------------------------------------------------ *)
(* Writer *)

(* Stored direct pointers are canonicalised into the serialised image:
   tombstone chains collapse to the object's current location, so the
   restored file never references a dead forwarding block. Requires the
   compaction-quiescent precondition checked in [write]. *)
let direct_patches ~(ctx : Context.t) (blk : Block.t) self_refs =
  if self_refs = [] then []
  else begin
    let patches = ref [] in
    let dir = blk.Block.dir in
    for slot = 0 to blk.Block.nslots - 1 do
      if Constants.dir_state (BA1.unsafe_get dir slot) = Constants.state_valid then
        List.iter
          (fun (f : Layout.field) ->
            let w = Block.get_word blk ~slot ~word:f.Layout.word in
            if w >= 0 then begin
              let loc = Context.resolve_direct_loc ctx w in
              let v =
                if loc < 0 then Constants.null_ref
                else begin
                  let tb = Context.block_of_loc ctx loc in
                  let ts = Constants.ptr_slot loc in
                  let inc = BA1.get tb.Block.slot_inc ts land Constants.direct_inc_mask in
                  Constants.pack_direct ~block:tb.Block.id ~slot:ts ~inc
                end
              in
              patches := (Block.word_index blk ~slot ~word:f.Layout.word, v) :: !patches
            end)
          self_refs
    done;
    List.rev !patches
  end

(* Slots outside [owned] are written free: their rows belong to another
   block's share of the walk. *)
let serialize_block ~(ctx : Context.t) buf (blk : Block.t) ~owned self_refs =
  Buffer.clear buf;
  let n = blk.Block.nslots in
  let backptr = blk.Block.backptr
  and slot_inc = blk.Block.slot_inc
  and data = blk.Block.data in
  let free = Constants.dir_entry ~state:Constants.state_free ~stamp:0 in
  let dir s = if owned s then BA1.unsafe_get blk.Block.dir s else free in
  let valid = ref 0 and quar = ref 0 in
  for s = 0 to n - 1 do
    let st = Constants.dir_state (dir s) in
    if st = Constants.state_valid then incr valid
    else if st = Constants.state_quarantined then incr quar
  done;
  Pio.add_int buf blk.Block.id;
  Pio.add_int buf n;
  Pio.add_int buf !valid;
  Pio.add_int buf !quar;
  for s = 0 to n - 1 do
    Pio.add_int buf (dir s)
  done;
  for s = 0 to n - 1 do
    Pio.add_int buf (if owned s then BA1.unsafe_get backptr s else Constants.null_ref)
  done;
  for s = 0 to n - 1 do
    Pio.add_int buf (BA1.unsafe_get slot_inc s land lnot Constants.flags_mask)
  done;
  let dn = BA1.dim data in
  for i = 0 to dn - 1 do
    Pio.add_int buf (BA1.unsafe_get data i)
  done;
  let patches = direct_patches ~ctx blk self_refs in
  Pio.add_int buf (List.length patches);
  List.iter
    (fun (phys, v) ->
      Pio.add_int buf phys;
      Pio.add_int buf v)
    patches;
  (!valid, !quar)

let write ?wal ?(indexes = []) ~path (coll : Smc.Collection.t) =
  let ctx = coll.Smc.Collection.ctx in
  let rt = coll.Smc.Collection.rt in
  let layout = coll.Smc.Collection.layout in
  List.iter
    (fun (name, column) ->
      match Layout.field_opt layout column with
      | None ->
        invalid_arg
          (Printf.sprintf "Snapshot.write: index %S names unknown column %S" name column)
      | Some f -> (
        match f.Layout.ftype with
        | Layout.Float | Layout.Ref _ ->
          invalid_arg
            (Printf.sprintf "Snapshot.write: index %S on column %S: unsupported key type"
               name column)
        | _ -> ()))
    indexes;
  if indexes <> [] && ctx.Context.mode = Context.Direct then
    invalid_arg "Snapshot.write: indexes require indirect mode";
  let spec = layout_spec_string layout in
  let schema_hash = Crc32.digest_string spec in
  let timestamp = Unix.gettimeofday () in
  let epoch = rt.Runtime.epoch in
  Epoch.critical epoch @@ fun () ->
  (* Epoch barrier: wait (bounded) for every other in-critical thread to
     reach the current global epoch, so critical sections that began before
     the snapshot point have drained. Mutators on this collection must be
     quiescent by contract; this barrier covers in-flight readers. *)
  ignore
    (Epoch.wait_all_reached epoch
       ~except:(Epoch.thread_id epoch)
       ~epoch:(Epoch.global epoch) ~max_spins:1_000_000 ()
      : bool);
  let wal_name, wal_lsn =
    match wal with
    | Some w ->
      Wal.flush w;
      (Wal.name w, Wal.lsn w)
    | None -> ("", -1)
  in
  let view =
    Mutex.lock ctx.Context.lock;
    let v = ctx.Context.view in
    Mutex.unlock ctx.Context.lock;
    v
  in
  let self_refs = self_ref_fields layout in
  (if ctx.Context.mode = Context.Direct && self_refs <> [] then begin
     let grouped = ref false in
     for i = 0 to view.Context.v_n - 1 do
       if view.Context.v_blocks.(i).Block.group <> None then grouped := true
     done;
     if !grouped || Atomic.get rt.Runtime.in_moving_phase then
       invalid_arg
         "Snapshot.write: a direct-mode snapshot requires a compaction-quiescent point \
          (stored direct pointers are canonicalised while writing)"
   end);
  let base =
    {
      version = format_version;
      collection = coll.Smc.Collection.name;
      type_name = layout.Layout.type_name;
      schema_hash;
      placement = ctx.Context.placement;
      mode = ctx.Context.mode;
      slots_per_block = ctx.Context.slots_per_block;
      reclaim_threshold = ctx.Context.reclaim_threshold;
      block_count = 0;
      row_count = 0;
      quarantined = 0;
      ind_capacity = Indirection.capacity rt.Runtime.ind;
      wal_name;
      wal_lsn;
      indexes;
      git_rev = git_rev ();
      timestamp;
    }
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc magic;
  let manifest_pos = pos_out oc in
  ignore (Pio.write_section oc (manifest_to_buffer ~spec base) : int);
  let ind = rt.Runtime.ind in
  let cap = base.ind_capacity in
  let ibuf = Buffer.create ((8 * cap) + 16) in
  for e = 0 to cap - 1 do
    Pio.add_int ibuf (Indirection.inc_word ind e land Constants.inc_mask)
  done;
  ignore (Pio.write_section oc ibuf : int);
  let blocks = ref 0 and rows = ref 0 and quar = ref 0 in
  let bbuf = Buffer.create (1 lsl 16) in
  (* The walk can hand a block over in several slot ranges (a compaction
     target and its sources' ranges of it); each block is written once,
     holding the rows of its ranges, after the walk — the section opened
     above keeps the walked blocks from being reclaimed until then. *)
  let ranges = Hashtbl.create 64 and order = ref [] in
  Context.with_walk ctx (fun w ->
      Context.walk w ~scan:(fun blk lo hi ->
          match Hashtbl.find_opt ranges blk.Block.id with
          | Some r -> r := (lo, hi) :: !r
          | None ->
            Hashtbl.add ranges blk.Block.id (ref [ (lo, hi) ]);
            order := blk :: !order));
  List.iter
    (fun blk ->
      let rs = !(Hashtbl.find ranges blk.Block.id) in
      let owned s = List.exists (fun (lo, hi) -> lo <= s && s < hi) rs in
      let v, q = serialize_block ~ctx bbuf blk ~owned self_refs in
      ignore (Pio.write_section oc bbuf : int);
      incr blocks;
      rows := !rows + v;
      quar := !quar + q)
    (List.rev !order);
  let m = { base with block_count = !blocks; row_count = !rows; quarantined = !quar } in
  let end_pos = pos_out oc in
  seek_out oc manifest_pos;
  ignore (Pio.write_section oc (manifest_to_buffer ~spec m) : int);
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  Smc_obs.incr rt.Runtime.obs Smc_obs.c_persist_snapshots;
  Smc_obs.add rt.Runtime.obs Smc_obs.c_persist_snapshot_bytes end_pos;
  (m, end_pos)

let read_manifest path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let what = Printf.sprintf "snapshot %s" path in
      let m = Bytes.create (String.length magic) in
      (try really_input ic m 0 (String.length magic)
       with End_of_file -> Pio.corrupt "%s: shorter than the magic" what);
      if not (String.equal (Bytes.to_string m) magic) then
        Pio.corrupt "%s: bad magic %S" what (Bytes.to_string m);
      let r, _ = Pio.read_section ic ~what:(what ^ " manifest") () in
      fst (parse_manifest r))

(* ------------------------------------------------------------------ *)
(* Restorer *)

type restored = {
  r_rt : Runtime.t;
  r_coll : Smc.Collection.t;
  r_indexes : (string * Smc_index.Hash_index.t) list;
  r_manifest : manifest;
  r_bytes : int;
  r_replayed : int;
  r_torn_dropped : int;
}

let read_words r n =
  Array.init n (fun _ -> Pio.get_int r)

let load_block ~(ctx : Context.t) ~cap ~entry_seen (r : Pio.reader) map =
  let what = r.Pio.what in
  let old_id = Pio.get_int r in
  if Hashtbl.mem map old_id then Pio.corrupt "%s: duplicate block id %d" what old_id;
  let n = Pio.get_int r in
  if n <> ctx.Context.slots_per_block then
    Pio.corrupt "%s: block has %d slots but the manifest layout uses %d" what n
      ctx.Context.slots_per_block;
  let claimed_valid = Pio.get_int r in
  let claimed_quar = Pio.get_int r in
  let dirw = read_words r n in
  let bpw = read_words r n in
  let siw = read_words r n in
  let blk = Context.new_block_unpublished ctx in
  let dn = BA1.dim blk.Block.data in
  let datw = read_words r dn in
  let npatch = Pio.get_int r in
  if npatch < 0 || npatch > dn then Pio.corrupt "%s: implausible patch count %d" what npatch;
  for _ = 1 to npatch do
    let phys = Pio.get_int r in
    let v = Pio.get_int r in
    if phys < 0 || phys >= dn then Pio.corrupt "%s: patch outside the object store" what;
    datw.(phys) <- v
  done;
  Pio.expect_end r;
  let ind = ctx.Context.rt.Runtime.ind in
  let valid = ref 0 and quar = ref 0 in
  for s = 0 to n - 1 do
    let st = Constants.dir_state dirw.(s) in
    let live = st = Constants.state_valid || st = Constants.state_quarantined in
    if live then begin
      let e = bpw.(s) in
      if e < 0 || e >= cap then
        Pio.corrupt "%s: slot %d references indirection entry %d outside [0, %d)" what s e
          cap;
      if Bytes.get entry_seen e <> '\000' then
        Pio.corrupt "%s: indirection entry %d referenced by two slots" what e;
      Bytes.set entry_seen e '\001';
      BA1.set blk.Block.backptr s e;
      Indirection.set_ptr ind e (Constants.pack_ptr ~block:blk.Block.id ~slot:s);
      if st = Constants.state_valid then begin
        Block.set_dir_entry blk s (Constants.dir_entry ~state:Constants.state_valid ~stamp:0);
        incr valid
      end
      else begin
        Block.set_dir_entry blk s
          (Constants.dir_entry ~state:Constants.state_quarantined ~stamp:0);
        incr quar
      end
    end
    else if st = Constants.state_free || st = Constants.state_limbo then begin
      (* limbo collapses to free: the restored runtime starts at epoch 0
         with no outstanding references into the grace period *)
      Block.set_dir_entry blk s (Constants.dir_entry ~state:Constants.state_free ~stamp:0);
      BA1.set blk.Block.backptr s Constants.null_ref
    end
    else Pio.corrupt "%s: slot %d has unknown state %d" what s st;
    BA1.set blk.Block.slot_inc s (siw.(s) land lnot Constants.flags_mask)
  done;
  for i = 0 to dn - 1 do
    BA1.set blk.Block.data i datw.(i)
  done;
  if !valid <> claimed_valid || !quar <> claimed_quar then
    Pio.corrupt "%s: slot directory disagrees with recorded counts (%d/%d valid, %d/%d \
                 quarantined)"
      what !valid claimed_valid !quar claimed_quar;
  Atomic.set blk.Block.valid_count !valid;
  Hashtbl.add map old_id blk;
  Context.publish_block ctx blk;
  (!valid, !quar)

(* Foreign Ref fields cannot survive a single-collection snapshot (their
   target collection is not in the file) and are nulled; direct-mode self
   references are remapped from old block ids to the freshly minted ones. *)
let fixup_refs ~(ctx : Context.t) (layout : Layout.t) map =
  let foreign = foreign_ref_fields layout in
  let self = self_ref_fields layout in
  let remap_self = ctx.Context.mode = Context.Direct && self <> [] in
  if foreign <> [] || remap_self then begin
    let { Context.v_blocks; v_n; _ } = ctx.Context.view in
    for i = 0 to v_n - 1 do
      let blk = v_blocks.(i) in
      let dir = blk.Block.dir in
      for slot = 0 to blk.Block.nslots - 1 do
        if Constants.dir_state (BA1.unsafe_get dir slot) = Constants.state_valid then begin
          List.iter
            (fun (f : Layout.field) ->
              Block.set_word blk ~slot ~word:f.Layout.word Constants.null_ref)
            foreign;
          if remap_self then
            List.iter
              (fun (f : Layout.field) ->
                let w = Block.get_word blk ~slot ~word:f.Layout.word in
                if w >= 0 then begin
                  let old_b = Constants.direct_block w in
                  match Hashtbl.find_opt map old_b with
                  | Some (nb : Block.t) ->
                    Block.set_word blk ~slot ~word:f.Layout.word
                      (Constants.pack_direct ~block:nb.Block.id
                         ~slot:(Constants.direct_slot w) ~inc:(Constants.direct_inc w))
                  | None ->
                    Pio.corrupt
                      "snapshot: stored direct reference into unknown block %d" old_b
                end)
              self
        end
      done
    done
  end

(* Replaying an add reproduces the original allocation verbatim: a fresh
   slot is allocated normally, then rewired to the *logged* indirection
   entry and incarnation, so references stored anywhere else keep
   resolving. The entry cannot collide with the allocator's mints — the
   watermark was reserved above every entry the log names — and cannot be
   sitting in the free stores, which at this point only hold entries the
   replay itself minted and discarded (all above the reservation). *)
let replay_wal (coll : Smc.Collection.t) ~path ~cut =
  let rt = coll.Smc.Collection.rt in
  let ctx = coll.Smc.Collection.ctx in
  let layout = coll.Smc.Collection.layout in
  let ind = rt.Runtime.ind in
  let what = Printf.sprintf "WAL %s" path in
  (* One pass: the largest entry over every record (the reservation covers
     the whole log), and the records at or after the cut, newest first. *)
  let max_entry = ref (-1) and kept = ref [] in
  let info =
    Wal.scan ~path ~f:(fun ~lsn ops ->
        List.iter
          (fun (Wal.Add { entry; _ } | Wal.Remove { entry; _ } | Wal.Store { entry; _ }) ->
            if entry < 0 then Pio.corrupt "%s: negative indirection entry" what;
            if entry > !max_entry then max_entry := entry)
          ops;
        if lsn >= cut then kept := (lsn, ops) :: !kept)
  in
  let cut = if cut < 0 then info.Wal.li_base else cut in
  if info.Wal.li_base > cut then
    Pio.corrupt
      "%s: recovery gap — the snapshot covers LSNs below %d but the log starts at %d" what
      cut info.Wal.li_base;
  Indirection.restore_reserve ind
    ~capacity:(max (Indirection.capacity ind) (!max_entry + 1));
  let tid = Runtime.tid rt in
  let foreign = foreign_ref_fields layout in
  let sw = layout.Layout.slot_words in
  let apply_add ~lsn entry inc words =
    if Array.length words <> sw then
      Pio.corrupt "%s: record %d carries %d words for a %d-word layout" what lsn
        (Array.length words) sw;
    let packed = Context.alloc ctx in
    match Context.resolve ctx packed with
    | None -> assert false (* a freshly allocated object cannot be dead *)
    | Some (blk, slot) ->
      for w = 0 to sw - 1 do
        Block.set_word blk ~slot ~word:w words.(w)
      done;
      List.iter
        (fun (f : Layout.field) ->
          Block.set_word blk ~slot ~word:f.Layout.word Constants.null_ref)
        foreign;
      let minted = Constants.ref_entry packed in
      if minted <> entry then begin
        BA1.set blk.Block.backptr slot entry;
        Indirection.free ind ~tid minted
      end;
      Indirection.set_ptr ind entry (Constants.pack_ptr ~block:blk.Block.id ~slot);
      Indirection.set_inc_word ind entry (inc land Constants.inc_mask);
      Smc.Collection.Add (Smc.Ref.of_packed (Constants.pack_ref ~entry ~inc), blk, slot)
  in
  let apply_remove ~lsn entry inc =
    let packed = Constants.pack_ref ~entry ~inc in
    match Context.resolve ctx packed with
    | None ->
      Pio.corrupt "%s: record %d removes a dead object (entry %d, incarnation %d)" what lsn
        entry inc
    | Some (blk, slot) ->
      if not (Context.free ctx packed) then
        Pio.corrupt "%s: record %d free failed (entry %d)" what lsn entry;
      (* Collapse the limbo slot immediately: replay is single-threaded on
         a private runtime, so the grace period is vacuous. The entry is
         NOT recycled into the free stores — the log dictates its future,
         and whatever it leaves unused is seeded afterwards. *)
      if Block.slot_state blk slot = Constants.state_limbo then begin
        Block.set_dir_entry blk slot
          (Constants.dir_entry ~state:Constants.state_free ~stamp:0);
        BA1.set blk.Block.backptr slot Constants.null_ref;
        ignore (Atomic.fetch_and_add blk.Block.limbo_count (-1) : int);
        Smc_obs.incr rt.Runtime.obs Smc_obs.c_slot_recycles
      end;
      Smc.Collection.Remove (Smc.Ref.of_packed packed)
  in
  let apply_store ~lsn entry inc word value =
    let packed = Constants.pack_ref ~entry ~inc in
    match Context.resolve ctx packed with
    | None ->
      Pio.corrupt "%s: record %d stores into a dead object (entry %d)" what lsn entry
    | Some (blk, slot) ->
      if word < 0 || word >= sw then
        Pio.corrupt "%s: record %d stores outside the layout (word %d)" what lsn word;
      Block.set_word blk ~slot ~word value;
      Smc.Collection.Store (Smc.Ref.of_packed packed, word, value)
  in
  let apply_op ~lsn = function
    | Wal.Add { entry; inc; words } -> apply_add ~lsn entry inc words
    | Wal.Remove { entry; inc } -> apply_remove ~lsn entry inc
    | Wal.Store { entry; inc; word; value } -> apply_store ~lsn entry inc word value
  in
  (* Each intact record is one commit unit: applied whole, then published
     as one unit, like a live commit. [restore] replays before any index is
     reattached, so there nothing listens; a caller that subscribes first
     (view replay-on-recovery) hears each record once. A torn final record
     never reached [kept]. *)
  let applied = ref 0 in
  List.iter
    (fun (lsn, ops) ->
      let unit_ops = List.map (apply_op ~lsn) ops in
      applied := !applied + List.length unit_ops;
      Smc.Collection.publish coll unit_ops)
    (List.rev !kept);
  Smc_obs.add rt.Runtime.obs Smc_obs.c_persist_wal_replayed !applied;
  Smc_obs.add rt.Runtime.obs Smc_obs.c_persist_torn_drops info.Wal.li_torn_dropped;
  (!applied, info.Wal.li_torn_dropped)

(* Every indirection entry not referenced by a live slot and not already in
   the free stores is handed to them, so the restored allocator recycles
   entries instead of minting forever and the entry-accounting audit
   (used + free = capacity) holds. *)
let seed_free_entries (rt : Runtime.t) (ctx : Context.t) =
  let ind = rt.Runtime.ind in
  let cap = Indirection.capacity ind in
  if cap > 0 then begin
    let state = Bytes.make cap '\000' in
    Indirection.iter_free ind ~f:(fun e -> if e >= 0 && e < cap then Bytes.set state e '\001');
    let { Context.v_blocks; v_n; _ } = ctx.Context.view in
    for i = 0 to v_n - 1 do
      let blk = v_blocks.(i) in
      if not blk.Block.dead then
        for s = 0 to blk.Block.nslots - 1 do
          let e = BA1.get blk.Block.backptr s in
          if e >= 0 && e < cap then Bytes.set state e '\001'
        done
    done;
    let tid = Runtime.tid rt in
    for e = 0 to cap - 1 do
      if Bytes.get state e = '\000' then Indirection.free ind ~tid e
    done
  end

let rebuild_indexes (coll : Smc.Collection.t) m =
  List.map
    (fun (name, column) ->
      let f =
        match Layout.field_opt coll.Smc.Collection.layout column with
        | Some f -> f
        | None ->
          Pio.corrupt "snapshot manifest: index %S names unknown column %S" name column
      in
      let key =
        match f.Layout.ftype with
        | Layout.Str _ ->
          Smc_index.Hash_index.Str_key (fun blk slot -> Block.get_string blk ~slot f)
        | Layout.Int | Layout.Dec | Layout.Date | Layout.Bool ->
          Smc_index.Hash_index.Int_key
            (fun blk slot -> Block.get_word blk ~slot ~word:f.Layout.word)
        | Layout.Float | Layout.Ref _ ->
          Pio.corrupt "snapshot manifest: index %S on column %S has an unsupported key type"
            name column
      in
      (name, Smc_index.Hash_index.attach ~name ~key coll))
    m.indexes

let restore ?wal ~path () =
  let what = Printf.sprintf "snapshot %s" path in
  let ic = open_in_bin path in
  let m, rt, coll, bytes =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let bytes = ref 0 in
        let mg = Bytes.create (String.length magic) in
        (try really_input ic mg 0 (String.length magic)
         with End_of_file -> Pio.corrupt "%s: shorter than the magic" what);
        if not (String.equal (Bytes.to_string mg) magic) then
          Pio.corrupt "%s: bad magic %S" what (Bytes.to_string mg);
        bytes := !bytes + String.length magic;
        let mr, n = Pio.read_section ic ~what:(what ^ " manifest") () in
        bytes := !bytes + n;
        let m, layout = parse_manifest mr in
        let rt = Runtime.create () in
        let coll =
          Smc.Collection.create rt ~name:m.collection ~layout ~placement:m.placement
            ~mode:m.mode ~slots_per_block:m.slots_per_block
            ~reclaim_threshold:m.reclaim_threshold ()
        in
        let ctx = coll.Smc.Collection.ctx in
        let ind = rt.Runtime.ind in
        let cap = m.ind_capacity in
        let ir, n = Pio.read_section ic ~what:(what ^ " indirection") () in
        bytes := !bytes + n;
        if Bytes.length ir.Pio.bytes <> 8 * cap then
          Pio.corrupt "%s: indirection section holds %d bytes, manifest promises %d entries"
            what (Bytes.length ir.Pio.bytes) cap;
        Indirection.restore_reserve ind ~capacity:cap;
        for e = 0 to cap - 1 do
          let w = Pio.get_int ir in
          if w < 0 || w > Constants.inc_mask then
            Pio.corrupt "%s: entry %d has implausible incarnation %d" what e w;
          Indirection.set_inc_word ind e w
        done;
        let map = Hashtbl.create (max 16 m.block_count) in
        let entry_seen = Bytes.make (max cap 1) '\000' in
        let rows = ref 0 and quar = ref 0 in
        for i = 0 to m.block_count - 1 do
          let br, n = Pio.read_section ic ~what:(Printf.sprintf "%s block %d" what i) () in
          bytes := !bytes + n;
          let v, q = load_block ~ctx ~cap ~entry_seen br map in
          rows := !rows + v;
          quar := !quar + q
        done;
        if pos_in ic <> in_channel_length ic then
          Pio.corrupt "%s: %d trailing bytes after the last block" what
            (in_channel_length ic - pos_in ic);
        if !rows <> m.row_count then
          Pio.corrupt "%s: restored %d rows, manifest promises %d" what !rows m.row_count;
        if !quar <> m.quarantined then
          Pio.corrupt "%s: restored %d quarantined slots, manifest promises %d" what !quar
            m.quarantined;
        fixup_refs ~ctx layout map;
        (* Credit the event counters with the restored population so the
           derived-invariant balances (allocs - frees = valid, frees =
           retires, quarantine agreement) hold on the new runtime. *)
        let obs = rt.Runtime.obs in
        Smc_obs.add obs Smc_obs.c_allocs (!rows + !quar);
        Smc_obs.add obs Smc_obs.c_frees !quar;
        Smc_obs.add obs Smc_obs.c_retires !quar;
        Smc_obs.add obs Smc_obs.c_quarantines !quar;
        ignore (Atomic.fetch_and_add rt.Runtime.quarantined_slots !quar : int);
        Smc_obs.incr obs Smc_obs.c_persist_restores;
        Smc_obs.add obs Smc_obs.c_persist_restore_bytes !bytes;
        (m, rt, coll, !bytes))
  in
  let replayed, torn =
    match wal with
    | None -> (0, 0)
    | Some wpath -> replay_wal coll ~path:wpath ~cut:m.wal_lsn
  in
  seed_free_entries rt coll.Smc.Collection.ctx;
  let indexes = rebuild_indexes coll m in
  {
    r_rt = rt;
    r_coll = coll;
    r_indexes = indexes;
    r_manifest = m;
    r_bytes = bytes;
    r_replayed = replayed;
    r_torn_dropped = torn;
  }
