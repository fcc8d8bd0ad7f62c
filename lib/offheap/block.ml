type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type placement = Row | Columnar

type relocation_status = Pending | Moved | Failed

type relocation = {
  from_slot : int;
  target : t;
  to_slot : int;
  mutable status : relocation_status;
}

and reloc_list = { relocs : relocation array; by_slot : int array }

and group = {
  sources : t array;
  g_target : t;
  g_state : int Atomic.t;
  g_queries : int Atomic.t;
}

and t = {
  id : int;
  layout : Layout.t;
  placement : placement;
  nslots : int;
  data : int_ba;
  dir : int_ba;
  backptr : int_ba;
  slot_inc : int_ba;
  csn_born : int_ba;
  csn_write : int_ba;
  born_max : int Atomic.t;
  valid_count : int Atomic.t;
  limbo_count : int Atomic.t;
  mutable scan_pos : int;
  mutable owner_tid : int;
  mutable queued : bool;
  mutable queued_ready : int;
  mutable dead : bool;
  mutable reloc : reloc_list option;
  mutable group : group option;
  mutable moved_in : int;
  mutable sources_gone : int;
}

let group_pending = 0
let group_moving = 1
let group_done = 2

let int_ba n =
  let ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill ba 0;
  ba

let create ~id ~layout ~placement ~nslots =
  if nslots <= 0 || nslots > Constants.max_direct_slots then
    invalid_arg "Block.create: bad slot count";
  if id >= Constants.max_direct_blocks then invalid_arg "Block.create: block id overflow";
  let backptr = int_ba nslots in
  Bigarray.Array1.fill backptr Constants.null_ref;
  {
    id;
    layout;
    placement;
    nslots;
    data = int_ba (nslots * layout.Layout.slot_words);
    dir = int_ba nslots;
    backptr;
    slot_inc = int_ba nslots;
    csn_born = int_ba nslots;
    csn_write = int_ba nslots;
    born_max = Atomic.make 0;
    valid_count = Atomic.make 0;
    limbo_count = Atomic.make 0;
    scan_pos = 0;
    owner_tid = -1;
    queued = false;
    queued_ready = 0;
    dead = false;
    reloc = None;
    group = None;
    moved_in = 0;
    sources_gone = max_int;
  }

let word_index t ~slot ~word =
  match t.placement with
  | Row -> (slot * t.layout.Layout.slot_words) + word
  | Columnar -> (word * t.nslots) + slot

let get_word t ~slot ~word = Bigarray.Array1.unsafe_get t.data (word_index t ~slot ~word)

let set_word t ~slot ~word v =
  Bigarray.Array1.unsafe_set t.data (word_index t ~slot ~word) v

(* Floats keep sign, exponent and 51 of 52 mantissa bits in a 63-bit word
   (the lowest mantissa bit is dropped); exact numerics use Dec fields. *)
let get_float t ~slot ~word =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int (get_word t ~slot ~word)) 1)

let set_float t ~slot ~word v =
  set_word t ~slot ~word (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 1))

(* Strings pack Layout.str_bytes_per_word (7) bytes into each 63-bit word,
   NUL-padded to the field capacity. *)
let bpw = Layout.str_bytes_per_word

(* Index of the first NUL byte of a string word, [bpw] when it has none. *)
let rec word_nul word b =
  if b = bpw || (word lsr (b * 8)) land 0xFF = 0 then b else word_nul word (b + 1)

(* Whether one of a word's [bpw] bytes is 0, without a byte loop: the
   borrow of [word - 0x01..01] sets the top bit of the lowest zero byte's
   position, and no bit is set when no byte is 0. *)
let low_bits = 0x01_01_01_01_01_01_01
let high_bits = 0x80_80_80_80_80_80_80
let has_nul word = (word - low_bits) land lnot word land high_bits <> 0

(* From word [w] on: the first NUL byte, bounded by the capacity. *)
let rec stored_length t ~slot base cap w =
  if w * bpw >= cap then cap
  else
    let word = get_word t ~slot ~word:(base + w) in
    if not (has_nul word) then stored_length t ~slot base cap (w + 1)
    else
      let len = (w * bpw) + word_nul word 0 in
      if len < cap then len else cap

let string_length t ~slot field =
  stored_length t ~slot field.Layout.word (Layout.str_capacity field) 0

let get_string t ~slot field =
  let base = field.Layout.word in
  let len = string_length t ~slot field in
  let buf = Bytes.create len in
  for w = 0 to ((len + bpw - 1) / bpw) - 1 do
    let word = get_word t ~slot ~word:(base + w) in
    let p0 = w * bpw in
    let n = if len - p0 < bpw then len - p0 else bpw in
    for b = 0 to n - 1 do
      Bytes.unsafe_set buf (p0 + b) (Char.unsafe_chr ((word lsr (b * 8)) land 0xFF))
    done
  done;
  Bytes.unsafe_to_string buf

(* Pack a literal into the words a [Str] field stores, for allocation-free
   equality predicates in query code. *)
let string_words field s =
  let cap = Layout.str_capacity field in
  let n = min (String.length s) cap in
  Array.init field.Layout.words (fun w ->
      let base = w * bpw in
      let word = ref 0 in
      for b = bpw - 1 downto 0 do
        let pos = base + b in
        word := !word lsl 8;
        if pos < n then word := !word lor Char.code (String.unsafe_get s pos)
      done;
      !word)

let set_string t ~slot field s =
  let cap = Layout.str_capacity field in
  let n = min (String.length s) cap in
  for w = 0 to field.Layout.words - 1 do
    let base = w * bpw in
    let word = ref 0 in
    for b = bpw - 1 downto 0 do
      let pos = base + b in
      word := !word lsl 8;
      if pos < n then word := !word lor Char.code (String.unsafe_get s pos)
    done;
    set_word t ~slot ~word:(field.Layout.word + w) !word
  done

let dir_entry t slot = Bigarray.Array1.unsafe_get t.dir slot
let set_dir_entry t slot v = Bigarray.Array1.unsafe_set t.dir slot v
let slot_state t slot = Constants.dir_state (dir_entry t slot)

let clear_slot_words t ~slot =
  for w = 0 to t.layout.Layout.slot_words - 1 do
    set_word t ~slot ~word:w 0
  done

let copy_slot ~src ~src_slot ~dst ~dst_slot =
  for w = 0 to src.layout.Layout.slot_words - 1 do
    set_word dst ~slot:dst_slot ~word:w (get_word src ~slot:src_slot ~word:w)
  done

let occupancy t = float_of_int (Atomic.get t.valid_count) /. float_of_int t.nslots

let off_heap_words t =
  Bigarray.Array1.dim t.data + Bigarray.Array1.dim t.dir
  + Bigarray.Array1.dim t.backptr + Bigarray.Array1.dim t.slot_inc
  + Bigarray.Array1.dim t.csn_born + Bigarray.Array1.dim t.csn_write

let find_reloc t ~slot =
  match t.reloc with
  | None -> None
  | Some rl ->
    let idx = rl.by_slot.(slot) in
    if idx < 0 then None else Some rl.relocs.(idx)
