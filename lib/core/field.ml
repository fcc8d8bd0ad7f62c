open Smc_offheap

type loc = Block.t * int

let resolve layout name expected describe =
  let f = Layout.field layout name in
  if not (expected f.Layout.ftype) then
    invalid_arg
      (Printf.sprintf "Field: %s.%s is not a %s field" layout.Layout.type_name name describe);
  f

let int layout name =
  resolve layout name (function Layout.Int -> true | _ -> false) "Int"

let dec layout name =
  resolve layout name (function Layout.Dec -> true | _ -> false) "Dec"

let date layout name =
  resolve layout name (function Layout.Date -> true | _ -> false) "Date"

let bool layout name =
  resolve layout name (function Layout.Bool -> true | _ -> false) "Bool"

let float layout name =
  resolve layout name (function Layout.Float -> true | _ -> false) "Float"

let str layout name =
  resolve layout name (function Layout.Str _ -> true | _ -> false) "Str"

let ref_ layout name =
  resolve layout name (function Layout.Ref _ -> true | _ -> false) "Ref"

let get_int (f : Layout.field) blk slot = Block.get_word blk ~slot ~word:f.Layout.word
let set_int (f : Layout.field) blk slot v = Block.set_word blk ~slot ~word:f.Layout.word v

let get_dec = get_int
let set_dec = set_int
let get_date = get_int
let set_date = set_int

let get_bool f blk slot = get_int f blk slot <> 0
let set_bool f blk slot v = set_int f blk slot (if v then 1 else 0)

let get_float (f : Layout.field) blk slot = Block.get_float blk ~slot ~word:f.Layout.word
let set_float (f : Layout.field) blk slot v = Block.set_float blk ~slot ~word:f.Layout.word v

let get_string (f : Layout.field) blk slot = Block.get_string blk ~slot f
let set_string (f : Layout.field) blk slot s = Block.set_string blk ~slot f s

let get_char f blk slot = Char.unsafe_chr (get_int f blk slot land 0xFF)

let string_eq (f : Layout.field) literal =
  let words = Block.string_words f literal in
  let n = Array.length words in
  let base = f.Layout.word in
  fun blk slot ->
    let rec go w =
      w >= n
      || Block.get_word blk ~slot ~word:(base + w) = Array.unsafe_get words w && go (w + 1)
    in
    go 0

let bpw = Layout.str_bytes_per_word

(* Byte-loop substring/prefix tests over a read string: no [String.sub]
   per candidate position, so predicate evaluation allocates nothing per
   row. The empty needle matches everything. *)
let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n
  &&
  let rec go j = j >= n || (String.unsafe_get s j = String.unsafe_get prefix j && go (j + 1)) in
  go 0

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let at i =
    let rec go j =
      j >= n || (String.unsafe_get haystack (i + j) = String.unsafe_get needle j && go (j + 1))
    in
    go 0
  in
  let rec go i = i + n <= h && (at i || go (i + 1)) in
  n = 0 || go 0

let lower_byte c = if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

let contains_ci ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let at i =
    let rec go j =
      j >= n
      || lower_byte (String.unsafe_get haystack (i + j)) = lower_byte (String.unsafe_get needle j)
         && go (j + 1)
    in
    go 0
  in
  let rec go i = i + n <= h && (at i || go (i + 1)) in
  n = 0 || go 0

let false_pred _ _ = false
let true_pred _ _ = true

(* Stored strings are NUL-terminated (or capacity-bounded) byte runs; a
   needle containing NUL or longer than the capacity can never match the
   round-tripped string, so those degenerate to a constant predicate rather
   than letting the packed compare match NUL padding byte-for-byte. *)
let string_prefix (f : Layout.field) needle =
  let cap = Layout.str_capacity f in
  let n = String.length needle in
  if n = 0 then true_pred
  else if n > cap || String.contains needle '\000' then false_pred
  else begin
    let words = Block.string_words f needle in
    let base = f.Layout.word in
    let full = n / bpw in
    let rem = n mod bpw in
    let mask = (1 lsl (8 * rem)) - 1 in
    fun blk slot ->
      let rec go w =
        if w < full then
          Block.get_word blk ~slot ~word:(base + w) = Array.unsafe_get words w && go (w + 1)
        else
          rem = 0
          || Block.get_word blk ~slot ~word:(base + w) land mask
             = Array.unsafe_get words w land mask
      in
      go 0
  end

(* Byte [p] of the string stored from word [base]. *)
let byte_at blk slot base p =
  Block.get_word blk ~slot ~word:(base + (p / bpw)) lsr (p mod bpw * 8) land 0xFF

let rec rest_matches blk slot base needle p j =
  j >= String.length needle
  || byte_at blk slot base (p + j) = Char.code (String.unsafe_get needle j)
     && rest_matches blk slot base needle p (j + 1)

(* Whether [needle] starts at some [p <= last]. Top-level and
   tail-recursive, so a probe allocates nothing per row. *)
let rec occurs_from blk slot base needle last p =
  p <= last
  && (rest_matches blk slot base needle p 0 || occurs_from blk slot base needle last (p + 1))

let string_contains (f : Layout.field) needle =
  let cap = Layout.str_capacity f in
  let n = String.length needle in
  if n = 0 then true_pred
  else if n > cap || String.contains needle '\000' then false_pred
  else begin
    let base = f.Layout.word in
    fun blk slot -> occurs_from blk slot base needle (Block.string_length blk ~slot f - n) 0
  end

let set_ref (f : Layout.field) ~(target : Collection.t) blk slot r =
  (* §2's tabular typing: a Ref field names the tabular type it may point
     to; storing a reference into a differently-typed collection is a type
     error. *)
  (match f.Layout.ftype with
  | Layout.Ref expected
    when not (String.equal expected target.Collection.layout.Layout.type_name) ->
    invalid_arg
      (Printf.sprintf "Field.set_ref: field %s expects a %s, got a %s" f.Layout.name
         expected target.Collection.layout.Layout.type_name)
  | _ -> ());
  let packed = Ref.to_packed r in
  let stored =
    if packed < 0 then Constants.null_ref
    else
      match target.Collection.ctx.Context.mode with
      | Context.Indirect -> packed
      | Context.Direct -> Context.direct_ref_of target.Collection.ctx packed
  in
  Block.set_word blk ~slot ~word:f.Layout.word stored

let follow (f : Layout.field) ~(target : Collection.t) blk slot =
  let w = Block.get_word blk ~slot ~word:f.Layout.word in
  if w < 0 then None
  else
    match target.Collection.ctx.Context.mode with
    | Context.Indirect -> Context.resolve target.Collection.ctx w
    | Context.Direct -> begin
      match Context.resolve_direct target.Collection.ctx w with
      | None -> None
      | Some (tb, ts) as loc ->
        (* §6: after forwarding through a tombstone, update the stored
           pointer so future accesses go straight to the new location. *)
        if tb.Block.id <> Constants.direct_block w then begin
          let inc =
            Bigarray.Array1.unsafe_get tb.Block.slot_inc ts land Constants.direct_inc_mask
          in
          Block.set_word blk ~slot ~word:f.Layout.word
            (Constants.pack_direct ~block:tb.Block.id ~slot:ts ~inc)
        end;
        loc
    end

(* Allocation-free join step: packed (block, slot) location or -1. The
   unsafe compiled queries use this on hot paths. *)
let follow_loc (f : Layout.field) ~(target : Collection.t) blk slot =
  let w = Block.get_word blk ~slot ~word:f.Layout.word in
  match target.Collection.ctx.Context.mode with
  | Context.Indirect -> Context.resolve_loc target.Collection.ctx w
  | Context.Direct -> Context.resolve_direct_loc target.Collection.ctx w

let get_ref (f : Layout.field) ~(target : Collection.t) blk slot =
  match follow f ~target blk slot with
  | None -> Ref.null
  | Some (tb, ts) -> Ref.of_packed (Context.indirect_ref_of_slot target.Collection.ctx tb ts)
