open Smc_offheap
module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal
module BA1 = Bigarray.Array1

let sweep (r : Snapshot.restored) =
  let rt = r.Snapshot.r_rt in
  let ctx = r.Snapshot.r_coll.Smc.Collection.ctx in
  Audit.check_once rt ~contexts:[ ctx ]
  @ Obs_check.check rt ~contexts:[ ctx ]
  @ List.concat_map (fun (_, ix) -> Smc_index.Hash_index.audit ix) r.Snapshot.r_indexes

let restore_verified ?wal ~path () =
  let r = Snapshot.restore ?wal ~path () in
  (r, sweep r)

(* Words excluded from the row comparison: foreign Ref fields always (the
   format nulls them), self Refs only in direct mode (block ids are
   reassigned on restore, so the raw words legitimately differ). *)
let masked_words (coll : Smc.Collection.t) =
  let layout = coll.Smc.Collection.layout in
  let direct = coll.Smc.Collection.ctx.Context.mode = Context.Direct in
  Array.to_list layout.Layout.fields
  |> List.filter_map (fun (f : Layout.field) ->
         match f.Layout.ftype with
         | Layout.Ref target ->
           if String.equal target layout.Layout.type_name then
             if direct then Some f.Layout.word else None
           else Some f.Layout.word
         | _ -> None)

(* Multiset of live rows keyed by raw slot words (masked words zeroed); in
   indirect mode the key is prefixed with the row's indirection entry and
   incarnation, making the comparison identity-exact, not just value-exact. *)
let population (coll : Smc.Collection.t) ~mask =
  let layout = coll.Smc.Collection.layout in
  let sw = layout.Layout.slot_words in
  let indirect = coll.Smc.Collection.ctx.Context.mode = Context.Indirect in
  let ind = coll.Smc.Collection.rt.Runtime.ind in
  let tbl = Hashtbl.create 4096 in
  let buf = Buffer.create 256 in
  Smc.Collection.iter coll ~f:(fun blk slot ->
      Buffer.clear buf;
      if indirect then begin
        let entry = BA1.get blk.Block.backptr slot in
        Buffer.add_string buf (string_of_int entry);
        Buffer.add_char buf '@';
        Buffer.add_string buf
          (string_of_int (Indirection.inc_word ind entry land Constants.inc_mask));
        Buffer.add_char buf '|'
      end;
      for w = 0 to sw - 1 do
        let v = if List.mem w mask then 0 else Block.get_word blk ~slot ~word:w in
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ','
      done;
      let k = Buffer.contents buf in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)));
  tbl

let diff_populations ~orig ~restored =
  let mismatches = ref 0 in
  let samples = ref [] in
  let note k have want =
    incr mismatches;
    if !mismatches <= 5 then
      samples :=
        Printf.sprintf
          "round-trip: row [%s] appears %d time(s) in the original but %d restored" k want
          have
        :: !samples
  in
  Hashtbl.iter
    (fun k want ->
      let have = Option.value ~default:0 (Hashtbl.find_opt restored k) in
      if have <> want then note k have want)
    orig;
  Hashtbl.iter (fun k have -> if not (Hashtbl.mem orig k) then note k have 0) restored;
  if !mismatches = 0 then []
  else
    Printf.sprintf "round-trip: %d row multiset mismatches" !mismatches
    :: List.rev !samples

let round_trip ?wal ?indexes ~path (coll : Smc.Collection.t) =
  let (_ : Snapshot.manifest * int) = Snapshot.write ?wal ?indexes ~path coll in
  (match wal with Some w -> Wal.flush w | None -> ());
  let r = Snapshot.restore ?wal:(Option.map Wal.path wal) ~path () in
  let mask = masked_words coll in
  let orig = population coll ~mask in
  let restored = population r.Snapshot.r_coll ~mask in
  diff_populations ~orig ~restored @ sweep r
