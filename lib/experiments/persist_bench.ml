(* Persistence throughput on TPC-H lineitem: block-image snapshot write,
   restore, and WAL tail replay — each timed once (these are IO-bound
   whole-collection passes, not microbenchmarks), each gated by the full
   invariant sweep and Q1/Q6 bit-identity on the recovered instance. *)

open Smc_util
module D = Smc_tpch.Db_smc
module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal

type point = {
  stage : string;
  rows : int;
  bytes : int;
  ms : float;
  mb_s : float;
  krows_s : float;
}

let time f = Timing.time_it f

let point ~stage ~rows ~bytes ms =
  {
    stage;
    rows;
    bytes;
    ms;
    mb_s = (if bytes = 0 || ms <= 0.0 then 0.0 else float bytes /. 1048576.0 /. (ms /. 1e3));
    krows_s = (if ms <= 0.0 then 0.0 else float rows /. 1e3 /. (ms /. 1e3));
  }

(* Clone a live row into a fresh one by copying its raw slot words: what an
   application re-insert looks like to the redo log. *)
let clone_row (coll : Smc.Collection.t) src_blk src_slot =
  let sw = coll.Smc.Collection.layout.Smc_offheap.Layout.slot_words in
  Smc.Collection.add coll ~init:(fun blk slot ->
      for w = 0 to sw - 1 do
        Smc_offheap.Block.set_word blk ~slot ~word:w
          (Smc_offheap.Block.get_word src_blk ~slot:src_slot ~word:w)
      done)

let churn (db : D.t) ~remove_step ~clones =
  let li = db.D.lineitems in
  let removed = ref 0 in
  let i = ref 0 in
  Array.iter
    (fun r ->
      incr i;
      if !i mod remove_step = 0 && Smc.Collection.remove li r then incr removed)
    db.D.lineitem_refs;
  (* a handful of stores on surviving rows *)
  let stores = ref 0 in
  Array.iter
    (fun r ->
      if !stores < 64 && Smc.Collection.mem li r then begin
        let blk, slot = Smc.Collection.deref li r in
        let word = db.D.lf.D.l_linenumber.Smc_offheap.Layout.word in
        Smc.Collection.store li r ~word ~value:(Smc_offheap.Block.get_word blk ~slot ~word);
        incr stores
      end)
    db.D.lineitem_refs;
  let cloned = ref 0 in
  (try
     Smc.Collection.iter li ~f:(fun blk slot ->
         if !cloned < clones then begin
           ignore (clone_row li blk slot : Smc.Ref.t);
           incr cloned
         end
         else raise Exit)
   with Exit -> ());
  (!removed, !stores, !cloned)

let run ?(sf = 0.1) ?dir () =
  let keep_dir, dir =
    match dir with
    | Some d -> (true, d)
    | None ->
      let d = Filename.temp_file "smc_persist_bench" "" in
      Sys.remove d;
      Unix.mkdir d 0o755;
      (false, d)
  in
  let snap_path = Filename.concat dir "lineitem.smcsnap" in
  let wal_path = Filename.concat dir "lineitem.wal" in
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = D.load ds in
  let li = db.D.lineitems in
  let wal = Wal.create ~path:wal_path ~name:"lineitem" () in
  Wal.attach wal li;
  (* Pre-snapshot churn lands in the image; its log records sit below the
     cut and must be skipped by replay. *)
  let (_ : int * int * int) = churn db ~remove_step:41 ~clones:512 in
  let indexes = [ ("lineitem_by_shipdate", "l_shipdate") ] in
  let (m, snap_bytes), snap_ms = time (fun () -> Snapshot.write ~wal ~indexes ~path:snap_path li) in
  (* Post-cut churn lives only in the log tail. *)
  let removed, stores, cloned = churn db ~remove_step:97 ~clones:256 in
  Wal.flush wal;
  let live_rows = Smc.Collection.count li in
  let restored_plain, restore_ms = time (fun () -> Snapshot.restore ~path:snap_path ()) in
  let r, replay_total_ms =
    time (fun () -> Snapshot.restore ~wal:wal_path ~path:snap_path ())
  in
  let replay_ms = Float.max (replay_total_ms -. restore_ms) 0.001 in
  let points =
    [
      point ~stage:"snapshot" ~rows:m.Snapshot.row_count ~bytes:snap_bytes snap_ms;
      point ~stage:"restore" ~rows:restored_plain.Snapshot.r_manifest.Snapshot.row_count
        ~bytes:restored_plain.Snapshot.r_bytes restore_ms;
      point ~stage:"wal replay" ~rows:r.Snapshot.r_replayed ~bytes:0 replay_ms;
    ]
  in
  let coll' = r.Snapshot.r_coll in
  let db' = { db with D.rt = r.Snapshot.r_rt; D.lineitems = coll' } in
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if r.Snapshot.r_torn_dropped <> 0 then
    note "persist: unexpected torn-tail drop on a cleanly closed log";
  if r.Snapshot.r_replayed < removed + stores + cloned then
    note "persist: replay applied %d ops, expected at least %d" r.Snapshot.r_replayed
      (removed + stores + cloned);
  let restored_rows = Smc.Collection.count coll' in
  if restored_rows <> live_rows then
    note "persist: restored %d live rows, original has %d" restored_rows live_rows;
  if not (Smc_tpch.Results.equal_q1 (Smc_tpch.Q_smc.q1 db) (Smc_tpch.Q_smc.q1 db')) then
    note "persist: Q1 differs between original and recovered collection";
  if not (Smc_decimal.Decimal.equal (Smc_tpch.Q_smc.q6 db) (Smc_tpch.Q_smc.q6 db')) then
    note "persist: Q6 differs between original and recovered collection";
  violations :=
    !violations
    @ Smc_check.Audit.check_once r.Snapshot.r_rt ~contexts:[ coll'.Smc.Collection.ctx ]
    @ Smc_check.Obs_check.check r.Snapshot.r_rt ~contexts:[ coll'.Smc.Collection.ctx ]
    @ List.concat_map (fun (_, ix) -> Smc_index.Hash_index.audit ix) r.Snapshot.r_indexes;
  Wal.close wal;
  if not keep_dir then begin
    (try Sys.remove snap_path with Sys_error _ -> ());
    (try Sys.remove wal_path with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end;
  (points, !violations)

let table points =
  let t =
    Table.create ~title:"Persistence throughput (TPC-H lineitem)"
      ~columns:[ "stage"; "rows"; "MB"; "ms"; "MB/s"; "krows/s" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.stage;
          string_of_int p.rows;
          Printf.sprintf "%.1f" (float p.bytes /. 1048576.0);
          Printf.sprintf "%.1f" p.ms;
          (if p.bytes = 0 then "-" else Printf.sprintf "%.1f" p.mb_s);
          Printf.sprintf "%.1f" p.krows_s;
        ])
    points;
  t
