(* Tests for the durability layer: block-image snapshots, WAL replay and
   crash recovery (torn tails, corrupted images). *)

open Smc_offheap
module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal
module Persist_check = Smc_check.Persist_check

let check = Alcotest.check

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tmp ext =
  let f = Filename.temp_file "smc_persist_test" ext in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

let person_layout =
  Layout.create ~name:"person"
    [ ("name", Layout.Str 16); ("age", Layout.Int); ("salary", Layout.Dec) ]

let f_name = Smc.Field.str person_layout "name"
let f_age = Smc.Field.int person_layout "age"
let f_salary = Smc.Field.dec person_layout "salary"

let make_persons ?placement ?mode () =
  let rt = Runtime.create () in
  let persons =
    Smc.Collection.create rt ~name:"persons" ~layout:person_layout ?placement ?mode
      ~slots_per_block:32 ()
  in
  (rt, persons)

let add_person persons ~name ~age =
  Smc.Collection.add persons ~init:(fun blk slot ->
      Smc.Field.set_string f_name blk slot name;
      Smc.Field.set_int f_age blk slot age;
      Smc.Field.set_dec f_salary blk slot (Smc_decimal.Decimal.of_int (age * 100)))

(* Interleaved adds and removes so the image contains free and recycled
   slots, not just a dense prefix. *)
let churn persons ~n =
  let live = ref [] in
  for i = 0 to n - 1 do
    let r = add_person persons ~name:(Printf.sprintf "p%d" i) ~age:i in
    live := (i, r) :: !live;
    if i mod 3 = 2 then begin
      match !live with
      | (_, victim) :: rest when i mod 2 = 0 ->
        ignore (Smc.Collection.remove persons victim : bool);
        live := rest
      | _ -> (
        match List.rev !live with
        | (_, victim) :: _ ->
          ignore (Smc.Collection.remove persons victim : bool);
          live := List.filter (fun (_, r) -> not (Smc.Ref.equal r victim)) !live
        | [] -> ())
    end
  done;
  !live

let ages persons =
  Smc.Collection.fold persons ~init:[] ~f:(fun acc blk slot ->
      Smc.Field.get_int f_age blk slot :: acc)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Snapshot round trips *)

let test_round_trip_empty () =
  let _rt, persons = make_persons () in
  let path = tmp ".smcsnap" in
  check (Alcotest.list Alcotest.string) "no violations" []
    (Persist_check.round_trip ~path persons)

let test_round_trip_churned () =
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:500 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  check (Alcotest.list Alcotest.string) "no violations" []
    (Persist_check.round_trip ~path persons)

let test_round_trip_after_compaction () =
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:2000 : (int * Smc.Ref.t) list);
  ignore (Smc.Collection.compact persons () : Compaction.report);
  let path = tmp ".smcsnap" in
  check (Alcotest.list Alcotest.string) "no violations" []
    (Persist_check.round_trip ~path persons)

let test_round_trip_columnar_direct () =
  let _rt, persons = make_persons ~placement:Block.Columnar ~mode:Context.Direct () in
  ignore (churn persons ~n:500 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  check (Alcotest.list Alcotest.string) "no violations" []
    (Persist_check.round_trip ~path persons)

let test_restored_refs_resolve () =
  (* Indirect references are entry-stable across a snapshot/restore: the
     same packed reference value resolves to the same row, and a reference
     that was stale before the snapshot stays stale after. *)
  let _rt, persons = make_persons () in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  let eve = add_person persons ~name:"Eve" ~age:31 in
  ignore (churn persons ~n:200 : (int * Smc.Ref.t) list);
  ignore (Smc.Collection.remove persons eve : bool);
  let path = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~path persons in
  let r = Snapshot.restore ~path () in
  let adam' = Smc.Ref.of_packed (Smc.Ref.to_packed adam) in
  let blk, slot = Smc.Collection.deref r.Snapshot.r_coll adam' in
  check Alcotest.string "same row behind the same reference" "Adam"
    (Smc.Field.get_string f_name blk slot);
  check Alcotest.int "age intact" 27 (Smc.Field.get_int f_age blk slot);
  check Alcotest.bool "stale ref stays dead" false
    (Smc.Collection.mem r.Snapshot.r_coll (Smc.Ref.of_packed (Smc.Ref.to_packed eve)))

let test_restored_collection_mutable () =
  (* The restored collection is a first-class one: adds and removes work,
     recycled entries come from the seeded free stores, audits still pass. *)
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:300 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~path persons in
  let r, violations = Persist_check.restore_verified ~path () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  let coll = r.Snapshot.r_coll in
  let before = Smc.Collection.count coll in
  let fresh = ref [] in
  for i = 0 to 199 do
    fresh := add_person coll ~name:"new" ~age:(1000 + i) :: !fresh
  done;
  List.iteri
    (fun i x -> if i mod 2 = 0 then ignore (Smc.Collection.remove coll x : bool))
    !fresh;
  check Alcotest.int "count tracks post-restore mutations" (before + 100)
    (Smc.Collection.count coll);
  check (Alcotest.list Alcotest.string) "audit after mutations" []
    (Smc_check.Audit.check_once r.Snapshot.r_rt ~contexts:[ coll.Smc.Collection.ctx ])

let test_manifest_fields () =
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:100 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  let m, bytes = Snapshot.write ~path persons in
  check Alcotest.bool "bytes written" true (bytes > 0);
  check Alcotest.int "file size matches" bytes (Unix.stat path).Unix.st_size;
  let m' = Snapshot.read_manifest path in
  check Alcotest.string "collection name" "persons" m'.Snapshot.collection;
  check Alcotest.string "type name" "person" m'.Snapshot.type_name;
  check Alcotest.int "row count" (Smc.Collection.count persons) m'.Snapshot.row_count;
  check Alcotest.int "block count agrees" m.Snapshot.block_count m'.Snapshot.block_count;
  check Alcotest.int "no wal cut" (-1) m'.Snapshot.wal_lsn

(* ------------------------------------------------------------------ *)
(* WAL *)

let test_wal_replay () =
  let _rt, persons = make_persons () in
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~path:wal_path ~name:"persons" () in
  Wal.attach wal persons;
  ignore (churn persons ~n:200 : (int * Smc.Ref.t) list);
  let snap = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap persons in
  (* Mutations after the cut live only in the log. *)
  let late = ref [] in
  for i = 0 to 99 do
    late := add_person persons ~name:(Printf.sprintf "late%d" i) ~age:(10_000 + i) :: !late
  done;
  List.iteri
    (fun i r -> if i mod 4 = 0 then ignore (Smc.Collection.remove persons r : bool))
    !late;
  (* A store, logged through the subscriber like every other op. *)
  let survivor = List.find (fun r -> Smc.Collection.mem persons r) !late in
  Smc.Collection.store persons survivor ~word:f_age.Layout.word ~value:77;
  Wal.flush wal;
  let r, violations = Persist_check.restore_verified ~wal:wal_path ~path:snap () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  check Alcotest.bool "records replayed" true (r.Snapshot.r_replayed > 0);
  check Alcotest.int "no torn tail" 0 r.Snapshot.r_torn_dropped;
  check (Alcotest.list Alcotest.int) "row multiset identical" (ages persons)
    (ages r.Snapshot.r_coll);
  let blk', slot' =
    Smc.Collection.deref r.Snapshot.r_coll (Smc.Ref.of_packed (Smc.Ref.to_packed survivor))
  in
  check Alcotest.int "store replayed" 77 (Smc.Field.get_int f_age blk' slot');
  Wal.close wal

let test_wal_replay_from_empty_snapshot () =
  (* Snapshot taken before any mutation: the whole population comes from
     the log. *)
  let _rt, persons = make_persons () in
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~path:wal_path ~name:"persons" () in
  Wal.attach wal persons;
  let snap = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap persons in
  ignore (churn persons ~n:400 : (int * Smc.Ref.t) list);
  Wal.flush wal;
  let r, violations = Persist_check.restore_verified ~wal:wal_path ~path:snap () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  check (Alcotest.list Alcotest.int) "row multiset identical" (ages persons)
    (ages r.Snapshot.r_coll);
  Wal.close wal

let test_wal_rejects_direct_mode () =
  let _rt, persons = make_persons ~mode:Context.Direct () in
  let wal = Wal.create ~path:(tmp ".wal") ~name:"persons" () in
  (match Wal.attach wal persons with
  | () -> Alcotest.fail "direct mode must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "message explains why" true
      (contains_sub ~sub:"direct references" msg));
  Wal.close wal

(* Replay publishes each record as one unit, so a log attached to the
   target collection receives every replayed record like any live unit:
   it ends up one record per source record, and replaying it rebuilds the
   same rows again. *)
let test_replay_feeds_attached_log () =
  let _rt, src = make_persons () in
  let src_path = tmp ".wal" in
  let src_wal = Wal.create ~path:src_path ~name:"src" () in
  Wal.attach src_wal src;
  ignore (churn src ~n:60 : (int * Smc.Ref.t) list);
  let records = Wal.lsn src_wal in
  Wal.close src_wal;
  let _rt, dst = make_persons () in
  let dst_path = tmp ".wal" in
  let dst_wal = Wal.create ~path:dst_path ~name:"dst" () in
  Wal.attach dst_wal dst;
  let applied, _torn = Snapshot.replay_wal dst ~path:src_path ~cut:(-1) in
  check Alcotest.bool "replay applied the log" true (applied > 0);
  check (Alcotest.list Alcotest.int) "row multiset identical" (ages src) (ages dst);
  check Alcotest.int "one logged record per replayed record" records (Wal.lsn dst_wal);
  Wal.close dst_wal;
  let _rt, again = make_persons () in
  let applied', _torn = Snapshot.replay_wal again ~path:dst_path ~cut:(-1) in
  check Alcotest.int "the attached log holds every replayed op" applied applied';
  check (Alcotest.list Alcotest.int) "its replay rebuilds the rows" (ages src) (ages again)

let test_wal_detach_names_its_log () =
  let _rt, persons = make_persons () in
  let attached = Wal.create ~path:(tmp ".wal") ~name:"attached" () in
  let other = Wal.create ~path:(tmp ".wal") ~name:"other" () in
  Wal.attach attached persons;
  (match Wal.detach other persons with
  | () -> Alcotest.fail "detaching a log that is not attached must raise"
  | exception Invalid_argument _ -> ());
  let lsn0 = Wal.lsn attached in
  let r = add_person persons ~name:"x" ~age:1 in
  ignore (Smc.Collection.remove persons r : bool);
  check Alcotest.int "the attached log keeps logging" (lsn0 + 2) (Wal.lsn attached);
  check Alcotest.int "the other log saw nothing" 0 (Wal.lsn other);
  Wal.detach attached persons;
  ignore (add_person persons ~name:"y" ~age:2);
  check Alcotest.int "a detached log stops logging" (lsn0 + 2) (Wal.lsn attached);
  Wal.close attached;
  Wal.close other

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let truncate_file path n =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - n);
  Unix.close fd

let test_torn_tail_discarded () =
  (* Chop bytes off the final record: recovery must keep every record
     before it and count exactly one torn drop — for several cut points. *)
  List.iter
    (fun cut ->
      let _rt, persons = make_persons () in
      let wal_path = tmp ".wal" in
      let wal = Wal.create ~path:wal_path ~name:"persons" () in
      Wal.attach wal persons;
      let snap = tmp ".smcsnap" in
      let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap persons in
      for i = 0 to 49 do
        ignore (add_person persons ~name:"w" ~age:i : Smc.Ref.t)
      done;
      Wal.close wal;
      truncate_file wal_path cut;
      let r, violations = Persist_check.restore_verified ~wal:wal_path ~path:snap () in
      check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
      check Alcotest.int
        (Printf.sprintf "torn drop counted (cut %d)" cut)
        1 r.Snapshot.r_torn_dropped;
      check Alcotest.int
        (Printf.sprintf "all intact records survive (cut %d)" cut)
        49
        (Smc.Collection.count r.Snapshot.r_coll))
    [ 1; 7; 8; 15; 16; 40 ]

(* Regression: [Wal.create] used to leave the magic + header sitting in the
   channel buffer with [unsynced = 0], so [flush]/[close] on an empty log
   were no-ops and a crash right after [create] (+[flush]) left a file
   shorter than the magic on disk — which recovery rejected as hard
   [Pio.Corrupt] instead of treating as an empty log. [create] now fsyncs
   the header before returning. *)
let test_fresh_wal_header_survives_crash () =
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~path:wal_path ~name:"persons" ~base:5 () in
  Wal.flush wal;
  (* Simulate the crash: never close the writer — the bytes already on disk
     are all that survives. Recovery must see a well-formed empty log. *)
  let info = Wal.scan ~path:wal_path ~f:(fun ~lsn:_ _ -> Alcotest.fail "log must be empty") in
  check Alcotest.string "header name survives" "persons" info.Wal.li_name;
  check Alcotest.int "base LSN survives" 5 info.Wal.li_base;
  check Alcotest.int "no records" 0 info.Wal.li_records;
  check Alcotest.int "no torn tail" 0 info.Wal.li_torn_dropped;
  (* And a full snapshot + empty-log recovery over the crash image works. *)
  let _rt, persons = make_persons () in
  let wal_path2 = tmp ".wal" in
  let wal2 = Wal.create ~path:wal_path2 ~name:"persons" () in
  Wal.attach wal2 persons;
  ignore (churn persons ~n:50 : (int * Smc.Ref.t) list);
  let snap = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal:wal2 ~path:snap persons in
  (* Rotate to a fresh log at the cut, then "crash" before closing it. *)
  let wal3_path = tmp ".wal" in
  let _wal3 = Wal.create ~path:wal3_path ~name:"persons" ~base:(Wal.lsn wal2) () in
  let r, violations = Persist_check.restore_verified ~wal:wal3_path ~path:snap () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  check Alcotest.int "nothing replayed from the empty rotated log" 0 r.Snapshot.r_replayed;
  check (Alcotest.list Alcotest.int) "rows identical" (ages persons) (ages r.Snapshot.r_coll);
  Wal.close wal2

let test_mid_log_corruption_is_fatal () =
  (* Flip a byte with records *behind* it: that is not a torn append and
     recovery must refuse. *)
  let _rt, persons = make_persons () in
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~path:wal_path ~name:"persons" () in
  Wal.attach wal persons;
  let snap = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap persons in
  for i = 0 to 49 do
    ignore (add_person persons ~name:"w" ~age:i : Smc.Ref.t)
  done;
  Wal.close wal;
  let size = (Unix.stat wal_path).Unix.st_size in
  let fd = Unix.openfile wal_path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET : int);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1 : int);
  Unix.close fd;
  match Snapshot.restore ~wal:wal_path ~path:snap () with
  | (_ : Snapshot.restored) -> Alcotest.fail "mid-log corruption must raise"
  | exception Smc_persist.Pio.Corrupt msg ->
    check Alcotest.bool "message names the log" true
      (contains_sub ~sub:"WAL" msg || contains_sub ~sub:"checksum" msg)

let test_old_wal_magic_refused () =
  (* A log in the earlier framed layout carries the magic SMCWAL01; its
     records would not parse as op lists, so recovery refuses the file
     outright instead of misreading it. *)
  let wal_path = tmp ".wal" in
  let wal = Wal.create ~path:wal_path ~name:"persons" () in
  Wal.close wal;
  let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.write_substring fd "SMCWAL01" 0 8 : int);
  Unix.close fd;
  match Wal.scan ~path:wal_path ~f:(fun ~lsn:_ _ -> ()) with
  | (_ : Wal.log_info) -> Alcotest.fail "an old-format log must be refused"
  | exception Smc_persist.Pio.Corrupt msg ->
    check Alcotest.bool "message names the bad magic" true
      (contains_sub ~sub:"bad magic" msg && contains_sub ~sub:"SMCWAL01" msg)

let test_corrupted_snapshot_detected () =
  (* Flip one byte anywhere past the magic: restore must raise Corrupt
     with a descriptive message, never crash or return garbage. *)
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:300 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~path persons in
  let size = (Unix.stat path).Unix.st_size in
  List.iter
    (fun off ->
      let flip b = Char.chr (Char.code b lxor 0x40) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let buf = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.read fd buf 0 1 : int);
      Bytes.set buf 0 (flip (Bytes.get buf 0));
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.write fd buf 0 1 : int);
      Unix.close fd;
      (match Snapshot.restore ~path () with
      | (_ : Snapshot.restored) ->
        Alcotest.fail (Printf.sprintf "corruption at byte %d must raise" off)
      | exception Smc_persist.Pio.Corrupt msg ->
        check Alcotest.bool
          (Printf.sprintf "descriptive message at byte %d" off)
          true
          (String.length msg > 10));
      (* restore the byte so later offsets test fresh corruption *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Bytes.set buf 0 (flip (Bytes.get buf 0));
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.write fd buf 0 1 : int);
      Unix.close fd)
    [ 10; 64; size / 2; size - 9 ];
  (* After undoing every flip the image must restore cleanly again. *)
  let _, violations = Persist_check.restore_verified ~path () in
  check (Alcotest.list Alcotest.string) "image intact after undo" [] violations

let test_truncated_snapshot_detected () =
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:100 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~path persons in
  truncate_file path 33;
  match Snapshot.restore ~path () with
  | (_ : Snapshot.restored) -> Alcotest.fail "truncated snapshot must raise"
  | exception Smc_persist.Pio.Corrupt msg ->
    check Alcotest.bool "mentions truncation" true
      (contains_sub ~sub:"truncated" msg || contains_sub ~sub:"trailing" msg)

(* ------------------------------------------------------------------ *)
(* Indexes *)

let test_indexes_reattached () =
  let _rt, persons = make_persons () in
  ignore (churn persons ~n:300 : (int * Smc.Ref.t) list);
  let path = tmp ".smcsnap" in
  let (_ : Snapshot.manifest * int) =
    Snapshot.write ~indexes:[ ("by_age", "age"); ("by_name", "name") ] ~path persons
  in
  let r, violations = Persist_check.restore_verified ~path () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  check
    (Alcotest.list Alcotest.string)
    "both indexes back" [ "by_age"; "by_name" ]
    (List.map fst r.Snapshot.r_indexes |> List.sort compare);
  let by_age = List.assoc "by_age" r.Snapshot.r_indexes in
  let expect =
    Smc.Collection.fold r.Snapshot.r_coll ~init:0 ~f:(fun acc blk slot ->
        if Smc.Field.get_int f_age blk slot mod 7 = 0 then acc + 1 else acc)
  in
  let got = ref 0 in
  Smc.Collection.iter r.Snapshot.r_coll ~f:(fun blk slot ->
      let age = Smc.Field.get_int f_age blk slot in
      if age mod 7 = 0 then
        Smc_index.Hash_index.probe by_age (Smc_index.Hash_index.K_int age)
          ~f:(fun _r b s -> if b == blk && s = slot then incr got));
  check Alcotest.int "index lookups find every row" expect !got

let test_bad_index_declaration_rejected () =
  let _rt, persons = make_persons () in
  let path = tmp ".smcsnap" in
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Snapshot.write: index \"i\" names unknown column \"zzz\"")
    (fun () -> ignore (Snapshot.write ~indexes:[ ("i", "zzz") ] ~path persons))

let () =
  Alcotest.run "persist"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round trip: empty" `Quick test_round_trip_empty;
          Alcotest.test_case "round trip: churned" `Quick test_round_trip_churned;
          Alcotest.test_case "round trip: after compaction" `Quick
            test_round_trip_after_compaction;
          Alcotest.test_case "round trip: columnar + direct" `Quick
            test_round_trip_columnar_direct;
          Alcotest.test_case "references stay resolvable" `Quick test_restored_refs_resolve;
          Alcotest.test_case "restored collection is mutable" `Quick
            test_restored_collection_mutable;
          Alcotest.test_case "manifest fields" `Quick test_manifest_fields;
        ] );
      ( "wal",
        [
          Alcotest.test_case "replay over snapshot" `Quick test_wal_replay;
          Alcotest.test_case "replay from empty snapshot" `Quick
            test_wal_replay_from_empty_snapshot;
          Alcotest.test_case "direct mode rejected" `Quick test_wal_rejects_direct_mode;
          Alcotest.test_case "replay feeds an attached log" `Quick
            test_replay_feeds_attached_log;
          Alcotest.test_case "detach names its own log" `Quick test_wal_detach_names_its_log;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "torn tail discarded" `Quick test_torn_tail_discarded;
          Alcotest.test_case "fresh WAL header survives crash" `Quick
            test_fresh_wal_header_survives_crash;
          Alcotest.test_case "mid-log corruption fatal" `Quick
            test_mid_log_corruption_is_fatal;
          Alcotest.test_case "old WAL magic refused" `Quick test_old_wal_magic_refused;
          Alcotest.test_case "corrupted snapshot detected" `Quick
            test_corrupted_snapshot_detected;
          Alcotest.test_case "truncated snapshot detected" `Quick
            test_truncated_snapshot_detected;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "reattached on restore" `Quick test_indexes_reattached;
          Alcotest.test_case "bad declaration rejected" `Quick
            test_bad_index_declaration_rejected;
        ] );
    ]
