(* Tests for atomic multi-op transactions and snapshot-isolation reads:
   commit/abort/conflict semantics, one WAL record per commit, crash
   recovery at and around every commit boundary (byte-level log surgery),
   view stability, query integration, and the Txn_check model checker. *)

open Smc_offheap
module Snapshot = Smc_persist.Snapshot
module Wal = Smc_persist.Wal
module Persist_check = Smc_check.Persist_check
module Txn_check = Smc_check.Txn_check
module C = Smc.Collection

let check = Alcotest.check

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tmp ext =
  let f = Filename.temp_file "smc_txn_test" ext in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

let kv_layout =
  Layout.create ~name:"kv" [ ("k", Layout.Int); ("v", Layout.Int) ]

let fk = Smc.Field.int kv_layout "k"
let fv = Smc.Field.int kv_layout "v"

let make_kv () =
  let rt = Runtime.create () in
  let coll = C.create rt ~name:"kv" ~layout:kv_layout ~slots_per_block:32 () in
  (rt, coll)

(* Collection + WAL at Always sync + empty base snapshot cut at LSN 0:
   recovered state is a pure function of the log bytes. *)
let make_logged ?(sync = Wal.Always) () =
  let rt, coll = make_kv () in
  let wal_path = tmp ".wal" in
  let snap = tmp ".smcsnap" in
  let wal = Wal.create ~sync ~path:wal_path ~name:"kv" () in
  Wal.attach wal coll;
  let (_ : Snapshot.manifest * int) = Snapshot.write ~wal ~path:snap coll in
  (rt, coll, wal, wal_path, snap)

let add_kv coll k v =
  C.add coll ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot k;
      Smc.Field.set_int fv blk slot v)

let stage_kv tx k v =
  C.stage_add tx ~init:(fun blk slot ->
      Smc.Field.set_int fk blk slot k;
      Smc.Field.set_int fv blk slot v)

let dump coll =
  C.fold coll ~init:[] ~f:(fun acc blk slot ->
      (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot) :: acc)
  |> List.sort compare

let dump_restored path snap =
  let r, violations = Persist_check.restore_verified ~wal:path ~path:snap () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  dump r.Snapshot.r_coll

let pairs = Alcotest.(list (pair int int))

let commit_refs tx =
  match C.commit tx with
  | C.Committed refs -> refs
  | C.Conflict -> Alcotest.fail "unexpected Conflict"

(* ------------------------------------------------------------------ *)
(* Byte-level WAL surgery.

   A log file is: magic (8 bytes), one header section, then one section
   per record — each section being [len:8 LE][crc:8 LE][payload]. A record
   is one commit unit (a bare op or a committed batch); the first payload
   word is its op count. [wal_records] returns (offset, total_len, n_ops)
   for every record section, in file order, so tests can truncate or
   damage exact records. *)

let wal_records path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      seek_in ic 8;
      (* skip the header section *)
      let hdr = Bytes.create 16 in
      really_input ic hdr 0 16;
      let hlen = Int64.to_int (Bytes.get_int64_le hdr 0) in
      seek_in ic (24 + hlen);
      let out = ref [] in
      let rec loop off =
        if off + 16 <= size then begin
          seek_in ic off;
          let h = Bytes.create 16 in
          really_input ic h 0 16;
          let len = Int64.to_int (Bytes.get_int64_le h 0) in
          if off + 16 + len <= size then begin
            let n_b = Bytes.create 8 in
            really_input ic n_b 0 8;
            let n_ops = Int64.to_int (Bytes.get_int64_le n_b 0) in
            out := (off, 16 + len, n_ops) :: !out;
            loop (off + 16 + len)
          end
        end
      in
      loop (24 + hlen);
      List.rev !out)

let truncate_to path off =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd off;
  Unix.close fd

(* A temp copy of [path]'s first [n] bytes: a crash image. *)
let copy_prefix path n =
  let out_path = tmp ".wal" in
  let ic = open_in_bin path in
  let bytes = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin out_path in
  output_string oc bytes;
  close_out oc;
  out_path

(* Inverts every bit of the byte at [off], in place. *)
let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  ignore (Unix.read fd b 0 1 : int);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  ignore (Unix.write fd b 0 1 : int);
  Unix.close fd

let record_ops path = List.map (fun (_, _, n_ops) -> n_ops) (wal_records path)

(* ------------------------------------------------------------------ *)
(* Commit / abort semantics *)

let test_commit_basic () =
  let _rt, coll = make_kv () in
  let r1 = add_kv coll 1 10 in
  let _r2 = add_kv coll 2 20 in
  let tx = C.txn coll in
  stage_kv tx 3 30;
  C.stage_remove tx r1;
  stage_kv tx 4 40;
  (match C.commit tx with
  | C.Committed [ a; b ] ->
    (* Add references come back in stage order. *)
    let blk, slot = C.deref coll a in
    check Alcotest.int "first staged add" 3 (Smc.Field.get_int fk blk slot);
    let blk, slot = C.deref coll b in
    check Alcotest.int "second staged add" 4 (Smc.Field.get_int fk blk slot)
  | C.Committed refs -> Alcotest.failf "expected 2 add refs, got %d" (List.length refs)
  | C.Conflict -> Alcotest.fail "unexpected Conflict");
  check pairs "post-commit state" [ (2, 20); (3, 30); (4, 40) ] (dump coll)

let test_store_in_txn () =
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx = C.txn coll in
  C.stage_store tx r ~word:fv.Layout.word ~value:99;
  ignore (commit_refs tx : Smc.Ref.t list);
  check pairs "store applied" [ (1, 99) ] (dump coll);
  (* Out-of-layout word offsets are rejected at stage time. *)
  let tx = C.txn coll in
  (match C.stage_store tx r ~word:17 ~value:0 with
  | () -> Alcotest.fail "out-of-layout store must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "message explains" true (contains_sub ~sub:"word offset" msg));
  C.abort tx

let test_empty_txn () =
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let tx = C.txn coll in
  check (Alcotest.list Alcotest.unit) "empty commit" []
    (List.map (fun (_ : Smc.Ref.t) -> ()) (commit_refs tx));
  check pairs "still empty" [] (dump coll);
  (* Nothing to redo, so nothing is logged. *)
  check (Alcotest.list Alcotest.int) "no record" [] (record_ops wal_path);
  check Alcotest.int "LSN unmoved" 0 (Wal.lsn wal);
  check pairs "recovers to empty" [] (dump_restored wal_path snap);
  Wal.close wal

let test_one_op_commit () =
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let tx = C.txn coll in
  stage_kv tx 7 70;
  ignore (commit_refs tx : Smc.Ref.t list);
  check (Alcotest.list Alcotest.int) "one one-op record" [ 1 ] (record_ops wal_path);
  check pairs "recovers the row" [ (7, 70) ] (dump_restored wal_path snap);
  Wal.close wal

let test_abort () =
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx = C.txn coll in
  stage_kv tx 2 20;
  C.stage_remove tx r;
  C.abort tx;
  check pairs "abort leaves no trace" [ (1, 10) ] (dump coll);
  (* A finished transaction rejects everything. *)
  (match C.commit tx with
  | (_ : C.txn_result) -> Alcotest.fail "commit after abort must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "commit-after-abort message" true
      (contains_sub ~sub:"already committed or aborted" msg));
  (match stage_kv tx 3 30 with
  | () -> Alcotest.fail "stage after abort must be rejected"
  | exception Invalid_argument _ -> ());
  (match C.abort tx with
  | () -> Alcotest.fail "double abort must be rejected"
  | exception Invalid_argument _ -> ())

let test_transact_wrapper () =
  let _rt, coll = make_kv () in
  (match C.transact coll (fun tx -> stage_kv tx 1 10) with
  | C.Committed [ _ ] -> ()
  | _ -> Alcotest.fail "transact must commit the staged add");
  (* A raising body aborts and re-raises; nothing is published. *)
  (match C.transact coll (fun tx -> stage_kv tx 2 20; failwith "boom") with
  | (_ : C.txn_result) -> Alcotest.fail "exception must propagate"
  | exception Failure msg -> check Alcotest.string "body exception" "boom" msg);
  check pairs "raising body left no trace" [ (1, 10) ] (dump coll);
  (* A body that finishes the transaction itself is a misuse. *)
  (match C.transact coll (fun tx -> C.abort tx) with
  | (_ : C.txn_result) -> Alcotest.fail "body-finished transaction must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "misuse message" true (contains_sub ~sub:"transact" msg))

let test_duplicate_ref_rejected () =
  let rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx = C.txn coll in
  C.stage_remove tx r;
  C.stage_store tx r ~word:fv.Layout.word ~value:5;
  (match C.commit tx with
  | (_ : C.txn_result) -> Alcotest.fail "duplicate staged ref must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "dup message" true (contains_sub ~sub:"staged" msg));
  check pairs "nothing applied" [ (1, 10) ] (dump coll);
  (* The rejection happens before any commit lock is taken and closes the
     transaction as an abort, so the collection commits again. *)
  (match C.transact coll (fun tx -> C.stage_store tx r ~word:fv.Layout.word ~value:6) with
  | C.Committed [] -> ()
  | _ -> Alcotest.fail "the collection must commit after a rejected transaction");
  check pairs "the next commit applied" [ (1, 6) ] (dump coll);
  check (Alcotest.list Alcotest.string) "obs balances hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx ])

(* ------------------------------------------------------------------ *)
(* Write-write conflicts *)

let test_conflict_store_store () =
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx1 = C.txn coll and tx2 = C.txn coll in
  C.stage_store tx1 r ~word:fv.Layout.word ~value:111;
  C.stage_store tx2 r ~word:fv.Layout.word ~value:222;
  (match C.commit tx1 with
  | C.Committed [] -> ()
  | _ -> Alcotest.fail "first committer must win");
  (match C.commit tx2 with
  | C.Conflict -> ()
  | C.Committed _ -> Alcotest.fail "second committer must conflict");
  check pairs "loser invisible" [ (1, 111) ] (dump coll)

let test_conflict_remove_vs_store () =
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx1 = C.txn coll and tx2 = C.txn coll in
  C.stage_remove tx1 r;
  C.stage_store tx2 r ~word:fv.Layout.word ~value:222;
  (match C.commit tx1 with
  | C.Committed [] -> ()
  | _ -> Alcotest.fail "remove txn must commit");
  (match C.commit tx2 with
  | C.Conflict -> ()
  | C.Committed _ -> Alcotest.fail "store against a removed row must conflict");
  check pairs "row gone, store never landed" [] (dump coll)

let test_conflict_against_bare_write () =
  (* Bare removes stamp the slot too: a transaction staged against a row
     that a bare remove then kills must conflict at commit. *)
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let tx = C.txn coll in
  C.stage_store tx r ~word:fv.Layout.word ~value:111;
  check Alcotest.bool "bare remove wins the race" true (C.remove coll r);
  (match C.commit tx with
  | C.Conflict -> ()
  | C.Committed _ -> Alcotest.fail "stale staged store must conflict");
  check pairs "empty" [] (dump coll)

let test_conflict_bare_store () =
  (* A bare store is a one-op commit under the transaction lock, so a
     transaction staged against the row before the store lands must lose
     first-committer-wins validation. *)
  let rt, coll = make_kv () in
  let r = add_kv coll 1 10 in
  let snap0 = Smc_obs.snapshot rt.Runtime.obs in
  let tx = C.txn coll in
  C.stage_store tx r ~word:fv.Layout.word ~value:111;
  C.store coll r ~word:fv.Layout.word ~value:55;
  (match C.commit tx with
  | C.Conflict -> ()
  | C.Committed _ -> Alcotest.fail "txn staged before a bare store must conflict");
  check pairs "bare store is the surviving write" [ (1, 55) ] (dump coll);
  C.store coll r ~word:fv.Layout.word ~value:77;
  check pairs "later bare store lands" [ (1, 77) ] (dump coll);
  let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) snap0 in
  check Alcotest.int "bare stores counted" 2 (Smc_obs.get d Smc_obs.c_bare_stores);
  ignore (C.remove coll r : bool);
  (match C.store coll r ~word:fv.Layout.word ~value:1 with
  | () -> Alcotest.fail "store to a dead ref must raise"
  | exception Constants.Null_reference -> ());
  let r2 = add_kv coll 2 20 in
  (match C.store coll r2 ~word:99 ~value:1 with
  | () -> Alcotest.fail "out-of-layout store must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "word message" true (contains_sub ~sub:"word offset" msg));
  check (Alcotest.list Alcotest.string) "stamp invariants hold" []
    (Txn_check.check_quiescent coll);
  (* Copy-on-write needs the indirection layer, as transactions do. *)
  let direct = C.create rt ~name:"direct" ~layout:kv_layout ~mode:Context.Direct () in
  let rd = add_kv direct 3 30 in
  match C.store direct rd ~word:fv.Layout.word ~value:1 with
  | () -> Alcotest.fail "a direct-mode store must be rejected"
  | exception Invalid_argument _ -> check pairs "direct row unchanged" [ (3, 30) ] (dump direct)

let test_conflict_pairs_property () =
  (* Property: for overlapping transaction pairs staging a write to the
     same row, exactly one commits, and the final state always matches a
     model that applies only the winners. Runs a seeded mix of
     store/store, remove/store, store/remove and remove/remove pairs,
     with an attached index that must stay exact throughout. *)
  let rt, coll = make_kv () in
  let ix =
    Smc_index.Hash_index.attach ~name:"by_k"
      ~key:(Smc_index.Hash_index.Int_key (Smc.Field.get_int fk))
      coll
  in
  let prng = Smc_util.Prng.create ~seed:42L () in
  let model = Hashtbl.create 64 in
  let refs = Hashtbl.create 64 in
  for k = 1 to 40 do
    let r = add_kv coll k k in
    Hashtbl.replace model k k;
    Hashtbl.replace refs k r
  done;
  for round = 1 to 60 do
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) refs [] in
    match keys with
    | [] -> ()
    | _ ->
      let k = List.nth keys (Smc_util.Prng.int prng (List.length keys)) in
      let r = Hashtbl.find refs k in
      let stage tx op v =
        if op then C.stage_remove tx r
        else C.stage_store tx r ~word:fv.Layout.word ~value:v
      in
      let op1 = Smc_util.Prng.bool prng and op2 = Smc_util.Prng.bool prng in
      let v1 = 1000 + round and v2 = 5000 + round in
      let tx1 = C.txn coll and tx2 = C.txn coll in
      stage tx1 op1 v1;
      stage tx2 op2 v2;
      (match (C.commit tx1, C.commit tx2) with
      | C.Committed [], C.Conflict ->
        if op1 then begin
          Hashtbl.remove model k;
          Hashtbl.remove refs k
        end
        else Hashtbl.replace model k v1
      | C.Conflict, _ -> Alcotest.failf "round %d: first committer conflicted" round
      | C.Committed _, C.Committed _ ->
        Alcotest.failf "round %d: both sides of a conflicting pair committed" round
      | C.Committed _, C.Conflict -> Alcotest.failf "round %d: adds from store-only txn" round)
  done;
  let want =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  check pairs "winners-only model agrees" want (dump coll);
  check (Alcotest.list Alcotest.string) "index exact after conflict churn" []
    (Smc_index.Hash_index.audit ix);
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Smc_check.Audit.check_once rt ~contexts:[ coll.C.ctx ])

(* ------------------------------------------------------------------ *)
(* Crash recovery: torn and damaged commit records *)

(* Log two transactions, one record each; return everything needed for
   surgery on the second. State after txn1 only: [(1,10); (2,20)]. *)
let two_txn_log () =
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let tx = C.txn coll in
  stage_kv tx 1 10;
  stage_kv tx 2 20;
  ignore (commit_refs tx : Smc.Ref.t list);
  let tx = C.txn coll in
  stage_kv tx 3 30;
  stage_kv tx 4 40;
  stage_kv tx 5 50;
  ignore (commit_refs tx : Smc.Ref.t list);
  Wal.close wal;
  check (Alcotest.list Alcotest.int) "one record per commit" [ 2; 3 ] (record_ops wal_path);
  (coll, wal_path, snap)

let txn1_state = [ (1, 10); (2, 20) ]

(* Recovers [wal_path] over [snap], checking the restored state is exactly
   the first transaction's and the torn-drop count is [torn]. *)
let check_txn1_recovered ~label ~torn wal_path snap =
  let r, violations = Persist_check.restore_verified ~wal:wal_path ~path:snap () in
  check (Alcotest.list Alcotest.string) (label ^ ": restore audits clean") [] violations;
  check Alcotest.int (label ^ ": torn drops") torn r.Snapshot.r_torn_dropped;
  check pairs (label ^ ": first transaction only") txn1_state (dump r.Snapshot.r_coll)

let test_torn_inside_body () =
  (* Truncate the second transaction's record after its first byte and at
     every 8-byte offset inside it: the record is dropped whole and
     counted, the first transaction survives untouched. *)
  let _coll, wal_path, snap = two_txn_log () in
  let off, len, _ = List.nth (wal_records wal_path) 1 in
  List.iter
    (fun cut ->
      check_txn1_recovered ~label:(Printf.sprintf "cut %d bytes in" cut) ~torn:1
        (copy_prefix wal_path (off + cut))
        snap)
    (1 :: List.init ((len - 1) / 8) (fun i -> 8 * (i + 1)))

let test_torn_mid_record () =
  (* Unaligned cuts inside the last op's words, down to a record missing
     only its final byte: still one torn record, dropped whole. *)
  let _coll, wal_path, snap = two_txn_log () in
  let off, len, _ = List.nth (wal_records wal_path) 1 in
  List.iter
    (fun short ->
      check_txn1_recovered ~label:(Printf.sprintf "%d bytes short" short) ~torn:1
        (copy_prefix wal_path (off + len - short))
        snap)
    [ 3; 1 ]

let test_torn_at_commit_record () =
  (* The log ends exactly where the second commit's record would begin:
     nothing is torn, the second transaction is simply absent. *)
  let _coll, wal_path, snap = two_txn_log () in
  let off, _, _ = List.nth (wal_records wal_path) 1 in
  truncate_to wal_path off;
  check_txn1_recovered ~label:"cut at the record" ~torn:0 wal_path snap

let test_damaged_record_with_tail_is_fatal () =
  (* A flipped byte in the first transaction's record, with the second
     record intact behind it, cannot be a torn append: recovery refuses
     the log instead of dropping a committed transaction. *)
  let _coll, wal_path, snap = two_txn_log () in
  let off, _, _ = List.hd (wal_records wal_path) in
  flip_byte wal_path (off + 16 + 8);
  match Snapshot.restore ~wal:wal_path ~path:snap () with
  | (_ : Snapshot.restored) -> Alcotest.fail "mid-log damage must be fatal"
  | exception Smc_persist.Pio.Corrupt msg ->
    check Alcotest.bool "message names the checksum" true (contains_sub ~sub:"checksum" msg)

let test_replay_in_log_order () =
  (* Batch, bare add, batch: the last batch removes the bare-added row and
     stores to the first batch's row, so replay must apply the records in
     log order (a remove of a row not yet added would be fatal). *)
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let tx = C.txn coll in
  stage_kv tx 1 10;
  stage_kv tx 2 20;
  let r1 = List.hd (commit_refs tx) in
  let r3 = add_kv coll 3 30 in
  let tx = C.txn coll in
  C.stage_remove tx r3;
  C.stage_store tx r1 ~word:fv.Layout.word ~value:11;
  stage_kv tx 4 40;
  ignore (commit_refs tx : Smc.Ref.t list);
  Wal.close wal;
  check (Alcotest.list Alcotest.int) "batch, bare, batch" [ 2; 1; 3 ] (record_ops wal_path);
  check pairs "recovered in log order" [ (1, 11); (2, 20); (4, 40) ]
    (dump_restored wal_path snap);
  check pairs "matches the live collection" (dump coll) (dump_restored wal_path snap)

let test_sync_counts_commits () =
  (* [Every 3] counts records, and a record is a commit: three commits of
     1, 5 and 9 ops make three appends and exactly one fsync. *)
  let rt, coll, wal, wal_path, snap = make_logged ~sync:(Wal.Every 3) () in
  let s0 = Smc_obs.snapshot rt.Runtime.obs in
  let next = ref 0 in
  List.iter
    (fun n ->
      let tx = C.txn coll in
      for _ = 1 to n do
        incr next;
        stage_kv tx !next !next
      done;
      ignore (commit_refs tx : Smc.Ref.t list))
    [ 1; 5; 9 ];
  let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) s0 in
  check Alcotest.int "appends" 3 (Smc_obs.get d Smc_obs.c_persist_wal_appends);
  check Alcotest.int "syncs" 1 (Smc_obs.get d Smc_obs.c_persist_wal_syncs);
  check (Alcotest.list Alcotest.int) "records" [ 1; 5; 9 ] (record_ops wal_path);
  check Alcotest.int "all 15 rows recover" 15 (List.length (dump_restored wal_path snap));
  Wal.close wal

let test_crash_before_fsync () =
  (* Manual sync: the second transaction's record sits in the writer's
     buffer. A crash image taken before the flush has only the first
     transaction; after the flush, both. *)
  let _rt, coll, wal, wal_path, snap = make_logged ~sync:Wal.Manual () in
  let tx = C.txn coll in
  stage_kv tx 1 10;
  stage_kv tx 2 20;
  ignore (commit_refs tx : Smc.Ref.t list);
  Wal.flush wal;
  let tx = C.txn coll in
  stage_kv tx 3 30;
  ignore (commit_refs tx : Smc.Ref.t list);
  let crash_img = copy_prefix wal_path (Unix.stat wal_path).Unix.st_size in
  check pairs "pre-fsync crash loses the whole txn" txn1_state (dump_restored crash_img snap);
  Wal.close wal;
  check pairs "post-flush image has it all" [ (1, 10); (2, 20); (3, 30) ]
    (dump_restored wal_path snap)

let test_torn_tail_regression_bare () =
  (* The torn-tail contract holds for a bare record behind a committed
     batch. *)
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let tx = C.txn coll in
  stage_kv tx 1 10;
  ignore (commit_refs tx : Smc.Ref.t list);
  ignore (add_kv coll 2 20 : Smc.Ref.t);
  Wal.close wal;
  let size = (Unix.stat wal_path).Unix.st_size in
  truncate_to wal_path (size - 5);
  let r, violations = Persist_check.restore_verified ~wal:wal_path ~path:snap () in
  check (Alcotest.list Alcotest.string) "restore audits clean" [] violations;
  check Alcotest.int "torn drop counted" 1 r.Snapshot.r_torn_dropped;
  check pairs "batch survives, torn bare add dropped" [ (1, 10) ] (dump r.Snapshot.r_coll)

(* ------------------------------------------------------------------ *)
(* Snapshot views *)

let test_view_stability () =
  let _rt, coll = make_kv () in
  let r1 = add_kv coll 1 10 in
  ignore (add_kv coll 2 20 : Smc.Ref.t);
  let v = C.with_view coll (fun v ->
      let before = C.view_fold v ~init:[] ~f:(fun acc blk slot ->
          (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot) :: acc)
        |> List.sort compare
      in
      check pairs "view reads current state at open" [ (1, 10); (2, 20) ] before;
      (* Commit a transaction and a bare op under the open view. *)
      (match C.transact coll (fun tx ->
           stage_kv tx 3 30;
           C.stage_remove tx r1) with
      | C.Committed _ -> ()
      | C.Conflict -> Alcotest.fail "unexpected conflict");
      ignore (add_kv coll 4 40 : Smc.Ref.t);
      let after = C.view_fold v ~init:[] ~f:(fun acc blk slot ->
          (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot) :: acc)
        |> List.sort compare
      in
      check pairs "view still reads its frontier" [ (1, 10); (2, 20) ] after;
      check Alcotest.int "view_count matches" 2 (C.view_count v);
      v)
  in
  (* Closed views refuse to iterate; current state moved on. *)
  (match C.view_iter v ~f:(fun _ _ -> ()) with
  | () -> Alcotest.fail "closed view must be rejected"
  | exception Invalid_argument msg ->
    check Alcotest.bool "closed-view message" true (contains_sub ~sub:"closed" msg));
  check pairs "current state moved on" [ (2, 20); (3, 30); (4, 40) ] (dump coll);
  C.with_view coll (fun v2 ->
      check Alcotest.int "fresh view sees the new frontier" 3 (C.view_count v2))

let view_sum v = C.view_fold v ~init:0 ~f:(fun acc blk slot -> acc + Smc.Field.get_int fv blk slot)

(* A view is only its registered frontier: it holds no critical section,
   so compaction runs under it — on another domain and on the view's own —
   and carries the limbo rows the view still sees into its targets. *)
let test_compaction_under_view () =
  let rt, coll = make_kv () in
  let refs = Array.init 640 (fun i -> add_kv coll i i) in
  Array.iteri (fun i r -> if i mod 10 <> 0 then ignore (C.remove coll r : bool)) refs;
  C.with_view coll (fun v ->
      (* The view still sees these as limbo rows. *)
      Array.iteri (fun i r -> if i mod 20 = 0 then ignore (C.remove coll r : bool)) refs;
      let reads () = (C.view_count v, view_sum v) in
      let before = reads () in
      check (Alcotest.pair Alcotest.int Alcotest.int) "view reads its frontier" (64, 20_160)
        before;
      let passed where (report : Compaction.report) =
        check Alcotest.bool (where ^ ": pass runs") false report.Compaction.aborted;
        check Alcotest.bool (where ^ ": rows moved") true (report.Compaction.objects_moved > 0);
        check (Alcotest.pair Alcotest.int Alcotest.int) (where ^ ": view unchanged") before
          (reads ())
      in
      passed "second domain" (Domain.join (Domain.spawn (fun () -> C.compact coll ())));
      passed "view's domain" (C.compact coll ()));
  check Alcotest.int "current rows" 32 (C.count coll);
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Smc_check.Audit.check_once rt ~contexts:[ coll.C.ctx ]);
  check (Alcotest.list Alcotest.string) "obs balances hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx ])

(* A view held open on one collection, on another domain, leaves the
   epoch free to advance, so a sibling collection of the same runtime
   recycles the slots it frees. *)
let test_view_does_not_stall_reclamation () =
  let rt, coll = make_kv () in
  let sib = C.create rt ~name:"sibling" ~layout:kv_layout ~slots_per_block:32 () in
  ignore (add_kv coll 0 0 : Smc.Ref.t);
  let opened = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        C.with_view coll (fun _ ->
            Atomic.set opened true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join holder)
    (fun () ->
      while not (Atomic.get opened) do
        Domain.cpu_relax ()
      done;
      let refs = Array.init 256 (fun i -> add_kv sib i i) in
      Array.iter (fun r -> ignore (C.remove sib r : bool)) refs;
      let advances = ref 0 in
      for _ = 1 to 8 do
        if Epoch.try_advance rt.Runtime.epoch then incr advances
      done;
      check Alcotest.int "epoch advances under the open view" 8 !advances;
      let snap0 = Smc_obs.snapshot rt.Runtime.obs in
      for i = 1 to 256 do
        ignore (add_kv sib i i : Smc.Ref.t)
      done;
      let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) snap0 in
      check Alcotest.int "freed slots recycled" 256 (Smc_obs.get d Smc_obs.c_slot_recycles));
  check (Alcotest.list Alcotest.string) "obs balances hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx; sib.C.ctx ])

(* A bare store is a one-op copy-on-write commit: a view opened before it
   keeps reading the old payload. *)
let test_bare_store_under_view () =
  let _rt, coll = make_kv () in
  let r = add_kv coll 1 1 in
  C.with_view coll (fun v ->
      check Alcotest.int "view sum before" 1 (view_sum v);
      C.store coll r ~word:fv.Layout.word ~value:99;
      check Alcotest.int "view sum after" 1 (view_sum v));
  check pairs "current state has the store" [ (1, 99) ] (dump coll);
  check (Alcotest.list Alcotest.string) "stamp invariants hold" []
    (Txn_check.check_quiescent coll)

(* A plain walk reads at the frontier it took when it started. The walk
   runs on its own domain and parks on a latch halfway; the main domain
   then commits copy-on-write stores over rows behind and ahead of the
   cursor and releases the latch. The fresh copies fill the main domain's
   half-full allocation block, the last of the walk's view, so that block
   is full when the walk reaches it, but born after the walk's frontier.
   The walk must still emit every row once, built, with its pre-commit
   payload, and every slot it emits must name the row's live
   reference. *)
let test_walk_vs_commit () =
  let n = 112 in
  let paused_walk name walk =
    let _rt, coll = make_kv () in
    let refs =
      Array.init (n + 1) (fun k -> if k = 0 then Smc.Ref.null else add_kv coll k (k * 10))
    in
    let paused = Atomic.make false and resumed = Atomic.make false in
    let pause () =
      if not (Atomic.get paused) then begin
        Atomic.set paused true;
        while not (Atomic.get resumed) do
          Domain.cpu_relax ()
        done
      end
    in
    let walker =
      Domain.spawn (fun () ->
          let seen = ref [] in
          walk coll pause (fun k v r -> seen := (k, v, r) :: !seen);
          Epoch.release_current_domain ();
          !seen)
    in
    while not (Atomic.get paused) do
      Domain.cpu_relax ()
    done;
    (match
       C.transact coll (fun tx ->
           Array.iteri
             (fun k r ->
               if k <= 96 && k mod 6 = 1 then C.stage_store tx r ~word:fv.Layout.word ~value:(-k))
             refs)
     with
    | C.Committed _ -> ()
    | C.Conflict -> Alcotest.fail "uncontended commit conflicted");
    Atomic.set resumed true;
    let seen = Domain.join walker in
    let count = Array.make (n + 1) 0 in
    List.iter
      (fun (k, v, r) ->
        if k <= 0 || k > n then Alcotest.failf "%s: zeroed or unknown row (key %d)" name k;
        count.(k) <- count.(k) + 1;
        if v <> k * 10 then
          Alcotest.failf "%s: key %d read %d, not its pre-commit payload %d" name k v (k * 10);
        if not (Smc.Ref.equal r refs.(k)) then
          Alcotest.failf "%s: key %d's slot names another reference" name k)
      seen;
    Array.iteri
      (fun k c -> if k > 0 && c <> 1 then Alcotest.failf "%s: key %d emitted %d times" name k c)
      count
  in
  paused_walk "Collection.iter" (fun coll pause emit ->
      let rows = ref 0 in
      C.iter coll ~f:(fun blk slot ->
          incr rows;
          if !rows = n / 2 then pause ();
          emit (Smc.Field.get_int fk blk slot) (Smc.Field.get_int fv blk slot)
            (C.ref_of_slot coll blk slot)));
  paused_walk "Source.batches" (fun coll pause emit ->
      let module S = Smc_query.Source in
      let module B = Smc_query.Batch in
      let ref_col blk slot =
        Smc_query.Value.Int (Smc.Ref.to_packed (C.ref_of_slot coll blk slot))
      in
      let src =
        S.of_smc coll ~columns:[ ("k", S.C_int fk); ("v", S.C_int fv); ("r", S.C_fn ref_col) ]
      in
      let rows = ref 0 in
      S.batches src ~rows:8 (fun b ->
          match b.B.cols with
          | [| B.V_int ks; B.V_int vs; B.V_val rs |] ->
            for i = 0 to b.B.len - 1 do
              let j = Bigarray.Array1.get b.B.sel i in
              let r =
                match rs.(j) with
                | Smc_query.Value.Int p -> Smc.Ref.of_packed p
                | _ -> Smc.Ref.null
              in
              emit ks.(j) vs.(j) r
            done;
            rows := !rows + b.B.len;
            if !rows >= n / 2 then pause ()
          | _ -> Alcotest.fail "unexpected batch columns"))

(* The same frontier across a commit and a compaction pass: a walk started
   before a commit stores over the survivors of two thinned blocks, then a
   pass compacts those blocks before the walk draws them. The old copies
   are limbo rows the walk can still see, so the pass carries them into
   its target, where the walk reads them. *)
let test_walk_vs_commit_and_compaction () =
  let rt = Runtime.create () in
  (* A high reclamation threshold keeps the thinned blocks out of the
     allocator's hands: they stay compaction candidates. *)
  let coll =
    C.create rt ~name:"kv" ~layout:kv_layout ~slots_per_block:32 ~reclaim_threshold:0.99 ()
  in
  let refs = Array.init 128 (fun k -> add_kv coll k (k * 10)) in
  let thinned k = k < 64 && k mod 32 >= 4 in
  Array.iteri (fun k r -> if thinned k then ignore (C.remove coll r : bool)) refs;
  let count = Array.make 128 0 in
  Context.with_walk coll.C.ctx (fun w ->
    (match
       C.transact coll (fun tx ->
           Array.iteri
             (fun k r -> if k < 64 && not (thinned k) then C.stage_store tx r ~word:fv.Layout.word ~value:(-k))
             refs)
     with
    | C.Committed _ -> ()
    | C.Conflict -> Alcotest.fail "uncontended commit conflicted");
    let report = C.compact coll () in
    check Alcotest.bool "the pass completed a group" true
      (report.Compaction.groups_formed >= 1 && not report.Compaction.aborted);
    Context.walk w ~scan:(fun blk lo hi ->
        Context.scan_slots w blk ~lo ~hi ~f:(fun slot ->
            let k = Smc.Field.get_int fk blk slot in
            count.(k) <- count.(k) + 1;
            check Alcotest.int "pre-commit payload" (k * 10) (Smc.Field.get_int fv blk slot);
            check Alcotest.bool "live reference" true
              (Smc.Ref.equal (C.ref_of_slot coll blk slot) refs.(k)))));
  Array.iteri
    (fun k c -> check Alcotest.int (Printf.sprintf "key %d emitted" k) (if thinned k then 0 else 1) c)
    count;
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Smc_check.Audit.check_once rt ~contexts:[ coll.C.ctx ])

(* A walk never splits an applying commit: the allocation hook parks the
   committer at its second allocation — the second store's copy-on-write
   slot — after the first store has landed, and a plain walk taken then
   must see none of the batch. *)
let test_walk_vs_applying_commit () =
  let rt, coll = make_kv () in
  let a = add_kv coll 1 10 and b = add_kv coll 2 20 in
  let main = Domain.self () in
  let allocs = Atomic.make 0 in
  let parked = Atomic.make false and release = Atomic.make false in
  let park () =
    if Domain.self () <> main && Atomic.fetch_and_add allocs 1 = 1 then begin
      Atomic.set parked true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    end
  in
  Smc_check.Chaos.with_alloc_hook rt ~hook:park @@ fun () ->
  let committer =
    Domain.spawn (fun () ->
        let r =
          C.transact coll (fun tx ->
              C.stage_store tx a ~word:fv.Layout.word ~value:11;
              C.stage_store tx b ~word:fv.Layout.word ~value:21)
        in
        Epoch.release_current_domain ();
        r)
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  let during = dump coll in
  Atomic.set release true;
  (match Domain.join committer with
  | C.Committed _ -> ()
  | C.Conflict -> Alcotest.fail "uncontended commit conflicted");
  check pairs "a walk during the apply sees none of the batch" [ (1, 10); (2, 20) ] during;
  check pairs "a walk after the commit sees all of it" [ (1, 11); (2, 21) ] (dump coll)

(* A snapshot's walk closes its frontier: the registry holds nothing
   once [Snapshot.write] returns, so a row removed afterwards is recycled
   as soon as its grace period has passed. *)
let test_snapshot_closes_frontier () =
  let rt, coll = make_kv () in
  let refs = Array.init 32 (fun k -> add_kv coll k k) in
  let (_ : Snapshot.manifest * int) = Snapshot.write ~path:(tmp ".smcsnap") coll in
  let ctx = coll.C.ctx in
  check Alcotest.int "no frontier left open" (Context.csn_now ctx) (Context.oldest_frontier ctx);
  let loc r =
    match Context.resolve ctx (Smc.Ref.to_packed r) with
    | Some (blk, slot) -> (blk.Block.id, slot)
    | None -> Alcotest.fail "live reference did not resolve"
  in
  let before = loc refs.(5) in
  ignore (C.remove coll refs.(5) : bool);
  for _ = 1 to 3 do
    ignore (Epoch.try_advance rt.Runtime.epoch : bool)
  done;
  let r = add_kv coll 99 99 in
  check (Alcotest.pair Alcotest.int Alcotest.int) "the removed row's slot is recycled" before
    (loc r)

(* A bare remove racing transactional stores of the same row: whichever
   wins the row's entry lock, the row ends up dead in one slot and the
   block counters match the directory. *)
let test_remove_races_store () =
  let rt, coll = make_kv () in
  let cur = Atomic.make (add_kv coll 0 0) and stop = Atomic.make false in
  let committer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let r = Atomic.get cur in
          match C.transact coll (fun tx -> C.stage_store tx r ~word:fv.Layout.word ~value:1) with
          | C.Committed _ | C.Conflict -> ()
          | exception Failure _ -> () (* the remove landed mid-apply *)
        done;
        Epoch.release_current_domain ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join committer)
    (fun () ->
      for round = 1 to 2_000 do
        for _ = 1 to round mod 64 do
          Domain.cpu_relax ()
        done;
        let r = Atomic.get cur in
        Atomic.set cur (add_kv coll round 0);
        ignore (C.remove coll r : bool)
      done);
  ignore (C.remove coll (Atomic.get cur) : bool);
  check Alcotest.int "no row survives" 0 (C.count coll);
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Smc_check.Audit.check_once rt ~contexts:[ coll.C.ctx ])

let test_view_query_integration () =
  (* A Volcano aggregate over a view-pinned source reads one commit
     boundary even when a transaction lands between plan build and
     execution — and sequential, fused and parallel engines agree. *)
  let _rt, coll = make_kv () in
  for i = 1 to 20 do
    ignore (add_kv coll i (i * 100) : Smc.Ref.t)
  done;
  let columns = [ ("k", Smc_query.Source.C_int fk); ("v", Smc_query.Source.C_int fv) ] in
  let agg src =
    Smc_query.Interp.collect
      Smc_query.Plan.(
        group_by ~keys:[]
          ~aggs:[ ("n", Count); ("total", Sum (Smc_query.Expr.Col "v")) ]
          (scan src))
  in
  C.with_view coll (fun v ->
      let src = Smc_query.Source.of_smc ~view:v coll ~columns in
      let before = agg src in
      (match C.transact coll (fun tx ->
           for i = 21 to 30 do
             stage_kv tx i (i * 100)
           done) with
      | C.Committed _ -> ()
      | C.Conflict -> Alcotest.fail "unexpected conflict");
      let after = agg src in
      check Alcotest.bool "aggregate stable across the commit" true (before = after);
      (match before with
      | [ [| Smc_query.Value.Int n; Smc_query.Value.Int total |] ] ->
        check Alcotest.int "count at frontier" 20 n;
        check Alcotest.int "sum at frontier" 21_000 total
      | _ -> Alcotest.fail "expected one aggregate row");
      let fused = Smc_query.Fuse.collect (Smc_query.Plan.scan src) in
      check Alcotest.int "fused scan reads the frontier" 20 (List.length fused);
      let par_src = Smc_query.Source.of_smc ~domains:2 ~view:v coll ~columns in
      check Alcotest.bool "parallel view scan agrees" true (agg par_src = before));
  (* Views and index access paths are mutually exclusive. *)
  let ix =
    Smc_index.Hash_index.attach ~name:"kv_by_k"
      ~key:(Smc_index.Hash_index.Int_key (Smc.Field.get_int fk))
      coll
  in
  C.with_view coll (fun v ->
      match Smc_query.Source.of_smc ~view:v ~indexes:[ ("k", ix) ] coll ~columns with
      | (_ : Smc_query.Source.t) -> Alcotest.fail "view + indexes must be rejected"
      | exception Invalid_argument msg ->
        check Alcotest.bool "mutual-exclusion message" true
          (contains_sub ~sub:"mutually exclusive" msg))

(* ------------------------------------------------------------------ *)
(* Observability *)

let test_txn_counters () =
  let rt, coll = make_kv () in
  let snap0 = Smc_obs.snapshot rt.Runtime.obs in
  let r = add_kv coll 1 10 in
  (match C.transact coll (fun tx -> stage_kv tx 2 20) with
  | C.Committed _ -> ()
  | C.Conflict -> Alcotest.fail "unexpected conflict");
  let tx = C.txn coll in
  stage_kv tx 3 30;
  C.abort tx;
  let tx1 = C.txn coll and tx2 = C.txn coll in
  C.stage_store tx1 r ~word:fv.Layout.word ~value:1;
  C.stage_store tx2 r ~word:fv.Layout.word ~value:2;
  ignore (C.commit tx1 : C.txn_result);
  (match C.commit tx2 with C.Conflict -> () | _ -> Alcotest.fail "expected conflict");
  C.with_view coll (fun _ -> ());
  let d = Smc_obs.diff (Smc_obs.snapshot rt.Runtime.obs) snap0 in
  let g = Smc_obs.get d in
  check Alcotest.int "begins" 4 (g Smc_obs.c_txn_begins);
  check Alcotest.int "commits" 2 (g Smc_obs.c_txn_commits);
  check Alcotest.int "aborts" 1 (g Smc_obs.c_txn_aborts);
  check Alcotest.int "conflicts" 1 (g Smc_obs.c_txn_conflicts);
  check Alcotest.int "views" 1 (g Smc_obs.c_txn_views);
  check Alcotest.int "view closes" 1 (g Smc_obs.c_txn_view_closes);
  check (Alcotest.list Alcotest.string) "obs balances hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.C.ctx ])

(* ------------------------------------------------------------------ *)
(* Model checking *)

let test_txn_check_short () =
  let cfg = { Txn_check.default_config with txns = 60; crash_every = 6 } in
  List.iter
    (fun seed ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "txn model check, seed %Ld" seed)
        []
        (Txn_check.run_violations ~config:cfg ~seed ()))
    [ 1L; 2L ]

let test_txn_check_quiescent () =
  let _rt, coll = make_kv () in
  let refs = Array.init 50 (fun i -> add_kv coll i i) in
  Array.iteri (fun i r -> if i mod 3 = 0 then ignore (C.remove coll r : bool)) refs;
  (match C.transact coll (fun tx -> stage_kv tx 99 99) with
  | C.Committed _ -> ()
  | C.Conflict -> Alcotest.fail "unexpected conflict");
  check (Alcotest.list Alcotest.string) "stamp invariants hold" []
    (Txn_check.check_quiescent coll)

let test_bare_store_wal_replay () =
  (* The bare store's WAL hook fires inside its critical section; recovery
     must replay the store. *)
  let _rt, coll, wal, wal_path, snap = make_logged () in
  let r = add_kv coll 1 10 in
  let _r2 = add_kv coll 2 20 in
  C.store coll r ~word:fv.Layout.word ~value:42;
  check pairs "recovered bare store" [ (1, 42); (2, 20) ]
    (dump_restored wal_path snap);
  Wal.close wal

(* ------------------------------------------------------------------ *)

let () =
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "txn"
    [
      ( "commit-abort",
        [
          qc "multi-op commit, refs in stage order" test_commit_basic;
          qc "staged store + bad word offset" test_store_in_txn;
          qc "empty transaction" test_empty_txn;
          qc "single-op transaction" test_one_op_commit;
          qc "abort leaves no trace, finished txn rejected" test_abort;
          qc "transact wrapper" test_transact_wrapper;
          qc "duplicate staged ref rejected" test_duplicate_ref_rejected;
        ] );
      ( "conflicts",
        [
          qc "store/store: first committer wins" test_conflict_store_store;
          qc "remove/store" test_conflict_remove_vs_store;
          qc "bare remove stamps too" test_conflict_against_bare_write;
          qc "txn vs bare store race" test_conflict_bare_store;
          qc "seeded conflict pairs: exactly one commits" test_conflict_pairs_property;
        ] );
      ( "crash-recovery",
        [
          qc "torn inside the body" test_torn_inside_body;
          qc "torn mid-record" test_torn_mid_record;
          qc "torn at the commit record" test_torn_at_commit_record;
          qc "crash between append and fsync" test_crash_before_fsync;
          qc "damaged record with a tail is fatal" test_damaged_record_with_tail_is_fatal;
          qc "batch, bare, batch replay in log order" test_replay_in_log_order;
          qc "Every n counts commits" test_sync_counts_commits;
          qc "bare torn tail still dropped cleanly" test_torn_tail_regression_bare;
          qc "bare store replays" test_bare_store_wal_replay;
        ] );
      ( "views",
        [
          qc "stability across commits and bare ops" test_view_stability;
          qc "compaction runs under an open view" test_compaction_under_view;
          qc "an open view does not stall reclamation" test_view_does_not_stall_reclamation;
          qc "a bare store leaves an open view unchanged" test_bare_store_under_view;
          qc "a paused walk reads its own frontier across a commit" test_walk_vs_commit;
          qc "a walk keeps its frontier across a commit and compaction"
            test_walk_vs_commit_and_compaction;
          qc "a walk never splits an applying commit" test_walk_vs_applying_commit;
          qc "a snapshot closes its frontier" test_snapshot_closes_frontier;
          qc "bare remove racing transactional stores" test_remove_races_store;
          qc "query engines read one frontier" test_view_query_integration;
        ] );
      ( "observability", [ qc "txn counters and balances" test_txn_counters ] );
      ( "model-check",
        [
          qc "Txn_check over two seeds" test_txn_check_short;
          qc "quiescent stamp sweep" test_txn_check_quiescent;
        ] );
    ]
