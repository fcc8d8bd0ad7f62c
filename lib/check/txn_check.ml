(* Model-checking atomic transactions and snapshot isolation.

   The checker drives seeded multi-op transactions (adds / removes /
   in-place stores over a two-int-field layout) against a plain OCaml
   model that is updated only when a commit reports success, and asserts
   three families of properties:

   - Atomicity under crashes: with a WAL attached at [Always] sync, the
     chaos transaction hook ({!Chaos.with_txn_hook}) copies the log file
     at each commit-phase boundary — staged / validated / applied /
     logged — producing the exact byte image a crash at that boundary
     would leave behind. Each image is recovered with
     {!Persist_check.restore_verified} and its row population diffed
     against the model: every image must equal the model either just
     before or just after the transaction (all-or-nothing), and with
     [Always] sync the boundary determines which one exactly (the batch
     is appended and fsynced between [Txn_applied] and [Txn_logged]).

   - Isolation: a snapshot view opened before a commit must read the
     pre-commit model, and must keep reading it — byte for byte — after
     the commit lands. Forced write-write conflict pairs (two
     transactions staging a store to the same row from the same begin
     frontier) must resolve first-committer-wins: exactly one commits,
     and the loser's write is never observable in the rows, the model
     diff, the index, or any crash image.

   - Structural sanity: the runtime audit, the Obs counter balances, the
     index sweep, and the CSN-stamp invariants of {!check_quiescent} all
     hold at the end of the run, and a full recovery of the whole log
     reproduces the final model exactly.

   Like {!Model}, the checker records violations rather than raising, so
   a harness can aggregate across seeds and configurations. *)

open Smc_offheap
module Wal = Smc_persist.Wal
module Snapshot = Smc_persist.Snapshot

type config = {
  txns : int;  (** transactions to drive *)
  max_ops : int;  (** max staged ops per transaction *)
  slots_per_block : int;
  crash_every : int;  (** capture + recover WAL crash images every n txns *)
  view_every : int;  (** hold a snapshot view across every nth commit *)
  conflict_every : int;  (** force a write-write conflict pair every nth txn *)
  abort_every : int;  (** stage-then-abort every nth txn *)
  compact_every : int;  (** run a compaction pass every nth txn *)
  bare_every : int;  (** interleave a bare (non-transactional) op every nth txn *)
}

let default_config =
  {
    txns = 200;
    max_ops = 6;
    slots_per_block = 64;
    crash_every = 8;
    view_every = 5;
    conflict_every = 9;
    abort_every = 7;
    compact_every = 25;
    bare_every = 4;
  }

type stats = {
  mutable commits : int;
  mutable conflicts : int;
  mutable aborts : int;
  mutable crash_images : int;
  mutable crash_recoveries : int;
  mutable views_checked : int;
  mutable compactions : int;
  mutable bare_ops : int;
}

let layout =
  Layout.create ~name:"txn_obj" [ ("key", Layout.Int); ("payload", Layout.Int) ]

let f_key = Smc.Field.int layout "key"
let f_payload = Smc.Field.int layout "payload"

type t = {
  rt : Runtime.t;
  coll : Smc.Collection.t;
  index : Smc_index.Hash_index.t;
  wal : Wal.t;
  wal_path : string;
  snap_path : string;
  audit : Audit.t;
  prng : Smc_util.Prng.t;
  cfg : config;
  live : (int, int * Smc.Ref.t) Hashtbl.t;  (* key -> (payload, ref) *)
  mutable next_key : int;
  stats : stats;
  mutable violations : string list;
  mutable n_violations : int;
  mutable finished : bool;
}

let max_recorded_violations = 200

let viol t fmt =
  Printf.ksprintf
    (fun s ->
      t.n_violations <- t.n_violations + 1;
      if t.n_violations <= max_recorded_violations then t.violations <- s :: t.violations)
    fmt

let tmp_file ext =
  let f = Filename.temp_file "smc_txn_check" ext in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

let create ?(config = default_config) ?seed () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"txn_check" ~layout
      ~slots_per_block:config.slots_per_block ()
  in
  let wal_path = tmp_file ".smcwal" in
  let snap_path = tmp_file ".smcsnap" in
  let wal = Wal.create ~sync:Wal.Always ~path:wal_path ~name:"txn_check" () in
  Wal.attach wal coll;
  (* Empty base image cut at LSN 0: every crash image replays the whole
     log over it, so recovery state is a pure function of the log bytes. *)
  ignore (Snapshot.write ~wal ~indexes:[ ("ix_key", "key") ] ~path:snap_path coll
           : Snapshot.manifest * int);
  let index =
    Smc_index.Hash_index.attach ~name:"ix_key"
      ~key:(Smc_index.Hash_index.Int_key (Smc.Field.get_int f_key))
      coll
  in
  {
    rt;
    coll;
    index;
    wal;
    wal_path;
    snap_path;
    audit = Audit.create rt;
    prng = Smc_util.Prng.create ?seed ();
    cfg = config;
    live = Hashtbl.create 1024;
    next_key = 1;
    stats =
      {
        commits = 0;
        conflicts = 0;
        aborts = 0;
        crash_images = 0;
        crash_recoveries = 0;
        views_checked = 0;
        compactions = 0;
        bare_ops = 0;
      };
    violations = [];
    n_violations = 0;
    finished = false;
  }

(* ---- Model and collection dumps ------------------------------------- *)

let model_dump t =
  Hashtbl.fold (fun k (p, _) acc -> (k, p) :: acc) t.live []
  |> List.sort compare

let coll_dump coll =
  Smc.Collection.fold coll ~init:[] ~f:(fun acc blk slot ->
      (Smc.Field.get_int f_key blk slot, Smc.Field.get_int f_payload blk slot) :: acc)
  |> List.sort compare

let view_dump v =
  Smc.Collection.view_fold v ~init:[] ~f:(fun acc blk slot ->
      (Smc.Field.get_int f_key blk slot, Smc.Field.get_int f_payload blk slot) :: acc)
  |> List.sort compare

let dump_to_string rows =
  String.concat ";"
    (List.map (fun (k, p) -> Printf.sprintf "%d:%d" k p) rows)

let diff_summary ~got ~want =
  let missing = List.filter (fun r -> not (List.mem r got)) want in
  let extra = List.filter (fun r -> not (List.mem r want)) got in
  Printf.sprintf "missing=[%s] extra=[%s]" (dump_to_string missing) (dump_to_string extra)

(* ---- Staged-effect bookkeeping --------------------------------------- *)

type effect_ =
  | E_add of int * int  (* key, payload — ref learned from the commit *)
  | E_remove of int  (* key *)
  | E_store of int * int  (* key, new payload *)

let apply_effects_to_assoc rows effects =
  List.fold_left
    (fun rows e ->
      match e with
      | E_add (k, p) -> (k, p) :: rows
      | E_remove k -> List.filter (fun (k', _) -> k' <> k) rows
      | E_store (k, p) -> List.map (fun (k', p') -> if k' = k then (k', p) else (k', p')) rows)
    rows effects
  |> List.sort compare

let apply_effects_to_model t effects refs =
  (* [refs] are the commit's returned add references, in stage order. *)
  let refs = ref refs in
  List.iter
    (fun e ->
      match e with
      | E_add (k, p) -> (
        match !refs with
        | r :: rest ->
          refs := rest;
          Hashtbl.replace t.live k (p, r)
        | [] -> viol t "commit returned fewer add references than staged adds")
      | E_remove k -> Hashtbl.remove t.live k
      | E_store (k, p) -> (
        match Hashtbl.find_opt t.live k with
        | Some (_, r) -> Hashtbl.replace t.live k (p, r)
        | None -> viol t "store effect for key %d not in model" k))
    effects;
  if !refs <> [] then viol t "commit returned more add references than staged adds"

(* ---- Crash-image capture and recovery -------------------------------- *)

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = Bytes.create 65536 in
          let rec loop () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              output oc buf 0 n;
              loop ()
            end
          in
          loop ()))

let phase_name = function
  | Runtime.Txn_staged -> "staged"
  | Runtime.Txn_validated -> "validated"
  | Runtime.Txn_applied -> "applied"
  | Runtime.Txn_logged -> "logged"

(* Recover one crash image and diff it against the commit-boundary models.
   [pre] is the model just before the transaction (bare ops included —
   they are appended and synced individually, before the batch), [post]
   just after. With [Always] sync the expected boundary is exact: the
   batch hits the disk between [Txn_applied] and [Txn_logged]. *)
let verify_crash_image t ~txn_no ~phase ~img ~pre ~post =
  t.stats.crash_recoveries <- t.stats.crash_recoveries + 1;
  match Persist_check.restore_verified ~wal:img ~path:t.snap_path () with
  | exception Smc_persist.Pio.Corrupt msg ->
    viol t "txn %d: crash image at %s boundary fails recovery: %s" txn_no (phase_name phase)
      msg
  | restored, violations ->
    List.iter
      (fun v ->
        viol t "txn %d: crash image at %s boundary: restored-state violation: %s" txn_no
          (phase_name phase) v)
      violations;
    let got = coll_dump restored.Snapshot.r_coll in
    let expect = match phase with Runtime.Txn_logged -> post | _ -> pre in
    if got <> expect then
      viol t "txn %d: crash at %s boundary recovered to neither-boundary state (%s)" txn_no
        (phase_name phase)
        (diff_summary ~got ~want:expect);
    (* The atomicity property proper: no image may show a partial batch,
       whatever the sync policy. Redundant under [Always] given the exact
       check above, but kept separate so the failure reads correctly. *)
    if got <> pre && got <> post then
      viol t "txn %d: crash at %s boundary recovered a PARTIAL transaction (%s vs pre)" txn_no
        (phase_name phase)
        (diff_summary ~got ~want:pre)

(* ---- Transaction driving --------------------------------------------- *)

let fresh_key t =
  let k = t.next_key in
  t.next_key <- k + 1;
  k

let random_live_key t ~excluded =
  let n = Hashtbl.length t.live in
  if n = 0 then None
  else begin
    let keys =
      Hashtbl.fold
        (fun k _ acc -> if List.mem k excluded then acc else k :: acc)
        t.live []
    in
    match keys with
    | [] -> None
    | _ -> Some (List.nth keys (Smc_util.Prng.int t.prng (List.length keys)))
  end

(* Stage a random batch. Returns the staged effects in stage order. Refs
   already touched by this transaction are excluded from later picks —
   staging the same reference twice is an [Invalid_argument] at commit by
   contract, which has its own dedicated test. *)
let stage_random_batch t tx ~n_ops =
  let effects = ref [] and touched = ref [] in
  for _ = 1 to n_ops do
    let d = Smc_util.Prng.int t.prng 100 in
    if d < 50 || Hashtbl.length t.live = 0 then begin
      let k = fresh_key t in
      let p = Smc_util.Prng.int t.prng 1_000_000 in
      Smc.Collection.stage_add tx ~init:(fun blk slot ->
          Smc.Field.set_int f_key blk slot k;
          Smc.Field.set_int f_payload blk slot p);
      effects := E_add (k, p) :: !effects
    end
    else
      match random_live_key t ~excluded:!touched with
      | None -> ()
      | Some k ->
        let _, r = Hashtbl.find t.live k in
        touched := k :: !touched;
        if d < 75 then begin
          Smc.Collection.stage_remove tx r;
          effects := E_remove k :: !effects
        end
        else begin
          let p = Smc_util.Prng.int t.prng 1_000_000 in
          Smc.Collection.stage_store tx r ~word:f_payload.Layout.word ~value:p;
          effects := E_store (k, p) :: !effects
        end
  done;
  List.rev !effects

(* One scripted write-write conflict: two transactions begin at the same
   frontier and stage a store to the same row; the first commit must win,
   the second must report [Conflict], and the loser's payload must never
   become visible anywhere. *)
let drive_conflict_pair t ~txn_no =
  match random_live_key t ~excluded:[] with
  | None -> ()
  | Some k ->
    let p0, r = Hashtbl.find t.live k in
    let p1 = p0 + 1_000_001 and p2 = p0 + 2_000_002 in
    let tx1 = Smc.Collection.txn t.coll in
    let tx2 = Smc.Collection.txn t.coll in
    Smc.Collection.stage_store tx1 r ~word:f_payload.Layout.word ~value:p1;
    Smc.Collection.stage_store tx2 r ~word:f_payload.Layout.word ~value:p2;
    (match Smc.Collection.commit tx1 with
    | Smc.Collection.Committed [] ->
      t.stats.commits <- t.stats.commits + 1;
      Hashtbl.replace t.live k (p1, r)
    | Smc.Collection.Committed _ ->
      viol t "txn %d: conflict-pair winner returned add references for a store-only batch"
        txn_no
    | Smc.Collection.Conflict ->
      viol t "txn %d: first committer of a conflict pair reported Conflict" txn_no);
    (match Smc.Collection.commit tx2 with
    | Smc.Collection.Conflict -> t.stats.conflicts <- t.stats.conflicts + 1
    | Smc.Collection.Committed _ ->
      viol t "txn %d: second committer of a write-write conflict pair committed" txn_no);
    (* Loser invisibility: the row reads the winner's payload, and the
       index still routes the key to exactly that row. *)
    (match Smc.Collection.deref_opt t.coll r with
    | Some (blk, slot) ->
      let p = Smc.Field.get_int f_payload blk slot in
      if p = p2 then viol t "txn %d: conflict loser's payload is visible in the row" txn_no
      else if p <> p1 then
        viol t "txn %d: conflict winner's payload lost (row reads %d, want %d)" txn_no p p1
    | None -> viol t "txn %d: conflict-pair row vanished" txn_no);
    (match Smc_index.Hash_index.probe_refs t.index (Smc_index.Hash_index.K_int k) with
    | [ r' ] when Smc.Ref.equal r' r -> ()
    | refs ->
      viol t "txn %d: index probe after conflict pair returned %d refs (want the winner's 1)"
        txn_no (List.length refs))

(* A bare (non-transactional) op between transactions: a single-op commit
   unit with its own CSN, logged as a one-op WAL record — recovery has to
   interleave it correctly with the transactions' batch records. *)
let drive_bare_op t =
  t.stats.bare_ops <- t.stats.bare_ops + 1;
  if Hashtbl.length t.live > 0 && Smc_util.Prng.bool t.prng then
    match random_live_key t ~excluded:[] with
    | None -> ()
    | Some k ->
      let _, r = Hashtbl.find t.live k in
      if not (Smc.Collection.remove t.coll r) then viol t "bare remove of live key %d failed" k;
      Hashtbl.remove t.live k
  else begin
    let k = fresh_key t in
    let p = Smc_util.Prng.int t.prng 1_000_000 in
    let r =
      Smc.Collection.add t.coll ~init:(fun blk slot ->
          Smc.Field.set_int f_key blk slot k;
          Smc.Field.set_int f_payload blk slot p)
    in
    Hashtbl.replace t.live k (p, r)
  end

let drive_txn t ~txn_no =
  let cfg = t.cfg in
  if cfg.bare_every > 0 && txn_no mod cfg.bare_every = 0 then drive_bare_op t;
  if cfg.conflict_every > 0 && txn_no mod cfg.conflict_every = 0 then
    drive_conflict_pair t ~txn_no
  else begin
    let pre = model_dump t in
    (* Occasional empty transaction: commits, logs nothing, changes
       nothing. *)
    let n_ops =
      if Smc_util.Prng.int t.prng 20 = 0 then 0 else 1 + Smc_util.Prng.int t.prng cfg.max_ops
    in
    let tx = Smc.Collection.txn t.coll in
    let effects = stage_random_batch t tx ~n_ops in
    if cfg.abort_every > 0 && txn_no mod cfg.abort_every = 0 then begin
      Smc.Collection.abort tx;
      t.stats.aborts <- t.stats.aborts + 1;
      let got = coll_dump t.coll in
      if got <> pre then
        viol t "txn %d: abort changed visible state (%s)" txn_no (diff_summary ~got ~want:pre)
    end
    else begin
      let post = apply_effects_to_assoc pre effects in
      let probe_crash = cfg.crash_every > 0 && txn_no mod cfg.crash_every = 0 in
      let images = ref [] in
      let view =
        if cfg.view_every > 0 && txn_no mod cfg.view_every = 0 then begin
          let v = Smc.Collection.snapshot_view t.coll in
          let seen = view_dump v in
          if seen <> pre then
            viol t "txn %d: view opened before commit reads non-model state (%s)" txn_no
              (diff_summary ~got:seen ~want:pre);
          Some (v, seen)
        end
        else None
      in
      let result =
        if probe_crash then
          Chaos.with_txn_hook t.rt
            ~hook:(fun phase ->
              let img = tmp_file ".smcwal" in
              copy_file t.wal_path img;
              t.stats.crash_images <- t.stats.crash_images + 1;
              images := (phase, img) :: !images)
            (fun () -> Smc.Collection.commit tx)
        else Smc.Collection.commit tx
      in
      (match result with
      | Smc.Collection.Committed refs ->
        t.stats.commits <- t.stats.commits + 1;
        apply_effects_to_model t effects refs;
        let got = coll_dump t.coll in
        let want = model_dump t in
        if got <> want then
          viol t "txn %d: committed state diverges from model (%s)" txn_no
            (diff_summary ~got ~want);
        if want <> post then
          viol t "txn %d: model after commit diverges from predicted effects (%s)" txn_no
            (diff_summary ~got:want ~want:post)
      | Smc.Collection.Conflict ->
        (* Single mutator domain: nothing can invalidate the batch. *)
        viol t "txn %d: spurious Conflict with no concurrent writer" txn_no);
      (match view with
      | None -> ()
      | Some (v, seen) ->
        t.stats.views_checked <- t.stats.views_checked + 1;
        let after = view_dump v in
        if after <> seen then
          viol t "txn %d: snapshot view drifted across a commit (%s)" txn_no
            (diff_summary ~got:after ~want:seen);
        Smc.Collection.close_view v);
      List.iter
        (fun (phase, img) ->
          verify_crash_image t ~txn_no ~phase ~img ~pre ~post;
          (try Sys.remove img with Sys_error _ -> ()))
        (List.rev !images)
    end
  end;
  if cfg.compact_every > 0 && txn_no mod cfg.compact_every = 0 then begin
    (* Let grace periods lapse so compaction has limbo slots to take. *)
    for _ = 1 to 4 do
      ignore (Epoch.try_advance t.rt.Runtime.epoch : bool)
    done;
    let report = Smc.Collection.compact t.coll () in
    if not report.Compaction.aborted then t.stats.compactions <- t.stats.compactions + 1
  end

(* ---- Quiescent CSN-stamp invariants ----------------------------------- *)

(* Usable on any collection at a quiescent point (also from the stress
   harness): every valid slot's stamps are internally ordered and behind
   the frontier, and a view opened now is indistinguishable from the
   current-state enumeration. *)
let check_quiescent coll =
  let out = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let ctx = coll.Smc.Collection.ctx in
  let frontier = Context.csn_now ctx in
  let positions = Hashtbl.create 1024 in
  let n_valid = ref 0 in
  Smc.Collection.iter coll ~f:(fun blk slot ->
      incr n_valid;
      Hashtbl.replace positions (blk.Block.id, slot) ();
      let born = Bigarray.Array1.unsafe_get blk.Block.csn_born slot in
      let write = Bigarray.Array1.unsafe_get blk.Block.csn_write slot in
      if born < 0 || write < 0 then
        bad "slot (%d,%d): negative CSN stamp (born=%d write=%d)" blk.Block.id slot born write;
      if born > write then
        bad "slot (%d,%d): born CSN %d after last-write CSN %d" blk.Block.id slot born write;
      if write > frontier then
        bad "slot (%d,%d): write CSN %d ahead of the frontier %d" blk.Block.id slot write
          frontier);
  Smc.Collection.with_view coll (fun v ->
      if Smc.Collection.view_csn v < frontier then
        bad "view frontier %d behind quiescent CSN %d" (Smc.Collection.view_csn v) frontier;
      let n_view = ref 0 in
      Smc.Collection.view_iter v ~f:(fun blk slot ->
          incr n_view;
          if not (Hashtbl.mem positions (blk.Block.id, slot)) then
            bad "view at quiescent frontier sees slot (%d,%d) invisible to the current scan"
              blk.Block.id slot);
      if !n_view <> !n_valid then
        bad "view at quiescent frontier sees %d rows, current scan sees %d" !n_view !n_valid);
  List.rev !out

(* ---- Driver ----------------------------------------------------------- *)

let run t =
  if t.finished then invalid_arg "Txn_check.run: checker already finished";
  for txn_no = 1 to t.cfg.txns do
    drive_txn t ~txn_no
  done

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter (fun v -> viol t "final audit: %s" v)
      (Audit.check_runtime t.audit ~contexts:[ t.coll.Smc.Collection.ctx ]);
    List.iter (fun v -> viol t "final obs balance: %s" v)
      (Obs_check.check t.rt ~contexts:[ t.coll.Smc.Collection.ctx ]);
    List.iter (fun v -> viol t "final index sweep: %s" v)
      (Smc_index.Hash_index.audit t.index);
    List.iter (fun v -> viol t "final stamp sweep: %s" v) (check_quiescent t.coll);
    (* Whole-log recovery: the surviving state is exactly the model. *)
    Wal.flush t.wal;
    (match Persist_check.restore_verified ~wal:t.wal_path ~path:t.snap_path () with
    | exception Smc_persist.Pio.Corrupt msg -> viol t "final recovery: corrupt: %s" msg
    | restored, violations ->
      List.iter (fun v -> viol t "final recovery: %s" v) violations;
      let got = coll_dump restored.Snapshot.r_coll in
      let want = model_dump t in
      if got <> want then
        viol t "final recovery diverges from model (%s)" (diff_summary ~got ~want));
    Wal.close t.wal
  end;
  List.rev t.violations

let violations t = List.rev t.violations

let stats t =
  Printf.sprintf
    "commits=%d conflicts=%d aborts=%d bare=%d views=%d crash_images=%d recoveries=%d \
     compactions=%d live=%d"
    t.stats.commits t.stats.conflicts t.stats.aborts t.stats.bare_ops t.stats.views_checked
    t.stats.crash_images t.stats.crash_recoveries t.stats.compactions
    (Hashtbl.length t.live)

let run_violations ?config ?seed () =
  let t = create ?config ?seed () in
  run t;
  finish t
