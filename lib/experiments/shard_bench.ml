(* Sharded-collection scaling driver, swept over shard counts: group-commit
   throughput with one WAL per shard (sync Always, so commits are bounded
   by log-sync latency — the cost sharding overlaps), then per-shard-
   parallel snapshot and restore. The sweep is also a correctness gate:
   every shard count must answer the probe queries on all four engines
   bit-identically to an unsharded collection holding the same rows, the
   restored sharding must hold exactly the live rows (per-shard WAL tails
   replayed), and every shard runtime must pass the structural audit and
   counter balances, plus the coordinator's shard/request partitions. *)

open Smc_util
open Smc_offheap
module C = Smc.Collection
module Pool = Smc_parallel.Pool
module Shard = Smc_shard.Shard
module Wal = Smc_persist.Wal
module Q = Smc_query
module V = Smc_query.Value

type point = {
  shards : int;
  stage : string;  (** ["txn commit"] | ["snapshot"] | ["restore"] *)
  rows : int;
  bytes : int;
  ms : float;
  krows_s : float;
  mb_s : float;
}

let kv_layout = Layout.create ~name:"kv" [ ("k", Layout.Int); ("v", Layout.Int) ]
let fk = Smc.Field.int kv_layout "k"
let fv = Smc.Field.int kv_layout "v"

(* Deterministic values with a sprinkle of negatives so the filter probe
   keeps a small, stable selection. *)
let value_of k = ((k * 37) land 0xffff) - 1234

let point ~shards ~stage ~rows ~bytes ms =
  {
    shards;
    stage;
    rows;
    bytes;
    ms;
    krows_s = (if ms <= 0.0 then 0.0 else float rows /. 1e3 /. (ms /. 1e3));
    mb_s = (if bytes = 0 || ms <= 0.0 then 0.0 else float bytes /. 1048576.0 /. (ms /. 1e3));
  }

let columns = [ ("k", Q.Source.C_int fk); ("v", Q.Source.C_int fv) ]

(* Probe plans with a total order on the output, so parity is plain list
   equality. [g = k - (k/16)*16] stands in for [k mod 16]. *)
let plans src =
  let k = Q.Expr.Col "k" and v = Q.Expr.Col "v" in
  let g = Q.Expr.Sub (k, Q.Expr.Mul (Q.Expr.Div (k, Q.Expr.int 16), Q.Expr.int 16)) in
  [
    ( "groupby",
      Q.Plan.order_by
        [ (Q.Expr.Col "g", Q.Plan.Asc) ]
        (Q.Plan.group_by
           ~keys:[ ("g", g) ]
           ~aggs:[ ("n", Q.Plan.Count); ("sv", Q.Plan.Sum v) ]
           (Q.Plan.scan src)) );
    ( "filter",
      Q.Plan.order_by
        [ (k, Q.Plan.Asc); (v, Q.Plan.Asc) ]
        (Q.Plan.select
           [ ("k", k); ("v", v) ]
           (Q.Plan.where (Q.Expr.Lt (v, Q.Expr.int 0)) (Q.Plan.scan src))) );
  ]

let engines =
  [
    ("Volcano", fun plan -> Q.Interp.collect plan);
    ("Fuse", fun plan -> Q.Fuse.collect plan);
    ("Vector", fun plan -> Q.Vector.collect plan);
    ( "Compiled",
      fun plan ->
        match Q.Codegen.prepare plan with
        | runner, Q.Codegen.Native _ ->
          let out = ref [] in
          runner (fun row -> out := row :: !out);
          List.rev !out
        | _, Q.Codegen.Fallback _ ->
          (* The fallback executes through Fuse; parity still holds or the
             gate below reports it. *)
          Q.Fuse.collect plan );
  ]

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 V.equal ra rb)
       a b

let dump_sorted sh =
  Shard.fold sh ~init:[]
    ~f:(fun _ coll ->
      C.fold coll ~init:[] ~f:(fun acc blk slot ->
          (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot) :: acc))
    ~combine:( @ )
  |> List.sort compare

let add_kv_init k v blk slot =
  Smc.Field.set_int fk blk slot k;
  Smc.Field.set_int fv blk slot v

let run ?(shard_counts = [ 1; 2; 4; 8 ]) ?(txns = 240) ?(ops_per_txn = 8) ?dir () =
  let keep_dir, base_dir =
    match dir with
    | Some d -> (true, d)
    | None ->
      let d = Filename.temp_file "smc_shard_bench" "" in
      Sys.remove d;
      Unix.mkdir d 0o755;
      (false, d)
  in
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let points = ref [] in
  List.iter
    (fun n ->
      let dir = Filename.concat base_dir (string_of_int n) in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let sh = Shard.create ~shards:n ~name:"kv" ~layout:kv_layout ~slots_per_block:256 () in
      let (_ : Wal.t array) = Shard.attach_wals ~sync:Wal.Always sh ~dir in
      let pool = Pool.create ~size:(max 0 (n - 1)) () in
      (* Partition the key space by owning shard so every writer commits
         only to its own shard: the sweep measures per-shard group commit,
         not cross-shard lock contention. *)
      let txns_per_shard = max 1 (txns / n) in
      let keys_needed = txns_per_shard * ops_per_txn in
      let buckets = Array.make n [||] in
      let acc = Array.make n [] and filled = ref 0 and next = ref 0 in
      while !filled < n do
        let k = !next in
        incr next;
        let s = Shard.shard_of sh ~key:k in
        if List.length acc.(s) < keys_needed then begin
          acc.(s) <- k :: acc.(s);
          if List.length acc.(s) = keys_needed then begin
            buckets.(s) <- Array.of_list (List.rev acc.(s));
            incr filled
          end
        end
      done;
      (* ---- Stage 1: transaction commit throughput ---- *)
      let (), load_ms =
        Timing.time_it (fun () ->
            Pool.run pool ~workers:n (fun w ->
                let keys = buckets.(w) in
                for t = 0 to txns_per_shard - 1 do
                  match
                    Shard.transact sh (fun tx ->
                        for o = 0 to ops_per_txn - 1 do
                          let k = keys.((t * ops_per_txn) + o) in
                          Shard.stage_add tx ~key:k ~init:(add_kv_init k (value_of k))
                        done)
                  with
                  | Shard.Committed _ -> ()
                  | Shard.Conflict -> failwith "shard_bench: unexpected load conflict"
                done))
      in
      let loaded = n * keys_needed in
      points := point ~shards:n ~stage:"txn commit" ~rows:loaded ~bytes:0 load_ms :: !points;
      (* A few cross-shard batches (not timed) so the sweep exercises the
         multi-shard commit, plus one forced conflict for the outcome
         balance. *)
      (match
         Shard.transact sh (fun tx ->
             for k = 1_000_000 to 1_000_000 + (2 * n) - 1 do
               Shard.stage_add tx ~key:k ~init:(add_kv_init k (value_of k))
             done)
       with
      | Shard.Committed _ -> ()
      | Shard.Conflict -> note "shards=%d: cross-shard put conflicted unexpectedly" n);
      (match
         Shard.transact sh (fun tx ->
             Shard.stage_add tx ~key:2_000_000 ~init:(add_kv_init 2_000_000 1))
       with
      | Shard.Committed [ r ] ->
        (* Force a first-committer-wins loss: a chaos hook slips a bare
           store onto the same row as the commit starts validating (after
           the transaction opened, before validation). *)
        let fired = ref false in
        let outcome =
          Smc_check.Chaos.with_txn_hook
            (Shard.runtime sh (Shard.sref_shard r))
            ~hook:(fun phase ->
              if phase = Runtime.Txn_staged && not !fired then begin
                fired := true;
                Shard.store sh r ~word:fv.Layout.word ~value:3
              end)
            (fun () ->
              Shard.transact sh (fun tx ->
                  Shard.stage_store tx r ~word:fv.Layout.word ~value:2))
        in
        (match outcome with
        | Shard.Conflict -> ()
        | Shard.Committed _ -> note "shards=%d: stale transaction committed over a bare store" n)
      | _ -> note "shards=%d: conflict-probe setup failed" n);
      (* ---- Parity gate: four engines vs an unsharded reference ---- *)
      let live = dump_sorted sh in
      let ref_rt = Runtime.create () in
      let ref_coll =
        C.create ref_rt ~name:"kv_ref" ~layout:kv_layout ~slots_per_block:256 ()
      in
      List.iter (fun (k, v) -> ignore (C.add ref_coll ~init:(add_kv_init k v) : Smc.Ref.t)) live;
      let src_sh = Shard.source sh ~columns in
      let src_ref = Q.Source.of_smc ref_coll ~columns in
      List.iter
        (fun ((pname, plan_sh), (_, plan_ref)) ->
          let reference = Q.Interp.collect plan_ref in
          List.iter
            (fun (ename, run_engine) ->
              if not (rows_equal reference (run_engine plan_sh)) then
                note "shards=%d: %s/%s differs from the unsharded reference" n pname ename)
            engines)
        (List.combine (plans src_sh) (plans src_ref));
      (* ---- Stage 2: per-shard-parallel snapshot ---- *)
      let manifests, snap_ms = Timing.time_it (fun () -> Shard.snapshot ~pool sh ~dir) in
      let snap_bytes = Array.fold_left (fun a (_, b) -> a + b) 0 manifests in
      let live_rows = Shard.count sh in
      points :=
        point ~shards:n ~stage:"snapshot" ~rows:live_rows ~bytes:snap_bytes snap_ms :: !points;
      (* Post-cut work lives only in the per-shard WAL tails. *)
      for k = 3_000_000 to 3_000_000 + 31 do
        ignore (Shard.add sh ~key:k ~init:(add_kv_init k (value_of k)) : Shard.sref)
      done;
      Array.iter Wal.flush (Shard.wals sh);
      let live = dump_sorted sh in
      (* ---- Stage 3: per-shard-parallel restore (with WAL replay) ---- *)
      let r, restore_ms =
        Timing.time_it (fun () -> Shard.restore ~pool ~dir ~name:"kv" ~shards:n ())
      in
      points :=
        point ~shards:n ~stage:"restore" ~rows:(Shard.count r.Shard.r_shard)
          ~bytes:r.Shard.r_bytes restore_ms
        :: !points;
      if r.Shard.r_replayed < 32 then
        note "shards=%d: WAL tails replayed %d ops, expected at least 32" n
          r.Shard.r_replayed;
      if r.Shard.r_torn_dropped <> 0 then
        note "shards=%d: unexpected torn-tail drop on cleanly flushed logs" n;
      if dump_sorted r.Shard.r_shard <> live then
        note "shards=%d: restored rows differ from the live sharding" n;
      (* ---- Audits and counter balances ---- *)
      for i = 0 to n - 1 do
        let check_instance label rt (coll : C.t) =
          let contexts = [ coll.C.ctx ] in
          List.iter
            (fun v -> note "shards=%d %s[%d]: %s" n label i v)
            (Smc_check.Audit.check_once rt ~contexts
            @ Smc_check.Obs_check.check rt ~contexts)
        in
        check_instance "shard" (Shard.runtime sh i) (Shard.collection sh i);
        check_instance "restored" (Shard.runtime r.Shard.r_shard i)
          (Shard.collection r.Shard.r_shard i)
      done;
      List.iter
        (fun v -> note "shards=%d coordinator: %s" n v)
        (Smc_check.Obs_check.check_shard (Shard.obs sh));
      Array.iter Wal.close (Shard.wals sh);
      Pool.shutdown pool;
      if not keep_dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end;
      Gc.compact ())
    shard_counts;
  if not keep_dir then (try Unix.rmdir base_dir with Unix.Unix_error _ -> ());
  (List.rev !points, List.rev !violations)

(* Throughput of each stage relative to its 1-shard baseline, when the
   sweep included one. *)
let speedup points p =
  let base =
    List.find_opt (fun q -> q.shards = 1 && String.equal q.stage p.stage) points
  in
  match base with
  | Some b when b.ms > 0.0 && p.ms > 0.0 && p.shards <> 1 ->
    (* same work at every shard count, so wall-time ratio is the
       throughput ratio *)
    Some (b.ms /. p.ms)
  | _ -> None

let table points =
  let t =
    Table.create ~title:"Sharded scaling (per-shard WAL group commit, snapshot, restore)"
      ~columns:[ "shards"; "stage"; "rows"; "MB"; "ms"; "krows/s"; "MB/s"; "vs 1 shard" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.shards;
          p.stage;
          string_of_int p.rows;
          (if p.bytes = 0 then "-" else Printf.sprintf "%.2f" (float p.bytes /. 1048576.0));
          Printf.sprintf "%.1f" p.ms;
          Printf.sprintf "%.1f" p.krows_s;
          (if p.bytes = 0 then "-" else Printf.sprintf "%.1f" p.mb_s);
          (match speedup points p with Some x -> Printf.sprintf "%.2fx" x | None -> "-");
        ])
    points;
  t
