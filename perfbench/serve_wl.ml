(* The serve workload: a sharded key/value collection behind [Server.start]
   in a process of its own, with per-shard WALs, and closed-loop clients,
   one connection each, sending a seeded request mix.

   Every reply is checked against the sending client's own model of the
   rows it wrote: a [Get] returns what that client last wrote, a removed
   reference reads [Err], an [Add]/[Txn_put] returns routed references.
   The traced run replays the same seeded stream in-process through the
   wire codec and public [Shard] calls against a shard of the same shape,
   so the layers below the socket can be timed one by one. *)

module Shard = Smc_shard.Shard
module Server = Smc_shard.Server
module Client = Smc_shard.Client
module Wire = Smc_shard.Wire
module Wal = Smc_persist.Wal
module Pool = Smc_parallel.Pool
module C = Smc.Collection
module O = Smc_obs
module Prng = Smc_util.Prng

let shards = 4
let sync = Wal.Every 256
let clients = 2

(* ------------------------------------------------------------------ *)
(* The server process *)

let stop_requested = Atomic.make false

let merged_shard_counters sh =
  let acc = ref (O.snapshot (Shard.obs sh)) in
  for i = 0 to Shard.n_shards sh - 1 do
    acc := O.merge !acc (O.snapshot (Shard.runtime sh i).Smc_offheap.Runtime.obs)
  done;
  !acc

let wal_bytes sh =
  Array.fold_left
    (fun acc w -> acc + try (Unix.stat (Wal.path w)).Unix.st_size with Unix.Unix_error _ -> 0)
    0 (Shard.wals sh)

let counter_names = O.[ c_shard_txn_multi; c_srv_requests; c_srv_shed; c_persist_wal_syncs ]

(* Serve until SIGTERM; then stop, write the counters to [stats], and exit
   non-zero when the shard counter balances do not hold. *)
let server_main ~sock ~wal_dir ~stats =
  let sh = Server.kv_shard ~shards () in
  ignore (Shard.attach_wals ~sync sh ~dir:wal_dir : Wal.t array);
  (* A pool sized to the client count: [Server.start] without [~pool] gets
     [Pool.create ()], whose workers each hold one connection until it
     closes, so a second client waits for the first on a 2-core host. *)
  let pool = Pool.create ~size:clients () in
  let srv = Server.start ~pool ~path:sock sh in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true));
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.05
  done;
  Server.stop srv;
  Pool.shutdown pool;
  Array.iter Wal.flush (Shard.wals sh);
  let snap = merged_shard_counters sh in
  let oc = open_out stats in
  List.iter (fun c -> Printf.fprintf oc "%s %d\n" (O.name c) (O.get snap c)) counter_names;
  Printf.fprintf oc "memory_words %d\nrows %d\n" (Shard.memory_words sh) (Shard.count sh);
  close_out oc;
  Array.iter Wal.close (Shard.wals sh);
  match Smc_check.Obs_check.check_shard (Shard.obs sh) with
  | [] -> exit 0
  | violations ->
    prerr_endline (Smc_check.Audit.report violations);
    exit 3

let read_stats path =
  let tbl = Hashtbl.create 16 in
  (try
     let ic = open_in path in
     (try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ k; v ] -> Hashtbl.replace tbl k (int_of_string v)
          | _ -> ()
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)

type server = { pid : int; dir : string; sock : string; stats : string }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let live_servers : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

(* The CPUs this process may run on, from Cpus_allowed_list in
   /proc/self/status ("0-3,6"), and the list as written; no CPUs when it
   cannot be read. *)
let allowed_cpus () =
  let expand r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] ->
      let a = int_of_string a in
      List.init (int_of_string b - a + 1) (fun k -> a + k)
    | _ -> []
  in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> ([], "")
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> ([], "")
      | line -> (
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] -> (
          let v = String.trim v in
          match List.concat_map expand (String.split_on_char ',' v) with
          | cpus -> (cpus, v)
          | exception Failure _ -> ([], ""))
        | _ -> find ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

type pins = { client_cpu : int; server_cpu : int; all_cpus : string }

(* With two or more allowed CPUs and taskset(1) at hand, the server process
   runs on the second allowed CPU and this process's client domains on the
   first. Unpinned, which of the four busy threads shared a core changed
   from one process to the next and moved throughput by up to ±25% on a
   2-core host. *)
let pinning =
  lazy
    (match allowed_cpus () with
    | client_cpu :: server_cpu :: _, all_cpus
      when Sys.command (Printf.sprintf "taskset -p %d > /dev/null 2>&1" (Unix.getpid ())) = 0 ->
      Some { client_cpu; server_cpu; all_cpus }
    | _ -> None)

let pin_self cpus =
  let cmd = Printf.sprintf "taskset -a -p -c %s %d > /dev/null" cpus (Unix.getpid ()) in
  ignore (Sys.command cmd : int)

let spawn_server ~tag =
  let dir = Printf.sprintf ".bench_run/%s-%d" tag (Unix.getpid ()) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" and stats = Filename.concat dir "stats" in
  let log_path = Filename.concat dir "server.log" in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let server =
    [|
      Sys.executable_name; "server"; "--sock"; sock; "--wal-dir"; dir; "--stats"; stats;
    |]
  in
  let argv =
    match Lazy.force pinning with
    | Some p -> Array.append [| "taskset"; "-c"; string_of_int p.server_cpu |] server
    | None -> server
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin log Unix.stderr in
  Unix.close log;
  live_servers := pid :: !live_servers;
  (* Wait until the listener accepts, or the server has exited. *)
  let t0 = Clock.now_s () in
  let rec wait () =
    match Client.connect ~path:sock with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) = pid then begin
        live_servers := List.filter (( <> ) pid) !live_servers;
        failwith ("server exited before it listened; see " ^ log_path)
      end;
      if Clock.elapsed_s t0 > 60.0 then failwith "server did not start";
      Unix.sleepf 0.01;
      wait ()
  in
  wait ();
  { pid; dir; sock; stats }

(* Stop the server, reap it, and return its exit code and counters. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let _, status = Unix.waitpid [] s.pid in
  live_servers := List.filter (( <> ) s.pid) !live_servers;
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  let stats = read_stats s.stats in
  rm_rf s.dir;
  (code, stats)

(* ------------------------------------------------------------------ *)
(* The request mix and the per-client model *)

type row = { r_shard : int; r_packed : int; r_key : int; mutable r_value : int }

type model = {
  g : Prng.t;
  client : int;
  mutable next_key : int;
  mutable live : row array;
  mutable n_live : int;
  removed : (int * int) array;  (** ring of removed references *)
  mutable n_removed : int;
}

let model ~seed ~client =
  {
    g = Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + client + 1)) ();
    client;
    next_key = 0;
    live = Array.make 1024 { r_shard = 0; r_packed = 0; r_key = 0; r_value = 0 };
    n_live = 0;
    removed = Array.make 1024 (0, 0);
    n_removed = 0;
  }

let fresh_key m =
  let k = (m.next_key * clients) + m.client in
  m.next_key <- m.next_key + 1;
  k

let push_live m r =
  if m.n_live = Array.length m.live then begin
    let a = Array.make (2 * m.n_live) r in
    Array.blit m.live 0 a 0 m.n_live;
    m.live <- a
  end;
  m.live.(m.n_live) <- r;
  m.n_live <- m.n_live + 1

type cls = Read | Write | Txn

(* A request and the check its reply must pass; the model is updated as if
   the request succeeds. *)
let next_request m : cls * Wire.request * (Wire.reply -> bool) =
  let r = Prng.int m.g 100 in
  let add () =
    let key = fresh_key m and value = Prng.int m.g 1_000_000 in
    ( Write,
      Wire.Add { key; value },
      function
      | Wire.Ok_pair (shard, packed) ->
        push_live m { r_shard = shard; r_packed = packed; r_key = key; r_value = value };
        true
      | _ -> false )
  in
  if m.n_live < 16 then add ()
  else if r < 60 then
    if m.n_removed > 0 && Prng.int m.g 20 = 0 then
      let shard, packed = m.removed.(Prng.int m.g (min m.n_removed (Array.length m.removed))) in
      (Read, Wire.Get { shard; packed }, function Wire.Err _ -> true | _ -> false)
    else
      let row = m.live.(Prng.int m.g m.n_live) in
      ( Read,
        Wire.Get { shard = row.r_shard; packed = row.r_packed },
        function Wire.Ok_pair (k, v) -> k = row.r_key && v = row.r_value | _ -> false )
  else if r < 75 then add ()
  else if r < 85 then begin
    let row = m.live.(Prng.int m.g m.n_live) in
    let value = Prng.int m.g 1_000_000 in
    row.r_value <- value;
    ( Write,
      Wire.Store { shard = row.r_shard; packed = row.r_packed; value },
      function Wire.Ok_unit -> true | _ -> false )
  end
  else if r < 95 then begin
    let i = Prng.int m.g m.n_live in
    let row = m.live.(i) in
    m.n_live <- m.n_live - 1;
    m.live.(i) <- m.live.(m.n_live);
    m.removed.(m.n_removed mod Array.length m.removed) <- (row.r_shard, row.r_packed);
    m.n_removed <- m.n_removed + 1;
    ( Write,
      Wire.Remove { shard = row.r_shard; packed = row.r_packed },
      function Wire.Ok_int 1 -> true | _ -> false )
  end
  else
    let pairs = List.init 4 (fun _ -> (fresh_key m, Prng.int m.g 1_000_000)) in
    ( Txn,
      Wire.Txn_put pairs,
      function
      | Wire.Ok_refs refs when List.length refs = 4 ->
        List.iter2
          (fun (shard, packed) (key, value) ->
            push_live m { r_shard = shard; r_packed = packed; r_key = key; r_value = value })
          refs pairs;
        true
      | _ -> false )

(* Throughput is counted per 250 ms window and reported as the median
   window: a stall of a few hundred milliseconds (an fsync, a descheduled
   thread) then moves one window, not the whole figure. *)
let window_s = 0.25

type lat = {
  read : Clock.samples;
  write : Clock.samples;
  txn : Clock.samples;
  mutable done_ : int;
  mutable origin : float;  (** start of the measured loop *)
  windows : int array;  (** requests completed in each window since [origin] *)
}

let lat ~seconds =
  {
    read = Clock.samples ();
    write = Clock.samples ();
    txn = Clock.samples ();
    done_ = 0;
    origin = 0.0;
    windows = Array.make (truncate (seconds /. window_s) + 1) 0;
  }

(* One request through [send], timed, checked. *)
let step m send lat ~record =
  let cls, req, ok = next_request m in
  let t0 = Clock.now_s () in
  match send req with
  | reply ->
    let dt = (Clock.now_s () -. t0) *. 1e6 in
    let good = ok reply in
    if record then begin
      lat.done_ <- lat.done_ + 1;
      let w = truncate ((Clock.now_s () -. lat.origin) /. window_s) in
      if w < Array.length lat.windows then lat.windows.(w) <- lat.windows.(w) + 1;
      Clock.add (match cls with Read -> lat.read | Write -> lat.write | Txn -> lat.txn) dt;
      Report.op ~why:"serve: reply disagrees with the client's model" good
    end
    else if not good then Report.op ~why:"serve: reply disagrees with the client's model" false
  | exception e -> Report.op ~why:("serve: request raised " ^ Printexc.to_string e) false

let preload m send n =
  for _ = 1 to n do
    let key = fresh_key m and value = Prng.int m.g 1_000_000 in
    match send (Wire.Add { key; value }) with
    | Wire.Ok_pair (shard, packed) ->
      push_live m { r_shard = shard; r_packed = packed; r_key = key; r_value = value }
    | _ -> Report.op ~why:"serve: preload Add failed" false
  done

(* Requests per block when a loop alternates untraced and traced. *)
let trace_block = 256

(* Closed loop for [seconds] after [warmup] seconds whose samples are
   dropped. With [~traced], requests alternate in blocks of [trace_block]
   between [lat], untraced, and [traced], with tracing on, so both see the
   same data as it grows. *)
let closed_loop ?traced m send lat ~warmup ~seconds =
  let t0 = Clock.now_s () in
  while Clock.elapsed_s t0 < warmup do
    step m send lat ~record:false
  done;
  let t1 = Clock.now_s () in
  lat.origin <- t1;
  Option.iter (fun l -> l.origin <- t1) traced;
  let i = ref 0 in
  while Clock.elapsed_s t1 < seconds do
    (match traced with
    | Some tl when (!i / trace_block) land 1 = 1 ->
      Trace.enabled := true;
      step m send tl ~record:true;
      Trace.enabled := false
    | _ -> step m send lat ~record:true);
    incr i
  done;
  Clock.elapsed_s t1

(* ------------------------------------------------------------------ *)
(* Out of process: the end-to-end run *)

type remote = { lats : lat list; wall : float; code : int; stats : string -> int; setup_s : float }

let remote_run ~seed ~preload_rows ~warmup ~seconds ~tag =
  let t0 = Clock.now_s () in
  let pins = Lazy.force pinning in
  Option.iter (fun p -> pin_self (string_of_int p.client_cpu)) pins;
  let srv = spawn_server ~tag in
  let conns = List.init clients (fun _ -> Client.connect ~path:srv.sock) in
  let models = List.init clients (fun client -> model ~seed ~client) in
  let per_client = preload_rows / clients in
  let ds =
    List.map2
      (fun c m -> Domain.spawn (fun () -> preload m (Client.request c) per_client))
      conns models
  in
  List.iter Domain.join ds;
  let setup_s = Clock.elapsed_s t0 in
  let lats = List.map (fun _ -> lat ~seconds) models in
  let walls =
    List.map Domain.join
      (List.map2
         (fun (c, m) l ->
           Domain.spawn (fun () -> closed_loop m (Client.request c) l ~warmup ~seconds))
         (List.combine conns models) lats)
  in
  List.iter Client.close conns;
  let code, stats = stop_server srv in
  Option.iter (fun p -> pin_self p.all_cpus) pins;
  { lats; wall = List.fold_left max 0.0 walls; code; stats; setup_s }

let run ~seed ~seconds ~preload_rows =
  let r = remote_run ~seed ~preload_rows ~warmup:1.0 ~seconds ~tag:"serve" in
  Printf.printf "setup: server start + %d-row preload, %.3f s\n%!" preload_rows r.setup_s;
  Report.metric "setup_s" "s" r.setup_s;
  Report.check "serve: server exited cleanly (Obs_check.check_shard)" (r.code = 0)
    (Printf.sprintf "server exit code %d" r.code);
  let merge f = Clock.concat (List.map f r.lats) in
  let read = Clock.summary (merge (fun l -> l.read)) in
  let write = Clock.summary (merge (fun l -> l.write)) in
  let txn = Clock.summary (merge (fun l -> l.txn)) in
  let done_ = List.fold_left (fun a l -> a + l.done_) 0 r.lats in
  let per_window = Clock.samples () in
  for w = 0 to max 1 (truncate (seconds /. window_s)) - 1 do
    let n = List.fold_left (fun a l -> a + l.windows.(w)) 0 r.lats in
    Clock.add per_window (float n /. window_s)
  done;
  let ops_s = (Clock.summary per_window).Clock.median in
  let bytes_per_row = float (r.stats "memory_words" * 8) /. float (max 1 (r.stats "rows")) in
  Report.detail "ops_s" "ops/s" ops_s done_;
  Report.detail_summary "read" "us" read;
  Report.detail_summary "write" "us" write;
  Report.detail_summary "txn" "us" txn;
  Report.check "serve: WAL synced (persist_wal_syncs > 0)"
    (r.stats "persist_wal_syncs" > 0) "no WAL sync";
  Report.check "serve: cross-shard 2PC ran (shard_txn_multi > 0)"
    (r.stats "shard_txn_multi" > 0) "no multi-shard transaction";
  Report.metric "ops_s" "ops/s" ops_s;
  Report.metric "heavy.p50_ms" "ms" (txn.Clock.median /. 1e3);
  Report.metric "light.p50_us" "us" read.Clock.median;
  Report.metric "mem.bytes_per_row" "B" bytes_per_row

(* ------------------------------------------------------------------ *)
(* In process: the traced replay *)

let kv_init (fk, fv) key value blk slot =
  Smc.Field.set_int fk blk slot key;
  Smc.Field.set_int fv blk slot value

let sref shard packed = { Shard.sr_shard = shard; sr_ref = Smc.Ref.of_packed packed }
let routed r = (Shard.sref_shard r, Smc.Ref.to_packed (Shard.sref_ref r))

(* Dispatch over public Shard calls, the same frame vocabulary the server
   executes. *)
let dispatch sh ((fk, fv) as kv) (req : Wire.request) : Wire.reply =
  match req with
  | Wire.Ping | Wire.Count | Wire.Sum -> Wire.Err "not in the mix"
  | Wire.Add { key; value } ->
    let r = Trace.span "shard.add" (fun () -> Shard.add sh ~key ~init:(kv_init kv key value)) in
    let shard, packed = routed r in
    Wire.Ok_pair (shard, packed)
  | Wire.Get { shard; packed } ->
    Trace.span "shard.get" (fun () ->
        let coll = Shard.collection sh shard in
        C.with_read coll (fun () ->
            match C.deref_opt coll (Smc.Ref.of_packed packed) with
            | None -> Wire.Err "null reference"
            | Some (blk, slot) ->
              Wire.Ok_pair (Smc.Field.get_int fk blk slot, Smc.Field.get_int fv blk slot)))
  | Wire.Remove { shard; packed } ->
    let removed = Trace.span "shard.remove" (fun () -> Shard.remove sh (sref shard packed)) in
    Wire.Ok_int (if removed then 1 else 0)
  | Wire.Store { shard; packed; value } -> (
    let word = fv.Smc_offheap.Layout.word in
    match Trace.span "shard.store" (fun () -> Shard.store sh (sref shard packed) ~word ~value) with
    | () -> Wire.Ok_unit
    | exception Smc_offheap.Constants.Null_reference -> Wire.Err "null reference")
  | Wire.Txn_put pairs -> (
    let stage tx =
      List.iter (fun (key, v) -> Shard.stage_add tx ~key ~init:(kv_init kv key v)) pairs
    in
    match Trace.span "shard.transact" (fun () -> Shard.transact sh stage) with
    | Shard.Committed refs -> Wire.Ok_refs (List.map routed refs)
    | Shard.Conflict -> Wire.Err "conflict")

let kv_fields sh = (Smc.Field.int (Shard.layout sh) "k", Smc.Field.int (Shard.layout sh) "v")

(* The in-process request path: encode → decode → dispatch → encode →
   decode, each step its own span under one request span. Every 1024
   requests of each kind, untraced and traced, the WALs are flushed, each
   flush its own span. The kinds are counted apart because traced blocks
   repeat every 512 requests, which divides 1024: on one shared count,
   every flush would land in the same phase of the block cycle, traced or
   not, depending on how many requests came before the loop. *)
let in_process sh =
  let kv = kv_fields sh in
  let sent = [| 0; 0 |] in
  fun req ->
    Trace.request ();
    let mode = Bool.to_int !Trace.enabled in
    sent.(mode) <- sent.(mode) + 1;
    if sent.(mode) land 1023 = 0 then
      Array.iter (fun w -> Trace.span "persist.flush" (fun () -> Wal.flush w)) (Shard.wals sh);
    let name =
      match req with
      | Wire.Get _ -> "request.get"
      | Wire.Txn_put _ -> "request.txn"
      | _ -> "request.write"
    in
    Trace.span name (fun () ->
        let codec_req () = Wire.decode_request (Wire.encode_request req) in
        let req = Trace.span "wire.codec.request" codec_req in
        let reply = Trace.span "dispatch" (fun () -> dispatch sh kv req) in
        Trace.span "wire.codec.reply" (fun () -> Wire.decode_reply (Wire.encode_reply reply)))

let layers ~seed ~seconds ~preload_rows =
  let out = Hashtbl.create 32 in
  let put name v = if Float.is_finite v then Hashtbl.replace out name v in
  (* Round trips through the server process, for the transport share. *)
  let remote = remote_run ~seed ~preload_rows ~warmup:0.5 ~seconds:(seconds /. 3.0) ~tag:"trace" in
  Report.check "serve: server exited cleanly (Obs_check.check_shard)" (remote.code = 0)
    (Printf.sprintf "server exit code %d" remote.code);
  let rt_get =
    (Clock.summary (Clock.concat (List.map (fun l -> l.read) remote.lats))).Clock.median
  in
  (match remote.stats "srv_requests" with
  | 0 -> ()
  | n -> put "server.shed_ratio" (float (remote.stats "srv_shed") /. float n));
  (* The same stream in process, against a shard of the same shape. *)
  let dir = Printf.sprintf ".bench_run/replay-%d" (Unix.getpid ()) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sh = Server.kv_shard ~shards () in
  ignore (Shard.attach_wals ~sync sh ~dir : Wal.t array);
  let send = in_process sh in
  let m = model ~seed ~client:0 in
  preload m send preload_rows;
  let loop_s = 2.0 *. seconds /. 3.0 in
  let plain = lat ~seconds:loop_s and traced = lat ~seconds:loop_s in
  ignore (closed_loop m send plain ~warmup:0.2 ~seconds:0.0 : float);
  let before = merged_shard_counters sh in
  Trace.reset ();
  let w0 = wal_bytes sh in
  ignore (closed_loop ~traced m send plain ~warmup:0.0 ~seconds:loop_s : float);
  let counters = O.diff (merged_shard_counters sh) before in
  let med buf = (Clock.summary buf).Clock.median in
  put "trace.light_ratio" (med traced.read /. med plain.read);
  put "trace.heavy_ratio" (med traced.txn /. med plain.txn);
  let self = Trace.self_times () in
  let ns name = Trace.self_median self name in
  (match (ns "wire.codec.request", ns "wire.codec.reply") with
  | Some a, Some b -> put "wire.codec_ns" (a +. b)
  | _ -> ());
  Option.iter (fun v -> put "shard.txn_us" (v /. 1e3)) (ns "shard.transact");
  Array.iter Wal.flush (Shard.wals sh);
  Option.iter (fun v -> put "persist.flush_ms" (v /. 1e6)) (ns "persist.flush");
  (* In-process Get path: the whole request span, children included. *)
  let get_path = Clock.samples () in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.name = "request.get" then Clock.add get_path (Trace.dur_ns s /. 1e3))
    (Trace.all_spans ());
  if Clock.count get_path > 0 then put "server.transport_us" (rt_get -. med get_path);
  let ratio num den =
    let d = O.get counters den in
    if d > 0 then Some (float (O.get counters num) /. float d) else None
  in
  let opt name = function Some v -> put name v | None -> () in
  opt "shard.multi_ratio" (ratio O.c_shard_txn_multi O.c_shard_txns);
  opt "shard.conflict_ratio" (ratio O.c_shard_txn_conflicts O.c_shard_txns);
  opt "persist.appends_per_sync" (ratio O.c_persist_wal_appends O.c_persist_wal_syncs);
  opt "offheap.slot_recycle_ratio" (ratio O.c_slot_recycles O.c_allocs);
  (let ok = O.get counters O.c_epoch_adv_ok and fail = O.get counters O.c_epoch_adv_fail in
   if ok + fail > 0 then put "offheap.epoch_adv_ok_ratio" (float ok /. float (ok + fail)));
  let written =
    List.fold_left (fun a l -> a + Clock.count l.write + (4 * Clock.count l.txn)) 0 [ plain; traced ]
  in
  if written > 0 then put "persist.log_bytes_per_row" (float (wal_bytes sh - w0) /. float written);
  Report.check "serve replay: WAL synced" (O.get counters O.c_persist_wal_syncs > 0) "no WAL sync";
  Report.check "serve replay: cross-shard 2PC ran" (O.get counters O.c_shard_txn_multi > 0)
    "no multi-shard transaction";
  (* Micro timings in batches of a thousand calls: routing, allocation and
     free on shard 0 (WAL attached), critical section, dereference. *)
  let route = Clock.samples () and alloc = Clock.samples () and free = Clock.samples () in
  let crit = Clock.samples () and deref = Clock.samples () in
  let coll = Shard.collection sh 0 in
  let kv = kv_fields sh in
  let batch f = snd (Clock.time f) in
  for round = 1 to 50 do
    Clock.add route
      (batch (fun () ->
           for k = 1 to 1000 do
             ignore (Sys.opaque_identity (Shard.shard_of sh ~key:(k * round)))
           done));
    let add_batch () = Array.init 1000 (fun k -> C.add coll ~init:(kv_init kv k k)) in
    let refs, dt = Clock.time add_batch in
    Clock.add alloc dt;
    Clock.add deref
      (batch (fun () ->
           C.with_read coll (fun () ->
               Array.iter (fun r -> ignore (Sys.opaque_identity (C.deref_opt coll r))) refs)));
    Clock.add crit (batch (fun () -> for _ = 1 to 1000 do C.with_read coll ignore done));
    Clock.add free (batch (fun () -> Array.iter (fun r -> ignore (C.remove coll r : bool)) refs))
  done;
  (* Per-call figures: a batch of 1000 in s is ns per call ×1e6, us ×1e3. *)
  put "shard.route_ns" (med route *. 1e6);
  put "offheap.alloc_us" (med alloc *. 1e3);
  put "offheap.free_us" (med free *. 1e3);
  put "offheap.crit_ns" (med crit *. 1e6);
  put "offheap.deref_ns" (med deref *. 1e6);
  Array.iter Wal.close (Shard.wals sh);
  Trace.write ~path:(Printf.sprintf ".bench_run/spans-serve-%d.tsv" seed);
  Trace.reset ();
  rm_rf dir;
  out
