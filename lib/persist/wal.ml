open Smc_offheap

let magic = "SMCWAL01"

type sync_policy = Always | Every of int | Manual

type t = {
  path : string;
  name : string;
  oc : out_channel;
  sync : sync_policy;
  lock : Mutex.t;
  mutable next_lsn : int;
  mutable unsynced : int;
  mutable obs : Smc_obs.t option; (* the attached collection's runtime counters *)
  mutable closed : bool;
}

let op_add = 1
let op_remove = 2
let op_store = 3
let op_txn_begin = 4
let op_txn_commit = 5

let oincr t c = match t.obs with Some o -> Smc_obs.incr o c | None -> ()

let create ?(sync = Every 256) ?(base = 0) ~path ~name () =
  (match sync with
  | Every n when n <= 0 -> invalid_arg "Wal.create: Every n requires n > 0"
  | _ -> ());
  let oc = open_out_bin path in
  output_string oc magic;
  let header = Buffer.create 64 in
  Pio.add_str header name;
  Pio.add_int header base;
  ignore (Pio.write_section oc header : int);
  (* Make the magic + header durable before handing the log out. Leaving
     them in the channel buffer (with [unsynced = 0], so [flush]/[close] on
     an empty log are no-ops) meant a crash after [create] could leave a
     file shorter than the magic on disk — which recovery treats as hard
     [Pio.Corrupt] instead of an empty log. *)
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  { path; name; oc; sync; lock = Mutex.create (); next_lsn = base; unsynced = 0;
    obs = None; closed = false }

let sync_locked t =
  if t.unsynced > 0 then begin
    Out_channel.flush t.oc;
    Unix.fsync (Unix.descr_of_out_channel t.oc);
    t.unsynced <- 0;
    oincr t Smc_obs.c_persist_wal_syncs
  end

let append_locked t payload =
  if t.closed then invalid_arg "Wal: log is closed";
  ignore (Pio.write_section t.oc payload : int);
  t.next_lsn <- t.next_lsn + 1;
  t.unsynced <- t.unsynced + 1;
  oincr t Smc_obs.c_persist_wal_appends

let apply_policy_locked t =
  match t.sync with
  | Always -> sync_locked t
  | Every n -> if t.unsynced >= n then sync_locked t
  | Manual -> ()

let append t payload =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      append_locked t payload;
      apply_policy_locked t)

let flush t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> if not t.closed then sync_locked t)

let lsn t =
  Mutex.lock t.lock;
  let v = t.next_lsn in
  Mutex.unlock t.lock;
  v

let name t = t.name
let path t = t.path

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not t.closed then begin
        sync_locked t;
        close_out t.oc;
        t.closed <- true
      end)

(* One record body per op: opcode, the reference's entry and incarnation,
   then an add's slot image (word count + words) or a store's word and
   value. Bare records and transaction bodies share it. *)
let payload (coll : Smc.Collection.t) (op : Smc.Collection.op) =
  let sw = coll.Smc.Collection.layout.Layout.slot_words in
  let code, r, size =
    match op with
    | Add (r, _, _) -> (op_add, r, 32 + (8 * sw))
    | Remove r -> (op_remove, r, 32)
    | Store (r, _, _) -> (op_store, r, 48)
  in
  let packed = Smc.Ref.to_packed r in
  let payload = Buffer.create size in
  Pio.add_int payload code;
  Pio.add_int payload (Constants.ref_entry packed);
  Pio.add_int payload (Constants.ref_inc packed);
  (match op with
  | Add (_, blk, slot) ->
    Pio.add_int payload sw;
    for w = 0 to sw - 1 do
      Pio.add_int payload (Block.get_word blk ~slot ~word:w)
    done
  | Remove _ -> ()
  | Store (_, word, value) ->
    Pio.add_int payload word;
    Pio.add_int payload value);
  payload

let log_store t (coll : Smc.Collection.t) r ~word ~value =
  if not (Smc.Collection.mem coll r) then
    invalid_arg "Wal.log_store: reference is null or dead";
  if word < 0 || word >= coll.Smc.Collection.layout.Layout.slot_words then
    invalid_arg "Wal.log_store: word offset outside the layout";
  append t (payload coll (Store (r, word, value)))

(* A committed transaction's batch: Txn_begin (carrying the declared op
   count), the body records, Txn_commit — appended under ONE mutex hold, so
   no bare append and no snapshot cut ([Snapshot.write] reads the LSN under
   this same mutex) can land inside the frame. The body reuses the bare
   payload builders; replay distinguishes framed from bare records purely
   by position. *)
let log_txn t (coll : Smc.Collection.t) ~txn_id ops =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let header = Buffer.create 32 in
      Pio.add_int header op_txn_begin;
      Pio.add_int header txn_id;
      Pio.add_int header (List.length ops);
      append_locked t header;
      List.iter (fun op -> append_locked t (payload coll op)) ops;
      let footer = Buffer.create 16 in
      Pio.add_int footer op_txn_commit;
      Pio.add_int footer txn_id;
      append_locked t footer;
      apply_policy_locked t)

let attach t (coll : Smc.Collection.t) =
  (* The collection publishes bare ops inside their critical sections with
     the row alive, so [on_op] skips log_store's liveness precheck. *)
  Smc.Collection.subscribe coll
    {
      name = t.name;
      on_op = (fun op -> append t (payload coll op));
      on_commit = Some (fun ~txn_id ops -> log_txn t coll ~txn_id ops);
    };
  t.obs <- Some coll.Smc.Collection.rt.Runtime.obs

let detach t coll = Smc.Collection.unsubscribe coll t.name

(* ------------------------------------------------------------------ *)
(* Recovery *)

type record =
  | Add of { entry : int; inc : int; words : int array }
  | Remove of { entry : int; inc : int }
  | Store of { entry : int; inc : int; word : int; value : int }
  | Txn_begin of { txn_id : int; n_ops : int }
  | Txn_commit of { txn_id : int }

type log_info = {
  li_name : string;
  li_base : int;
  li_records : int;
  li_torn_dropped : int;
}

let parse_record (r : Pio.reader) =
  let op = Pio.get_int r in
  let record =
    if op = op_add then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      let n = Pio.get_int r in
      if n < 0 || n > 1 lsl 20 then Pio.corrupt "%s: implausible add width %d" r.Pio.what n;
      let words = Array.init n (fun _ -> Pio.get_int r) in
      Add { entry; inc; words }
    end
    else if op = op_remove then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      Remove { entry; inc }
    end
    else if op = op_store then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      let word = Pio.get_int r in
      let value = Pio.get_int r in
      Store { entry; inc; word; value }
    end
    else if op = op_txn_begin then begin
      let txn_id = Pio.get_int r in
      let n_ops = Pio.get_int r in
      if n_ops < 0 || n_ops > 1 lsl 30 then
        Pio.corrupt "%s: implausible transaction op count %d" r.Pio.what n_ops;
      Txn_begin { txn_id; n_ops }
    end
    else if op = op_txn_commit then begin
      let txn_id = Pio.get_int r in
      Txn_commit { txn_id }
    end
    else Pio.corrupt "%s: unknown record op %d" r.Pio.what op
  in
  Pio.expect_end r;
  record

(* A record that cannot be read intact *terminates* the log. If it reaches
   end-of-file it is a torn tail — the crash hit mid-append — and is
   silently discarded, exactly once. The same damage with further bytes
   behind it cannot be a torn append and is hard corruption. *)
let scan ~path ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let what = Printf.sprintf "WAL %s" path in
      let m = Bytes.create (String.length magic) in
      (try really_input ic m 0 (String.length magic)
       with End_of_file -> Pio.corrupt "%s: shorter than the magic" what);
      if not (String.equal (Bytes.to_string m) magic) then
        Pio.corrupt "%s: bad magic %S" what (Bytes.to_string m);
      let header, _ = Pio.read_section ic ~what:(what ^ " header") () in
      let li_name = Pio.get_str header in
      let li_base = Pio.get_int header in
      Pio.expect_end header;
      let records = ref 0 in
      let torn = ref 0 in
      let torn_tail () = torn := 1 in
      let rec go lsn =
        let start = pos_in ic in
        if start < size then begin
          if size - start < 16 then torn_tail ()
          else begin
            let header = Bytes.create 16 in
            really_input ic header 0 16;
            let len = Int64.to_int (Bytes.get_int64_le header 0) in
            let crc = Int64.to_int (Bytes.get_int64_le header 8) in
            if len < 0 || len > 1 lsl 30 then
              (* an implausible length field can't prove there are records
                 behind it: treat as a torn final append *)
              torn_tail ()
            else if size - (start + 16) < len then torn_tail ()
            else begin
              let payload = Bytes.create len in
              really_input ic payload 0 len;
              let actual = Crc32.digest payload ~pos:0 ~len in
              if actual <> crc then begin
                if start + 16 + len = size then torn_tail ()
                else
                  Pio.corrupt
                    "%s: record %d checksum mismatch (stored %08x, computed %08x) with \
                     records behind it"
                    what lsn crc actual
              end
              else begin
                let r = { Pio.bytes = payload; pos = 0; what = Printf.sprintf "%s record %d" what lsn } in
                f ~lsn (parse_record r);
                incr records;
                go (lsn + 1)
              end
            end
          end
        end
      in
      go li_base;
      { li_name; li_base; li_records = !records; li_torn_dropped = !torn })
