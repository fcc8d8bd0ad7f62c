open Smc_offheap

let magic = "SMCWAL02"

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

let append t payload =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.closed then invalid_arg "Wal: log is closed";
      ignore (Pio.write_section t.oc payload : int);
      t.next_lsn <- t.next_lsn + 1;
      t.unsynced <- t.unsynced + 1;
      oincr t Smc_obs.c_persist_wal_appends;
      match t.sync with
      | Always -> sync_locked t
      | Every n -> if t.unsynced >= n then sync_locked t
      | Manual -> ())

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

(* One op in a record: opcode, the reference's entry and incarnation, then
   an add's slot image (word count + words) or a store's word and value. *)
let add_op buf sw (op : Smc.Collection.op) =
  let code, r =
    match op with
    | Add (r, _, _) -> (op_add, r)
    | Remove r -> (op_remove, r)
    | Store (r, _, _) -> (op_store, r)
  in
  let packed = Smc.Ref.to_packed r in
  Pio.add_int buf code;
  Pio.add_int buf (Constants.ref_entry packed);
  Pio.add_int buf (Constants.ref_inc packed);
  match op with
  | Add (_, blk, slot) ->
    Pio.add_int buf sw;
    for w = 0 to sw - 1 do
      Pio.add_int buf (Block.get_word blk ~slot ~word:w)
    done
  | Remove _ -> ()
  | Store (_, word, value) ->
    Pio.add_int buf word;
    Pio.add_int buf value

(* One commit unit — a bare op or a committed batch — is one record: its
   op count, then the ops in staging order. One checksummed append is
   atomic by itself: a torn final record is dropped whole at recovery. *)
let log t (coll : Smc.Collection.t) ops =
  let sw = coll.Smc.Collection.layout.Layout.slot_words in
  let n = List.length ops in
  let buf = Buffer.create (8 + (n * (32 + (8 * sw)))) in
  Pio.add_int buf n;
  List.iter (add_op buf sw) ops;
  append t buf

let attach t (coll : Smc.Collection.t) =
  Smc.Collection.subscribe coll { name = t.name; on_commit = log t coll };
  t.obs <- Some coll.Smc.Collection.rt.Runtime.obs

let detach t coll = Smc.Collection.unsubscribe coll t.name

(* ------------------------------------------------------------------ *)
(* Recovery *)

type op =
  | Add of { entry : int; inc : int; words : int array }
  | Remove of { entry : int; inc : int }
  | Store of { entry : int; inc : int; word : int; value : int }

type log_info = {
  li_name : string;
  li_base : int;
  li_records : int;
  li_torn_dropped : int;
}

let parse_op (r : Pio.reader) : op =
  let code = Pio.get_int r in
  let entry = Pio.get_int r in
  let inc = Pio.get_int r in
  if code = op_add then begin
    let n = Pio.get_int r in
    if n < 0 || n > 1 lsl 20 then Pio.corrupt "%s: implausible add width %d" r.Pio.what n;
    Add { entry; inc; words = Array.init n (fun _ -> Pio.get_int r) }
  end
  else if code = op_remove then Remove { entry; inc }
  else if code = op_store then begin
    let word = Pio.get_int r in
    let value = Pio.get_int r in
    Store { entry; inc; word; value }
  end
  else Pio.corrupt "%s: unknown op code %d" r.Pio.what code

let parse_record (r : Pio.reader) =
  let n = Pio.get_int r in
  (* every op takes at least three words *)
  if n < 0 || n > Bytes.length r.Pio.bytes / 24 then
    Pio.corrupt "%s: implausible op count %d" r.Pio.what n;
  let ops = List.init n (fun _ -> parse_op r) in
  Pio.expect_end r;
  ops

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
