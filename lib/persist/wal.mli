(** Write-ahead redo log for a self-managed collection.

    An append-only log of the collection's mutations between snapshots:
    [add] records carry the new object's indirection entry, incarnation
    and full slot image (logical field order, placement-independent);
    [remove] records carry the entry and incarnation being freed; [store]
    records (logged explicitly via {!log_store}) capture an in-place field
    update. Replaying the log tail over the last snapshot reconstructs the
    collection exactly — entry indices and incarnations are reproduced
    verbatim, so references stored inside objects keep resolving.

    Committed transactions arrive through the subscriber's [on_commit] as
    one batch and are framed atomically: a [Txn_begin] record carrying the
    declared op count, the body records (same wire format as bare ops), and
    a [Txn_commit] record — all appended under one mutex hold, so neither a
    bare record nor a snapshot cut can land inside the frame. Replay
    ({!Snapshot.replay_wal}) buffers a frame and applies it only on its
    commit record; an unterminated frame — crash before the commit record
    reached disk — is discarded as a unit.

    Records are captured by subscribing to the collection
    ({!Smc.Collection.subscribe}), so
    they may be appended from any domain; a mutex serialises appends.
    Group commit: records accumulate in the channel buffer and are flushed
    and [fsync]ed in batches under the {!sync_policy} — [Every n] is the
    classic group commit, [Always] pays one fsync per record, [Manual]
    syncs only on {!flush}/{!close}.

    On-disk format: 8 magic bytes, a checksummed header section (log name,
    base LSN), then one checksummed record per mutation. Recovery
    ({!scan}) verifies every checksum; a truncated or corrupt {e final}
    record is a torn tail — dropped and counted — while corruption with
    further records behind it raises {!Pio.Corrupt} (the shared corruption
    exception of this library). *)

type sync_policy =
  | Always  (** flush + fsync after every record *)
  | Every of int  (** flush + fsync once per [n] records (group commit) *)
  | Manual  (** sync only on {!flush} and {!close} *)

type t

val create : ?sync:sync_policy -> ?base:int -> path:string -> name:string -> unit -> t
(** Creates (truncating) a log at [path]. [base] (default 0) is the LSN of
    the first record — rotate a log after a snapshot by creating the next
    one with [~base:(lsn old)]. Default [sync] is [Every 256]. *)

val attach : t -> Smc.Collection.t -> unit
(** Subscribes the log to the collection under the log's {!name}, so every
    [add]/[remove]/[store] and every committed batch is captured. Raises
    [Invalid_argument] on direct-mode collections or when a subscriber of
    that name is already attached. *)

val detach : t -> Smc.Collection.t -> unit
(** Unsubscribes this log (by its {!name}); other subscribers, including
    other logs, stay attached. Raises [Invalid_argument] if this log is not
    attached to the collection. *)

val log_store : t -> Smc.Collection.t -> Smc.Ref.t -> word:int -> value:int -> unit
(** Logs an in-place store of logical word [word] of the object behind the
    reference — call it after mutating a live object's scalar field.
    Raises [Invalid_argument] on a null/dead reference. *)

val flush : t -> unit
(** Forces buffered records to disk (flush + fsync). *)

val lsn : t -> int
(** LSN of the next record to be appended (base + records written). *)

val name : t -> string

val path : t -> string

val close : t -> unit
(** {!flush} then closes the file. The writer must not be used after. *)

(** {1 Recovery} *)

type record =
  | Add of { entry : int; inc : int; words : int array }
  | Remove of { entry : int; inc : int }
  | Store of { entry : int; inc : int; word : int; value : int }
  | Txn_begin of { txn_id : int; n_ops : int }
      (** opens a transaction frame declaring its body length *)
  | Txn_commit of { txn_id : int }
      (** seals the frame; the body is atomic from here *)

type log_info = {
  li_name : string;
  li_base : int;  (** LSN of the first record in the file *)
  li_records : int;  (** intact records delivered to [f] *)
  li_torn_dropped : int;  (** 1 if a torn final record was discarded *)
}

val scan : path:string -> f:(lsn:int -> record -> unit) -> log_info
(** Streams every intact record in order. A truncated or checksum-failed
    final record is discarded (torn tail); the same damage followed by
    further bytes raises {!Pio.Corrupt}, as does a bad magic or header. *)
