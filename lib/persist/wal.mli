(** Write-ahead redo log for a self-managed collection.

    An append-only log of the collection's mutations between snapshots,
    one record per {e commit unit}: a bare [add]/[remove]/[store] is a
    one-op record, and a committed transaction's batch is one record
    holding its ops in staging order: one record per published unit. An [add]
    op carries the new object's indirection entry, incarnation and full
    slot image (logical field order, placement-independent); a [remove]
    carries the entry and incarnation being freed; a [store] carries the
    entry, incarnation, word offset and value. Replaying the log tail over
    the last snapshot reconstructs the collection exactly — entry indices
    and incarnations are reproduced verbatim, so references stored inside
    objects keep resolving. An empty commit has nothing to redo and
    appends nothing.

    Records are captured by subscribing to the collection
    ({!Smc.Collection.subscribe}), so they may be appended from any
    domain; a mutex serialises appends. Group commit: records accumulate
    in the channel buffer and are flushed and [fsync]ed in batches under
    the {!sync_policy} — [Every n] is the classic group commit, [Always]
    pays one fsync per record, [Manual] syncs only on {!flush}/{!close}.

    On-disk format: 8 magic bytes ([SMCWAL02]), a checksummed header
    section (log name, base LSN), then one checksummed section per record:
    the op count, then each op (opcode, entry, incarnation, then the slot
    image or the word and value). A record is atomic by itself: recovery
    ({!scan}) verifies every checksum; a truncated or corrupt {e final}
    record is a torn tail — dropped whole and counted — while corruption
    with further records behind it raises {!Pio.Corrupt} (the shared
    corruption exception of this library), as does a log in any other
    format (a bad magic). *)

type sync_policy =
  | Always  (** flush + fsync after every record *)
  | Every of int
      (** flush + fsync once per [n] records (group commit). A record is one
          commit unit, so [n] counts commits, whatever their op counts. *)
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

val flush : t -> unit
(** Forces buffered records to disk (flush + fsync). *)

val lsn : t -> int
(** LSN of the next record to be appended (base + records written; one
    record per commit unit). *)

val name : t -> string

val path : t -> string

val close : t -> unit
(** {!flush} then closes the file. The writer must not be used after. *)

(** {1 Recovery} *)

(** One logged op, as recovery reads it back. *)
type op =
  | Add of { entry : int; inc : int; words : int array }
  | Remove of { entry : int; inc : int }
  | Store of { entry : int; inc : int; word : int; value : int }

type log_info = {
  li_name : string;
  li_base : int;  (** LSN of the first record in the file *)
  li_records : int;  (** intact records delivered to [f] *)
  li_torn_dropped : int;  (** 1 if a torn final record was discarded *)
}

val scan : path:string -> f:(lsn:int -> op list -> unit) -> log_info
(** Streams every intact record's ops, in log order. A truncated or
    checksum-failed final record is discarded whole (torn tail); the same
    damage followed by further bytes raises {!Pio.Corrupt}, as does a bad
    magic or header. *)
