(** Block-image snapshots of self-managed collections.

    Because SMC objects live in type-stable, self-describing off-heap
    blocks, a collection is made durable by streaming those blocks
    {e verbatim} — object store, slot directory, back-pointers and
    incarnation plane — plus the collection's indirection-table slice.
    There is no per-object serialisation step: the write path is a
    sequence of word copies, and the restore path rebuilds blocks,
    registry, indirection and free-list state from the images and
    re-attaches declared indexes by rebuilding them from live rows.

    File layout: 8 magic bytes, then checksummed sections
    ([len][crc32][payload]): a manifest (format version, collection name,
    self-describing layout spec + schema hash, storage knobs, block/row
    counts, WAL cut point, index declarations, git revision, timestamp),
    the indirection incarnation slice, and one section per block. Every
    section is verified against its CRC before any field is interpreted;
    damage raises {!Pio.Corrupt} with a descriptive message.

    Consistency contract: {!write} is a {e mutator-quiescent} operation on
    the snapshotted collection — same contract as the invariant audit.
    Concurrent readers are fine; in indirect mode concurrent {e
    compaction} is also fine (the image is written through the §5.2 block
    walk, which hands each row over once even as compaction moves it, and
    references are entry-stable so relocation does not invalidate stored
    ref fields). Direct mode additionally requires a
    compaction-quiescent point, because stored direct pointers are
    canonicalised (tombstones collapsed) as the image is written.

    Restrictions, by design: references {e between} collections cannot be
    captured by a single-collection snapshot — foreign [Ref] fields are
    nulled on restore and documented as unsupported. Incarnation words are
    preserved verbatim, so references that were stale before the snapshot
    stay stale after restore. *)

type manifest = {
  version : int;
  collection : string;
  type_name : string;
  schema_hash : int;  (** CRC-32 of the serialised layout spec *)
  placement : Smc_offheap.Block.placement;
  mode : Smc_offheap.Context.mode;
  slots_per_block : int;
  reclaim_threshold : float;
  block_count : int;
  row_count : int;
  quarantined : int;
  ind_capacity : int;
  wal_name : string;  (** [""] when no WAL was attached *)
  wal_lsn : int;  (** first LSN {e not} covered by the snapshot; -1 if none *)
  indexes : (string * string) list;  (** declared (index name, column) pairs *)
  git_rev : string;
  timestamp : float;  (** unix seconds at write time *)
}

val write :
  ?wal:Wal.t ->
  ?indexes:(string * string) list ->
  path:string ->
  Smc.Collection.t ->
  manifest * int
(** Snapshots the collection to [path] and returns the manifest plus bytes
    written. When [wal] is given it is flushed and its current LSN
    recorded as the recovery cut point, so replay skips records the image
    already contains. [indexes] declares (name, column) pairs to re-attach
    on restore; each column must be a fixed-width or string field of the
    layout. Raises [Invalid_argument] on bad index declarations, or in
    direct mode when compaction is in progress (see the module contract). *)

val read_manifest : string -> manifest
(** Reads and verifies just the manifest section. *)

type restored = {
  r_rt : Smc_offheap.Runtime.t;
  r_coll : Smc.Collection.t;
  r_indexes : (string * Smc_index.Hash_index.t) list;
      (** rebuilt from live rows, in manifest order *)
  r_manifest : manifest;
  r_bytes : int;  (** snapshot bytes read *)
  r_replayed : int;  (** WAL ops applied over the image *)
  r_torn_dropped : int;  (** torn final WAL records discarded (0 or 1) *)
}

val replay_wal : Smc.Collection.t -> path:string -> cut:int -> int * int
(** Replays the log tail (records at or after LSN [cut]; [cut = -1] means
    the log's base) over the collection in one read of the log, applying
    each intact record — one commit unit — whole, in log order, and then
    publishing its ops as one unit ({!Smc.Collection.publish}), like a live
    commit: structures subscribed {e before} the replay, a log included,
    hear each record once and stay current through it; {!restore} replays
    before reattaching indexes, so its replay publishes to no one. A torn
    final record is dropped whole. Returns [(applied ops, torn_dropped)].
    Raises {!Pio.Corrupt} on mid-log corruption or a snapshot/log gap.
    Single-threaded recovery use only: no concurrent mutators, probes or
    compaction. *)

val restore : ?wal:string -> path:string -> unit -> restored
(** Reads the image back into a fresh runtime and collection: blocks are
    rebuilt with their object stores, slot directories and incarnation
    words intact, the indirection slice is replayed so every persisted
    reference resolves to the same entry and incarnation, limbo slots
    collapse to free, quarantined slots stay quarantined, and unreferenced
    entries seed the free stores. When [wal] names a log file, its tail
    (records at or after the manifest's cut point) is replayed before the
    free stores are seeded; a torn final record is discarded and counted.
    Declared indexes are re-attached (bulk-rebuilt from live rows).

    Raises {!Pio.Corrupt} on any checksum mismatch, structural
    inconsistency (counts that disagree with the images, unknown slot
    states, out-of-range entries), WAL/snapshot gaps, or mid-log
    corruption. The result has {e not} been audited — run
    [Smc_check.Persist_check] (or [Smc_check.Audit] +
    [Smc_check.Obs_check]) for the full invariant sweep. *)
