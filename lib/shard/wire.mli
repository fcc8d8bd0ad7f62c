(** Frame format of the serving loop.

    A frame is a 4-byte little-endian payload length followed by the
    payload; a payload is a 1-byte opcode followed by 8-byte little-endian
    integer fields (error payloads carry message bytes instead). Frames
    are capped at 1 MiB. See docs/sharding.md for the full frame
    catalogue. *)

exception Protocol_error of string
(** Malformed frame or payload: implausible length, truncated fields,
    unknown opcode, EOF inside a frame. *)

type request =
  | Ping
  | Add of { key : int; value : int }
      (** route by [key]'s hash, insert a (key, value) row *)
  | Get of { shard : int; packed : int }  (** read a row by routed reference *)
  | Remove of { shard : int; packed : int }
  | Store of { shard : int; packed : int; value : int }
      (** in-place update of the value field *)
  | Txn_put of (int * int) list
      (** atomic batch of (key, value) inserts — lands on every owning
          shard or on none (two-phase commit) *)
  | Count  (** live rows across all shards *)
  | Sum  (** fan-out sum of the value field across all shards *)

type reply =
  | Ok_unit
  | Ok_int of int
  | Ok_pair of int * int
      (** [Add]: (shard, packed reference); [Get]: (key, value) *)
  | Ok_refs of (int * int) list  (** [Txn_put]: routed references in batch order *)
  | Err of string  (** the request failed (null reference, conflict, ...) *)
  | Shed
      (** admission control refused the request — the server is at its
          in-flight cap; back off and retry *)

val write_frame : Unix.file_descr -> Bytes.t -> unit
val read_frame : Unix.file_descr -> Bytes.t option
(** [None] on clean EOF before the first byte. *)

val encode_request : request -> Bytes.t
val decode_request : Bytes.t -> request
val encode_reply : reply -> Bytes.t
val decode_reply : Bytes.t -> reply
