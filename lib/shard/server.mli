(** The serving front-end over a sharded collection.

    One accept loop on a Unix-domain socket; each accepted connection is
    handed to the domain pool, which reads length-prefixed {!Wire} frames
    and executes them against the sharded key/value collection. Admission
    control bounds the requests in flight across all connections: over the
    cap, a request is answered with an explicit [Shed] frame without
    touching the shards.

    Counters land on the shard's coordinator instance ({!Shard.obs}):
    [srv_conns], and [srv_requests] partitioned into [srv_replies] +
    [srv_errors] + [srv_shed] — checked by
    [Smc_check.Obs_check.check_shard]. *)

type t

val kv_layout : Smc_offheap.Layout.t
(** The vocabulary's layout: two int fields, [k] and [v]. *)

val kv_shard : ?shards:int -> ?slots_per_block:int -> unit -> Shard.t
(** A fresh sharded key/value collection the server can serve. *)

val start : ?max_inflight:int -> ?pool:Smc_parallel.Pool.t -> path:string -> Shard.t -> t
(** Binds a Unix-domain socket at [path] (an existing file is replaced)
    and spawns the accept domain. The shard's layout must carry int fields
    [k] and [v] ({!kv_layout}); raises [Invalid_argument] otherwise.
    [max_inflight] (default 64) is the admission cap — [0] sheds every
    request, which is how the shed path is tested deterministically. When
    [pool] is omitted a private default-size pool is created and shut down
    by {!stop}; on a pool with no workers, connections are served inline
    on the accept domain (sequentially — fine for tests and single-core
    machines, the frames and counters are identical). *)

val stop : t -> unit
(** Closes the listener, joins the accept domain, and awaits the
    connection handlers — clients should disconnect first, or [stop]
    blocks until they do. Idempotent. *)
