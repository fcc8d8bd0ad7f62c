(** Monotonic-clock timing helpers for the experiment drivers (CLOCK_MONOTONIC
    via [bechamel.monotonic_clock], so wall-clock steps never skew a figure). *)

val now_ns : unit -> int64
(** Monotonic clock reading in nanoseconds. *)

val time_it : (unit -> 'a) -> 'a * float
(** [time_it f] runs [f ()] and returns its result together with the elapsed
    monotonic time in milliseconds. *)

val time_ms : (unit -> unit) -> float
(** Elapsed milliseconds of running the thunk once. *)

val repeat : ?warmup:int -> int -> (unit -> unit) -> float array
(** [repeat ~warmup n f] runs [f] [warmup] times unmeasured, then [n] times
    measured, returning the per-run milliseconds. *)

val throughput_per_sec : ops:int -> ms:float -> float
(** Operations per second given an operation count and elapsed ms. *)
