(** Column chunks, as the vectorized, fused and compiled engines read a
    scan.

    A batch holds one ~1024-row chunk of a plan's intermediate result as an
    array of column vectors plus a {e selection vector}: an int Bigarray
    whose first [len] entries index the surviving rows, ascending. Filters
    refine [sel] in place — branchless write-then-conditionally-advance —
    and never move column data; downstream operators gather through [sel].

    Batches are loans: a producer passes the same storage to its emit
    callback for every chunk, so consumers must finish with (or copy out
    of) a batch before returning. See docs/vectorized.md. *)

type sel = Smc_offheap.Context.sel

type kind = K_int | K_dec | K_date | K_bool | K_char | K_str | K_any
(** Static column kind: fixed by the source layout or derived by the
    expression compiler, so operators pick their typed kernel once per
    plan, never per batch. [K_any] = boxed storage + row-at-a-time
    fallback through the scalar [Expr]/[Value] code (exact by
    construction). *)

type vec =
  | V_int of int array
  | V_dec of int array  (** fixed-point, {!Smc_decimal.Decimal.t} words *)
  | V_date of int array  (** epoch days *)
  | V_bool of bool array
  | V_char of int array  (** byte codes; boxed through a shared string table *)
  | V_str of string array
  | V_val of Value.t array

type t = { cols : vec array; sel : sel; mutable len : int }

val default_rows : int
(** Chunk capacity used by the engine: 1024. *)

val char_str : int -> string
(** 1-char string for a byte code, from the shared table (no allocation). *)

val box_vec : vec -> int -> Value.t
(** Boxed value at a {e physical} row index of a column vector. *)

val create : ?cols:bool array -> kinds:kind array -> cap:int -> unit -> t
(** Fresh batch with per-kind column storage and an empty selection. With
    [cols] (indexed like [kinds]), unmarked columns get zero-length
    storage: a scan that never fills them allocates nothing for them. *)

val set_identity : t -> int -> unit
(** Make the first [n] selection entries the identity and set [len := n] —
    a freshly filled chunk where all rows survive. *)

val row : t -> int -> Value.t array
(** Boxed row at selection {e position} [i] (0 ≤ i < len). *)

val iter_rows : t -> f:(Value.t array -> unit) -> unit
(** Box and visit every surviving row, in selection order. *)

val rebatcher :
  ncols:int -> rows:int -> emit:(t -> unit) -> (Value.t array -> unit) * (unit -> unit)
(** [rebatcher ~ncols ~rows ~emit] returns [(push, flush)]: [push] packs
    boxed rows into a reused [V_val] batch, emitting each chunk of [rows]
    rows; [flush] emits the final partial chunk. [push] keeps the row
    array until its chunk is emitted, so the caller must not change it.
    The row buffer starts at 16 rows and doubles up to [rows], and the
    columns are sized to the rows of the chunk, so a short stream
    allocates little. How row-at-a-time operators keep feeding
    vectorized consumers. *)

val of_rows :
  ncols:int -> rows:int -> ((Value.t array -> unit) -> unit) -> (t -> unit) -> unit
(** [of_rows ~ncols ~rows produce emit] runs [produce] into a
    {!rebatcher} and flushes it: the row producer as [V_val] chunks of
    at most [rows] rows, each emitted as soon as it fills. *)
