(** Typed field accessors over collection layouts.

    Accessors are resolved once per query (name → word offset, with a type
    check) and then perform single-word loads/stores — the OCaml analogue of
    the paper's generated code addressing fields at fixed offsets inside the
    collection's memory blocks. All getters/setters take the (block, slot)
    location produced by enumeration or {!Collection.deref}. *)

type loc = Smc_offheap.Block.t * int

val int : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
(** Resolves an [Int] field; [Invalid_argument] on a type mismatch. *)

val dec : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
val date : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
val bool : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
val float : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
val str : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field
val ref_ : Smc_offheap.Layout.t -> string -> Smc_offheap.Layout.field

val get_int : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> int
val set_int : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> int -> unit

val get_dec : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> Smc_decimal.Decimal.t
val set_dec :
  Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> Smc_decimal.Decimal.t -> unit

val get_date : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> Smc_util.Date.t
val set_date :
  Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> Smc_util.Date.t -> unit

val get_bool : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> bool
val set_bool : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> bool -> unit

val get_float : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> float
val set_float : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> float -> unit

val get_string : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> string
val set_string : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> string -> unit

val get_char : Smc_offheap.Layout.field -> Smc_offheap.Block.t -> int -> char
(** First byte of a string field without allocating — what compiled queries
    use for one-character TPC-H attributes like returnflag. *)

val starts_with : prefix:string -> string -> bool
(** Allocation-free prefix test over a read string ([StartsWith]
    semantics: the empty prefix matches everything). *)

val contains : needle:string -> string -> bool
(** Allocation-free substring test over a read string ([Contains]
    semantics: the empty needle matches everything). *)

val contains_ci : needle:string -> string -> bool
(** ASCII-case-insensitive {!contains} ([ContainsCI] semantics): both
    sides fold through {!lower_byte}, so bytes outside [A-Z] compare
    verbatim — no locale or Unicode case folding. *)

val lower_byte : char -> char
(** [A-Z] -> [a-z]; every other byte verbatim. *)

val string_eq :
  Smc_offheap.Layout.field -> string -> Smc_offheap.Block.t -> int -> bool
(** [string_eq f lit] pre-packs [lit] into field words once; the returned
    predicate is a few word compares with no allocation — how compiled
    queries evaluate string equality filters. *)

val string_prefix :
  Smc_offheap.Layout.field -> string -> Smc_offheap.Block.t -> int -> bool
(** [string_prefix f needle] tests whether the stored string starts with
    [needle], by packed word compares (full words) plus one masked partial
    word — no allocation per row. Agrees with [String.starts_with] over
    {!get_string}: the empty needle always matches; a needle longer than
    the field capacity or containing a NUL byte never does. *)

val string_contains :
  Smc_offheap.Layout.field -> string -> Smc_offheap.Block.t -> int -> bool
(** [string_contains f needle] tests whether the stored string contains
    [needle], reading bytes straight out of the packed field words — no
    allocation per row. Same semantics as a substring search over
    {!get_string} (empty needle matches everything; NUL-bearing or
    over-capacity needles match nothing). *)

val set_ref :
  Smc_offheap.Layout.field -> target:Collection.t -> Smc_offheap.Block.t -> int -> Ref.t -> unit
(** Stores a reference to an object of [target]. In an [Indirect]-mode
    target the packed indirect reference is stored; in a [Direct]-mode
    target the direct pointer (§6) is stored. Raises [Invalid_argument] if
    [target]'s tabular type differs from the field's declared [Ref] type
    (§2's tabular-class typing rule). *)

val get_ref :
  Smc_offheap.Layout.field -> target:Collection.t -> Smc_offheap.Block.t -> int -> Ref.t
(** Application-level (indirect) reference for a stored ref field; null if
    the referenced object is gone. *)

val follow_loc :
  Smc_offheap.Layout.field -> target:Collection.t -> Smc_offheap.Block.t -> int -> int
(** Allocation-free {!follow}: a packed location for
    {!Collection.loc_block}/{!Collection.loc_slot}, or -1 when the
    referenced object is gone. *)

val follow :
  Smc_offheap.Layout.field ->
  target:Collection.t ->
  Smc_offheap.Block.t ->
  int ->
  loc option
(** Dereferences a stored ref field to the referenced object's current
    location (the reference-based join step of the TPC-H adaptation).
    Follows direct-pointer tombstones and patches the stored pointer to the
    new location, as §6 prescribes. [None] when the object is gone. *)
