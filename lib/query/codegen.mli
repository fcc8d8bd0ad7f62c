(** Query-plan → compiled native code, via source emission + Dynlink.

    The paper's system modifies the C# compiler to expand LINQ queries over
    SMCs into generated imperative functions. This module performs the same
    staging at runtime: {!to_ocaml_source} renders the fused loop nest
    {!Fuse} would execute — predicates, projections, group keys and
    aggregate updates inlined as direct code, not closure chains — as a
    self-contained OCaml module; {!prepare} compiles it with
    [ocamlopt -shared] against the host build's .cmi files, loads it with
    [Dynlink.loadfile_private], and receives the query function back through
    {!Codegen_abi}. Compiled plans are cached by the digest of their source,
    so re-running a plan shape (even over a different collection, or with
    different constants or probe keys — all enter as runtime arguments)
    reuses the plugin.

    Results are bit-identical to {!Fuse.collect}: the emitted code
    transliterates {!Expr.compile}, {!Aggregate.compile} and {!Fuse}'s
    operator loops case by case, preserving evaluation order and raises.
    When compilation is impossible — bytecode host, no [ocamlopt] on PATH,
    unlocatable .cmi directories, a compile/load failure, or an [IndexJoin]
    in the plan (its keyed per-row probe does not fit the scan-closure
    ABI) — execution silently falls back to {!Fuse} and the outcome says
    why. Requests, compiles, cache hits and fallbacks are counted under the
    plan's source runtime ([cg_*] counters; every request lands in exactly
    one of the other three buckets).

    Environment knobs: [SMC_CG_OCAMLOPT] (compiler path), [SMC_CG_INCLUDE]
    (colon-separated extra [-I] dirs), [SMC_CG_TMPDIR] (scratch dir),
    [SMC_CG_KEEP] (keep generated files for inspection). *)

exception Unsupported of string
(** Raised by {!to_ocaml_source} for plans the compiled path does not
    cover (IndexJoin). {!prepare}/{!run} catch it and fall back. *)

val to_ocaml_source : Plan.t -> string
(** The complete plugin module for the plan: scalar helper prelude, the
    [query] function (every leaf abstracted as a closure — the
    {!Plan.leaf_rows} push of a scan, or of an index, text or view probe
    with its key bound — in a closure array, constants as a
    [Value.t array]), and the {!Codegen_abi} registration keyed by the
    source digest. Plans that differ only in a probe's key or needle
    render identically. *)

val available : unit -> bool
(** Whether the compiled path can work in this process: native code,
    [ocamlopt] found, .cmi directories located. *)

type outcome =
  | Native of string  (** executed by a Dynlink-loaded plugin; plan digest *)
  | Fallback of string  (** executed by {!Fuse}; the reason why *)

val prepare : Plan.t -> ((Value.t array -> unit) -> unit) * outcome
(** Compile (or fetch from cache, or fall back) and return a runner that
    can be invoked many times. *)

val run : Plan.t -> f:(Value.t array -> unit) -> unit
val collect : Plan.t -> Value.t array list

val operator_count : Plan.t -> int
(** Number of operators in the plan (for tests and plan statistics). *)
