(** Query-plan → compiled native code, via source emission + Dynlink.

    The paper's system modifies the C# compiler to expand LINQ queries over
    SMCs into generated imperative functions that operate directly on the
    collection's memory blocks. This module performs the same staging at
    runtime: {!to_ocaml_source} renders the plan as a self-contained OCaml
    module; {!prepare} compiles it with [ocamlopt -shared] against the host
    build's .cmi files, loads it with [Dynlink.loadfile_private], and
    receives the query function back through {!Codegen_abi}.

    Every leaf enters the plugin as a batch source ({!Plan.leaf_batches}:
    a [Scan] fills only the columns the plan reads, a probe leaf's rows
    arrive as boxed chunks), and the emitted code is one fused loop per
    column chunk: filters, projections, group keys and
    aggregate updates run as straight-line code over unboxed Int, Dec,
    Date and Char words, int-like group keys hash as one unboxed key, and
    a [Value.t] is built only for output rows, new groups' keys, join and
    sort inputs, and operands with no typed form. Compiled plans are
    cached by the digest of their source, which holds the leaves' column
    kinds and the kinds of constants but not collection identity,
    constant values, substring needles or probe keys — so re-running a plan shape over another collection with the
    same column kinds, or with other constants, reuses the plugin.

    Results are bit-identical to {!Fuse.collect}, raises included: the
    plugin prints the typed form {!Kernel.lower} and {!Kernel.lower_group}
    make, the same form Fuse and {!Vector} interpret, and transliterates
    {!Fuse}'s operator loops case by case, in the same evaluation order. When compilation is impossible — bytecode
    host, no [ocamlopt] on PATH, unlocatable .cmi directories, a
    compile/load failure, or an [IndexJoin] in the plan (its keyed per-row
    probe is not a leaf) — execution falls back to {!Fuse} and
    the outcome says why. Requests, compiles, cache hits and fallbacks are
    counted under the plan's source runtime ([cg_*] counters; every
    request lands in exactly one of the other three buckets).

    Environment knobs: [SMC_CG_OCAMLOPT] (compiler path), [SMC_CG_INCLUDE]
    (colon-separated extra [-I] dirs), [SMC_CG_TMPDIR] (scratch dir),
    [SMC_CG_KEEP] (keep generated files for inspection). *)

exception Unsupported of string
(** Raised by {!to_ocaml_source} for plans the compiled path does not
    cover (IndexJoin). {!prepare}/{!run} catch it and fall back. *)

val to_ocaml_source : Plan.t -> string
(** The complete plugin module for the plan: a two-helper prelude, the
    [query] function (leaves as an array of batch sources, group-by
    runners as an array, constants as a [Value.t array]),
    and the {!Codegen_abi} registration keyed by the source digest. Plans
    that differ only in constant values, probe keys or needles, or in
    collections whose scanned columns have the same kinds, render
    identically. *)

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
