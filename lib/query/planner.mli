(** Access-path selection over logical plans.

    Sources built with [Source.of_smc] advertise attached hash indexes
    ([~indexes]), suffix-array text indexes ([~text_indexes]) and
    maintained aggregate views ([~matviews]); this pass lowers the plan
    shapes they can answer onto them:

    - [Where (col = const, Scan src)] — including an eligible equality
      conjunct inside an [And] tree — becomes {!Plan.IndexScan} when
      [src] has an index on [col] that can hold the constant. The whole
      predicate (matched conjunct included) is kept as a residual filter
      over the probe output, so the rewritten plan filters exactly like
      the scan plan even if a probe over-matches;
    - [Where (Contains (col, s), Scan src)] and [StartsWith] likewise —
      including as a conjunct inside an [And] tree — become
      {!Plan.TextScan} when [src] advertises a text index on [col]
      (built with [Source.of_smc ~text_indexes]) and the needle is
      non-empty. Equality conjuncts win when both apply; the whole
      predicate again stays as a residual filter;
    - a single-key [HashJoin] whose right (build) side is a scan of an
      indexed source becomes {!Plan.IndexJoin} (index nested-loop join),
      skipping the build phase entirely. The executors preserve
      HashJoin's structural-equality semantics: probed rows are re-checked
      against the left key, and left keys the index cannot hold (Null,
      decimals, booleans) fall back to a lazily built hash table
      ({!Source.keyed_probe});
    - a [GroupBy (keys, aggs, Scan src)] or
      [GroupBy (keys, aggs, Where (pred, Scan src))] whose keys,
      aggregates and filter are structurally equal to a view [src]
      advertises becomes {!Plan.ViewRead}, which reads the maintained
      groups instead of re-aggregating. The match runs on the original
      input, before any lower rewrite, and is exact: a differently
      spelled but equivalent query does not match.

    The pass is explicit: callers opt in per plan, so the same logical
    plan can be run both ways and compared. Rewrites preserve the bag of
    result rows but not row order (index probes yield hash order); order
    is only meaningful under [OrderBy] anyway. *)

val choose_access_paths : Plan.t -> Plan.t

val uses_index : Plan.t -> bool
(** Whether any access path other than a plain scan appears in the plan
    ([IndexScan], [IndexJoin], [TextScan] or [ViewRead]); a test/bench
    diagnostic. *)
