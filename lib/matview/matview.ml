(* Incremental materialized aggregate views (see matview.mli for the
   contract and the delta algebra).

   State: a contribution table keyed by packed indirect reference — the
   row's filter-passing (key, aggregate inputs) as last applied — and a
   group table folding those contributions into per-aggregate cells. The
   contribution table is what makes removal possible at all (the row is
   already dead when the remove hook fires, so its values are unreadable)
   and makes every delta idempotent per reference, so a rebuild racing a
   blocked hook cannot double-count.

   Sums keep the integer and decimal contributions split so the finished
   value carries the same type tag as the engines' fold: [Int] iff every
   contribution was an [Int], else the exact decimal total. Min/Max cells
   keep the extremum, its structural multiplicity, and a dirty bit; any
   delta the cell cannot answer exactly — the extremum removed with no
   structural duplicate, or a compare-equal contribution with a different
   tag, where the engines' first-seen-in-scan-order answer depends on
   block order — marks the group dirty, and the next read re-derives
   dirty groups in one shared block-order scan, which is by construction
   the same order the engines fold in. *)

open Smc_offheap
module Value = Smc_query.Value
module Expr = Smc_query.Expr
module Source = Smc_query.Source
module Plan = Smc_query.Plan
module D = Smc_decimal.Decimal

type sum_cell = {
  mutable si : int; (* sum of Int contributions *)
  mutable sd : D.t; (* exact sum of Dec contributions *)
  mutable nd : int; (* number of Dec contributions *)
}

type mm_cell = {
  maxi : bool;
  mutable cur : Value.t;
  mutable n_ext : int; (* structural multiplicity of [cur]; 0 = no rows folded *)
  mutable dirty : bool;
}

type cell = C_count | C_sum of sum_cell | C_avg of sum_cell | C_mm of mm_cell

type group = {
  g_key : Value.t list;
  mutable g_rows : int;
  g_cells : cell array;
}

type contribution = { c_key : Value.t list; c_vals : Value.t array }

type t = {
  vname : string;
  coll : Smc.Collection.t;
  keys : (string * Expr.t) list;
  aggs : (string * Source.view_agg) list;
  where : Expr.t option;
  specs : Source.view_agg array;
  extractors : (Block.t -> int -> Value.t) array;
  key_fns : (Value.t array -> Value.t) array;
  agg_fns : (Value.t array -> Value.t) option array; (* None for V_count *)
  pred : (Value.t array -> bool) option;
  scratch : Plan.t; (* GroupBy over the optional Where over the Scan *)
  lock : Mutex.t;
  groups : (Value.t list, group) Hashtbl.t;
  contribs : (int, contribution) Hashtbl.t;
  mutable frontier : int;
  mutable invalid : string option;
  obs : Smc_obs.t;
}

let name t = t.vname
let collection t = t.coll

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- row evaluation ------------------------------------------------ *)

let extract_row t blk slot = Array.map (fun e -> e blk slot) t.extractors
let passes t row = match t.pred with None -> true | Some p -> p row
let eval_key t row = Array.to_list (Array.map (fun f -> f row) t.key_fns)

let eval_vals t row =
  Array.map (function None -> Value.Null | Some f -> f row) t.agg_fns

(* The invertible algebra: Count always; Sum/Avg need numeric non-Null
   inputs (subtraction must be exact and the engines' fold raises on the
   rest anyway); Min/Max need non-Null inputs (a Null re-arms the engines'
   accumulator, making the result depend on scan order). *)
let non_invertible t vals =
  let bad = ref None in
  Array.iteri
    (fun i v ->
      if !bad = None then
        match (t.specs.(i), v) with
        | Source.V_count, _ -> ()
        | (Source.V_sum _ | Source.V_avg _), (Value.Int _ | Value.Dec _) -> ()
        | (Source.V_sum _ | Source.V_avg _), Value.Null ->
          bad := Some (Printf.sprintf "aggregate %d: Null sum/avg input" i)
        | (Source.V_sum _ | Source.V_avg _), _ ->
          bad := Some (Printf.sprintf "aggregate %d: non-numeric sum/avg input" i)
        | (Source.V_min _ | Source.V_max _), Value.Null ->
          bad := Some (Printf.sprintf "aggregate %d: Null min/max input" i)
        | (Source.V_min _ | Source.V_max _), _ -> ())
    vals;
  !bad

(* ---- delta application (caller holds t.lock) ----------------------- *)

let invalidate t reason =
  if t.invalid = None then begin
    t.invalid <- Some reason;
    Hashtbl.reset t.groups;
    Hashtbl.reset t.contribs;
    Smc_obs.incr t.obs Smc_obs.c_mv_invalidations
  end

let fresh_cells t =
  Array.map
    (function
      | Source.V_count -> C_count
      | Source.V_sum _ -> C_sum { si = 0; sd = D.zero; nd = 0 }
      | Source.V_avg _ -> C_avg { si = 0; sd = D.zero; nd = 0 }
      | Source.V_min _ -> C_mm { maxi = false; cur = Value.Null; n_ext = 0; dirty = false }
      | Source.V_max _ -> C_mm { maxi = true; cur = Value.Null; n_ext = 0; dirty = false })
    t.specs

let cell_add cell v =
  match cell with
  | C_count -> ()
  | C_sum s | C_avg s -> (
    match v with
    | Value.Int x -> s.si <- s.si + x
    | Value.Dec d ->
      s.sd <- D.add s.sd d;
      s.nd <- s.nd + 1
    | _ -> assert false (* guarded by [non_invertible] *))
  | C_mm m ->
    if not m.dirty then
      if m.n_ext = 0 then begin
        m.cur <- v;
        m.n_ext <- 1
      end
      else
        let c = Value.compare v m.cur in
        if if m.maxi then c > 0 else c < 0 then begin
          m.cur <- v;
          m.n_ext <- 1
        end
        else if c = 0 then
          if v = m.cur then m.n_ext <- m.n_ext + 1
          else
            (* compare-equal but tag-distinct (Int 5 vs Dec 5): the
               engines keep whichever the scan sees first — only a
               block-order re-scan can answer that *)
            m.dirty <- true

let cell_remove cell v =
  match cell with
  | C_count -> ()
  | C_sum s | C_avg s -> (
    match v with
    | Value.Int x -> s.si <- s.si - x
    | Value.Dec d ->
      s.sd <- D.sub s.sd d;
      s.nd <- s.nd - 1
    | _ -> assert false)
  | C_mm m ->
    if not m.dirty then
      if Value.compare v m.cur = 0 then
        if v = m.cur && m.n_ext > 1 then m.n_ext <- m.n_ext - 1 else m.dirty <- true

let apply_contribution t ~dir con =
  match Hashtbl.find_opt t.groups con.c_key with
  | None ->
    if dir > 0 then begin
      let g = { g_key = con.c_key; g_rows = 1; g_cells = fresh_cells t } in
      Array.iteri (fun i c -> cell_add c con.c_vals.(i)) g.g_cells;
      Hashtbl.add t.groups con.c_key g
    end
    else
      (* a −delta with no group means the tables drifted — possible only
         through a bug in a mutation path; fall back loudly, don't lie *)
      invalidate t "remove delta for an unknown group"
  | Some g ->
    if dir > 0 then begin
      g.g_rows <- g.g_rows + 1;
      Array.iteri (fun i c -> cell_add c con.c_vals.(i)) g.g_cells
    end
    else begin
      g.g_rows <- g.g_rows - 1;
      if g.g_rows <= 0 then Hashtbl.remove t.groups con.c_key
      else Array.iteri (fun i c -> cell_remove c con.c_vals.(i)) g.g_cells
    end

let touch_frontier t = t.frontier <- Context.csn_now t.coll.Smc.Collection.ctx

(* Derive the row's current contribution: [None] when the row is already
   dead (the remove hook settles that case), [Some None] when it is live
   but fails the filter, [Some (Some con)] when it contributes. *)
let derive t r =
  Smc.Collection.with_read t.coll (fun () ->
      match Smc.Collection.deref_opt t.coll r with
      | None -> None
      | Some (blk, slot) ->
        let row = extract_row t blk slot in
        Some
          (if passes t row then Some { c_key = eval_key t row; c_vals = eval_vals t row }
           else None))

let applied_delta t counter =
  Smc_obs.incr t.obs counter;
  Smc_obs.incr t.obs Smc_obs.c_mv_applied

(* ---- mutation hooks ------------------------------------------------ *)

(* Hooks run inside writers' critical sections and under the commit lock;
   they must never raise. Anything unexpected — an evaluator type error,
   a non-invertible input — downgrades to whole-view invalidation, and
   reads fall back to re-derivation. *)
let guarded t f =
  locked t (fun () ->
      if t.invalid = None then begin
        (try f () with exn -> invalidate t (Printexc.to_string exn));
        touch_frontier t
      end)

let on_add t r =
  guarded t (fun () ->
      let p = Smc.Ref.to_packed r in
      if not (Hashtbl.mem t.contribs p) then
        match derive t r with
        | None | Some None -> ()
        | Some (Some con) -> (
          match non_invertible t con.c_vals with
          | Some reason -> invalidate t reason
          | None ->
            Hashtbl.add t.contribs p con;
            apply_contribution t ~dir:1 con;
            applied_delta t Smc_obs.c_mv_adds))

let on_remove t r =
  guarded t (fun () ->
      let p = Smc.Ref.to_packed r in
      match Hashtbl.find_opt t.contribs p with
      | None -> () (* the row never passed the filter *)
      | Some con ->
        Hashtbl.remove t.contribs p;
        apply_contribution t ~dir:(-1) con;
        applied_delta t Smc_obs.c_mv_removes)

let on_store t r =
  guarded t (fun () ->
      let p = Smc.Ref.to_packed r in
      let old = Hashtbl.find_opt t.contribs p in
      match derive t r with
      | None -> () (* vanished under the store: the remove hook settles it *)
      | Some fresh ->
        if old <> fresh then
        match (match fresh with Some n -> non_invertible t n.c_vals | None -> None) with
        | Some reason -> invalidate t reason
        | None ->
          (match old with
          | Some o ->
            Hashtbl.remove t.contribs p;
            apply_contribution t ~dir:(-1) o
          | None -> ());
          (match fresh with
          | Some n ->
            Hashtbl.add t.contribs p n;
            apply_contribution t ~dir:1 n
          | None -> ());
          applied_delta t Smc_obs.c_mv_stores)

(* ---- build / re-scan / read (caller holds t.lock) ------------------ *)

(* Full incremental (re)build from live rows, in block order. Returns
   whether the state is clean; on a non-invertible input the view is left
   invalid with the tables cleared. *)
let build_locked t =
  Smc_obs.incr t.obs Smc_obs.c_mv_builds;
  t.invalid <- None;
  Hashtbl.reset t.groups;
  Hashtbl.reset t.contribs;
  Smc.Collection.iter t.coll ~f:(fun blk slot ->
      if t.invalid = None then begin
        let row = extract_row t blk slot in
        if passes t row then begin
          let con = { c_key = eval_key t row; c_vals = eval_vals t row } in
          match non_invertible t con.c_vals with
          | Some reason -> invalidate t reason
          | None ->
            let p = Smc.Ref.to_packed (Smc.Collection.ref_of_slot t.coll blk slot) in
            Hashtbl.add t.contribs p con;
            apply_contribution t ~dir:1 con
        end
      end);
  touch_frontier t;
  t.invalid = None

(* One block-order scan re-deriving every dirty Min/Max cell of the given
   groups — bounded: only dirty groups' cells are recomputed, and the
   fold is exactly the engines' (first strict improvement wins, so ties
   resolve to the first row in block order). The walk folds the applied
   contributions, not the live rows: a row made valid whose add delta is
   still waiting on [t.lock] has none yet, and folding it here as well as
   from its delta would count an extremum twice. *)
let rescan_locked t dirty =
  let targets = Hashtbl.create (List.length dirty) in
  List.iter
    (fun g ->
      Array.iter
        (function C_mm m when m.dirty -> m.n_ext <- 0 | _ -> ())
        g.g_cells;
      Hashtbl.replace targets g.g_key g)
    dirty;
  Smc.Collection.iter t.coll ~f:(fun blk slot ->
      let p = Smc.Ref.to_packed (Smc.Collection.ref_of_slot t.coll blk slot) in
      match Hashtbl.find_opt t.contribs p with
      | None -> ()
      | Some con -> (
        match Hashtbl.find_opt targets con.c_key with
        | None -> ()
        | Some g ->
          Array.iteri
            (fun i c ->
              match c with
              | C_mm m when m.dirty ->
                let v = con.c_vals.(i) in
                if m.n_ext = 0 then begin
                  m.cur <- v;
                  m.n_ext <- 1
                end
                else
                  let cmp = Value.compare v m.cur in
                  if if m.maxi then cmp > 0 else cmp < 0 then begin
                    m.cur <- v;
                    m.n_ext <- 1
                  end
                  else if cmp = 0 && v = m.cur then m.n_ext <- m.n_ext + 1
              | _ -> ())
            g.g_cells));
  List.iter
    (fun g ->
      Array.iter (function C_mm m -> m.dirty <- false | _ -> ()) g.g_cells)
    dirty

let finish_cell g cell =
  match cell with
  | C_count -> Value.Int g.g_rows
  | C_sum s ->
    if s.nd = 0 then Value.Int s.si else Value.Dec (D.add (D.of_int s.si) s.sd)
  | C_avg s ->
    let total = if s.nd = 0 then D.of_int s.si else D.add (D.of_int s.si) s.sd in
    Value.Dec (D.div total (D.of_int g.g_rows))
  | C_mm m -> m.cur

let emit_group g =
  Array.of_list (g.g_key @ Array.to_list (Array.map (finish_cell g) g.g_cells))

let has_dirty g =
  Array.exists (function C_mm m -> m.dirty | _ -> false) g.g_cells

(* Maintained rows: resolve dirty groups first. Returns whether a re-scan
   was needed. *)
let rows_of_groups_locked t =
  let dirty = Hashtbl.fold (fun _ g acc -> if has_dirty g then g :: acc else acc) t.groups [] in
  if dirty <> [] then rescan_locked t dirty;
  let rows = Hashtbl.fold (fun _ g acc -> emit_group g :: acc) t.groups [] in
  (rows, dirty <> [])

let plan_agg_of_spec = function
  | Source.V_count -> Plan.Count
  | Source.V_sum e -> Plan.Sum e
  | Source.V_min e -> Plan.Min e
  | Source.V_max e -> Plan.Max e
  | Source.V_avg e -> Plan.Avg e

(* From-scratch evaluation: the reference engine over the reified plan —
   the fallback for an invalid view and the parity oracle for [audit]. It
   raises exactly where the engines would (type errors over
   non-invertible data). *)
let scratch_rows_locked t = Smc_query.Interp.collect t.scratch

let read t emit =
  let rows =
    locked t (fun () ->
        Smc_obs.incr t.obs Smc_obs.c_mv_reads;
        match t.invalid with
        | None ->
          let rows, rescanned = rows_of_groups_locked t in
          Smc_obs.incr t.obs
            (if rescanned then Smc_obs.c_mv_rescans else Smc_obs.c_mv_hits);
          rows
        | Some _ ->
          (* Loud fallback: one full re-derivation per read while invalid.
             Try to re-validate first — the offending rows may be gone. *)
          Smc_obs.incr t.obs Smc_obs.c_mv_rescans;
          if build_locked t then fst (rows_of_groups_locked t)
          else scratch_rows_locked t)
  in
  List.iter emit rows

let frontier t = locked t (fun () -> t.frontier)

(* ---- lifecycle ----------------------------------------------------- *)

let attach ~name:vname coll ~columns ~keys ~aggs ?where () =
  let schema = Array.of_list (List.map fst columns) in
  let known c = Array.exists (String.equal c) schema in
  let check_expr what e =
    List.iter
      (fun c ->
        if not (known c) then
          invalid_arg
            (Printf.sprintf "Matview.attach: view %S: %s references column %S outside the \
                             declared columns"
               vname what c))
      (Expr.columns e)
  in
  List.iter (fun (n, e) -> check_expr (Printf.sprintf "key %S" n) e) keys;
  List.iter
    (fun (n, spec) ->
      match spec with
      | Source.V_count -> ()
      | Source.V_sum e | Source.V_min e | Source.V_max e | Source.V_avg e ->
        check_expr (Printf.sprintf "aggregate %S" n) e)
    aggs;
  Option.iter (check_expr "the filter") where;
  let specs = Array.of_list (List.map snd aggs) in
  let t =
    {
      vname;
      coll;
      keys;
      aggs;
      where;
      specs;
      extractors = Array.of_list (List.map (fun (_, c) -> Source.extract_column c) columns);
      key_fns = Array.of_list (List.map (fun (_, e) -> Expr.compile ~schema e) keys);
      agg_fns =
        Array.map
          (function
            | Source.V_count -> None
            | Source.V_sum e | Source.V_min e | Source.V_max e | Source.V_avg e ->
              Some (Expr.compile ~schema e))
          specs;
      pred = Option.map (fun e -> Expr.compile_pred ~schema e) where;
      scratch =
        (let scan = Plan.scan (Source.of_smc coll ~columns) in
         Plan.group_by ~keys
           ~aggs:(List.map (fun (n, spec) -> (n, plan_agg_of_spec spec)) aggs)
           (match where with Some e -> Plan.where e scan | None -> scan));
      lock = Mutex.create ();
      groups = Hashtbl.create 256;
      contribs = Hashtbl.create 1024;
      frontier = 0;
      invalid = None;
      obs = coll.Smc.Collection.rt.Runtime.obs;
    }
  in
  (* Subscribe first (rejects direct mode / duplicate names before any
     work), then the initial build; attach is a quiescent-point operation so
     no mutation slips between the two. *)
  Smc.Collection.subscribe coll
    {
      name = vname;
      on_commit =
        List.iter (function
          | Smc.Collection.Add (r, _, _) -> on_add t r
          | Remove r -> on_remove t r
          | Store (r, _, _) -> on_store t r);
    };
  locked t (fun () -> ignore (build_locked t : bool));
  t

let detach t = Smc.Collection.unsubscribe t.coll t.vname

let info t =
  {
    Source.mv_name = t.vname;
    mv_keys = t.keys;
    mv_aggs = t.aggs;
    mv_where = t.where;
    mv_read = (fun emit -> read t emit);
    mv_frontier = (fun () -> frontier t);
    mv_collection = t.coll;
  }

(* ---- introspection -------------------------------------------------- *)

type stats = {
  st_groups : int;
  st_contributions : int;
  st_dirty_groups : int;
  st_invalid : string option;
  st_frontier : int;
}

let stats t =
  locked t (fun () ->
      {
        st_groups = Hashtbl.length t.groups;
        st_contributions = Hashtbl.length t.contribs;
        st_dirty_groups =
          Hashtbl.fold (fun _ g n -> if has_dirty g then n + 1 else n) t.groups 0;
        st_invalid = t.invalid;
        st_frontier = t.frontier;
      })

let sort_rows rows = List.sort Stdlib.compare (List.map Array.to_list rows)

let audit t =
  locked t (fun () ->
      match t.invalid with
      | Some _ -> [] (* reads re-derive; nothing maintained to cross-check *)
      | None ->
        let violations = ref [] in
        let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
        (* 1. The contribution table must be exactly the live filter-passing
           rows with their current values — this is the exactly-once audit
           over every mutation path feeding the hooks. *)
        let fresh = Hashtbl.create (Hashtbl.length t.contribs) in
        Smc.Collection.iter t.coll ~f:(fun blk slot ->
            let row = extract_row t blk slot in
            if passes t row then
              let p = Smc.Ref.to_packed (Smc.Collection.ref_of_slot t.coll blk slot) in
              Hashtbl.replace fresh p { c_key = eval_key t row; c_vals = eval_vals t row });
        Hashtbl.iter
          (fun p con ->
            match Hashtbl.find_opt t.contribs p with
            | None -> bad "view %s: live row %d has no contribution (missed delta)" t.vname p
            | Some recorded ->
              if recorded <> con then
                bad "view %s: row %d contribution is stale (missed store delta)" t.vname p)
          fresh;
        Hashtbl.iter
          (fun p _ ->
            if not (Hashtbl.mem fresh p) then
              bad "view %s: contribution %d has no live row (missed remove delta)" t.vname p)
          t.contribs;
        (* 2. Group row counts against the contribution table. *)
        let per_key = Hashtbl.create (Hashtbl.length t.groups) in
        Hashtbl.iter
          (fun _ con ->
            Hashtbl.replace per_key con.c_key
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_key con.c_key)))
          t.contribs;
        Hashtbl.iter
          (fun key g ->
            let expect = Option.value ~default:0 (Hashtbl.find_opt per_key key) in
            if g.g_rows <> expect then
              bad "view %s: group row count %d disagrees with %d contributions" t.vname
                g.g_rows expect)
          t.groups;
        Hashtbl.iter
          (fun key n ->
            if not (Hashtbl.mem t.groups key) && n > 0 then
              bad "view %s: %d contributions for a missing group" t.vname n)
          per_key;
        (* 3. Bit-identical multiset parity with a from-scratch evaluation. *)
        let maintained = sort_rows (fst (rows_of_groups_locked t)) in
        let scratch = sort_rows (scratch_rows_locked t) in
        if maintained <> scratch then
          bad "view %s: maintained result (%d groups) differs from a from-scratch \
               evaluation (%d groups)"
            t.vname (List.length maintained) (List.length scratch);
        List.rev !violations)
