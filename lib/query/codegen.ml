(* Query-plan → compiled native code, via source emission + Dynlink: the
   staging the paper does in the C# compiler, run at runtime (see
   codegen.mli for the contract).

   Rendering passes continuations over the plan: each operator emits its
   code inside its upstream loop body, and blocking operators split the
   nest into phases. Every leaf emits one loop per column chunk
   ({!Plan.leaf_batches}): it binds the arrays of the columns its body
   reads (a [Scan]'s column mask; a probe's boxed [V_val] columns) and
   runs the body over row [i]. A fresh chunk's selection is the
   identity, so there is no selection vector. Expressions are lowered by {!Kernel.lower} against
   the kinds of the row they read and render as [tx], a kind plus unboxed
   and boxed code, so Int/Dec/Date/Char operands stay words and a
   [Value.t] is built only where the plan needs one or a node is [K_any].

   Exactness: bit-identical to Fuse, raises included, because both run
   the same typed form. Every kind decision (promotion, a compare's
   domain, coercions, [Between]'s order, the key shape and the aggregate
   cells) is made by {!Kernel.lower} and {!Kernel.lower_group}; this file
   only prints each node as the inline OCaml that computes what
   [Kernel]'s interpreter computes for it, [K_any] nodes through [Value]'s
   own operations. Operands are printed in the application shape
   {!Expr.compile} uses, so they evaluate in the same order, and keys and
   projections are let-bound left to right, since OCaml literals evaluate
   right to left.

   Sharing: leaves (probe keys bound in them) and group-by runners enter
   as closure arrays, and constants (needles included) as a
   [Value.t array]. The source holds column and constant kinds but not
   collection identity or constant values, and plugins are cached by its
   digest. A group-by's aggregation
   phase is rendered as a function of its table and one chunk producer,
   so the host's runner can run it on every worker of a parallel scan
   ({!Kernel.run_groups}).

   Fallback rules (docs/vectorized.md): bytecode hosts, a missing
   toolchain, unlocatable .cmi directories, compile or load failures, and
   IndexJoin (its per-row probe is not a leaf) fall back to
   {!Fuse}, reported in [prepare]'s outcome and counted under
   [cg_fallbacks]. *)

(* A group-by's host runner: given the table's shape and cells, it runs
   the plugin's aggregation phase ([table -> chunk producer -> unit]) and
   returns the filled table — over {!Kernel.run_groups} when the group-by
   reads a Where/Select chain over a Scan. *)
type group_runner =
  Kernel.key_shape ->
  Kernel.cell array ->
  (Kernel.table -> ((Batch.t -> unit) -> unit) -> unit) ->
  Kernel.table

type compiled_fn =
  ((Batch.t -> unit) -> unit) array ->
  group_runner array ->
  Value.t array ->
  (Value.t array -> unit) ->
  unit

exception Unsupported of string

let indent n = String.make (2 * n) ' '

(* An emitted expression: its static kind, its code in that kind's
   unboxed form (an int word for Int/Dec/Date/Char, a bool, a string; the
   [Value.t] itself for [K_any]) and its boxed [Value.t] code. Both are
   lazy: forcing a scan column's code is what marks the column as read,
   and forcing a constant's code is what binds its unboxed form. *)
type tx = { k : Batch.kind; code : string Lazy.t; boxed : string Lazy.t }

(* A row in the loop nest: one [tx] per column, plus the variable that
   holds it as a [Value.t array], once one exists. *)
type row = { cols : tx array; var : string option }

let kind_name = function
  | Batch.K_int -> "int"
  | Batch.K_dec -> "dec"
  | Batch.K_date -> "date"
  | Batch.K_bool -> "bool"
  | Batch.K_char -> "char"
  | Batch.K_str -> "str"
  | Batch.K_any -> "val"

let box_code k c =
  match k with
  | Batch.K_char -> Printf.sprintf "(V.Str (B.char_str %s))" c
  | Batch.K_any -> c
  | Batch.K_int | Batch.K_dec | Batch.K_date | Batch.K_bool | Batch.K_str ->
    Printf.sprintf "(V.%s %s)" (String.capitalize_ascii (kind_name k)) c

let typed k code = { k; code; boxed = lazy (box_code k (Lazy.force code)) }
let word k s = typed k (Lazy.from_val s)
let boxed s = { k = Batch.K_any; code = Lazy.from_val s; boxed = Lazy.from_val s }
let code t = Lazy.force t.code
let box t = Lazy.force t.boxed

let boxed_row var n =
  let col j = boxed (Printf.sprintf "(Array.get %s %d)" var j) in
  { cols = Array.init n col; var = Some var }

let kind_ctor k = "B.K_" ^ match k with Batch.K_any -> "any" | k -> kind_name k

let cell_code = function
  | Kernel.Count -> "K.Count"
  | Kernel.Sum_word k -> "(K.Sum_word " ^ kind_ctor k ^ ")"
  | Kernel.Avg_word k -> "(K.Avg_word " ^ kind_ctor k ^ ")"
  | Kernel.Min_word k -> "(K.Min_word " ^ kind_ctor k ^ ")"
  | Kernel.Max_word k -> "(K.Max_word " ^ kind_ctor k ^ ")"
  | Kernel.Sum_val -> "K.Sum_val"
  | Kernel.Avg_val -> "K.Avg_val"
  | Kernel.Min_val -> "K.Min_val"
  | Kernel.Max_val -> "K.Max_val"

let shape_code = function
  | Kernel.No_key -> "K.No_key"
  | Kernel.Word k -> Printf.sprintf "(K.Word %s)" (kind_ctor k)
  | Kernel.Chars n -> Printf.sprintf "(K.Chars %d)" n
  | Kernel.Words ks ->
    Printf.sprintf "(K.Words [| %s |])" (String.concat "; " (Array.to_list (Array.map kind_ctor ks)))
  | Kernel.Boxed -> "K.Boxed"

let op_code = function
  | Kernel.O_eq -> "="
  | Kernel.O_ne -> "<>"
  | Kernel.O_lt -> "<"
  | Kernel.O_le -> "<="
  | Kernel.O_gt -> ">"
  | Kernel.O_ge -> ">="

let kinds row = Array.map (fun t -> t.k) row.cols

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Renders the body of [query] and collects leaves + constants. The
   continuation style mirrors the fused pipeline: every non-blocking
   operator contributes code inside its upstream loop body; blocking
   operators (group-by, order-by, join build) split the nest into phases.
   Convention: continuations emit ';'-terminated statements, and each
   binder closes its block with an explicit [()]. *)
let render plan =
  let buf = ref (Buffer.create 4096) in
  let line depth fmt =
    Printf.ksprintf (fun s -> Buffer.add_string !buf (indent depth ^ s ^ "\n")) fmt
  in
  (* The lines [f] renders, kept aside: a chunk loop binds only the
     columns its body reads, and a group table's module depends on its
     key kinds — both known once the body is rendered. *)
  let capture f =
    let saved = !buf in
    buf := Buffer.create 1024;
    f ();
    let s = Buffer.contents !buf in
    buf := saved;
    s
  in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let collector () =
    let items = ref [] and n = ref 0 in
    ( (fun v ->
        let i = !n in
        incr n;
        items := v :: !items;
        i),
      fun () -> List.rev !items )
  in
  let add_leaf, leaves = collector () in
  let add_group, groups = collector () in
  (* Set while a group-by renders a chain over a Scan: the Scan's chunks
     then come from the aggregation phase's [scan] argument, and the cell
     receives the Scan's source and column mask. *)
  let phase_leaf = ref None in
  let add_const, consts = collector () in
  let add_bind, binds = collector () in
  let limit_exns = ref [] in
  (* A constant is read from [consts]; its unboxed form, when typed code
     asks for it, is bound once at entry — so the constant's kind is in
     the source, and its value is not. *)
  let const k v =
    let i = add_const v in
    let boxed = Lazy.from_val (Printf.sprintf "(Array.get consts %d)" i) in
    match k with
    | Batch.K_any -> { k; code = boxed; boxed }
    | k ->
      let code =
        lazy
          (let var = Printf.sprintf "k%d" i in
           ignore
             (add_bind
                (Printf.sprintf
                   "let %s = (match Array.get consts %d with V.%s x -> x | _ -> assert false) in"
                   var i (String.capitalize_ascii (kind_name k)))
               : int);
           var)
      in
      { k; code; boxed }
  in
  let truth t =
    if t.k = Batch.K_bool then code t else Printf.sprintf "(V.to_bool %s)" (box t)
  in
  let bool fmt = Printf.ksprintf (word Batch.K_bool) fmt in
  (* A {!Kernel.form} printed over a row: the code of every node is what
     [Kernel]'s interpreters compute for it, inlined. *)
  let rec form ?subj row (f : Kernel.form) =
    let g = form ?subj row in
    let fmt k = Printf.ksprintf (word k) in
    match f.node with
    | Kernel.Col ci -> row.cols.(ci)
    | Kernel.Const v -> const f.kind v
    | Kernel.Subj -> Option.get subj
    | Kernel.Promote a -> fmt Batch.K_dec "(D.of_int %s)" (code (g a))
    | Kernel.Chr a -> fmt Batch.K_str "(B.char_str %s)" (code (g a))
    | Kernel.Show a -> fmt Batch.K_str "(V.to_string %s)" (box (g a))
    | Kernel.Neg a -> (
      match f.kind with
      | Batch.K_int -> fmt f.kind "(- %s)" (code (g a))
      | Batch.K_dec -> fmt f.kind "(D.neg %s)" (code (g a))
      | _ -> boxed (Printf.sprintf "(V.neg %s)" (box (g a))))
    | Kernel.Arith (op, a, b) -> (
      let name, sym =
        match op with
        | Kernel.A_add -> ("add", "+")
        | Kernel.A_sub -> ("sub", "-")
        | Kernel.A_mul -> ("mul", "*")
        | Kernel.A_div -> ("div", "/")
      in
      let ta = g a in
      let tb = g b in
      match f.kind with
      | Batch.K_int -> fmt f.kind "(%s %s %s)" (code ta) sym (code tb)
      | Batch.K_dec -> fmt f.kind "(D.%s %s %s)" name (code ta) (code tb)
      | _ -> boxed (Printf.sprintf "(V.%s %s %s)" name (box ta) (box tb)))
    | Kernel.Cmp (op, dom, a, b) -> (
      let ta = g a in
      let tb = g b and op = op_code op in
      match dom with
      | Kernel.On_words -> bool "((%s : int) %s %s)" (code ta) op (code tb)
      | Kernel.On_strings -> bool "(String.compare %s %s %s 0)" (code ta) (code tb) op
      | Kernel.On_bools -> bool "(Bool.compare %s %s %s 0)" (code ta) (code tb) op
      | Kernel.On_values -> bool "(V.compare %s %s %s 0)" (box ta) (box tb) op)
    | Kernel.And (a, b) ->
      let ta = truth (g a) in
      bool "(%s && %s)" ta (truth (g b))
    | Kernel.Or (a, b) ->
      let ta = truth (g a) in
      bool "(%s || %s)" ta (truth (g b))
    | Kernel.Not a -> bool "(not %s)" (truth (g a))
    | Kernel.Between (s, lo, hi) ->
      let v = fresh "bv" in
      let subj = word s.kind v and ts = code (g s) in
      let tlo = code (form ~subj row lo) in
      bool "(let %s = %s in %s && %s)" v ts tlo (code (form ~subj row hi))
    | Kernel.Text (op, needle, a) ->
      let fn, arg =
        match op with
        | Kernel.T_contains -> ("string_contains", "needle")
        | Kernel.T_contains_ci -> ("string_contains_ci", "needle")
        | Kernel.T_starts_with -> ("string_starts_with", "prefix")
      in
      bool "(E.%s ~%s:%s %s)" fn arg (code (const Batch.K_str (Value.Str needle))) (code (g a))
  in
  let expr schema row e = form row (Kernel.lower ~schema ~kinds:(kinds row) e) in
  (* Ordered [Value.t list] literal: let-bound so effects (raises) run
     left-to-right like List.map over compiled key functions. *)
  let glist schema row exprs =
    match exprs with
    | [] -> "[]"
    | _ ->
      let bound = List.map (fun e -> (fresh "kv", box (expr schema row e))) exprs in
      Printf.sprintf "(%s[%s])"
        (String.concat "" (List.map (fun (v, src) -> Printf.sprintf "let %s = %s in " v src) bound))
        (String.concat "; " (List.map fst bound))
  in
  let materialize d row =
    match row.var with
    | Some v -> v
    | None ->
      let v = fresh "row" in
      line d "let %s = [| %s |] in" v
        (String.concat "; " (Array.to_list (Array.map box row.cols)));
      v
  in
  let rec emit plan depth k =
    match plan with
    | Plan.Where (pred, input) ->
      let schema = Plan.schema input in
      emit input depth (fun d row ->
          line d "if %s then begin" (truth (expr schema row pred));
          k (d + 1) row;
          line (d + 1) "()";
          line d "end;")
    | Plan.Select (cols, input) ->
      let schema = Plan.schema input in
      emit input depth (fun d row ->
          let cols =
            List.map
              (fun (_, e) ->
                let t = expr schema row e in
                let v = fresh "pv" in
                line d "let %s = %s in" v (code t);
                word t.k v)
              cols
          in
          k d { cols = Array.of_list cols; var = None })
    | Plan.HashJoin { left; right; on } ->
      let lschema = Plan.schema left and rschema = Plan.schema right in
      let lkeys = List.map (fun (lc, _) -> Expr.Col lc) on in
      let rkeys = List.map (fun (_, rc) -> Expr.Col rc) on in
      let table = fresh "join_tbl" in
      line depth "let %s = Hashtbl.create 1024 in" table;
      emit right depth (fun d row ->
          let r = materialize d row in
          line d "Hashtbl.add %s %s %s;" table (glist rschema row rkeys) r);
      emit left depth (fun d lrow ->
          let l = materialize d lrow in
          let m = fresh "matched" and out = fresh "row" in
          line d "List.iter";
          line (d + 1) "(fun %s ->" m;
          line (d + 2) "let %s = Array.append %s %s in" out l m;
          k (d + 2) (boxed_row out (Array.length lschema + Array.length rschema));
          line (d + 2) "())";
          line (d + 1) "(Hashtbl.find_all %s %s);" table (glist lschema lrow lkeys))
    | Plan.IndexJoin _ ->
      (* The per-left-row keyed probe (with its ix_accepts split and lazy
         hash fallback) is not a leaf the plugin can read as chunks. *)
      raise (Unsupported "IndexJoin is not compiled; executed by Fuse")
    | Plan.GroupBy { keys; aggs; input } ->
      let schema = Plan.schema input in
      let tbl = fresh "groups" in
      (* Groups live in a {!Kernel} table: the lowering picks the key's
         shape and each aggregate's cell, the table hands out dense ids in
         first-seen order and finishes the rows; the plugin keeps only the
         updates. A word cell never sees Null, so Aggregate's first-value
         step is a plain word sum, and an extremum starts at the far end so
         the first value replaces it. *)
      let lowered = ref None in
      let update d row g j (cell, f) =
        let arr field = Printf.sprintf "(Array.unsafe_get %s.K.%s %d)" tbl field j in
        let bind v = line d "(let v = %s in" v in
        let word_update stmt =
          bind (code (form row (Option.get f)));
          line (d + 1) "let w = %s in let cur = Array.unsafe_get w %s in" (arr "words") g;
          line (d + 1) "%s);" stmt
        in
        let val_update stmt =
          bind (box (form row (Option.get f)));
          line (d + 1) "let a = %s in let acc = Array.unsafe_get a %s in" (arr "vals") g;
          line (d + 1) "%s);" stmt
        in
        let ext op = Printf.sprintf "if acc = V.Null || V.compare v acc %s 0 then Array.unsafe_set a %s v" op g in
        match cell with
        | Kernel.Count -> ()
        | Kernel.Sum_word _ | Kernel.Avg_word _ ->
          word_update (Printf.sprintf "Array.unsafe_set w %s (cur + (v : int))" g)
        | Kernel.Min_word _ -> word_update (Printf.sprintf "if (v : int) < cur then Array.unsafe_set w %s v" g)
        | Kernel.Max_word _ -> word_update (Printf.sprintf "if (v : int) > cur then Array.unsafe_set w %s v" g)
        | Kernel.Sum_val | Kernel.Avg_val ->
          val_update (Printf.sprintf "Array.unsafe_set a %s (if acc = V.Null then v else V.add acc v)" g)
        | Kernel.Min_val -> val_update (ext "<")
        | Kernel.Max_val -> val_update (ext ">")
      in
      let leaf = ref None in
      let rec chain = function
        | Plan.Scan _ -> true
        | Plan.Where (_, p) | Plan.Select (_, p) -> chain p
        | _ -> false
      in
      if chain input then phase_leaf := Some leaf;
      let loop =
        capture (fun () ->
            emit input (depth + 1) (fun d row ->
                let lg =
                  Kernel.lower_group ~schema ~kinds:(kinds row) ~keys:(List.map snd keys)
                    ~aggs:(List.map snd aggs)
                in
                lowered := Some lg;
                let words =
                  List.map
                    (fun f ->
                      let t = form row f in
                      let v = fresh "kv" in
                      line d "let %s = %s in" v (code t);
                      word t.k v)
                    lg.Kernel.key_forms
                in
                let g = fresh "g" in
                (match lg.Kernel.key with
                | Kernel.No_key -> line d "let %s = K.id_of_none %s in" g tbl
                | Kernel.Word _ -> line d "let %s = K.id_of_word %s %s in" g tbl (code (List.hd words))
                | Kernel.Chars _ ->
                  line d "let %s = K.id_of_word %s %s in" g tbl
                    (List.fold_left (fun acc t -> Printf.sprintf "(K.pack_char %s %s)" acc (code t)) "0" words)
                | Kernel.Words _ ->
                  line d "let %s = K.id_of_words %s [| %s |] in" g tbl
                    (String.concat "; " (List.map code words))
                | Kernel.Boxed ->
                  line d "let %s = K.id_of_boxed %s [%s] in" g tbl (String.concat "; " (List.map box words)));
                line d "let rows = %s.K.rows in" tbl;
                line d "Array.unsafe_set rows %s (Array.unsafe_get rows %s + 1);" g g;
                List.iteri (update d row g) lg.Kernel.agg_forms))
      in
      let lg = Option.get !lowered in
      (* The aggregation phase is a function of the table and of one chunk
         producer, so the host can run it on every worker of a parallel
         scan; the runner returns the filled (merged) table. *)
      line depth "let %s = Array.get groupbys %d %s [| %s |] (fun %s scan ->" tbl
        (add_group !leaf) (shape_code lg.Kernel.key)
        (String.concat "; " (List.map (fun (c, _) -> cell_code c) lg.Kernel.agg_forms))
        tbl;
      Buffer.add_string !buf loop;
      line (depth + 1) "()) in";
      let out = fresh "row" in
      line depth "K.iter_groups %s (fun %s ->" tbl out;
      k (depth + 1) (boxed_row out (List.length keys + List.length aggs));
      line (depth + 1) "());"
    | Plan.OrderBy (specs, input) ->
      let schema = Plan.schema input in
      let n = Array.length schema in
      let rows = fresh "sorted" and cmp = fresh "cmp" in
      line depth "let %s = ref [] in" rows;
      emit input depth (fun d row -> line d "%s := %s :: !%s;" rows (materialize d row) rows);
      line depth "let %s a b =" cmp;
      let rec gen_cmp specs d =
        match specs with
        | [] -> line d "0"
        | (e, dir) :: rest ->
          line d "let c = V.compare %s %s in"
            (box (expr schema (boxed_row "a" n) e))
            (box (expr schema (boxed_row "b" n) e));
          (match dir with Plan.Asc -> () | Plan.Desc -> line d "let c = -c in");
          line d "if c <> 0 then c";
          line d "else begin";
          gen_cmp rest (d + 1);
          line d "end"
      in
      gen_cmp specs (depth + 1);
      line depth "in";
      let out = fresh "row" in
      line depth "List.iter";
      line (depth + 1) "(fun %s ->" out;
      k (depth + 2) (boxed_row out n);
      line (depth + 2) "())";
      line (depth + 1) "(List.stable_sort %s (List.rev !%s));" cmp rows
    | Plan.Distinct input ->
      let seen = fresh "seen" in
      line depth "let %s = Hashtbl.create 256 in" seen;
      emit input depth (fun d row ->
          let r = materialize d row in
          let key = fresh "dkey" in
          line d "let %s = Array.to_list %s in" key r;
          line d "if not (Hashtbl.mem %s %s) then begin" seen key;
          line (d + 1) "Hashtbl.add %s %s ();" seen key;
          k (d + 1) { row with var = Some r };
          line (d + 1) "()";
          line d "end;")
    | Plan.Limit (n, input) ->
      let taken = fresh "taken" in
      let exn = String.capitalize_ascii (fresh "done_") in
      limit_exns := exn :: !limit_exns;
      line depth "let %s = ref 0 in" taken;
      (* A limit of 0 or less runs nothing, as in Volcano. *)
      line depth "(if %d > 0 then try" n;
      emit input (depth + 1) (fun d row ->
          k d row;
          line d "incr %s;" taken;
          line d "if !%s >= %d then raise %s;" taken n exn);
      line (depth + 1) "()";
      line depth "with %s -> ());" exn
    | leaf ->
      let kinds = Plan.leaf_kinds leaf in
      let used = Array.make (Array.length kinds) false in
      let bt = fresh "bt" and r = fresh "i" in
      let var c = Printf.sprintf "%s_c%d" bt c in
      let cols =
        Array.mapi
          (fun c kind ->
            typed kind
              (lazy
                (used.(c) <- true;
                 Printf.sprintf "(Array.unsafe_get %s %s)" (var c) r)))
          kinds
      in
      line depth "(* leaf: column chunks of (%s) *)"
        (String.concat ", "
           (Array.to_list
              (Array.mapi (fun c name -> name ^ ":" ^ kind_name kinds.(c)) (Plan.schema leaf))));
      let producer =
        match (!phase_leaf, leaf) with
        | Some cell, Plan.Scan src ->
          phase_leaf := None;
          cell := Some (src, used);
          "scan"
        | _ -> Printf.sprintf "Array.get leaves %d" (add_leaf (leaf, used))
      in
      line depth "%s (fun %s ->" producer bt;
      let body = capture (fun () -> k (depth + 2) { cols; var = None }) in
      Array.iteri
        (fun c read ->
          if read then
            line (depth + 1)
              "let %s = (match Array.unsafe_get %s.B.cols %d with B.V_%s a -> a | _ -> assert false) in"
              (var c) bt c (kind_name kinds.(c)))
        used;
      line (depth + 1) "for %s = 0 to %s.B.len - 1 do" r bt;
      Buffer.add_string !buf body;
      line (depth + 2) "()";
      line (depth + 1) "done);"
  in
  let body =
    capture (fun () -> emit plan 1 (fun d row -> line d "__emit %s;" (materialize d row)))
  in
  let entry = String.concat "" (List.map (fun b -> indent 1 ^ b ^ "\n") (binds ())) in
  ( entry ^ body ^ indent 1 ^ "()\n",
    leaves (),
    groups (),
    Array.of_list (consts ()),
    List.rev !limit_exns )

(* Full plugin module around a rendered body; everything in it resolves
   against the host's own units through their .cmi files. *)
let assemble ~digest ~limit_exns body =
  let b = Buffer.create 8192 in
  let add s = Buffer.add_string b (s ^ "\n") in
  add (Printf.sprintf "(* Generated by Smc_query.Codegen — plan digest %s." digest);
  add "   Compiled with ocamlopt -shared, loaded with Dynlink.loadfile_private;";
  add "   symbols resolve against the host executable's own smc_query units. *)";
  add "[@@@warning \"-a\"]";
  add "";
  (* the library wrapper modules (Smc_query, Smc_decimal) are alias-only
     and may not be linked into the host executable; reference the real
     (mangled) units, whose implementations are always present *)
  add "module V = Smc_query__Value";
  add "module B = Smc_query__Batch";
  add "module E = Smc_query__Expr";
  add "module D = Smc_decimal__Decimal";
  add "module K = Smc_query__Kernel";
  add "";
  List.iter (fun e -> add (Printf.sprintf "exception %s" e)) limit_exns;
  if limit_exns <> [] then add "";
  add "let query (leaves : ((B.t -> unit) -> unit) array)";
  add "    (groupbys : (K.key_shape -> K.cell array ->";
  add "                 (K.table -> ((B.t -> unit) -> unit) -> unit) -> K.table) array)";
  add "    (consts : V.t array) (__emit : V.t array -> unit) : unit =";
  Buffer.add_string b body;
  add "";
  add (Printf.sprintf "let () = Smc_query__Codegen_abi.register %S (Obj.repr query)" digest);
  Buffer.contents b

let to_ocaml_source plan =
  let body, _, _, _, limit_exns = render plan in
  let digest = Digest.to_hex (Digest.string body) in
  assemble ~digest ~limit_exns body

(* ------------------------------------------------------------------ *)
(* Toolchain + compile + load *)

let find_ocamlopt () =
  match Sys.getenv_opt "SMC_CG_OCAMLOPT" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
    let dirs =
      String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"")
    in
    let try_name n =
      List.find_map
        (fun d ->
          if String.equal d "" then None
          else
            let p = Filename.concat d n in
            if Sys.file_exists p then Some p else None)
        dirs
    in
    (match try_name "ocamlopt.opt" with Some p -> Some p | None -> try_name "ocamlopt")

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* The plugin type-checks against the same .cmi files this executable was
   built from: walk up from the executable to the dune _build root, then
   include every library's .objs dir (byte for .cmi, native for .cmx so
   cross-module inlining stays available). *)
let find_build_root () =
  let marker = Filename.concat "lib" (Filename.concat "query" ".smc_query.objs") in
  let rec up dir =
    if Sys.file_exists (Filename.concat dir marker) then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Filename.dirname (absolute Sys.executable_name))

let objs_dirs root =
  let out = ref [] in
  let lib = Filename.concat root "lib" in
  if Sys.file_exists lib && Sys.is_directory lib then
    Array.iter
      (fun sub ->
        let d = Filename.concat lib sub in
        if Sys.is_directory d then
          Array.iter
            (fun e ->
              if Filename.check_suffix e ".objs" then
                List.iter
                  (fun v ->
                    let p = Filename.concat (Filename.concat d e) v in
                    if Sys.file_exists p then out := p :: !out)
                  [ "byte"; "native" ])
            (Sys.readdir d))
      (Sys.readdir lib);
  !out

let toolchain =
  lazy
    (if not Dynlink.is_native then
       Error "bytecode host: Dynlink cannot load native plugins"
     else
       match find_ocamlopt () with
       | None -> Error "ocamlopt not found on PATH (set SMC_CG_OCAMLOPT)"
       | Some oc ->
         let extra =
           match Sys.getenv_opt "SMC_CG_INCLUDE" with
           | Some s -> List.filter (fun d -> d <> "") (String.split_on_char ':' s)
           | None -> []
         in
         (match find_build_root () with
          | Some root -> Ok (oc, extra @ objs_dirs root)
          | None ->
            if extra <> [] then Ok (oc, extra)
            else
              Error
                "cannot locate the build's .cmi directories (set SMC_CG_INCLUDE)"))

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with _ -> ""

let compile_and_load ~digest source =
  match Lazy.force toolchain with
  | Error reason -> Error reason
  | Ok (ocamlopt, incs) ->
    let dir =
      match Sys.getenv_opt "SMC_CG_TMPDIR" with
      | Some d -> d
      | None -> Filename.get_temp_dir_name ()
    in
    let base =
      Filename.concat dir
        (Printf.sprintf "smc_cg_%d_%s" (Unix.getpid ()) (String.sub digest 0 12))
    in
    let ml = base ^ ".ml" and cmxs = base ^ ".cmxs" and log = base ^ ".log" in
    let cleanup () =
      if Sys.getenv_opt "SMC_CG_KEEP" = None then
        List.iter
          (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
          [ ".ml"; ".cmi"; ".cmx"; ".o"; ".cmxs"; ".log" ]
    in
    Fun.protect ~finally:cleanup (fun () ->
        let oc = open_out ml in
        output_string oc source;
        close_out oc;
        let cmd =
          Printf.sprintf "%s -shared -w -a %s -o %s %s > %s 2>&1"
            (Filename.quote ocamlopt)
            (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incs))
            (Filename.quote cmxs) (Filename.quote ml) (Filename.quote log)
        in
        if Sys.command cmd <> 0 then
          Error (Printf.sprintf "ocamlopt failed: %s" (String.trim (read_file log)))
        else
          match Dynlink.loadfile_private cmxs with
          | exception Dynlink.Error e -> Error (Dynlink.error_message e)
          | () ->
            (match Codegen_abi.take digest with
             | Some o -> Ok (Obj.obj o : compiled_fn)
             | None -> Error "plugin loaded but registered nothing"))

(* ------------------------------------------------------------------ *)
(* Cache + execution *)

let cache : (string, compiled_fn) Hashtbl.t = Hashtbl.create 8
let cache_lock = Mutex.create ()

type outcome = Native of string | Fallback of string

let plan_obs plan = List.find_map (fun s -> s.Source.obs) (Plan.sources plan)

let prepare plan =
  let obs = plan_obs plan in
  let bump c = match obs with Some o -> Smc_obs.incr o c | None -> () in
  bump Smc_obs.c_cg_requests;
  match render plan with
  | exception Unsupported reason ->
    bump Smc_obs.c_cg_fallbacks;
    ((fun f -> Fuse.run plan ~f), Fallback reason)
  | body, leaves, groups, consts, limit_exns ->
    let digest = Digest.to_hex (Digest.string body) in
    let fetch () =
      Mutex.lock cache_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock cache_lock)
        (fun () ->
          match Hashtbl.find_opt cache digest with
          | Some fn -> Ok (fn, true)
          | None ->
            (match compile_and_load ~digest (assemble ~digest ~limit_exns body) with
             | Ok fn ->
               Hashtbl.replace cache digest fn;
               Ok (fn, false)
             | Error reason -> Error reason))
    in
    (match fetch () with
     | Ok (fn, hit) ->
       bump (if hit then Smc_obs.c_cg_cache_hits else Smc_obs.c_cg_compiles);
       (* a Scan fills only the columns its chunk loop reads *)
       let leaves =
         Array.of_list
           (List.map
              (fun (leaf, used) -> Plan.leaf_batches leaf ~rows:Batch.default_rows ~cols:used)
              leaves)
       in
       let groups =
         Array.of_list
           (List.map
              (fun leaf shape cells phase ->
                let create () = Kernel.create_table shape cells in
                match leaf with
                | Some (src, used) ->
                  Kernel.run_groups ~create src ~rows:Batch.default_rows ~cols:used phase
                | None ->
                  (* the phase reads its input through [leaves] *)
                  let t = create () in
                  phase t (fun _ -> invalid_arg "Codegen: this aggregation phase reads no chunks");
                  t)
              groups)
       in
       ((fun f -> fn leaves groups consts f), Native digest)
     | Error reason ->
       bump Smc_obs.c_cg_fallbacks;
       ((fun f -> Fuse.run plan ~f), Fallback reason))

let run plan ~f =
  let runner, _ = prepare plan in
  runner f

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out

let rec operator_count plan =
  List.fold_left (fun n p -> n + operator_count p) 1 (Plan.children plan)
