(* Query-plan → compiled native code, via source emission + Dynlink.

   The paper's system modifies the C# compiler to expand LINQ queries over
   SMCs into generated imperative functions. Here the same staging runs at
   runtime: a plan is rendered to a self-contained OCaml module — the fused
   loop nest {!Fuse} would execute, but with predicates, projections, key
   extraction and aggregate updates emitted as direct code instead of
   closure chains — compiled with [ocamlopt -shared] against the host
   build's own .cmi files, and loaded into the running process with
   [Dynlink.loadfile_private]. The plugin hands its query function back
   through {!Codegen_abi}, typed by structure ([compiled_fn]).

   Exactness: the emitted code transliterates {!Expr.compile},
   {!Aggregate.compile} and {!Fuse.compile} case by case — same [Value]
   operations, same evaluation order (list/array literals are let-bound
   left-to-right, since OCaml literals evaluate right-to-left), same
   hash-table/ordering structures — so results are bit-identical to Fuse,
   including raises. Two details keep the plugin decoupled from any one
   collection: every leaf enters as a closure ([Plan.leaf_rows]: the scan,
   or the probe with its key, needle or view bound) in a closure array,
   and constants as a [Value.t array], both indexed by emission order. The
   compiled function is cached by the digest of its source, so plans that
   differ only in constants or in the collection they scan share one
   plugin.

   Fallback rules (docs/vectorized.md): bytecode hosts, a missing
   toolchain, unlocatable .cmi directories, compile or load failures, and
   the one unsupported operator (IndexJoin — its per-row probe does not fit
   the uniform scan ABI) all fall back to {!Fuse}, reported in
   [prepare]'s outcome and counted under [cg_fallbacks]. *)

type compiled_fn =
  ((Value.t array -> unit) -> unit) array ->
  Value.t array ->
  (Value.t array -> unit) ->
  unit

exception Unsupported of string

let indent n = String.make (2 * n) ' '

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Renders the body of [query] and collects leaves + constants. The
   continuation style mirrors the fused pipeline: every non-blocking
   operator contributes code inside its upstream loop body; blocking
   operators (group-by, order-by, join build) split the nest into phases.
   Convention: continuations emit ';'-terminated statements, and each
   binder closes its block with an explicit [()]. *)
let render plan =
  let buf = Buffer.create 4096 in
  let line depth fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (indent depth ^ s ^ "\n")) fmt
  in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let leaves = ref [] and nleaves = ref 0 in
  let add_leaf l =
    let i = !nleaves in
    incr nleaves;
    leaves := l :: !leaves;
    i
  in
  let consts = ref [] and nconsts = ref 0 in
  let add_const v =
    let i = !nconsts in
    incr nconsts;
    consts := v :: !consts;
    i
  in
  let limit_exns = ref [] in
  (* Scalar expression over row variable [row]: same Value operations, in
     the same shapes, as the closures Expr.compile builds — so evaluation
     order and raises match. *)
  let rec gx schema row e =
    let g e = gx schema row e in
    let resolve name =
      let rec go i =
        if i >= Array.length schema then
          invalid_arg ("Expr.compile: unknown column " ^ name)
        else if String.equal schema.(i) name then i
        else go (i + 1)
      in
      go 0
    in
    let cmp op a b = Printf.sprintf "(V.Bool (V.compare %s %s %s 0))" (g a) (g b) op in
    match e with
    | Expr.Col name -> Printf.sprintf "(Array.get %s %d)" row (resolve name)
    | Expr.Const v -> Printf.sprintf "(Array.get consts %d)" (add_const v)
    | Expr.Add (a, b) -> Printf.sprintf "(V.add %s %s)" (g a) (g b)
    | Expr.Sub (a, b) -> Printf.sprintf "(V.sub %s %s)" (g a) (g b)
    | Expr.Mul (a, b) -> Printf.sprintf "(V.mul %s %s)" (g a) (g b)
    | Expr.Div (a, b) -> Printf.sprintf "(V.div %s %s)" (g a) (g b)
    | Expr.Neg a -> Printf.sprintf "(V.neg %s)" (g a)
    | Expr.Eq (a, b) -> cmp "=" a b
    | Expr.Ne (a, b) -> cmp "<>" a b
    | Expr.Lt (a, b) -> cmp "<" a b
    | Expr.Le (a, b) -> cmp "<=" a b
    | Expr.Gt (a, b) -> cmp ">" a b
    | Expr.Ge (a, b) -> cmp ">=" a b
    | Expr.And (a, b) ->
      Printf.sprintf "(V.Bool (V.to_bool %s && V.to_bool %s))" (g a) (g b)
    | Expr.Or (a, b) ->
      Printf.sprintf "(V.Bool (V.to_bool %s || V.to_bool %s))" (g a) (g b)
    | Expr.Not a -> Printf.sprintf "(V.Bool (not (V.to_bool %s)))" (g a)
    | Expr.Between (x, lo, hi) ->
      let v = fresh "bv" in
      Printf.sprintf
        "(let %s = %s in V.Bool (V.compare %s %s >= 0 && V.compare %s %s <= 0))"
        v (g x) v (g lo) v (g hi)
    | Expr.Contains (a, needle) ->
      Printf.sprintf "(V.Bool (string_contains ~needle:%S (str_of %s)))" needle (g a)
    | Expr.ContainsCI (a, needle) ->
      Printf.sprintf "(V.Bool (string_contains_ci ~needle:%S (str_of %s)))" needle (g a)
    | Expr.StartsWith (a, prefix) ->
      Printf.sprintf "(V.Bool (starts_with %S (str_of %s)))" prefix (g a)
  in
  (* Ordered [Value.t list] literal: let-bound so effects (raises) run
     left-to-right like List.map over compiled key functions. *)
  let glist schema row exprs =
    match exprs with
    | [] -> "[]"
    | _ ->
      let bound = List.map (fun e -> (fresh "kv", gx schema row e)) exprs in
      Printf.sprintf "(%s[%s])"
        (String.concat "" (List.map (fun (v, src) -> Printf.sprintf "let %s = %s in " v src) bound))
        (String.concat "; " (List.map fst bound))
  in
  let rec emit plan depth k =
    match plan with
    | Plan.Scan _ | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ ->
      (* Every leaf enters as a host closure ([Plan.leaf_rows]): a scan, or
         a probe with its key, needle or view already bound. The rendered
         source never sees which, so plans differing only in probe
         constants share one compiled plugin. *)
      let i = add_leaf (Plan.leaf_rows plan) in
      let row = fresh "row" in
      line depth "(* leaf: rows of (%s) pushed by the host *)"
        (String.concat ", " (Array.to_list (Plan.schema plan)));
      line depth "Array.get sources %d (fun %s ->" i row;
      k (depth + 1) row;
      line (depth + 1) "());"
    | Plan.Where (pred, input) ->
      let schema = Plan.schema input in
      emit input depth (fun d row ->
          line d "if V.to_bool %s then begin" (gx schema row pred);
          k (d + 1) row;
          line (d + 1) "()";
          line d "end;")
    | Plan.Select (cols, input) ->
      let schema = Plan.schema input in
      emit input depth (fun d row ->
          let out = fresh "proj" in
          let bound = List.map (fun (_, e) -> (fresh "pv", gx schema row e)) cols in
          line d "let %s = (%s[| %s |]) in" out
            (String.concat ""
               (List.map (fun (v, src) -> Printf.sprintf "let %s = %s in " v src) bound))
            (String.concat "; " (List.map fst bound));
          k d out)
    | Plan.HashJoin { left; right; on } ->
      let lschema = Plan.schema left and rschema = Plan.schema right in
      let lkeys = List.map (fun (lc, _) -> Expr.Col lc) on in
      let rkeys = List.map (fun (_, rc) -> Expr.Col rc) on in
      let table = fresh "join_tbl" in
      line depth "let %s = Hashtbl.create 1024 in" table;
      emit right depth (fun d row ->
          line d "Hashtbl.add %s %s %s;" table (glist rschema row rkeys) row);
      emit left depth (fun d lrow ->
          let m = fresh "matched" and out = fresh "row" in
          line d "List.iter";
          line (d + 1) "(fun %s ->" m;
          line (d + 2) "let %s = Array.append %s %s in" out lrow m;
          k (d + 2) out;
          line (d + 2) "())";
          line (d + 1) "(Hashtbl.find_all %s %s);" table (glist lschema lrow lkeys))
    | Plan.IndexJoin _ ->
      (* The per-left-row keyed probe (with its ix_accepts split and lazy
         hash fallback) does not fit the uniform scan closure ABI. *)
      raise (Unsupported "IndexJoin is not compiled; executed by Fuse")
    | Plan.GroupBy { keys; aggs; input } ->
      let schema = Plan.schema input in
      let na = List.length aggs in
      let groups = fresh "groups" and order = fresh "order" in
      let counts = fresh "counts" and accs = fresh "accs" in
      line depth "let %s = Hashtbl.create 256 in" groups;
      line depth "let %s = ref [] in" order;
      emit input depth (fun d row ->
          let key = fresh "key" in
          line d "let %s = %s in" key (glist schema row (List.map snd keys));
          line d "let (%s, %s) =" counts accs;
          line (d + 1) "match Hashtbl.find_opt %s %s with" groups key;
          line (d + 1) "| Some c -> c";
          line (d + 1) "| None ->";
          line (d + 2) "let c = (Array.make %d 0, Array.make %d V.Null) in" na na;
          line (d + 2) "Hashtbl.add %s %s c;" groups key;
          line (d + 2) "%s := %s :: !%s;" order key order;
          line (d + 2) "c";
          line d "in";
          (* per-agg updates transliterate Aggregate.compile's cells *)
          List.iteri
            (fun j (_, agg) ->
              let acc = Printf.sprintf "(Array.get %s %d)" accs j in
              let cnt = Printf.sprintf "(Array.get %s %d)" counts j in
              match agg with
              | Plan.Count -> line d "Array.set %s %d (%s + 1);" counts j cnt
              | Plan.Sum e ->
                line d "(let v = %s in" (gx schema row e);
                line d " Array.set %s %d (if %s = V.Null then v else V.add %s v));" accs j
                  acc acc
              | Plan.Min e ->
                line d "(let v = %s in" (gx schema row e);
                line d " if %s = V.Null || V.compare v %s < 0 then Array.set %s %d v);" acc
                  acc accs j
              | Plan.Max e ->
                line d "(let v = %s in" (gx schema row e);
                line d " if %s = V.Null || V.compare v %s > 0 then Array.set %s %d v);" acc
                  acc accs j
              | Plan.Avg e ->
                line d "(let v = %s in" (gx schema row e);
                line d " Array.set %s %d (%s + 1);" counts j cnt;
                line d " Array.set %s %d (if %s = V.Null then v else V.add %s v));" accs j
                  acc acc)
            aggs)
      ;
      let key = fresh "key" and out = fresh "row" in
      let finish =
        List.mapi
          (fun j (_, agg) ->
            let acc = Printf.sprintf "(Array.get %s %d)" accs j in
            let cnt = Printf.sprintf "(Array.get %s %d)" counts j in
            match agg with
            | Plan.Count -> Printf.sprintf "(V.Int %s)" cnt
            | Plan.Sum _ | Plan.Min _ | Plan.Max _ -> acc
            | Plan.Avg _ ->
              Printf.sprintf "(if %s = 0 then V.Null else V.div (promote_dec %s) (V.Int %s))"
                cnt acc cnt)
          aggs
      in
      line depth "List.iter";
      line (depth + 1) "(fun %s ->" key;
      line (depth + 2) "let (%s, %s) = Hashtbl.find %s %s in" counts accs groups key;
      line (depth + 2) "let %s = Array.of_list (%s @ [ %s ]) in" out key
        (String.concat "; " finish);
      k (depth + 2) out;
      line (depth + 2) "())";
      line (depth + 1) "(List.rev !%s);" order
    | Plan.OrderBy (specs, input) ->
      let schema = Plan.schema input in
      let rows = fresh "sorted" and cmp = fresh "cmp" in
      line depth "let %s = ref [] in" rows;
      emit input depth (fun d row -> line d "%s := %s :: !%s;" rows row rows);
      line depth "let %s a b =" cmp;
      let rec gen_cmp specs d =
        match specs with
        | [] -> line d "0"
        | (e, dir) :: rest ->
          line d "let c = V.compare %s %s in" (gx schema "a" e) (gx schema "b" e);
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
      k (depth + 2) out;
      line (depth + 2) "())";
      line (depth + 1) "(List.stable_sort %s (List.rev !%s));" cmp rows
    | Plan.Distinct input ->
      let seen = fresh "seen" in
      line depth "let %s = Hashtbl.create 256 in" seen;
      emit input depth (fun d row ->
          let key = fresh "dkey" in
          line d "let %s = Array.to_list %s in" key row;
          line d "if not (Hashtbl.mem %s %s) then begin" seen key;
          line (d + 1) "Hashtbl.add %s %s ();" seen key;
          k (d + 1) row;
          line (d + 1) "()";
          line d "end;")
    | Plan.Limit (n, input) ->
      let taken = fresh "taken" in
      let exn = String.capitalize_ascii (fresh "done_") in
      limit_exns := exn :: !limit_exns;
      line depth "let %s = ref 0 in" taken;
      line depth "(try";
      emit input (depth + 1) (fun d row ->
          line d "if !%s < %d then begin" taken n;
          k (d + 1) row;
          line (d + 1) "incr %s;" taken;
          line (d + 1) "if !%s >= %d then raise %s" taken n exn;
          line d "end;");
      line (depth + 1) "()";
      line depth "with %s -> ());" exn
  in
  emit plan 1 (fun d row -> line d "__emit %s;" row);
  line 1 "()";
  (Buffer.contents buf, List.rev !leaves, Array.of_list (List.rev !consts), List.rev !limit_exns)

(* Full plugin module around a rendered body. The prelude transliterates
   the scalar helpers the emitted expressions rely on (Expr's string ops,
   Aggregate's Avg promotion); everything else resolves against the host's
   own smc_query units through their .cmi files. *)
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
  add "";
  add "let promote_dec = function V.Int x -> V.Dec (Smc_decimal__Decimal.of_int x) | v -> v";
  add "";
  add "let string_contains ~needle haystack =";
  add "  let n = String.length needle and h = String.length haystack in";
  add "  if n = 0 then true";
  add "  else begin";
  add "    let at i =";
  add "      let rec go j =";
  add "        j >= n";
  add "        || (String.unsafe_get haystack (i + j) = String.unsafe_get needle j && go (j + 1))";
  add "      in";
  add "      go 0";
  add "    in";
  add "    let rec go i = i + n <= h && (at i || go (i + 1)) in";
  add "    go 0";
  add "  end";
  add "";
  add "let lower_byte c =";
  add "  if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c";
  add "";
  add "let string_contains_ci ~needle haystack =";
  add "  let n = String.length needle and h = String.length haystack in";
  add "  if n = 0 then true";
  add "  else begin";
  add "    let at i =";
  add "      let rec go j =";
  add "        j >= n";
  add "        || (lower_byte (String.unsafe_get haystack (i + j))";
  add "              = lower_byte (String.unsafe_get needle j)";
  add "           && go (j + 1))";
  add "      in";
  add "      go 0";
  add "    in";
  add "    let rec go i = i + n <= h && (at i || go (i + 1)) in";
  add "    go 0";
  add "  end";
  add "";
  add "let starts_with prefix s =";
  add "  let n = String.length prefix in";
  add "  String.length s >= n";
  add "  &&";
  add "  let rec go j = j >= n || (String.unsafe_get s j = String.unsafe_get prefix j && go (j + 1)) in";
  add "  go 0";
  add "";
  add "let str_of = function V.Str s -> s | v -> V.to_string v";
  add "";
  List.iter (fun e -> add (Printf.sprintf "exception %s" e)) limit_exns;
  if limit_exns <> [] then add "";
  add "let query (sources : ((V.t array -> unit) -> unit) array)";
  add "    (consts : V.t array) (__emit : V.t array -> unit) : unit =";
  Buffer.add_string b body;
  add "";
  add (Printf.sprintf "let () = Smc_query__Codegen_abi.register %S (Obj.repr query)" digest);
  Buffer.contents b

let to_ocaml_source plan =
  let body, _, _, limit_exns = render plan in
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

let available () = match Lazy.force toolchain with Ok _ -> true | Error _ -> false

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
  | body, leaves, consts, limit_exns ->
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
       let sources = Array.of_list leaves in
       ((fun f -> fn sources consts f), Native digest)
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
