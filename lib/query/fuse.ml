module K = Kernel

(* A compiled subplan, in the form its producer makes: column chunks read
   one position at a time, or boxed rows. [Chunks (kinds, run, chain)]:
   [run push] calls [push bt] once per chunk and the function it returns
   once per position of the chunk, in order — one closure chain per row,
   with no selection vector and no column-at-a-time pass. A scan makes
   chunks, and filters, projections and limits keep the form of their
   input; probe leaves, joins, sorts, distinct and group-by make rows. *)
type stage =
  | Chunks of Batch.kind array * ((Batch.t -> int -> unit) -> unit) * chain option
  | Rows of ((Value.t array -> unit) -> unit)

(* A Where/Select chain over a Scan: the scan's source and column mask,
   and the chain as a function of its consumer. Each call of [through]
   makes a fresh instance (with its own Select output chunk), so a
   parallel group-by runs one per worker. *)
and chain = {
  src : Source.t;
  cols : bool array option;
  through : (Batch.t -> int -> unit) -> Batch.t -> int -> unit;
}

(* Run a per-position consumer over every position of a chunk. *)
let each push bt =
  let push = push bt in
  for i = 0 to bt.Batch.len - 1 do
    push i
  done

(* Boxing happens here only: at the inputs of joins, sorts and distinct,
   and at the final emit. *)
let rows = function
  | Rows produce -> produce
  | Chunks (_, run, _) -> fun emit -> run (fun bt i -> emit (Batch.row bt i))

(* A row producer under a GroupBy: each row becomes a one-row chunk of
   boxed columns, which the group table reads through its scalar
   fallback. *)
let chunks ncols = function
  | Chunks (kinds, run, chain) -> (kinds, run, chain)
  | Rows produce ->
    let kinds = Array.make ncols Batch.K_any in
    let run push =
      let b = Batch.create ~kinds ~cap:1 () in
      Batch.set_identity b 1;
      let cells =
        Array.map (function Batch.V_val a -> a | _ -> assert false) b.Batch.cols
      in
      produce (fun row ->
          Array.iteri (fun c a -> a.(0) <- row.(c)) cells;
          push b 0)
    in
    (kinds, run, None)

(* A position-to-position operator over a chunk stage: [xf push] makes one
   instance that consumes the input's positions and pushes its own. *)
let extend kinds run chain xf =
  Chunks
    ( kinds,
      (fun push -> run (xf push)),
      Option.map (fun c -> { c with through = (fun push -> c.through (xf push)) }) chain )

(* The push form of the operators that consume whole boxed rows, shared
   by Fuse and {!Vector}: [input] compiles a child into its row producer,
   once, and each run of the result re-runs it. *)
let row_operator plan (input : Plan.t -> (Value.t array -> unit) -> unit) :
    (Value.t array -> unit) -> unit =
  let key schema cols =
    let fns = List.map (fun c -> Expr.compile ~schema (Expr.Col c)) cols in
    fun row -> List.map (fun f -> f row) fns
  in
  match plan with
  | Plan.HashJoin { left; right; on } ->
    let lkey = key (Plan.schema left) (List.map fst on) in
    let rkey = key (Plan.schema right) (List.map snd on) in
    let build = input right and probe = input left in
    fun emit ->
      let table = Hashtbl.create 1024 in
      build (fun row -> Hashtbl.add table (rkey row) row);
      probe (fun l ->
          List.iter (fun r -> emit (Array.append l r)) (Hashtbl.find_all table (lkey l)))
  | Plan.IndexJoin { left; src; index; left_col } ->
    (* Index nested-loop join: the probe side fuses straight into the
       keyed probe; there is no build phase to pipeline-break on. The
       probe is made per run, since the compiled pipeline may execute
       more than once. *)
    let lkey = Expr.compile ~schema:(Plan.schema left) (Expr.Col left_col) in
    let keyed = Source.keyed_probe src index in
    let probe = input left in
    fun emit ->
      let keyed = keyed () in
      probe (fun l -> keyed (lkey l) (fun r -> emit (Array.append l r)))
  | Plan.OrderBy (specs, up) ->
    let schema = Plan.schema up in
    let fns = List.map (fun (e, d) -> (Expr.compile ~schema e, d)) specs in
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (f, d) :: rest ->
          let c = Value.compare (f a) (f b) in
          let c = match d with Plan.Asc -> c | Plan.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go fns
    in
    let upstream = input up in
    fun emit ->
      let rows = ref [] in
      upstream (fun row -> rows := row :: !rows);
      List.iter emit (List.stable_sort compare_rows (List.rev !rows))
  | Plan.Distinct up ->
    let upstream = input up in
    fun emit ->
      let seen = Hashtbl.create 256 in
      upstream (fun row ->
          let key = Array.to_list row in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            emit row
          end)
  | _ -> invalid_arg "Fuse.row_operator: not a row operator"

(* Compile the plan to a function that pushes every result row into [emit].
   Compilation happens once; running the returned closure executes the
   fused pipeline. [need] is the set of columns the operators above read,
   which is the column mask a scan fills. *)
let rec compile ~need plan =
  let input_rows input = rows (compile ~need:K.All input) in
  match plan with
  | Plan.Scan src ->
    let cols = K.scan_mask src need in
    Chunks
      ( src.Source.kinds,
        (fun push -> Source.batches src ~rows:Batch.default_rows ?cols (each push)),
        Some { src; cols; through = Fun.id } )
  | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ -> Rows (Plan.leaf_rows plan)
  | Plan.Where (pred, input) -> (
    let schema = Plan.schema input in
    match compile ~need:(K.need_union need (Expr.columns pred)) input with
    | Rows upstream ->
      let test = Expr.compile_pred ~schema pred in
      Rows (fun emit -> upstream (fun row -> if test row then emit row))
    | Chunks (kinds, run, chain) ->
      let test = K.test (K.lower ~schema ~kinds pred) in
      extend kinds run chain (fun push bt ->
          let test = test bt and push = push bt in
          fun i -> if test i then push i))
  | Plan.Select (cols, input) -> (
    let schema = Plan.schema input in
    match compile ~need:(K.select_need cols) input with
    | Rows upstream ->
      let fns = Array.of_list (List.map (fun (_, e) -> Expr.compile ~schema e) cols) in
      Rows (fun emit -> upstream (fun row -> emit (Array.map (fun f -> f row) fns)))
    | Chunks (kinds, run, chain) ->
      let out_kinds, write = K.compile_select ~schema ~kinds (List.map snd cols) in
      extend out_kinds run chain (fun push ->
          let out = Batch.create ~kinds:out_kinds ~cap:Batch.default_rows () in
          Batch.set_identity out Batch.default_rows;
          let write = write out in
          fun bt ->
            let write = write bt and push = push out in
            fun i ->
              write i;
              push i))
  | Plan.HashJoin _ | Plan.IndexJoin _ | Plan.OrderBy _ | Plan.Distinct _ ->
    Rows (row_operator plan input_rows)
  | Plan.GroupBy { keys; aggs; input } ->
    let ncols = Array.length (Plan.schema input) in
    let kinds, run, chain = chunks ncols (compile ~need:(K.group_need keys aggs) input) in
    let g =
      K.group_table ~schema:(Plan.schema input) ~kinds ~keys:(List.map snd keys)
        ~aggs:(List.map snd aggs)
    in
    Rows
      (fun emit ->
        let t =
          match chain with
          | Some c ->
            K.run_groups ~create:g.K.create c.src ~rows:Batch.default_rows ?cols:c.cols
              (fun t produce -> produce (each (c.through (g.K.add t))))
          | None ->
            let t = g.K.create () in
            run (g.K.add t);
            t
        in
        K.iter_groups t emit)
  | Plan.Limit (n, input) -> (
    (* No early termination in a push pipeline without exceptions; use one
       locally, which is how push engines implement LIMIT. *)
    let limited body =
      let taken = ref 0 in
      let exception Done in
      let take push =
        if !taken < n then begin
          push ();
          incr taken;
          if !taken >= n then raise Done
        end
      in
      try body take with Done -> ()
    in
    match compile ~need input with
    | Rows upstream ->
      Rows (fun emit -> limited (fun take -> upstream (fun row -> take (fun () -> emit row))))
    | Chunks (kinds, run, _) ->
      Chunks
        ( kinds,
          (fun push ->
            limited (fun take ->
                run (fun bt ->
                    let push = push bt in
                    fun i -> take (fun () -> push i)))),
          None ))

let run plan ~f = rows (compile ~need:K.All plan) f

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out
