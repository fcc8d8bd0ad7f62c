module K = Kernel

(* A compiled subplan: column chunks read one position at a time. [run
   push] calls [push bt] once per chunk and the function it returns once
   per position of the chunk, in order — one closure chain per row, with
   no selection vector and no column-at-a-time pass. [chain] is set while
   the subplan is a Where/Select chain over a Scan. *)
type stage = {
  kinds : Batch.kind array;
  run : (Batch.t -> int -> unit) -> unit;
  chain : (Batch.t -> int -> unit) K.chain option;
}

(* Run a per-position consumer over every position of a chunk. *)
let each push bt =
  let push = push bt in
  for i = 0 to bt.Batch.len - 1 do
    push i
  done

(* Boxing happens here only: at the inputs of joins, sorts and distinct,
   and at the final emit. *)
let rows st emit = st.run (fun bt i -> emit (Batch.row bt i))

(* A row producer (joins, sorts, distinct, group-by output) as a stage:
   each row becomes a one-row chunk of boxed columns as it arrives. One
   row, not a full chunk, because the operators above must meet every row
   when Volcano would pull it: a [Where] over a [GroupBy] raises on group
   0 before a later group's finish can. *)
let lift ncols produce =
  {
    kinds = Array.make ncols Batch.K_any;
    run = (fun push -> Batch.of_rows ~ncols ~rows:1 produce (each push));
    chain = None;
  }

(* A position-to-position operator over a stage: [xf push] makes one
   instance that consumes the input's positions and pushes its own. *)
let extend kinds up xf =
  {
    kinds;
    run = (fun push -> up.run (xf push));
    chain =
      Option.map (fun c -> { c with K.through = (fun push -> c.K.through (xf push)) }) up.chain;
  }

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
  match plan with
  | Plan.Where (pred, input) ->
    let up = compile ~need:(K.need_union need (Expr.columns pred)) input in
    let test = K.test (K.lower ~schema:(Plan.schema input) ~kinds:up.kinds pred) in
    extend up.kinds up (fun push bt ->
        let test = test bt and push = push bt in
        fun i -> if test i then push i)
  | Plan.Select (cols, input) ->
    let up = compile ~need:(K.select_need cols) input in
    let kinds, write =
      K.compile_select ~schema:(Plan.schema input) ~kinds:up.kinds (List.map snd cols)
    in
    extend kinds up (fun push ->
        let out = Batch.create ~kinds ~cap:Batch.default_rows () in
        Batch.set_identity out Batch.default_rows;
        let write = write out in
        fun bt ->
          let write = write bt and push = push out in
          fun i ->
            write i;
            push i)
  | Plan.HashJoin _ | Plan.IndexJoin _ | Plan.OrderBy _ | Plan.Distinct _ ->
    lift
      (Array.length (Plan.schema plan))
      (row_operator plan (fun input -> rows (compile ~need:K.All input)))
  | Plan.GroupBy { keys; aggs; input } ->
    let up = compile ~need:(K.group_need keys aggs) input in
    let g =
      K.group_table ~schema:(Plan.schema input) ~kinds:up.kinds ~keys:(List.map snd keys)
        ~aggs:(List.map snd aggs)
    in
    lift
      (List.length keys + List.length aggs)
      (fun emit ->
        let t =
          match up.chain with
          | Some c ->
            K.run_groups ~create:g.K.create c.K.src ~rows:Batch.default_rows ?cols:c.K.cols
              (fun t produce -> produce (each (c.K.through (g.K.add t))))
          | None ->
            let t = g.K.create () in
            up.run (g.K.add t);
            t
        in
        K.iter_groups t emit)
  | Plan.Limit (n, input) ->
    (* No early termination in a push pipeline without exceptions; use one
       locally, which is how push engines implement LIMIT. A limit of 0 or
       less runs nothing, as in Volcano, which never pulls its input. *)
    let up = compile ~need input in
    let run push =
      let taken = ref 0 in
      let exception Done in
      if n > 0 then
        try
          up.run (fun bt ->
              let push = push bt in
              fun i ->
                push i;
                incr taken;
                if !taken >= n then raise Done)
        with Done -> ()
    in
    { up with run; chain = None }
  | leaf ->
    (* A leaf's chunks: typed from a [Scan], boxed from a probe. Only a
       [Scan] starts a chain, which a parallel group-by reads. *)
    let cols = K.scan_mask (Plan.schema leaf) need in
    {
      kinds = Plan.leaf_kinds leaf;
      run = (fun push -> Plan.leaf_batches leaf ~rows:Batch.default_rows ?cols (each push));
      chain =
        (match leaf with Plan.Scan src -> Some { K.src; cols; through = Fun.id } | _ -> None);
    }

let run plan ~f = rows (compile ~need:K.All plan) f

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out
