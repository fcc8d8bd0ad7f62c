let group_key key_fns row = List.map (fun f -> f row) key_fns

(* Compile the plan to a function that pushes every result row into [emit].
   Compilation happens once; running the returned closure executes the
   fused pipeline. *)
let rec compile plan =
  match plan with
  | Plan.Scan _ | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ -> Plan.leaf_rows plan
  | Plan.Where (pred, input) ->
    let upstream = compile input in
    let test = Expr.compile_pred ~schema:(Plan.schema input) pred in
    fun emit -> upstream (fun row -> if test row then emit row)
  | Plan.Select (cols, input) ->
    let upstream = compile input in
    let schema = Plan.schema input in
    let fns = Array.of_list (List.map (fun (_, e) -> Expr.compile ~schema e) cols) in
    fun emit -> upstream (fun row -> emit (Array.map (fun f -> f row) fns))
  | Plan.HashJoin { left; right; on } ->
    let lschema = Plan.schema left and rschema = Plan.schema right in
    let lkeys = List.map (fun (lc, _) -> Expr.compile ~schema:lschema (Expr.Col lc)) on in
    let rkeys = List.map (fun (_, rc) -> Expr.compile ~schema:rschema (Expr.Col rc)) on in
    let build = compile right in
    let probe = compile left in
    fun emit ->
      let table = Hashtbl.create 1024 in
      build (fun row -> Hashtbl.add table (group_key rkeys row) row);
      probe (fun l ->
          List.iter
            (fun r -> emit (Array.append l r))
            (Hashtbl.find_all table (group_key lkeys l)))
  | Plan.IndexJoin { left; src; index; left_col } ->
    (* Index nested-loop join: the probe side fuses straight into the
       keyed probe; there is no build phase to pipeline-break on. The
       probe is made per run, since the compiled pipeline may execute
       more than once. *)
    let lkey = Expr.compile ~schema:(Plan.schema left) (Expr.Col left_col) in
    let keyed = Source.keyed_probe src index in
    let probe = compile left in
    fun emit ->
      let keyed = keyed () in
      probe (fun l -> keyed (lkey l) (fun r -> emit (Array.append l r)))
  | Plan.GroupBy { keys; aggs; input } ->
    let schema = Plan.schema input in
    let key_fns = List.map (fun (_, e) -> Expr.compile ~schema e) keys in
    let compiled = List.map (fun (_, a) -> Aggregate.compile ~schema a) aggs in
    let upstream = compile input in
    fun emit ->
      let groups = Hashtbl.create 256 in
      let order = ref [] in
      upstream (fun row ->
          let key = group_key key_fns row in
          let cells =
            match Hashtbl.find_opt groups key with
            | Some cells -> cells
            | None ->
              let cells = List.map (fun (fresh, _, _) -> fresh ()) compiled in
              Hashtbl.add groups key cells;
              order := key :: !order;
              cells
          in
          List.iter2 (fun (_, update, _) cell -> update cell row) compiled cells);
      List.iter
        (fun key ->
          let cells = Hashtbl.find groups key in
          let finished =
            List.map2 (fun (_, _, finish) cell -> finish cell) compiled cells
          in
          emit (Array.of_list (key @ finished)))
        (List.rev !order)
  | Plan.OrderBy (specs, input) ->
    let schema = Plan.schema input in
    let fns = List.map (fun (e, d) -> (Expr.compile ~schema e, d)) specs in
    let upstream = compile input in
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
    fun emit ->
      let rows = ref [] in
      upstream (fun row -> rows := row :: !rows);
      List.iter emit (List.stable_sort compare_rows (List.rev !rows))
  | Plan.Distinct input ->
    let upstream = compile input in
    fun emit ->
      let seen = Hashtbl.create 256 in
      upstream (fun row ->
          let key = Array.to_list row in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            emit row
          end)
  | Plan.Limit (n, input) ->
    let upstream = compile input in
    fun emit ->
      let taken = ref 0 in
      (* No early termination in a push pipeline without exceptions; use one
         locally, which is how push engines implement LIMIT. *)
      let exception Done in
      (try
         upstream (fun row ->
             if !taken < n then begin
               emit row;
               incr taken;
               if !taken >= n then raise Done
             end)
       with Done -> ())

let run plan ~f = (compile plan) f

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out
