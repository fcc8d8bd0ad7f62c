(* Each operator compiles to an [open_] function producing a cursor
   [unit -> row option]. Blocking operators (join build, group-by, sort)
   materialise at open, as Volcano engines do. *)

let group_key key_fns row = List.map (fun f -> f row) key_fns

let rec open_cursor plan =
  match plan with
  | Plan.Scan _ | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ ->
    (* Pull adapter over the leaf's push (a scan, or a probe in one
       critical section): materialise its rows, then drain them. *)
    let rows = ref [] in
    Plan.leaf_rows plan (fun row -> rows := row :: !rows);
    let remaining = ref (List.rev !rows) in
    fun () ->
      (match !remaining with
      | [] -> None
      | row :: rest ->
        remaining := rest;
        Some row)
  | Plan.Where (pred, input) ->
    let next = open_cursor input in
    let test = Expr.compile_pred ~schema:(Plan.schema input) pred in
    let rec pull () =
      match next () with
      | None -> None
      | Some row -> if test row then Some row else pull ()
    in
    pull
  | Plan.Select (cols, input) ->
    let next = open_cursor input in
    let schema = Plan.schema input in
    let fns = Array.of_list (List.map (fun (_, e) -> Expr.compile ~schema e) cols) in
    fun () ->
      (match next () with
      | None -> None
      | Some row -> Some (Array.map (fun f -> f row) fns))
  | Plan.HashJoin { left; right; on } ->
    let lschema = Plan.schema left and rschema = Plan.schema right in
    let lkeys =
      List.map (fun (lc, _) -> Expr.compile ~schema:lschema (Expr.Col lc)) on
    in
    let rkeys =
      List.map (fun (_, rc) -> Expr.compile ~schema:rschema (Expr.Col rc)) on
    in
    (* Build side: materialise the right input into a hash table. *)
    let table = Hashtbl.create 1024 in
    let rnext = open_cursor right in
    let rec build () =
      match rnext () with
      | None -> ()
      | Some row ->
        Hashtbl.add table (group_key rkeys row) row;
        build ()
    in
    build ();
    let lnext = open_cursor left in
    let pending = ref [] in
    let current_left = ref None in
    let rec pull () =
      match !pending with
      | row :: rest ->
        pending := rest;
        let l = Option.get !current_left in
        Some (Array.append l row)
      | [] ->
        (match lnext () with
        | None -> None
        | Some l ->
          current_left := Some l;
          pending := Hashtbl.find_all table (group_key lkeys l);
          pull ())
    in
    pull
  | Plan.IndexJoin { left; src; index; left_col } ->
    (* Index nested-loop join: no build phase — each left row runs the
       keyed probe, one critical section per probe. *)
    let lkey = Expr.compile ~schema:(Plan.schema left) (Expr.Col left_col) in
    let probe = Source.keyed_probe src index () in
    let lnext = open_cursor left in
    let pending = ref [] in
    let current_left = ref None in
    let rec pull () =
      match !pending with
      | row :: rest ->
        pending := rest;
        let l = Option.get !current_left in
        Some (Array.append l row)
      | [] ->
        (match lnext () with
        | None -> None
        | Some l ->
          current_left := Some l;
          let matches = ref [] in
          probe (lkey l) (fun r -> matches := r :: !matches);
          pending := List.rev !matches;
          pull ())
    in
    pull
  | Plan.GroupBy { keys; aggs; input } ->
    let schema = Plan.schema input in
    let key_fns = List.map (fun (_, e) -> Expr.compile ~schema e) keys in
    let compiled = List.map (fun (_, a) -> Aggregate.compile ~schema a) aggs in
    let groups = Hashtbl.create 256 in
    let order = ref [] in
    let next = open_cursor input in
    let rec consume () =
      match next () with
      | None -> ()
      | Some row ->
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
        List.iter2 (fun (_, update, _) cell -> update cell row) compiled cells;
        consume ()
    in
    consume ();
    let remaining = ref (List.rev !order) in
    fun () ->
      (match !remaining with
      | [] -> None
      | key :: rest ->
        remaining := rest;
        let cells = Hashtbl.find groups key in
        let finished = List.map2 (fun (_, _, finish) cell -> finish cell) compiled cells in
        Some (Array.of_list (key @ finished)))
  | Plan.OrderBy (specs, input) ->
    let schema = Plan.schema input in
    let fns = List.map (fun (e, d) -> (Expr.compile ~schema e, d)) specs in
    let next = open_cursor input in
    let rows = ref [] in
    let rec consume () =
      match next () with
      | None -> ()
      | Some row ->
        rows := row :: !rows;
        consume ()
    in
    consume ();
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
    let sorted = List.stable_sort compare_rows (List.rev !rows) in
    let remaining = ref sorted in
    fun () ->
      (match !remaining with
      | [] -> None
      | row :: rest ->
        remaining := rest;
        Some row)
  | Plan.Distinct input ->
    let next = open_cursor input in
    let seen = Hashtbl.create 256 in
    let rec pull () =
      match next () with
      | None -> None
      | Some row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then pull ()
        else begin
          Hashtbl.add seen key ();
          Some row
        end
    in
    pull
  | Plan.Limit (n, input) ->
    let next = open_cursor input in
    let taken = ref 0 in
    fun () ->
      if !taken >= n then None
      else begin
        match next () with
        | None -> None
        | Some row ->
          incr taken;
          Some row
      end

let run plan ~f =
  let next = open_cursor plan in
  let rec go () =
    match next () with
    | None -> ()
    | Some row ->
      f row;
      go ()
  in
  go ()

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out
