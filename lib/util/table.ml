type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns in %S"
         (List.length cells) (List.length t.columns) t.title);
  t.rows <- cells :: t.rows

let add_rowf t fmt =
  Printf.ksprintf
    (fun s -> add_row t (List.map String.trim (String.split_on_char '|' s)))
    fmt

let to_string t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render row =
    Buffer.add_string buf (String.concat "  " (List.mapi pad row));
    Buffer.add_char buf '\n'
  in
  render t.columns;
  Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
  Buffer.add_char buf '\n';
  List.iter render rows;
  Buffer.contents buf

let print t = print_string (to_string t); flush stdout

(* Hand-rolled JSON so the artifact writer needs no dependencies. Cells are
   kept as the exact strings the plain-text renderer shows. *)
let json_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_json t =
  let buf = Buffer.create 1024 in
  let strings sep xs emit =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf sep;
        emit x)
      xs
  in
  Buffer.add_string buf "{\"title\":";
  json_escape buf t.title;
  Buffer.add_string buf ",\"columns\":[";
  strings "," t.columns (json_escape buf);
  Buffer.add_string buf "],\"rows\":[";
  strings ","
    (List.rev t.rows)
    (fun row ->
      Buffer.add_char buf '[';
      strings "," row (json_escape buf);
      Buffer.add_char buf ']');
  Buffer.add_string buf "]}";
  Buffer.contents buf
