(* Column chunks, as the vectorized, fused and compiled engines read a scan
   (docs/vectorized.md).

   A batch is a loan: operators receive it, read or refine it, and must not
   retain it past the emit callback — producers reuse the same storage for
   the next chunk. Columns are typed unboxed arrays where the source knows
   the field type (the off-heap layouts always do), or boxed [Value.t]
   arrays for opaque columns; [sel] is the selection vector — an int
   Bigarray whose first [len] entries are the indices of the surviving
   rows, in ascending row order. Filters shrink [sel] without touching the
   column storage, so a cut row costs nothing to drop and nothing to skip:
   downstream operators gather through [sel]. *)

module Context = Smc_offheap.Context

type sel = Context.sel

(* Column-kind lattice. A column's kind is static — fixed by the source
   layout or derived by the expression compiler — so each operator picks
   its typed kernel once, at plan-compile time, never per batch. [K_any]
   means boxed ([V_val]) storage and routes through the row-at-a-time
   fallback, which reuses the scalar [Expr]/[Value] code paths verbatim:
   exactness by construction. *)
type kind = K_int | K_dec | K_date | K_bool | K_char | K_str | K_any

(* Unboxed ints carry Dec (fixed-point), Date (epoch days) and Char (byte
   codes) columns too — same word the off-heap block stores. *)
type vec =
  | V_int of int array
  | V_dec of int array
  | V_date of int array
  | V_bool of bool array
  | V_char of int array
  | V_str of string array
  | V_val of Value.t array

type t = { cols : vec array; sel : sel; mutable len : int }

let default_rows = 1024

(* Shared 1-char string table: boxing a Char column must not allocate a
   fresh string per row. Structural equality with [Value.Str] stays exact. *)
let char_strings = Array.init 256 (fun c -> String.make 1 (Char.chr c))
let char_str c = Array.unsafe_get char_strings (c land 0xFF)

let box_vec v i =
  match v with
  | V_int a -> Value.Int (Array.unsafe_get a i)
  | V_dec a -> Value.Dec (Array.unsafe_get a i)
  | V_date a -> Value.Date (Array.unsafe_get a i)
  | V_bool a -> Value.Bool (Array.unsafe_get a i)
  | V_char a -> Value.Str (char_str (Array.unsafe_get a i))
  | V_str a -> Value.Str (Array.unsafe_get a i)
  | V_val a -> Array.unsafe_get a i

let make_vec kind cap =
  match kind with
  | K_int -> V_int (Array.make cap 0)
  | K_dec -> V_dec (Array.make cap 0)
  | K_date -> V_date (Array.make cap 0)
  | K_bool -> V_bool (Array.make cap false)
  | K_char -> V_char (Array.make cap 0)
  | K_str -> V_str (Array.make cap "")
  | K_any -> V_val (Array.make cap Value.Null)

let create ?cols ~kinds ~cap () =
  let cap = max cap 1 in
  let len c = match cols with Some m when not m.(c) -> 0 | _ -> cap in
  { cols = Array.mapi (fun c k -> make_vec k (len c)) kinds; sel = Context.make_sel cap; len = 0 }

let set_identity t n =
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set t.sel i i
  done;
  t.len <- n

(* Boxed row at selection position [i] (not a physical row index). *)
let row t i =
  let r = Bigarray.Array1.unsafe_get t.sel i in
  Array.map (fun v -> box_vec v r) t.cols

let iter_rows t ~f =
  for i = 0 to t.len - 1 do
    f (row t i)
  done

(* Re-batcher: pack boxed rows back into [V_val] batches so row-at-a-time
   operators (joins, sorts, index probes) can keep feeding chunk
   consumers. [push] keeps the row itself, in a buffer that starts at 16
   rows and doubles up to [rows]; [flush] copies the buffered rows into
   the columns, which are sized to the rows they hold and reused while
   they are large enough. A probe that yields a handful of rows so
   allocates a few words per row on the minor heap, not [ncols * rows] on
   the major heap, and no column storage is copied as the buffer grows.
   The batch is reused across emits — same loan contract as every other
   producer. *)
let rebatcher ~ncols ~rows ~emit =
  let rows = max rows 1 in
  let buf = ref (Array.make (min rows 16) [||]) in
  let n = ref 0 in
  let batch = ref None in
  let flush () =
    let k = !n in
    if k > 0 then begin
      let b =
        match !batch with
        | Some b when Bigarray.Array1.dim b.sel >= k -> b
        | _ ->
          let b = create ~kinds:(Array.make ncols K_any) ~cap:k () in
          batch := Some b;
          b
      in
      let buf = !buf in
      Array.iteri
        (fun c v ->
          match v with
          | V_val a ->
            for i = 0 to k - 1 do
              Array.unsafe_set a i (Array.unsafe_get (Array.unsafe_get buf i) c)
            done
          | _ -> assert false)
        b.cols;
      (* re-identity every emit: a downstream filter may have compacted
         [sel] in place on the previous loan of this same batch *)
      set_identity b k;
      n := 0;
      emit b
    end
  in
  let push (row : Value.t array) =
    let i = !n in
    if i = Array.length !buf then begin
      (* only below [rows]: a full buffer at [rows] was flushed *)
      let a = Array.make (min rows (2 * i)) [||] in
      Array.blit !buf 0 a 0 i;
      buf := a
    end;
    Array.unsafe_set !buf i row;
    n := i + 1;
    if !n = rows then flush ()
  in
  (push, flush)

let of_rows ~ncols ~rows produce emit =
  let push, flush = rebatcher ~ncols ~rows ~emit in
  produce push;
  flush ()
