(* A retired or unknown id resolves to the shared sentinel block, letting the
   hot path use an unchecked array load with no option boxing. *)

let sentinel_layout = Layout.create ~name:"__retired__" [ ("pad", Layout.Int) ]

type t = {
  sentinel : Block.t;
  mutable blocks : Block.t array; (* grow-only snapshots *)
  next : int Atomic.t;
  lock : Mutex.t;
}

(* The sentinel spans the whole addressable slot range so resolving any
   stale packed pointer stays in bounds; its slot incarnations carry the
   forward flag with a null back-pointer, so every resolution attempt
   cleanly reads as "object gone". *)
let make_sentinel () =
  let b =
    Block.create ~id:0 ~layout:sentinel_layout ~placement:Block.Row
      ~nslots:Constants.max_direct_slots
  in
  b.Block.dead <- true;
  Bigarray.Array1.fill b.Block.slot_inc Constants.forward_bit;
  b

let create () =
  let sentinel = make_sentinel () in
  {
    sentinel;
    blocks = Array.make 1024 sentinel;
    next = Atomic.make 0;
    lock = Mutex.create ();
  }

(* Stores into the table happen under [lock], like the copy that grows
   it: a store into the old array that landed after another domain's copy
   would be lost, and its id would resolve to the sentinel. Block creation
   is rare, so the lock costs nothing that matters. *)
let store t id block =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if id >= Array.length t.blocks then begin
        let next = Array.make (max (2 * Array.length t.blocks) (id + 1)) t.sentinel in
        Array.blit t.blocks 0 next 0 (Array.length t.blocks);
        t.blocks <- next
      end;
      t.blocks.(id) <- block)

let register t build =
  let id = Atomic.fetch_and_add t.next 1 in
  let block = build ~id in
  (* Publication: the array cell write is the linearisation point; readers
     resolve ids only from references created after this store. *)
  store t id block;
  block

let get_fast t id = Array.unsafe_get t.blocks id

let get t id =
  if id < 0 || id >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Registry.get: unknown block %d" id);
  let b = t.blocks.(id) in
  if b == t.sentinel then
    invalid_arg (Printf.sprintf "Registry.get: unknown block %d" id);
  b

let retire t id = if id < Array.length t.blocks then store t id t.sentinel

let count t = Atomic.get t.next

(* Audit accessor: every registered, non-retired block (dead tombstones
   included — callers filter on [Block.dead] when they only want live
   ones). *)
let iter_registered t ~f =
  let n = min (Atomic.get t.next) (Array.length t.blocks) in
  for id = 0 to n - 1 do
    let b = t.blocks.(id) in
    if b != t.sentinel then f b
  done
