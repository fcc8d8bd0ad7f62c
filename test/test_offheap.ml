(* Unit, property and concurrency tests for the manual memory manager. *)

open Smc_offheap

(* Every row visible at the current frontier, in one walk. *)
let iter_valid ctx ~f =
  Context.with_walk ctx (fun w -> Context.iter w ~on_block:f)

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let person_layout () =
  Layout.create ~name:"person"
    [ ("name", Layout.Str 16); ("age", Layout.Int); ("salary", Layout.Dec) ]

let make_ctx ?placement ?mode ?(slots_per_block = 64) ?reclaim_threshold () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout:(person_layout ()) ?placement ?mode ~slots_per_block
      ?reclaim_threshold ()
  in
  (rt, ctx)

let set_person ctx r ~name ~age =
  match Context.resolve ctx r with
  | None -> Alcotest.fail "fresh object should resolve"
  | Some (blk, slot) ->
    let layout = ctx.Context.layout in
    Block.set_string blk ~slot (Layout.field layout "name") name;
    Block.set_word blk ~slot ~word:(Layout.field layout "age").Layout.word age

let get_age ctx r =
  match Context.resolve ctx r with
  | None -> raise Constants.Null_reference
  | Some (blk, slot) ->
    Block.get_word blk ~slot ~word:(Layout.field ctx.Context.layout "age").Layout.word

let get_name ctx r =
  match Context.resolve ctx r with
  | None -> raise Constants.Null_reference
  | Some (blk, slot) -> Block.get_string blk ~slot (Layout.field ctx.Context.layout "name")

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_offsets () =
  let l =
    Layout.create ~name:"t"
      [ ("a", Layout.Int); ("s", Layout.Str 20); ("b", Layout.Dec); ("r", Layout.Ref "t") ]
  in
  check Alcotest.int "a at word 0" 0 (Layout.field l "a").Layout.word;
  check Alcotest.int "s at word 1" 1 (Layout.field l "s").Layout.word;
  check Alcotest.int "s spans 3 words" 3 (Layout.field l "s").Layout.words;
  check Alcotest.int "b at word 4" 4 (Layout.field l "b").Layout.word;
  check Alcotest.int "r at word 5" 5 (Layout.field l "r").Layout.word;
  check Alcotest.int "slot_words" 6 l.Layout.slot_words

let test_layout_duplicate_field () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Layout.create: duplicate field x") (fun () ->
      ignore (Layout.create ~name:"t" [ ("x", Layout.Int); ("x", Layout.Dec) ]))

let test_layout_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Layout.create: no fields") (fun () ->
      ignore (Layout.create ~name:"t" []))

let test_layout_field_lookup () =
  let l = person_layout () in
  check Alcotest.bool "found" true (Layout.field_opt l "age" <> None);
  check Alcotest.bool "missing" true (Layout.field_opt l "nope" = None)

(* ------------------------------------------------------------------ *)
(* Block primitives *)

let test_block_string_roundtrip () =
  let l = person_layout () in
  let f = Layout.field l "name" in
  let cap = Layout.str_capacity f in
  let expect s =
    let s = match String.index_opt s '\000' with Some i -> String.sub s 0 i | None -> s in
    if String.length s > cap then String.sub s 0 cap else s
  in
  (* every length around the 7-byte word boundaries, up to and past the
     capacity, then bytes >= 0x80 and an interior NUL (the read stops there) *)
  let sized n = String.init n (fun i -> Char.chr (0x61 + (i mod 26))) in
  let texts =
    List.map sized [ 0; 1; 6; 7; 8; 13; 14; 15; cap - 1; cap; cap + 1 ]
    @ [ "exactly16chars!!"; "this is a very long string that is truncated"; "tab\tchar";
        "\xff\x80 high"; "nul\000cut" ]
  in
  List.iter
    (fun placement ->
      let blk = Block.create ~id:0 ~layout:l ~placement ~nslots:8 in
      List.iter
        (fun s ->
          Block.set_string blk ~slot:3 f s;
          check Alcotest.string (Printf.sprintf "roundtrip %S" s) (expect s)
            (Block.get_string blk ~slot:3 f))
        texts)
    [ Block.Row; Block.Columnar ]

let test_block_word_isolation () =
  let l = person_layout () in
  let blk = Block.create ~id:0 ~layout:l ~placement:Block.Row ~nslots:8 in
  (* Writing one slot's field must not disturb neighbours (row layout). *)
  Block.set_word blk ~slot:2 ~word:4 111;
  Block.set_word blk ~slot:3 ~word:4 222;
  check Alcotest.int "slot 2 intact" 111 (Block.get_word blk ~slot:2 ~word:4);
  check Alcotest.int "slot 3 intact" 222 (Block.get_word blk ~slot:3 ~word:4)

let test_block_columnar_isolation () =
  let l = person_layout () in
  let blk = Block.create ~id:0 ~layout:l ~placement:Block.Columnar ~nslots:8 in
  Block.set_word blk ~slot:2 ~word:4 111;
  Block.set_word blk ~slot:3 ~word:4 222;
  Block.set_word blk ~slot:2 ~word:0 7;
  check Alcotest.int "columnar slot 2 word 4" 111 (Block.get_word blk ~slot:2 ~word:4);
  check Alcotest.int "columnar slot 3 word 4" 222 (Block.get_word blk ~slot:3 ~word:4);
  check Alcotest.int "columnar slot 2 word 0" 7 (Block.get_word blk ~slot:2 ~word:0)

let test_block_float_precision () =
  let l = Layout.create ~name:"f" [ ("x", Layout.Float) ] in
  let blk = Block.create ~id:0 ~layout:l ~placement:Block.Row ~nslots:4 in
  List.iter
    (fun v ->
      Block.set_float blk ~slot:0 ~word:0 v;
      let back = Block.get_float blk ~slot:0 ~word:0 in
      if Float.abs (back -. v) > Float.abs v *. 1e-15 +. 1e-300 then
        Alcotest.failf "float roundtrip too lossy: %.17g -> %.17g" v back)
    [ 0.0; 1.0; -1.0; 3.141592653589793; -2.5e300; 1e-300 ]

let test_copy_slot_across_placements () =
  let l = person_layout () in
  let row = Block.create ~id:0 ~layout:l ~placement:Block.Row ~nslots:8 in
  let col = Block.create ~id:1 ~layout:l ~placement:Block.Columnar ~nslots:8 in
  Block.set_string row ~slot:5 (Layout.field l "name") "Adam";
  Block.set_word row ~slot:5 ~word:3 27;
  Block.copy_slot ~src:row ~src_slot:5 ~dst:col ~dst_slot:2;
  check Alcotest.string "string survives" "Adam" (Block.get_string col ~slot:2 (Layout.field l "name"));
  check Alcotest.int "int survives" 27 (Block.get_word col ~slot:2 ~word:3)

let prop_block_string_roundtrip =
  qtest "block: printable strings roundtrip"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 16))
    (fun s ->
      QCheck.assume (not (String.contains s '\000'));
      let l = person_layout () in
      let blk = Block.create ~id:0 ~layout:l ~placement:Block.Row ~nslots:2 in
      let f = Layout.field l "name" in
      Block.set_string blk ~slot:1 f s;
      Block.get_string blk ~slot:1 f = s)

(* ------------------------------------------------------------------ *)
(* Epoch *)

let test_epoch_advance_basic () =
  let e = Epoch.create () in
  check Alcotest.int "starts at 0" 0 (Epoch.global e);
  check Alcotest.bool "advances when idle" true (Epoch.try_advance e);
  check Alcotest.int "now 1" 1 (Epoch.global e)

let test_epoch_critical_blocks_advance () =
  let e = Epoch.create () in
  Epoch.enter_critical e;
  (* We are in epoch 0; an advance to 1 is allowed (all in-critical threads
     observed epoch 0), but a second advance must be blocked by us. *)
  check Alcotest.bool "first advance ok" true (Epoch.try_advance e);
  check Alcotest.bool "second advance blocked" false (Epoch.try_advance e);
  Epoch.exit_critical e;
  check Alcotest.bool "after exit ok" true (Epoch.try_advance e)

let test_epoch_nesting () =
  let e = Epoch.create () in
  Epoch.enter_critical e;
  Epoch.enter_critical e;
  Epoch.exit_critical e;
  check Alcotest.bool "still in critical" true (Epoch.in_critical e);
  Epoch.exit_critical e;
  check Alcotest.bool "left critical" false (Epoch.in_critical e)

let test_epoch_exit_unbalanced () =
  let e = Epoch.create () in
  Alcotest.check_raises "unbalanced exit"
    (Invalid_argument "Epoch.exit_critical: not in a critical section") (fun () ->
      Epoch.exit_critical e)

let test_epoch_can_reclaim () =
  let e = Epoch.create () in
  check Alcotest.bool "not yet" false (Epoch.can_reclaim e ~stamp:0);
  ignore (Epoch.try_advance e : bool);
  ignore (Epoch.try_advance e : bool);
  check Alcotest.bool "after two epochs" true (Epoch.can_reclaim e ~stamp:0)

let test_epoch_multidomain () =
  let e = Epoch.create () in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Epoch.enter_critical e;
          Domain.cpu_relax ();
          Epoch.exit_critical e
        done)
  in
  (* The worker keeps re-entering at the latest epoch, so advances should
     keep succeeding (perhaps after a few retries). *)
  let advanced = Epoch.advance_until e ~target:20 ~max_spins:10_000_000 in
  Atomic.set stop true;
  Domain.join d;
  check Alcotest.bool "advanced past 20" true advanced

let prop_epoch_invariants =
  (* Random sequences of enter/exit/advance keep the invariants: the global
     epoch never decreases, a thread in a critical section never observes
     the global epoch more than one ahead of its local epoch, and
     can_reclaim is monotone in the global epoch. *)
  qtest ~count:100 "epoch: invariants under random operation sequences"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (QCheck.int_range 0 2))
    (fun ops ->
      let e = Epoch.create () in
      let ok = ref true in
      let last_global = ref 0 in
      List.iter
        (fun op ->
          (match op with
          | 0 -> Epoch.enter_critical e
          | 1 -> if Epoch.in_critical e then Epoch.exit_critical e
          | _ -> ignore (Epoch.try_advance e : bool));
          let g = Epoch.global e in
          if g < !last_global then ok := false;
          last_global := g;
          if Epoch.in_critical e && g > Epoch.local_epoch e + 1 then ok := false)
        ops;
      (* drain nesting *)
      while Epoch.in_critical e do
        Epoch.exit_critical e
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Indirection *)

let test_indirection_alloc_unique () =
  let ind = Indirection.create ~chunk_bits:4 () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 100 do
    let e = Indirection.alloc ind ~tid:0 in
    if Hashtbl.mem seen e then Alcotest.failf "duplicate entry %d" e;
    Hashtbl.add seen e ()
  done;
  check Alcotest.int "capacity grew" 100 (Indirection.capacity ind)

let test_indirection_reuse () =
  let ind = Indirection.create () in
  let e1 = Indirection.alloc ind ~tid:0 in
  Indirection.free ind ~tid:0 e1;
  let e2 = Indirection.alloc ind ~tid:0 in
  check Alcotest.int "entry recycled" e1 e2

let test_indirection_words_survive_growth () =
  let ind = Indirection.create ~chunk_bits:4 () in
  let entries = List.init 100 (fun _ -> Indirection.alloc ind ~tid:0) in
  List.iteri (fun i e -> Indirection.set_ptr ind e i) entries;
  List.iteri (fun i e -> check Alcotest.int "ptr survives" i (Indirection.ptr ind e)) entries

let test_indirection_cross_thread_free () =
  let ind = Indirection.create () in
  let entries = List.init 2000 (fun _ -> Indirection.alloc ind ~tid:0) in
  List.iter (fun e -> Indirection.free ind ~tid:1 e) entries;
  (* tid 2 must eventually drain the recycled entries through the global
     pool rather than bump-allocating forever. *)
  let before = Indirection.capacity ind in
  let reused = ref 0 in
  for _ = 1 to 2000 do
    let e = Indirection.alloc ind ~tid:2 in
    if e < before then incr reused
  done;
  check Alcotest.bool "some entries recycled across threads" true (!reused > 0)

(* ------------------------------------------------------------------ *)
(* Context: alloc / free / resolve *)

let test_alloc_and_read () =
  let _rt, ctx = make_ctx () in
  let r = Context.alloc ctx in
  set_person ctx r ~name:"Adam" ~age:27;
  check Alcotest.int "age" 27 (get_age ctx r);
  check Alcotest.string "name" "Adam" (get_name ctx r)

let test_remove_nulls_reference () =
  let _rt, ctx = make_ctx () in
  let r = Context.alloc ctx in
  set_person ctx r ~name:"Adam" ~age:27;
  check Alcotest.bool "free succeeds" true (Context.free ctx r);
  check Alcotest.bool "second free fails" false (Context.free ctx r);
  check Alcotest.bool "resolve gives None" true (Context.resolve ctx r = None)

let test_null_ref_behaviour () =
  let _rt, ctx = make_ctx () in
  check Alcotest.bool "null resolve" true (Context.resolve ctx Constants.null_ref = None);
  check Alcotest.bool "null free" false (Context.free ctx Constants.null_ref)

let test_slot_reuse_bumps_incarnation () =
  let rt, ctx = make_ctx ~slots_per_block:4 ~reclaim_threshold:0.01 () in
  let r1 = Context.alloc ctx in
  set_person ctx r1 ~name:"Adam" ~age:27;
  ignore (Context.free ctx r1 : bool);
  (* Let two epochs pass so the slot can be recycled. *)
  ignore (Epoch.advance_until rt.Runtime.epoch ~target:(Epoch.global rt.Runtime.epoch + 2)
            ~max_spins:100 : bool);
  (* Exhaust the block so the limbo slot gets reused. *)
  let fresh = List.init 8 (fun i ->
      let r = Context.alloc ctx in
      set_person ctx r ~name:"Tom" ~age:i;
      r) in
  (* The old reference must still read as removed even though its slot may
     now hold a different live object. *)
  check Alcotest.bool "stale ref reads null" true (Context.resolve ctx r1 = None);
  List.iteri (fun i r -> check Alcotest.int "fresh refs intact" i (get_age ctx r)) fresh

let test_valid_count_tracks () =
  let _rt, ctx = make_ctx () in
  let refs = List.init 100 (fun _ -> Context.alloc ctx) in
  check Alcotest.int "100 live" 100 (Context.valid_count ctx);
  List.iteri (fun i r -> if i mod 2 = 0 then ignore (Context.free ctx r : bool)) refs;
  check Alcotest.int "50 live" 50 (Context.valid_count ctx)

let test_block_recycling_via_queue () =
  let rt, ctx = make_ctx ~slots_per_block:16 ~reclaim_threshold:0.05 () in
  (* Fill several blocks, then free everything: blocks enter the reclamation
     queue and must be recycled rather than growing memory forever. *)
  let refs = Array.init 64 (fun _ -> Context.alloc ctx) in
  let blocks_after_fill = Context.block_count ctx in
  Array.iter (fun r -> ignore (Context.free ctx r : bool)) refs;
  ignore (Epoch.advance_until rt.Runtime.epoch ~target:(Epoch.global rt.Runtime.epoch + 3)
            ~max_spins:100 : bool);
  let refs2 = Array.init 64 (fun _ -> Context.alloc ctx) in
  let blocks_after_refill = Context.block_count ctx in
  check Alcotest.bool "blocks recycled, little growth" true
    (blocks_after_refill <= blocks_after_fill + 1);
  Array.iter (fun r -> ignore (Context.free ctx r : bool)) refs2

let test_iter_valid_counts () =
  let _rt, ctx = make_ctx ~slots_per_block:8 () in
  let refs = List.init 30 (fun _ -> Context.alloc ctx) in
  List.iteri (fun i r -> if i mod 3 = 0 then ignore (Context.free ctx r : bool)) refs;
  let seen = ref 0 in
  Epoch.enter_critical ctx.Context.rt.Runtime.epoch;
  iter_valid ctx ~f:(fun _ _ -> incr seen);
  Epoch.exit_critical ctx.Context.rt.Runtime.epoch;
  check Alcotest.int "enumerates exactly the live objects" 20 !seen

let test_indirect_ref_of_slot () =
  let _rt, ctx = make_ctx () in
  let r = Context.alloc ctx in
  set_person ctx r ~name:"Eve" ~age:31;
  let rebuilt = ref Constants.null_ref in
  Epoch.enter_critical ctx.Context.rt.Runtime.epoch;
  iter_valid ctx ~f:(fun blk slot -> rebuilt := Context.indirect_ref_of_slot ctx blk slot);
  Epoch.exit_critical ctx.Context.rt.Runtime.epoch;
  check Alcotest.int "rebuilt ref equals original" r !rebuilt

let prop_alloc_free_interleaved =
  qtest ~count:50 "context: random alloc/free interleavings keep counts consistent"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (QCheck.int_range 0 99))
    (fun ops ->
      let _rt, ctx = make_ctx ~slots_per_block:16 () in
      let live = Hashtbl.create 64 in
      let next = ref 0 in
      List.iter
        (fun op ->
          if op < 60 || Hashtbl.length live = 0 then begin
            let r = Context.alloc ctx in
            Hashtbl.replace live !next r;
            incr next
          end
          else begin
            (* free a pseudo-random live object *)
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
            let k = List.nth keys (op mod List.length keys) in
            let r = Hashtbl.find live k in
            Hashtbl.remove live k;
            ignore (Context.free ctx r : bool)
          end)
        ops;
      Context.valid_count ctx = Hashtbl.length live)

(* ------------------------------------------------------------------ *)
(* Concurrency *)

let test_concurrent_alloc_distinct () =
  let rt = Runtime.create () in
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:64 () in
  let n_domains = 4 and per = 5_000 in
  let results = Array.make n_domains [||] in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            results.(d) <- Array.init per (fun _ -> Context.alloc ctx)))
  in
  List.iter Domain.join domains;
  check Alcotest.int "all live" (n_domains * per) (Context.valid_count ctx);
  let seen = Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun r ->
         if Hashtbl.mem seen r then Alcotest.fail "duplicate reference";
         Hashtbl.add seen r ()))
    results

(* Two domains register blocks on a fresh registry across its growth
   points (1,024 ids, then every doubling up to 32,768), round after
   round, each block built between taking its id and storing it: a block stored into the old table after the other domain copied
   it would be lost, and its id would resolve to the retired sentinel. *)
let test_registry_growth () =
  let layout = Layout.create ~name:"reg" [ ("x", Layout.Int) ] in
  let per = 20_000 and distinct = 64 in
  let pool =
    Array.init 2 (fun _ ->
        Array.init distinct (fun _ -> Block.create ~id:0 ~layout ~placement:Block.Row ~nslots:1))
  in
  for round = 1 to 80 do
    let reg = Registry.create () in
    let ready = Atomic.make 0 in
    let ids = Array.make_matrix 2 per (-1) in
    let domains =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 2 do
                Domain.cpu_relax ()
              done;
              for j = 0 to per - 1 do
                let blk = pool.(d).(j mod distinct) in
                ignore
                  (Registry.register reg (fun ~id ->
                       (* a build of uneven length, so stores land anywhere
                          in the other domain's copy *)
                       for _ = 1 to (j * 37) mod 97 do
                         Domain.cpu_relax ()
                       done;
                       ids.(d).(j) <- id;
                       blk)
                    : Block.t)
              done))
    in
    List.iter Domain.join domains;
    Array.iteri
      (fun d row ->
        Array.iteri
          (fun j id ->
            match Registry.get reg id with
            | b when b == pool.(d).(j mod distinct) -> ()
            | _ -> Alcotest.failf "round %d: id %d resolves to another block" round id
            | exception Invalid_argument m -> Alcotest.failf "round %d: id %d lost (%s)" round id m)
          row)
      ids
  done

let test_concurrent_churn_with_enumeration () =
  let rt = Runtime.create () in
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:64 () in
  let stop = Atomic.make false in
  let churner =
    Domain.spawn (fun () ->
        let g = Smc_util.Prng.create ~seed:11L () in
        let live = ref [] in
        let n_live = ref 0 in
        while not (Atomic.get stop) do
          if !n_live < 500 || Smc_util.Prng.bool g then begin
            live := Context.alloc ctx :: !live;
            incr n_live
          end
          else begin
            match !live with
            | [] -> ()
            | r :: rest ->
              ignore (Context.free ctx r : bool);
              live := rest;
              decr n_live
          end
        done;
        List.iter (fun r -> ignore (Context.free ctx r : bool)) !live)
  in
  (* Enumerate concurrently; we only require memory safety and that counts
     stay plausible (bag semantics). *)
  for _ = 1 to 200 do
    let seen = ref 0 in
    Epoch.enter_critical rt.Runtime.epoch;
    iter_valid ctx ~f:(fun _ _ -> incr seen);
    Epoch.exit_critical rt.Runtime.epoch;
    ignore (Epoch.try_advance rt.Runtime.epoch : bool)
  done;
  Atomic.set stop true;
  Domain.join churner;
  check Alcotest.int "all freed at the end" 0 (Context.valid_count ctx)

(* ------------------------------------------------------------------ *)
(* Compaction *)

let populate_and_thin ?(mode = Context.Indirect) ~slots_per_block ~total ~keep_every () =
  let rt = Runtime.create () in
  let ctx = Context.create rt ~layout:(person_layout ()) ~mode ~slots_per_block () in
  let refs = Array.init total (fun _ -> Context.alloc ctx) in
  Array.iteri (fun i r -> set_person ctx r ~name:(Printf.sprintf "p%d" i) ~age:i) refs;
  let kept = ref [] in
  Array.iteri
    (fun i r ->
      if i mod keep_every = 0 then kept := (i, r) :: !kept
      else ignore (Context.free ctx r : bool))
    refs;
  (rt, ctx, List.rev !kept)

let test_compaction_preserves_objects () =
  let _rt, ctx, kept = populate_and_thin ~slots_per_block:32 ~total:320 ~keep_every:10 () in
  let before_blocks = Context.block_count ctx in
  let report = Compaction.run ctx ~occupancy_threshold:0.3 () in
  check Alcotest.bool "not aborted" false report.Compaction.aborted;
  check Alcotest.bool "moved something" true (report.Compaction.objects_moved > 0);
  check Alcotest.bool "blocks retired" true (Context.block_count ctx < before_blocks);
  (* Every kept reference must still resolve to its data. *)
  List.iter
    (fun (i, r) ->
      check Alcotest.int "age survives relocation" i (get_age ctx r);
      check Alcotest.string "name survives relocation" (Printf.sprintf "p%d" i) (get_name ctx r))
    kept;
  check Alcotest.int "count preserved" (List.length kept) (Context.valid_count ctx)

let test_compaction_enumeration_no_duplicates () =
  let _rt, ctx, kept = populate_and_thin ~slots_per_block:32 ~total:320 ~keep_every:10 () in
  ignore (Compaction.run ctx ~occupancy_threshold:0.3 () : Compaction.report);
  let seen = Hashtbl.create 64 in
  Epoch.enter_critical ctx.Context.rt.Runtime.epoch;
  iter_valid ctx ~f:(fun blk slot ->
      let age = Block.get_word blk ~slot ~word:(Layout.field ctx.Context.layout "age").Layout.word in
      if Hashtbl.mem seen age then Alcotest.failf "duplicate object age=%d" age;
      Hashtbl.add seen age ());
  Epoch.exit_critical ctx.Context.rt.Runtime.epoch;
  check Alcotest.int "exactly the kept objects" (List.length kept) (Hashtbl.length seen)

let test_compaction_shrinks_memory () =
  let _rt, ctx, _kept = populate_and_thin ~slots_per_block:32 ~total:640 ~keep_every:16 () in
  let before = Context.off_heap_words ctx in
  ignore (Compaction.run ctx ~occupancy_threshold:0.5 () : Compaction.report);
  let after = Context.off_heap_words ctx in
  check Alcotest.bool "memory shrank" true (after < before)

let test_compaction_free_during_frozen_state () =
  (* Freeing an object after it has been scheduled (frozen) must not let the
     sweep resurrect it. *)
  let _rt, ctx, kept = populate_and_thin ~slots_per_block:32 ~total:96 ~keep_every:4 () in
  match kept with
  | [] -> Alcotest.fail "expected survivors"
  | (_, victim) :: rest ->
    ignore (Context.free ctx victim : bool);
    ignore (Compaction.run ctx ~occupancy_threshold:0.5 () : Compaction.report);
    check Alcotest.bool "victim stays dead" true (Context.resolve ctx victim = None);
    List.iter (fun (i, r) -> check Alcotest.int "others intact" i (get_age ctx r)) rest;
    check Alcotest.int "count right" (List.length rest) (Context.valid_count ctx)

let test_compaction_idempotent_when_compact () =
  let rt = Runtime.create () in
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:32 () in
  let _refs = Array.init 100 (fun _ -> Context.alloc ctx) in
  (* Fully occupied blocks are above any sensible threshold: nothing moves
     except the partially-filled tail block, which is fine. *)
  let report = Compaction.run ctx ~occupancy_threshold:0.1 () in
  check Alcotest.bool "nothing aborted" false report.Compaction.aborted;
  check Alcotest.int "all objects still live" 100 (Context.valid_count ctx)

let test_compaction_concurrent_enumeration () =
  let rt, ctx, kept = populate_and_thin ~slots_per_block:64 ~total:1280 ~keep_every:8 () in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let enumerator =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let seen = ref 0 in
          Epoch.enter_critical rt.Runtime.epoch;
          iter_valid ctx ~f:(fun _ _ -> incr seen);
          Epoch.exit_critical rt.Runtime.epoch;
          if !seen <> List.length kept then Atomic.incr failures
        done)
  in
  for _ = 1 to 5 do
    ignore (Compaction.run ctx ~occupancy_threshold:0.3 () : Compaction.report)
  done;
  Atomic.set stop true;
  Domain.join enumerator;
  check Alcotest.int "enumeration always saw a stable bag" 0 (Atomic.get failures);
  List.iter (fun (i, r) -> check Alcotest.int "refs intact" i (get_age ctx r)) kept

let test_direct_mode_compaction_fixes_pointers () =
  (* Two direct-mode contexts: 'orders' store direct pointers to 'persons'.
     After compacting persons, stored pointers must still dereference. *)
  let rt = Runtime.create () in
  let persons_layout = person_layout () in
  let orders_layout =
    Layout.create ~name:"order" [ ("customer", Layout.Ref "person"); ("price", Layout.Dec) ]
  in
  let persons =
    Context.create rt ~layout:persons_layout ~mode:Context.Direct ~slots_per_block:32 ()
  in
  let orders = Context.create rt ~layout:orders_layout ~slots_per_block:32 () in
  Context.add_direct_referrer persons ~from:orders (Layout.field orders_layout "customer");
  let cust_field = Layout.field orders_layout "customer" in
  let n = 320 in
  let person_refs = Array.init n (fun _ -> Context.alloc persons) in
  Array.iteri (fun i r -> set_person persons r ~name:(Printf.sprintf "c%d" i) ~age:i) person_refs;
  let order_refs =
    Array.init n (fun i ->
        let r = Context.alloc orders in
        (match Context.resolve orders r with
        | Some (blk, slot) ->
          Block.set_word blk ~slot ~word:cust_field.Layout.word
            (Context.direct_ref_of persons person_refs.(i))
        | None -> Alcotest.fail "fresh order must resolve");
        r)
  in
  (* Thin persons out so compaction has work. *)
  Array.iteri
    (fun i r -> if i mod 8 <> 0 then ignore (Context.free persons r : bool))
    person_refs;
  let report = Compaction.run persons ~occupancy_threshold:0.5 () in
  check Alcotest.bool "pass ran" false report.Compaction.aborted;
  (* Every order whose customer survived must still reach it through the
     stored direct pointer; the rest must read null. *)
  Array.iteri
    (fun i r ->
      match Context.resolve orders r with
      | None -> Alcotest.fail "order disappeared"
      | Some (blk, slot) ->
        let w = Block.get_word blk ~slot ~word:cust_field.Layout.word in
        let resolved = if w < 0 then None else Context.resolve_direct persons w in
        if i mod 8 = 0 then begin
          match resolved with
          | None -> Alcotest.failf "lost customer %d after compaction" i
          | Some (pb, ps) ->
            let age =
              Block.get_word pb ~slot:ps ~word:(Layout.field persons_layout "age").Layout.word
            in
            check Alcotest.int "direct pointer reaches the right object" i age
        end
        else check Alcotest.bool "removed customer reads null" true (resolved = None))
    order_refs

let test_compaction_columnar_placement () =
  (* Columnar blocks relocate plane-by-plane through the same protocol. *)
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout:(person_layout ()) ~placement:Block.Columnar ~slots_per_block:32 ()
  in
  let refs = Array.init 320 (fun _ -> Context.alloc ctx) in
  Array.iteri (fun i r -> set_person ctx r ~name:(Printf.sprintf "c%d" i) ~age:i) refs;
  let kept = ref [] in
  Array.iteri
    (fun i r ->
      if i mod 8 = 0 then kept := (i, r) :: !kept
      else ignore (Context.free ctx r : bool))
    refs;
  let report = Compaction.run ctx ~occupancy_threshold:0.5 () in
  check Alcotest.bool "columnar pass ran" false report.Compaction.aborted;
  check Alcotest.bool "columnar objects moved" true (report.Compaction.objects_moved > 0);
  List.iter
    (fun (i, r) ->
      check Alcotest.int "columnar age survives" i (get_age ctx r);
      check Alcotest.string "columnar name survives" (Printf.sprintf "c%d" i) (get_name ctx r))
    !kept

let test_compaction_direct_columnar_combined () =
  (* Direct mode and columnar placement compose. *)
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout:(person_layout ()) ~placement:Block.Columnar ~mode:Context.Direct
      ~slots_per_block:32 ()
  in
  let refs = Array.init 160 (fun _ -> Context.alloc ctx) in
  Array.iteri (fun i r -> set_person ctx r ~name:"x" ~age:i) refs;
  let directs = Array.map (fun r -> Context.direct_ref_of ctx r) refs in
  Array.iteri (fun i r -> if i mod 8 <> 0 then ignore (Context.free ctx r : bool)) refs;
  ignore (Compaction.run ctx ~occupancy_threshold:0.5 () : Compaction.report);
  Array.iteri
    (fun i d ->
      let resolved = Context.resolve_direct ctx d in
      if i mod 8 = 0 then begin
        match resolved with
        | None -> Alcotest.failf "lost object %d" i
        | Some (blk, slot) ->
          check Alcotest.int "combined mode data" i
            (Block.get_word blk ~slot ~word:(Layout.field ctx.Context.layout "age").Layout.word)
      end
      else check Alcotest.bool "dead reads null" true (resolved = None))
    directs

let test_direct_mode_tombstone_forwarding () =
  (* Before fixup runs, a stale direct pointer must forward through the
     tombstone; we simulate by resolving a pre-compaction direct ref. *)
  let rt = Runtime.create () in
  let persons =
    Context.create rt ~layout:(person_layout ()) ~mode:Context.Direct ~slots_per_block:16 ()
  in
  let refs = Array.init 64 (fun _ -> Context.alloc persons) in
  Array.iteri (fun i r -> set_person persons r ~name:"x" ~age:i) refs;
  (* Capture direct refs before compaction. *)
  let directs = Array.map (fun r -> Context.direct_ref_of persons r) refs in
  Array.iteri (fun i r -> if i mod 16 <> 0 then ignore (Context.free persons r : bool)) refs;
  ignore (Compaction.run persons ~occupancy_threshold:0.5 () : Compaction.report);
  Array.iteri
    (fun i d ->
      let resolved = Context.resolve_direct persons d in
      if i mod 16 = 0 then begin
        match resolved with
        | None -> Alcotest.failf "tombstone forwarding lost object %d" i
        | Some (blk, slot) ->
          let age =
            Block.get_word blk ~slot
              ~word:(Layout.field persons.Context.layout "age").Layout.word
          in
          check Alcotest.int "forwarded to right object" i age
      end
      else check Alcotest.bool "dead object stays null" true (resolved = None))
    directs

(* ------------------------------------------------------------------ *)
(* Random layouts: any mix of field types round-trips through a block in
   either placement. *)

let field_type_gen =
  QCheck.Gen.(
    oneof
      [
        return Layout.Int;
        return Layout.Dec;
        return Layout.Date;
        return Layout.Bool;
        map (fun n -> Layout.Str n) (int_range 1 24);
      ])

let layout_gen =
  QCheck.Gen.(
    map
      (fun types ->
        Layout.create ~name:"rand"
          (List.mapi (fun i t -> (Printf.sprintf "f%d" i, t)) types))
      (list_size (int_range 1 10) field_type_gen))

let value_for g = function
  | Layout.Int | Layout.Dec | Layout.Date -> `I (Smc_util.Prng.int g 1_000_000_000)
  | Layout.Bool -> `I (Smc_util.Prng.int g 2)
  | Layout.Str n ->
    `S (String.init (Smc_util.Prng.int g (n + 1)) (fun _ -> Char.chr (33 + Smc_util.Prng.int g 90)))
  | Layout.Float | Layout.Ref _ -> `I 0

let prop_random_layout_roundtrip placement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:
         (Printf.sprintf "random layouts roundtrip (%s)"
            (match placement with Block.Row -> "row" | Block.Columnar -> "columnar"))
       (QCheck.make layout_gen)
       (fun layout ->
         let blk = Block.create ~id:0 ~layout ~placement ~nslots:7 in
         let g = Smc_util.Prng.create ~seed:99L () in
         (* write every field of every slot, then read everything back *)
         let written = Hashtbl.create 64 in
         for slot = 0 to 6 do
           Array.iter
             (fun (f : Layout.field) ->
               let v = value_for g f.Layout.ftype in
               Hashtbl.replace written (slot, f.Layout.index) v;
               match v with
               | `I x -> Block.set_word blk ~slot ~word:f.Layout.word x
               | `S s -> Block.set_string blk ~slot f s)
             layout.Layout.fields
         done;
         Hashtbl.fold
           (fun (slot, index) v ok ->
             ok
             &&
             let f = layout.Layout.fields.(index) in
             match v with
             | `I x -> Block.get_word blk ~slot ~word:f.Layout.word = x
             | `S s -> Block.get_string blk ~slot f = s)
           written true))

(* ------------------------------------------------------------------ *)
(* Stress: concurrent refresh-style churn + repeated compaction. *)

let test_concurrent_churn_and_compaction () =
  let rt = Runtime.create () in
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:64 () in
  (* Stable population marked by ages >= 1000: freshly allocated (zeroed)
     churn slots and churn objects can never be confused with it. *)
  let stable = Array.init 500 (fun i ->
      let r = Context.alloc ctx in
      set_person ctx r ~name:(string_of_int i) ~age:(1000 + i);
      r)
  in
  let stop = Atomic.make false in
  let churner =
    Domain.spawn (fun () ->
        let g = Smc_util.Prng.create ~seed:123L () in
        let live = ref [] and n = ref 0 in
        while not (Atomic.get stop) do
          if !n < 300 || Smc_util.Prng.bool g then begin
            let r = Context.alloc ctx in
            set_person ctx r ~name:"churn" ~age:1;
            live := r :: !live;
            incr n
          end
          else begin
            match !live with
            | [] -> ()
            | r :: rest ->
              ignore (Context.free ctx r : bool);
              live := rest;
              decr n
          end;
          ignore (Epoch.try_advance rt.Runtime.epoch : bool)
        done;
        List.iter (fun r -> ignore (Context.free ctx r : bool)) !live)
  in
  let enumerator =
    Domain.spawn (fun () ->
        let anomalies = ref 0 in
        while not (Atomic.get stop) do
          let stable_seen = ref 0 in
          Epoch.enter_critical rt.Runtime.epoch;
          iter_valid ctx ~f:(fun blk slot ->
              let age =
                Block.get_word blk ~slot
                  ~word:(Layout.field ctx.Context.layout "age").Layout.word
              in
              if age >= 1000 then incr stable_seen);
          Epoch.exit_critical rt.Runtime.epoch;
          (* every enumeration must observe the full stable population *)
          if !stable_seen <> Array.length stable then incr anomalies
        done;
        !anomalies)
  in
  for _ = 1 to 10 do
    ignore (Compaction.run ctx ~occupancy_threshold:0.6 () : Compaction.report)
  done;
  Atomic.set stop true;
  Domain.join churner;
  let anomalies = Domain.join enumerator in
  check Alcotest.int "stable population always fully enumerated" 0 anomalies;
  Array.iteri
    (fun i r -> check Alcotest.int "stable data intact" (1000 + i) (get_age ctx r))
    stable

(* ------------------------------------------------------------------ *)
(* Incarnation overflow quarantine (§3.1) *)

let test_quarantine_on_overflow () =
  let rt = Runtime.create () in
  rt.Runtime.inc_quarantine_limit <- 3;
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:4 () in
  (* Drive one slot through repeated reuse until its incarnation crosses the
     (artificially low) limit. *)
  let rec churn rounds =
    if rounds > 0 then begin
      let r = Context.alloc ctx in
      ignore (Context.free ctx r : bool);
      ignore (Epoch.advance_until rt.Runtime.epoch
                ~target:(Epoch.global rt.Runtime.epoch + 2) ~max_spins:100 : bool);
      churn (rounds - 1)
    end
  in
  churn 10;
  check Alcotest.bool "slots were quarantined" true
    (Atomic.get rt.Runtime.quarantined_slots > 0);
  (* Quarantined slots are never reused: allocation still works (fresh
     slots/blocks) and live objects behave normally. *)
  let r = Context.alloc ctx in
  set_person ctx r ~name:"ok" ~age:1;
  check Alcotest.int "allocation continues" 1 (get_age ctx r)

let test_quarantined_slots_not_enumerated () =
  let rt = Runtime.create () in
  rt.Runtime.inc_quarantine_limit <- 1;
  let ctx = Context.create rt ~layout:(person_layout ()) ~slots_per_block:8 () in
  let r1 = Context.alloc ctx in
  ignore (Context.free ctx r1 : bool);
  (* inc is now 1 = limit → quarantined immediately *)
  check Alcotest.int "quarantined" 1 (Atomic.get rt.Runtime.quarantined_slots);
  let live = Context.alloc ctx in
  set_person ctx live ~name:"x" ~age:7;
  let seen = ref 0 in
  Epoch.enter_critical rt.Runtime.epoch;
  iter_valid ctx ~f:(fun _ _ -> incr seen);
  Epoch.exit_critical rt.Runtime.epoch;
  check Alcotest.int "only the live object enumerated" 1 !seen

(* Regression: direct-mode contexts must quarantine at the 27-bit direct
   incarnation width, not the 31-bit indirect one. A direct reference
   carries only [Constants.direct_inc_bits] of the slot's incarnation, so a
   slot whose incarnation reaches [direct_inc_mask] would alias incarnation
   0 for stored direct pointers if it were put back in circulation. *)
let test_direct_quarantine_clamps_at_direct_width () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout:(person_layout ()) ~mode:Context.Direct ~slots_per_block:4 ()
  in
  check Alcotest.int "effective limit is the direct width" Constants.direct_inc_mask
    (Context.effective_quarantine_limit ctx);
  (* Entry-side overflow: fast-forward the entry incarnation to the brink
     and free through a matching reference. *)
  let r = Context.alloc ctx in
  let entry = Constants.ref_entry r in
  (match Context.resolve ctx r with
  | None -> Alcotest.fail "fresh ref dead"
  | Some (blk, slot) ->
    Indirection.set_inc_word rt.Runtime.ind entry (Constants.direct_inc_mask - 1);
    Bigarray.Array1.set blk.Block.slot_inc slot (Constants.direct_inc_mask - 1));
  let r' = Constants.pack_ref ~entry ~inc:(Constants.direct_inc_mask - 1) in
  check Alcotest.bool "free succeeds" true (Context.free ctx r');
  check Alcotest.int "slot quarantined at the direct width" 1
    (Atomic.get rt.Runtime.quarantined_slots);
  (* Slot-side overflow: entries migrate between slots, so a slot can reach
     the direct width while its current entry's incarnation is still small.
     The slot incarnation alone must trigger the quarantine. *)
  let r2 = Context.alloc ctx in
  (match Context.resolve ctx r2 with
  | None -> Alcotest.fail "fresh ref dead"
  | Some (blk, slot) ->
    Bigarray.Array1.set blk.Block.slot_inc slot (Constants.direct_inc_mask - 1));
  check Alcotest.bool "free succeeds" true (Context.free ctx r2);
  check Alcotest.int "slot incarnation alone quarantines" 2
    (Atomic.get rt.Runtime.quarantined_slots)

(* ------------------------------------------------------------------ *)
(* Counter accounting through a full compact cycle *)

(* Pins the valid/limbo/quarantine accounting across fill → thin → compact
   → refill, backed by the full invariant audit of Smc_check.Audit (slot
   directories vs. counters, back-pointers vs. indirection entries, free
   stores, epoch stamps) at every quiescent step. *)
let test_compact_cycle_pins_counters () =
  let rt, ctx, kept = populate_and_thin ~slots_per_block:16 ~total:128 ~keep_every:4 () in
  let auditor = Smc_check.Audit.create rt in
  let audit_clean step =
    match Smc_check.Audit.check_runtime auditor ~contexts:[ ctx ] with
    | [] -> ()
    | vs -> Alcotest.failf "audit after %s:\n%s" step (Smc_check.Audit.report vs)
  in
  let live = List.length kept in
  check Alcotest.int "valid_count after thinning" live (Context.valid_count ctx);
  check Alcotest.int "limbo after thinning" (128 - live) (Context.stats_limbo ctx);
  audit_clean "thinning";
  let report = Compaction.run ctx ~occupancy_threshold:0.5 () in
  check Alcotest.bool "pass not aborted" false report.Compaction.aborted;
  check Alcotest.bool "objects moved" true (report.Compaction.objects_moved > 0);
  (* Compaction must not change what is alive, and retiring the emptied
     source blocks must drop their limbo slots from the context totals. The
     allocator's thread-local block is never a candidate, so its limbo slots
     (at most one block's worth) legitimately remain. *)
  check Alcotest.int "valid_count preserved by compaction" live (Context.valid_count ctx);
  check Alcotest.bool "limbo slots retired with their blocks" true
    (Context.stats_limbo ctx <= 16 - 4);
  check Alcotest.int "nothing quarantined" 0 (Atomic.get rt.Runtime.quarantined_slots);
  audit_clean "compaction";
  List.iter (fun (i, r) -> check Alcotest.int "data intact" i (get_age ctx r)) kept;
  (* Refill and free everything including the survivors: counters must come
     back to exactly zero live objects. *)
  let fresh = Array.init 64 (fun _ -> Context.alloc ctx) in
  check Alcotest.int "valid_count after refill" (live + 64) (Context.valid_count ctx);
  audit_clean "refill";
  Array.iter (fun r -> ignore (Context.free ctx r : bool)) fresh;
  List.iter (fun (_, r) -> ignore (Context.free ctx r : bool)) kept;
  check Alcotest.int "all freed" 0 (Context.valid_count ctx);
  audit_clean "draining"

(* ------------------------------------------------------------------ *)
(* Per-block critical sections *)

let test_per_block_counts () =
  let _rt, ctx = make_ctx ~slots_per_block:8 () in
  let refs = List.init 50 (fun _ -> Context.alloc ctx) in
  List.iteri (fun i r -> if i mod 5 = 0 then ignore (Context.free ctx r : bool)) refs;
  let seen = ref 0 in
  iter_valid ctx ~f:(fun _ _ -> incr seen);
  check Alcotest.int "per-block enumeration sees all live" 40 !seen

(* A walk over 8-slot blocks whose callback tries to advance the epoch.
   From inside the walker's own section an advance succeeds once per
   section (the walker has then not observed the new epoch), so a walk
   with one section per block lets at least (blocks - 1) advances through,
   and one held across the whole walk only one. [walk coll ~on_row]
   runs the enumeration under test over 64 rows in 8 blocks. *)
let check_epoch_advances walk () =
  let rt = Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"person" ~layout:(person_layout ()) ~slots_per_block:8 ()
  in
  for _ = 1 to 64 do
    ignore (Smc.Collection.add coll ~init:(fun _ _ -> ()) : Smc.Ref.t)
  done;
  let blocks = Smc.Collection.block_count coll in
  let advances = ref 0 in
  walk coll ~on_row:(fun () -> if Epoch.try_advance rt.Runtime.epoch then incr advances);
  check Alcotest.bool
    (Printf.sprintf "%d advances over %d blocks" !advances blocks)
    true
    (blocks = 8 && !advances >= blocks - 1)

let age_source coll =
  let age = Layout.field coll.Smc.Collection.layout "age" in
  Smc_query.Source.of_smc coll ~columns:[ ("age", Smc_query.Source.C_int age) ]

let epoch_walks =
  [
    ( "per-block lets epoch advance",
      fun coll ~on_row -> iter_valid coll.Smc.Collection.ctx ~f:(fun _ _ -> on_row ()) );
    ( "Collection.iter lets epoch advance",
      fun coll ~on_row -> Smc.Collection.iter coll ~f:(fun _ _ -> on_row ()) );
    ( "Source.scan lets epoch advance",
      fun coll ~on_row -> (age_source coll).Smc_query.Source.scan (fun _ -> on_row ()) );
    ( "Source.batches lets epoch advance",
      fun coll ~on_row ->
        Smc_query.Source.batches (age_source coll) ~rows:1024 (fun _ -> on_row ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Compaction daemon *)

let test_compaction_daemon () =
  let rt, ctx, kept = populate_and_thin ~slots_per_block:32 ~total:320 ~keep_every:10 () in
  ignore rt;
  let stop = Atomic.make false in
  let d = Compaction.daemon ~poll_contexts:(fun () -> [ ctx ]) ~stop () in
  let before_blocks = Context.block_count ctx in
  Context.request_compaction ctx;
  (* Wait for the daemon to pick the request up. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Context.block_count ctx >= before_blocks && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  let passes = Domain.join d in
  check Alcotest.bool "daemon ran a pass" true (passes >= 1);
  check Alcotest.bool "footprint reduced" true (Context.block_count ctx < before_blocks);
  List.iter (fun (i, r) -> check Alcotest.int "data intact" i (get_age ctx r)) kept

(* ------------------------------------------------------------------ *)
(* Lifecycle regressions: epoch slot leak, dead queue head, TLAB
   re-queue race (the three bugs fixed alongside the Obs layer) *)

let test_epoch_slot_recycling () =
  (* Far more short-lived domains than thread slots: with releases recycling
     slot ids, a tiny slot array suffices. Pre-fix this hit "Epoch: too many
     threads" at the 9th domain. *)
  let em = Epoch.create ~max_threads:8 () in
  for _ = 1 to 300 do
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Epoch.thread_id em : int);
           Epoch.enter_critical em;
           Epoch.exit_critical em;
           Epoch.release_thread em))
  done;
  check Alcotest.bool "slot high-water mark stays tiny" true
    (Epoch.registered_threads em <= 2);
  check Alcotest.int "no live registrations left" 0 (Epoch.live_threads em)

let test_epoch_release_semantics () =
  let em = Epoch.create () in
  Epoch.release_thread em;
  (* unregistered: no-op *)
  let id = Epoch.thread_id em in
  check Alcotest.int "one live registration" 1 (Epoch.live_threads em);
  Epoch.enter_critical em;
  Alcotest.check_raises "release inside a critical section"
    (Invalid_argument "Epoch.release_thread: inside a critical section") (fun () ->
      Epoch.release_thread em);
  Epoch.exit_critical em;
  Epoch.release_thread em;
  Epoch.release_thread em;
  (* released: second call is a no-op *)
  check Alcotest.int "no live registrations" 0 (Epoch.live_threads em);
  let id' = Epoch.thread_id em in
  check Alcotest.int "released slot id is reused" id id';
  check Alcotest.int "high-water mark unchanged" 1 (Epoch.registered_threads em);
  Epoch.release_thread em

let test_epoch_finalizer_reclaims_slots () =
  (* Domains that die without releasing: the DLS cell's finaliser pushes the
     slot onto the pending stack, drained at the next registration. 64
     lifetimes against 16 slots only works if that safety net works. *)
  let em = Epoch.create ~max_threads:16 () in
  for _ = 1 to 64 do
    Domain.join (Domain.spawn (fun () -> ignore (Epoch.thread_id em : int)));
    Gc.full_major ()
  done;
  Gc.full_major ();
  check Alcotest.bool "dead domains' slots were reclaimed" true
    (Epoch.live_threads em < 16)

let test_pop_skips_dead_queue_head () =
  let rt, ctx = make_ctx ~slots_per_block:4 ~reclaim_threshold:0.01 () in
  let obs = rt.Runtime.obs in
  (* Blocks A (slots 0-3), B (4-7), C (8-11); C stays the local block. *)
  let refs = Array.init 12 (fun _ -> Context.alloc ctx) in
  let block_of r =
    match Context.resolve ctx r with Some (b, _) -> b | None -> Alcotest.fail "live ref"
  in
  let a_blk = block_of refs.(0) and b_blk = block_of refs.(4) in
  for i = 0 to 7 do
    ignore (Context.free ctx refs.(i) : bool)
  done;
  check Alcotest.bool "A queued" true a_blk.Block.queued;
  check Alcotest.bool "B queued" true b_blk.Block.queued;
  (* Kill the queue head behind the context's back (in production compaction
     does this when it retires a queued source block). *)
  a_blk.Block.dead <- true;
  ignore (Epoch.advance_until rt.Runtime.epoch
            ~target:(Epoch.global rt.Runtime.epoch + 3) ~max_spins:100 : bool);
  let before = Smc_obs.snapshot obs in
  (* C is full, so this allocation releases it and hits the queue: the dead
     head A must be drained and B recycled — not a fresh block minted. *)
  let r = Context.alloc ctx in
  let after = Smc_obs.snapshot obs in
  let d c = Smc_obs.get after c - Smc_obs.get before c in
  check Alcotest.int "allocated from recycled B" b_blk.Block.id (block_of r).Block.id;
  check Alcotest.int "one dead head drained" 1 (d Smc_obs.c_rq_dead_drops);
  check Alcotest.int "one queue pop" 1 (d Smc_obs.c_rq_pops);
  check Alcotest.int "no fresh block minted" 0 (d Smc_obs.c_fresh_blocks)

let test_maybe_queue_rechecks_under_lock () =
  let rt, ctx = make_ctx ~slots_per_block:4 ~reclaim_threshold:0.25 () in
  let refs = Array.init 4 (fun _ -> Context.alloc ctx) in
  let a_blk =
    match Context.resolve ctx refs.(0) with
    | Some (b, _) -> b
    | None -> Alcotest.fail "live ref"
  in
  (* A is full; the next allocation releases it (owner -1) and opens it to
     queuing by remote frees. *)
  let extra = Context.alloc ctx in
  check Alcotest.int "A released" (-1) a_blk.Block.owner_tid;
  (* Simulate the race: between maybe_queue's unlocked pre-check and the
     context lock, another thread re-acquires A as its allocation block. *)
  rt.Runtime.on_queue_check <-
    Some (fun blk -> if blk == a_blk then blk.Block.owner_tid <- 99);
  ignore (Context.free ctx refs.(0) : bool);
  ignore (Context.free ctx refs.(1) : bool);
  (* limbo 2/4 > 0.25 passed the pre-check, so the hook fired — but the
     under-lock re-check must refuse to queue an owned block. *)
  check Alcotest.bool "owned block not queued" false a_blk.Block.queued;
  rt.Runtime.on_queue_check <- None;
  (* Release again: the next threshold crossing queues it normally. *)
  a_blk.Block.owner_tid <- -1;
  ignore (Context.free ctx refs.(2) : bool);
  check Alcotest.bool "unowned block queued" true a_blk.Block.queued;
  ignore (Context.free ctx refs.(3) : bool);
  ignore (Context.free ctx extra : bool)

let () =
  (* The lifecycle regressions assert Obs counter deltas. *)
  Smc_obs.enabled := true;
  Alcotest.run "smc_offheap"
    [
      ( "layout",
        [
          Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "duplicate field" `Quick test_layout_duplicate_field;
          Alcotest.test_case "empty" `Quick test_layout_empty;
          Alcotest.test_case "field lookup" `Quick test_layout_field_lookup;
        ] );
      ( "block",
        [
          Alcotest.test_case "string roundtrip" `Quick test_block_string_roundtrip;
          Alcotest.test_case "row word isolation" `Quick test_block_word_isolation;
          Alcotest.test_case "columnar word isolation" `Quick test_block_columnar_isolation;
          Alcotest.test_case "float precision" `Quick test_block_float_precision;
          Alcotest.test_case "copy_slot across placements" `Quick
            test_copy_slot_across_placements;
          prop_block_string_roundtrip;
          prop_random_layout_roundtrip Block.Row;
          prop_random_layout_roundtrip Block.Columnar;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "advance basic" `Quick test_epoch_advance_basic;
          Alcotest.test_case "critical blocks advance" `Quick
            test_epoch_critical_blocks_advance;
          Alcotest.test_case "nesting" `Quick test_epoch_nesting;
          Alcotest.test_case "unbalanced exit" `Quick test_epoch_exit_unbalanced;
          Alcotest.test_case "can_reclaim" `Quick test_epoch_can_reclaim;
          Alcotest.test_case "multi-domain advance" `Quick test_epoch_multidomain;
          prop_epoch_invariants;
        ] );
      ( "indirection",
        [
          Alcotest.test_case "alloc unique" `Quick test_indirection_alloc_unique;
          Alcotest.test_case "reuse" `Quick test_indirection_reuse;
          Alcotest.test_case "ptr survives growth" `Quick
            test_indirection_words_survive_growth;
          Alcotest.test_case "cross-thread free" `Quick test_indirection_cross_thread_free;
        ] );
      ( "context",
        [
          Alcotest.test_case "alloc and read" `Quick test_alloc_and_read;
          Alcotest.test_case "remove nulls reference" `Quick test_remove_nulls_reference;
          Alcotest.test_case "null ref behaviour" `Quick test_null_ref_behaviour;
          Alcotest.test_case "slot reuse bumps incarnation" `Quick
            test_slot_reuse_bumps_incarnation;
          Alcotest.test_case "valid_count tracks" `Quick test_valid_count_tracks;
          Alcotest.test_case "block recycling via queue" `Quick
            test_block_recycling_via_queue;
          Alcotest.test_case "iter_valid counts" `Quick test_iter_valid_counts;
          Alcotest.test_case "indirect_ref_of_slot" `Quick test_indirect_ref_of_slot;
          prop_alloc_free_interleaved;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent alloc distinct" `Quick test_concurrent_alloc_distinct;
          Alcotest.test_case "churn with enumeration" `Quick
            test_concurrent_churn_with_enumeration;
          Alcotest.test_case "churn + compaction stress" `Quick
            test_concurrent_churn_and_compaction;
        ] );
      ("registry", [ Alcotest.test_case "register across table growth" `Quick test_registry_growth ]);
      ( "compaction",
        [
          Alcotest.test_case "preserves objects" `Quick test_compaction_preserves_objects;
          Alcotest.test_case "enumeration no duplicates" `Quick
            test_compaction_enumeration_no_duplicates;
          Alcotest.test_case "shrinks memory" `Quick test_compaction_shrinks_memory;
          Alcotest.test_case "free during frozen state" `Quick
            test_compaction_free_during_frozen_state;
          Alcotest.test_case "idempotent when compact" `Quick
            test_compaction_idempotent_when_compact;
          Alcotest.test_case "concurrent enumeration" `Quick
            test_compaction_concurrent_enumeration;
          Alcotest.test_case "direct mode fixes pointers" `Quick
            test_direct_mode_compaction_fixes_pointers;
          Alcotest.test_case "tombstone forwarding" `Quick
            test_direct_mode_tombstone_forwarding;
          Alcotest.test_case "columnar placement" `Quick test_compaction_columnar_placement;
          Alcotest.test_case "direct + columnar combined" `Quick
            test_compaction_direct_columnar_combined;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "overflow quarantines slot" `Quick test_quarantine_on_overflow;
          Alcotest.test_case "quarantined not enumerated" `Quick
            test_quarantined_slots_not_enumerated;
          Alcotest.test_case "direct mode clamps at direct width" `Quick
            test_direct_quarantine_clamps_at_direct_width;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "compact cycle pins counters" `Quick
            test_compact_cycle_pins_counters;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "per-block counts" `Quick test_per_block_counts;
        ]
        @ List.map
            (fun (name, walk) -> Alcotest.test_case name `Quick (check_epoch_advances walk))
            epoch_walks );
      ( "daemon",
        [ Alcotest.test_case "background compaction" `Quick test_compaction_daemon ] );
      ( "lifecycle",
        [
          Alcotest.test_case "epoch slots recycle across domains" `Quick
            test_epoch_slot_recycling;
          Alcotest.test_case "epoch release semantics" `Quick test_epoch_release_semantics;
          Alcotest.test_case "epoch finalizer reclaims leaked slots" `Quick
            test_epoch_finalizer_reclaims_slots;
          Alcotest.test_case "dead queue head is skipped" `Quick
            test_pop_skips_dead_queue_head;
          Alcotest.test_case "maybe_queue re-checks under lock" `Quick
            test_maybe_queue_rechecks_under_lock;
        ] );
    ]
