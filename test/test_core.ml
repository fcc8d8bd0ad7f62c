(* Tests for the Smc collection layer: semantics of §2 and §4. *)

open Smc_offheap

let check = Alcotest.check

let person_layout =
  Layout.create ~name:"person"
    [ ("name", Layout.Str 16); ("age", Layout.Int); ("salary", Layout.Dec) ]

let order_layout =
  Layout.create ~name:"order"
    [ ("customer", Layout.Ref "person"); ("price", Layout.Dec); ("qty", Layout.Int) ]

let f_name = Smc.Field.str person_layout "name"
let f_age = Smc.Field.int person_layout "age"
let f_salary = Smc.Field.dec person_layout "salary"
let f_customer = Smc.Field.ref_ order_layout "customer"
let f_price = Smc.Field.dec order_layout "price"

let make_persons ?placement ?mode () =
  let rt = Runtime.create () in
  let persons =
    Smc.Collection.create rt ~name:"persons" ~layout:person_layout ?placement ?mode
      ~slots_per_block:32 ()
  in
  (rt, persons)

let add_person persons ~name ~age =
  Smc.Collection.add persons ~init:(fun blk slot ->
      Smc.Field.set_string f_name blk slot name;
      Smc.Field.set_int f_age blk slot age;
      Smc.Field.set_dec f_salary blk slot (Smc_decimal.Decimal.of_int (age * 1000)))

(* ------------------------------------------------------------------ *)

let test_add_and_get () =
  let _rt, persons = make_persons () in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  let blk, slot = Smc.Collection.deref persons adam in
  check Alcotest.string "name" "Adam" (Smc.Field.get_string f_name blk slot);
  check Alcotest.int "age" 27 (Smc.Field.get_int f_age blk slot);
  check Alcotest.int "count" 1 (Smc.Collection.count persons)

let test_remove_semantics () =
  (* The paper's §2 example: after persons.Remove(adam), dereferencing adam
     throws a null-reference exception. *)
  let _rt, persons = make_persons () in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  check Alcotest.bool "remove" true (Smc.Collection.remove persons adam);
  check Alcotest.bool "mem is false" false (Smc.Collection.mem persons adam);
  Alcotest.check_raises "deref raises" Constants.Null_reference (fun () ->
      ignore (Smc.Collection.deref persons adam));
  check Alcotest.bool "double remove is false" false (Smc.Collection.remove persons adam)

let test_bag_enumeration_order () =
  (* Enumeration is in memory (insertion) order for a fresh collection. *)
  let _rt, persons = make_persons () in
  for i = 0 to 99 do
    ignore (add_person persons ~name:(Printf.sprintf "p%d" i) ~age:i : Smc.Ref.t)
  done;
  let ages = ref [] in
  Smc.Collection.iter persons ~f:(fun blk slot ->
      ages := Smc.Field.get_int f_age blk slot :: !ages);
  check (Alcotest.list Alcotest.int) "memory order" (List.init 100 Fun.id) (List.rev !ages)

let test_fold_and_iter_refs () =
  let _rt, persons = make_persons () in
  let refs = List.init 50 (fun i -> add_person persons ~name:"x" ~age:i) in
  let total = Smc.Collection.fold persons ~init:0 ~f:(fun acc blk slot ->
      acc + Smc.Field.get_int f_age blk slot) in
  check Alcotest.int "fold sums ages" (50 * 49 / 2) total;
  let seen = ref [] in
  Smc.Collection.iter_refs persons ~f:(fun r -> seen := r :: !seen);
  check Alcotest.int "iter_refs yields all" 50 (List.length !seen);
  List.iter
    (fun r -> check Alcotest.bool "yielded refs are live" true (Smc.Collection.mem persons r))
    !seen;
  List.iter (fun r -> ignore (Smc.Collection.remove persons r : bool)) refs

let test_ref_equality_and_hash () =
  let _rt, persons = make_persons () in
  let a = add_person persons ~name:"a" ~age:1 in
  let b = add_person persons ~name:"b" ~age:2 in
  check Alcotest.bool "distinct refs" false (Smc.Ref.equal a b);
  check Alcotest.bool "self equal" true (Smc.Ref.equal a a);
  check Alcotest.bool "null is null" true (Smc.Ref.is_null Smc.Ref.null);
  check Alcotest.bool "live ref not null" false (Smc.Ref.is_null a)

let test_inter_collection_refs_indirect () =
  let rt, persons = make_persons () in
  let orders =
    Smc.Collection.create rt ~name:"orders" ~layout:order_layout ~slots_per_block:32 ()
  in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  let order =
    Smc.Collection.add orders ~init:(fun blk slot ->
        Smc.Field.set_ref f_customer ~target:persons blk slot adam;
        Smc.Field.set_dec f_price blk slot (Smc_decimal.Decimal.of_cents 999))
  in
  let oblk, oslot = Smc.Collection.deref orders order in
  (match Smc.Field.follow f_customer ~target:persons oblk oslot with
  | None -> Alcotest.fail "customer should resolve"
  | Some (pblk, pslot) ->
    check Alcotest.int "joined age" 27 (Smc.Field.get_int f_age pblk pslot));
  (* Removing the person nulls the stored reference on next follow. *)
  ignore (Smc.Collection.remove persons adam : bool);
  check Alcotest.bool "follow after removal is None" true
    (Smc.Field.follow f_customer ~target:persons oblk oslot = None);
  check Alcotest.bool "get_ref after removal is null" true
    (Smc.Ref.is_null (Smc.Field.get_ref f_customer ~target:persons oblk oslot))

let test_inter_collection_refs_direct () =
  let rt = Runtime.create () in
  let persons =
    Smc.Collection.create rt ~name:"persons" ~layout:person_layout ~mode:Context.Direct
      ~slots_per_block:32 ()
  in
  let orders =
    Smc.Collection.create rt ~name:"orders" ~layout:order_layout ~slots_per_block:32 ()
  in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  let order =
    Smc.Collection.add orders ~init:(fun blk slot ->
        Smc.Field.set_ref f_customer ~target:persons blk slot adam)
  in
  let oblk, oslot = Smc.Collection.deref orders order in
  (match Smc.Field.follow f_customer ~target:persons oblk oslot with
  | None -> Alcotest.fail "customer should resolve through direct pointer"
  | Some (pblk, pslot) ->
    check Alcotest.int "joined age" 27 (Smc.Field.get_int f_age pblk pslot));
  let round = Smc.Field.get_ref f_customer ~target:persons oblk oslot in
  check Alcotest.bool "get_ref rebuilds an equivalent ref" true
    (Smc.Ref.equal round adam);
  ignore (Smc.Collection.remove persons adam : bool);
  check Alcotest.bool "direct follow after removal is None" true
    (Smc.Field.follow f_customer ~target:persons oblk oslot = None)

let test_columnar_collection_roundtrip () =
  let _rt, persons = make_persons ~placement:Block.Columnar () in
  let refs = List.init 40 (fun i -> add_person persons ~name:(Printf.sprintf "p%d" i) ~age:i) in
  List.iteri
    (fun i r ->
      let blk, slot = Smc.Collection.deref persons r in
      check Alcotest.int "columnar age" i (Smc.Field.get_int f_age blk slot);
      check Alcotest.string "columnar name" (Printf.sprintf "p%d" i)
        (Smc.Field.get_string f_name blk slot))
    refs

let test_collection_compact_through_api () =
  let _rt, persons = make_persons () in
  let refs = Array.init 320 (fun i -> add_person persons ~name:"x" ~age:i) in
  Array.iteri (fun i r -> if i mod 10 <> 0 then ignore (Smc.Collection.remove persons r : bool)) refs;
  let before = Smc.Collection.memory_words persons in
  let report = Smc.Collection.compact persons ~occupancy_threshold:0.5 () in
  check Alcotest.bool "ran" false report.Compaction.aborted;
  check Alcotest.bool "memory shrank" true (Smc.Collection.memory_words persons < before);
  Array.iteri
    (fun i r ->
      if i mod 10 = 0 then begin
        let blk, slot = Smc.Collection.deref persons r in
        check Alcotest.int "survivor intact" i (Smc.Field.get_int f_age blk slot)
      end)
    refs

let test_field_type_mismatch () =
  Alcotest.check_raises "wrong type"
    (Invalid_argument "Field: person.age is not a Str field") (fun () ->
      ignore (Smc.Field.str person_layout "age"))

let test_set_ref_tabular_typing () =
  (* A Ref "person" field must reject references into a non-person
     collection (§2's tabular-class typing rule). *)
  let rt, persons = make_persons () in
  let orders =
    Smc.Collection.create rt ~name:"orders" ~layout:order_layout ~slots_per_block:32 ()
  in
  let adam = add_person persons ~name:"Adam" ~age:27 in
  let o1 =
    Smc.Collection.add orders ~init:(fun blk slot ->
        Smc.Field.set_ref f_customer ~target:persons blk slot adam)
  in
  let ob, os = Smc.Collection.deref orders o1 in
  Alcotest.check_raises "cross-typed ref rejected"
    (Invalid_argument "Field.set_ref: field customer expects a person, got a order")
    (fun () -> Smc.Field.set_ref f_customer ~target:orders ob os o1)

let test_get_char () =
  let _rt, persons = make_persons () in
  let r = add_person persons ~name:"Zoe" ~age:1 in
  let blk, slot = Smc.Collection.deref persons r in
  check Alcotest.char "first char" 'Z' (Smc.Field.get_char f_name blk slot)

let test_iter_variants_agree () =
  let _rt, persons = make_persons () in
  let refs = List.init 100 (fun i -> add_person persons ~name:"x" ~age:i) in
  List.iteri (fun i r -> if i mod 7 = 0 then ignore (Smc.Collection.remove persons r : bool)) refs;
  let via_iter = ref 0 and via_read = ref 0 and via_view = ref 0 in
  Smc.Collection.iter persons ~f:(fun blk slot ->
      via_iter := !via_iter + Smc.Field.get_int f_age blk slot);
  Smc.Collection.with_read persons (fun () ->
      Smc.Collection.iter persons ~f:(fun blk ->
          fun slot -> via_read := !via_read + Smc.Field.get_int f_age blk slot));
  Smc.Collection.with_view persons (fun v ->
      Smc.Collection.view_iter v ~f:(fun blk slot ->
          via_view := !via_view + Smc.Field.get_int f_age blk slot));
  check Alcotest.int "iter under with_read agrees" !via_iter !via_read;
  check Alcotest.int "view_iter agrees" !via_iter !via_view

let test_string_eq_matcher () =
  let _rt, persons = make_persons () in
  ignore (add_person persons ~name:"Alice" ~age:1 : Smc.Ref.t);
  ignore (add_person persons ~name:"Bob" ~age:2 : Smc.Ref.t);
  ignore (add_person persons ~name:"Alic" ~age:3 : Smc.Ref.t);
  let is_alice = Smc.Field.string_eq f_name "Alice" in
  let hits = ref [] in
  Smc.Collection.iter persons ~f:(fun blk slot ->
      if is_alice blk slot then hits := Smc.Field.get_int f_age blk slot :: !hits);
  check (Alcotest.list Alcotest.int) "exact match only" [ 1 ] !hits

let test_follow_loc_agrees_with_follow () =
  let rt, persons = make_persons () in
  let orders =
    Smc.Collection.create rt ~name:"orders" ~layout:order_layout ~slots_per_block:32 ()
  in
  let people = Array.init 20 (fun i -> add_person persons ~name:"p" ~age:i) in
  let order_refs =
    Array.init 20 (fun i ->
        Smc.Collection.add orders ~init:(fun blk slot ->
            Smc.Field.set_ref f_customer ~target:persons blk slot people.(i)))
  in
  ignore (Smc.Collection.remove persons people.(7) : bool);
  Array.iter
    (fun r ->
      let ob, os = Smc.Collection.deref orders r in
      let via_follow = Smc.Field.follow f_customer ~target:persons ob os in
      let via_loc = Smc.Field.follow_loc f_customer ~target:persons ob os in
      match (via_follow, via_loc) with
      | None, loc -> check Alcotest.bool "both dead" true (loc < 0)
      | Some (pb, ps), loc ->
        check Alcotest.bool "both live" true (loc >= 0);
        let lb = Smc.Collection.loc_block persons loc and ls = Smc.Collection.loc_slot loc in
        check Alcotest.int "same block" pb.Smc_offheap.Block.id lb.Smc_offheap.Block.id;
        check Alcotest.int "same slot" ps ls)
    order_refs

let test_with_read_nesting () =
  let _rt, persons = make_persons () in
  ignore (add_person persons ~name:"a" ~age:1 : Smc.Ref.t);
  let result =
    Smc.Collection.with_read persons (fun () ->
        Smc.Collection.with_read persons (fun () -> Smc.Collection.count persons))
  in
  check Alcotest.int "nested read works" 1 result

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let prop_collection_models_set =
  (* Model-based test: a collection driven by random add/remove matches a
     reference implementation (int-keyed map). *)
  qtest "collection: model-based add/remove/count/iter"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (QCheck.int_range 0 999))
    (fun ops ->
      let _rt, persons = make_persons () in
      let model = Hashtbl.create 64 in
      let next = ref 0 in
      List.iter
        (fun op ->
          if op < 600 || Hashtbl.length model = 0 then begin
            let id = !next in
            incr next;
            let r = add_person persons ~name:(string_of_int id) ~age:id in
            Hashtbl.replace model id r
          end
          else begin
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
            let k = List.nth keys (op mod List.length keys) in
            ignore (Smc.Collection.remove persons (Hashtbl.find model k) : bool);
            Hashtbl.remove model k
          end)
        ops;
      (* count matches, and the enumerated bag equals the model's key set *)
      if Smc.Collection.count persons <> Hashtbl.length model then false
      else begin
        let seen = Hashtbl.create 64 in
        Smc.Collection.iter persons ~f:(fun blk slot ->
            Hashtbl.replace seen (Smc.Field.get_int f_age blk slot) ());
        Hashtbl.length seen = Hashtbl.length model
        && Hashtbl.fold (fun k _ acc -> acc && Hashtbl.mem seen k) model true
      end)

let () =
  Alcotest.run "smc_core"
    [
      ( "collection",
        [
          Alcotest.test_case "add and get" `Quick test_add_and_get;
          Alcotest.test_case "remove semantics" `Quick test_remove_semantics;
          Alcotest.test_case "bag enumeration order" `Quick test_bag_enumeration_order;
          Alcotest.test_case "fold and iter_refs" `Quick test_fold_and_iter_refs;
          Alcotest.test_case "ref equality and hash" `Quick test_ref_equality_and_hash;
          Alcotest.test_case "with_read nesting" `Quick test_with_read_nesting;
          Alcotest.test_case "iter variants agree" `Quick test_iter_variants_agree;
          Alcotest.test_case "string_eq matcher" `Quick test_string_eq_matcher;
          Alcotest.test_case "follow_loc agrees with follow" `Quick
            test_follow_loc_agrees_with_follow;
          prop_collection_models_set;
        ] );
      ( "references",
        [
          Alcotest.test_case "inter-collection indirect" `Quick
            test_inter_collection_refs_indirect;
          Alcotest.test_case "inter-collection direct" `Quick
            test_inter_collection_refs_direct;
        ] );
      ( "variants",
        [
          Alcotest.test_case "columnar roundtrip" `Quick test_columnar_collection_roundtrip;
          Alcotest.test_case "compact through api" `Quick test_collection_compact_through_api;
        ] );
      ( "fields",
        [
          Alcotest.test_case "type mismatch" `Quick test_field_type_mismatch;
          Alcotest.test_case "tabular ref typing" `Quick test_set_ref_tabular_typing;
          Alcotest.test_case "get_char" `Quick test_get_char;
        ] );
    ]
