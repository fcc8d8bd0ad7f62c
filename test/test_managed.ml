(* Tests for the managed baseline collections. *)

open Smc_managed

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Vector *)

let test_vector_add_get () =
  let v = Vector.create () in
  for i = 0 to 99 do
    Vector.add v (i * 2)
  done;
  check Alcotest.int "length" 100 (Vector.length v);
  check Alcotest.int "get" 84 (Vector.get v 42);
  Vector.set v 42 (-1);
  check Alcotest.int "set" (-1) (Vector.get v 42)

let test_vector_bounds () =
  let v = Vector.create () in
  Vector.add v 1;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vector: index out of bounds")
    (fun () -> ignore (Vector.get v 1));
  Alcotest.check_raises "negative" (Invalid_argument "Vector: index out of bounds") (fun () ->
      ignore (Vector.get v (-1)))

let test_vector_remove_bulk () =
  let v = Vector.of_array (Array.init 100 Fun.id) in
  let removed = Vector.remove_bulk v ~pred:(fun x -> x mod 3 = 0) in
  check Alcotest.int "removed count" 34 removed;
  check Alcotest.int "length" 66 (Vector.length v);
  Vector.iter v ~f:(fun x -> if x mod 3 = 0 then Alcotest.fail "survivor matches pred");
  (* Order preserved. *)
  check Alcotest.int "first" 1 (Vector.get v 0);
  check Alcotest.int "second" 2 (Vector.get v 1)

let test_vector_remove_at () =
  let v = Vector.of_array [| 10; 20; 30; 40 |] in
  Vector.remove_at v 1;
  check (Alcotest.array Alcotest.int) "shifted" [| 10; 30; 40 |] (Vector.to_array v)

let test_vector_clear_and_fold () =
  let v = Vector.of_array (Array.init 10 Fun.id) in
  check Alcotest.int "fold sum" 45 (Vector.fold v ~init:0 ~f:( + ));
  Vector.clear v;
  check Alcotest.int "cleared" 0 (Vector.length v)

let prop_vector_models_list =
  qtest "vector: behaves like a list under add/remove_bulk"
    QCheck.(pair (list small_int) (int_range 0 10))
    (fun (xs, k) ->
      let v = Vector.create () in
      List.iter (Vector.add v) xs;
      let expected = List.filter (fun x -> x mod (k + 2) <> 0) xs in
      ignore (Vector.remove_bulk v ~pred:(fun x -> x mod (k + 2) = 0) : int);
      Array.to_list (Vector.to_array v) = expected)

(* ------------------------------------------------------------------ *)
(* Concurrent_dictionary *)

let test_dict_basics () =
  let d = Concurrent_dictionary.create () in
  Concurrent_dictionary.add d ~key:1 "one";
  Concurrent_dictionary.add d ~key:2 "two";
  check Alcotest.int "length" 2 (Concurrent_dictionary.length d);
  check (Alcotest.option Alcotest.string) "find" (Some "one")
    (Concurrent_dictionary.find d ~key:1);
  check Alcotest.bool "mem" true (Concurrent_dictionary.mem d ~key:2);
  check Alcotest.bool "remove" true (Concurrent_dictionary.remove d ~key:1);
  check Alcotest.bool "remove again" false (Concurrent_dictionary.remove d ~key:1);
  check (Alcotest.option Alcotest.string) "gone" None (Concurrent_dictionary.find d ~key:1)

let test_dict_replace () =
  let d = Concurrent_dictionary.create () in
  Concurrent_dictionary.add d ~key:7 "a";
  Concurrent_dictionary.add d ~key:7 "b";
  check Alcotest.int "no duplicate" 1 (Concurrent_dictionary.length d);
  check (Alcotest.option Alcotest.string) "replaced" (Some "b")
    (Concurrent_dictionary.find d ~key:7)

let test_dict_concurrent () =
  let d = Concurrent_dictionary.create () in
  let n_domains = 4 and per = 2_000 in
  let domains =
    List.init n_domains (fun i ->
        Domain.spawn (fun () ->
            for j = 0 to per - 1 do
              Concurrent_dictionary.add d ~key:((i * per) + j) j
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "all inserted" (n_domains * per) (Concurrent_dictionary.length d);
  let sum = Concurrent_dictionary.fold d ~init:0 ~f:(fun acc _ v -> acc + v) in
  check Alcotest.int "values intact" (n_domains * (per * (per - 1) / 2)) sum

(* Domains add and remove on interleaved key ranges: stripes of every shard
   are hit by every domain, so shard locks are genuinely contended. Alcotest
   is not domain-safe, so each domain returns its count of failed own-key
   removes and the main domain checks them after the join. *)
let test_dict_contended_add_remove () =
  let d = Concurrent_dictionary.create () in
  let n_domains = 4 and per = 2_000 in
  let domains =
    List.init n_domains (fun i ->
        Domain.spawn (fun () ->
            let failed = ref 0 in
            for j = 0 to per - 1 do
              let key = (j * n_domains) + i in
              Concurrent_dictionary.add d ~key (key * 7);
              if j land 1 = 0 && not (Concurrent_dictionary.remove d ~key) then incr failed
            done;
            !failed))
  in
  List.iteri
    (fun i dom ->
      check Alcotest.int (Printf.sprintf "domain %d: every own-key remove succeeded" i) 0
        (Domain.join dom))
    domains;
  (* Even j removed, odd j survived. *)
  check Alcotest.int "survivors" (n_domains * per / 2) (Concurrent_dictionary.length d);
  Concurrent_dictionary.iter d ~f:(fun key v ->
      if v <> key * 7 then Alcotest.failf "key %d carries value %d" key v);
  for j = 0 to per - 1 do
    if j land 1 = 1 then
      for i = 0 to n_domains - 1 do
        let key = (j * n_domains) + i in
        if not (Concurrent_dictionary.mem d ~key) then Alcotest.failf "key %d missing" key
      done
  done

(* All domains churn the same small key set; after the join, length must
   agree with the contents and every surviving value must be one some domain
   actually wrote. *)
let test_dict_shared_key_churn () =
  let d = Concurrent_dictionary.create ~shards:8 () in
  let n_domains = 4 and rounds = 4_000 and key_space = 97 in
  let domains =
    List.init n_domains (fun i ->
        Domain.spawn (fun () ->
            for r = 0 to rounds - 1 do
              let key = (r + (i * 13)) mod key_space in
              if r land 3 = 0 then ignore (Concurrent_dictionary.remove d ~key : bool)
              else Concurrent_dictionary.add d ~key ((key * 1_000_000) + r)
            done))
  in
  List.iter Domain.join domains;
  let present = ref 0 in
  for key = 0 to key_space - 1 do
    match Concurrent_dictionary.find d ~key with
    | None -> ()
    | Some v ->
      incr present;
      if v / 1_000_000 <> key || v mod 1_000_000 >= rounds then
        Alcotest.failf "key %d carries impossible value %d" key v
  done;
  check Alcotest.int "length agrees with contents" !present (Concurrent_dictionary.length d)

(* Readers race the writers: finds and whole-table iterations must stay
   weakly consistent (never a torn value) while adds and removes proceed. *)
let test_dict_readers_vs_writers () =
  let d = Concurrent_dictionary.create () in
  let key_space = 256 in
  let writers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            for r = 0 to 20_000 - 1 do
              let key = (r + (i * 31)) mod key_space in
              if r land 7 = 0 then ignore (Concurrent_dictionary.remove d ~key : bool)
              else Concurrent_dictionary.add d ~key ((key * 1_000_000) + r)
            done))
  in
  let readers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let torn = ref 0 in
            for r = 0 to 20_000 - 1 do
              let key = (r + i) mod key_space in
              (match Concurrent_dictionary.find d ~key with
              | Some v when v / 1_000_000 <> key -> incr torn
              | _ -> ());
              if r land 1023 = 0 then
                Concurrent_dictionary.iter d ~f:(fun key v ->
                    if v / 1_000_000 <> key then incr torn)
            done;
            !torn))
  in
  List.iter Domain.join writers;
  List.iter (fun r -> check Alcotest.int "no torn reads" 0 (Domain.join r)) readers

(* ------------------------------------------------------------------ *)
(* Concurrent_bag *)

let test_bag_basics () =
  let b = Concurrent_bag.create () in
  for i = 1 to 100 do
    Concurrent_bag.add b i
  done;
  check Alcotest.int "length" 100 (Concurrent_bag.length b);
  check Alcotest.int "fold" 5050 (Concurrent_bag.fold b ~init:0 ~f:( + ))

let test_bag_multidomain () =
  let b = Concurrent_bag.create () in
  let n_domains = 4 and per = 5_000 in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for j = 1 to per do
              Concurrent_bag.add b j
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "all present" (n_domains * per) (Concurrent_bag.length b);
  check Alcotest.int "sum" (n_domains * (per * (per + 1) / 2))
    (Concurrent_bag.fold b ~init:0 ~f:( + ))

(* Enumeration racing adds from other domains. The bag is weakly consistent
   like its C# namesake: an enumerator may miss in-flight adds (or observe a
   slot whose write has not reached it yet, reading the array default 0),
   but everything it does observe must be a value some domain added, and the
   pre-filled segment must always be fully visible. *)
let test_bag_iter_during_adds () =
  let b = Concurrent_bag.create () in
  let pre = 500 in
  for i = 1 to pre do
    Concurrent_bag.add b i
  done;
  let per = 20_000 in
  let writers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for j = 1 to per do
              Concurrent_bag.add b (1000 + j)
            done))
  in
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        for _ = 1 to 200 do
          let seen_pre = ref 0 in
          Concurrent_bag.iter b ~f:(fun x ->
              if x >= 1 && x <= pre then incr seen_pre
              else if x <> 0 && not (x > 1000 && x <= 1000 + per) then incr bad);
          if !seen_pre <> pre then incr bad
        done;
        !bad)
  in
  List.iter Domain.join writers;
  check Alcotest.int "no foreign values observed" 0 (Domain.join reader);
  check Alcotest.int "final length" (pre + (3 * per)) (Concurrent_bag.length b);
  let sum = Concurrent_bag.fold b ~init:0 ~f:( + ) in
  let expected = (pre * (pre + 1) / 2) + (3 * ((per * (per + 1) / 2) + (1000 * per))) in
  check Alcotest.int "final sum" expected sum

let () =
  Alcotest.run "smc_managed"
    [
      ( "vector",
        [
          Alcotest.test_case "add/get/set" `Quick test_vector_add_get;
          Alcotest.test_case "bounds" `Quick test_vector_bounds;
          Alcotest.test_case "remove_bulk" `Quick test_vector_remove_bulk;
          Alcotest.test_case "remove_at" `Quick test_vector_remove_at;
          Alcotest.test_case "clear and fold" `Quick test_vector_clear_and_fold;
          prop_vector_models_list;
        ] );
      ( "concurrent_dictionary",
        [
          Alcotest.test_case "basics" `Quick test_dict_basics;
          Alcotest.test_case "replace" `Quick test_dict_replace;
          Alcotest.test_case "concurrent adds" `Quick test_dict_concurrent;
          Alcotest.test_case "contended add/remove" `Quick test_dict_contended_add_remove;
          Alcotest.test_case "shared-key churn" `Quick test_dict_shared_key_churn;
          Alcotest.test_case "readers vs writers" `Quick test_dict_readers_vs_writers;
        ] );
      ( "concurrent_bag",
        [
          Alcotest.test_case "basics" `Quick test_bag_basics;
          Alcotest.test_case "multi-domain adds" `Quick test_bag_multidomain;
          Alcotest.test_case "enumeration during adds" `Quick test_bag_iter_during_adds;
        ] );
    ]
