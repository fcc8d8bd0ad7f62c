(* Tests for the suffix-array text index and its planner integration:
   probes validate staleness like the hash index, store hooks re-key
   through the pending log, merge-rebuilds preserve findability, the
   planner routes Contains/StartsWith conjuncts onto TextScan, and all
   four engines answer text predicates identically — including the edge
   cases (empty needle, over-capacity needle, word-boundary straddles,
   non-ASCII bytes, Null-bearing computed columns). *)

open Smc_query
module T = Smc_text.Sa_index

let check = Alcotest.check

let rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.fprintf fmt "%s"
        (String.concat ";"
           (List.map
              (fun row ->
                String.concat "," (Array.to_list (Array.map Value.to_string row)))
              rows)))
    (List.equal (fun a b -> Array.for_all2 Value.equal a b))

let sorted rows = List.sort Stdlib.compare rows

(* ---- fixture -------------------------------------------------------- *)

let mk_coll ?(name = "docs") rt texts =
  let layout =
    Smc_offheap.Layout.create ~name
      [ ("id", Smc_offheap.Layout.Int); ("txt", Smc_offheap.Layout.Str 42) ]
  in
  let coll = Smc.Collection.create rt ~name ~layout () in
  let fid = Smc.Field.int layout "id" and ftxt = Smc.Field.str layout "txt" in
  let refs =
    Array.mapi
      (fun i s ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fid blk slot i;
            Smc.Field.set_string ftxt blk slot s))
      (Array.of_list texts)
  in
  (coll, fid, ftxt, refs)

let store_string coll (f : Smc_offheap.Layout.field) r s =
  let words = Smc_offheap.Block.string_words f s in
  Array.iteri
    (fun i w ->
      Smc.Collection.store coll r ~word:(f.Smc_offheap.Layout.word + i) ~value:w)
    words

let fixture_texts =
  [ "alpha wolf"; "alphabet soup"; "beta wolf"; "gamma ray burst"; "delta"; "werewolf" ]

let mem_ref r refs = List.exists (Smc.Ref.equal r) refs

(* ---- Sa_index unit tests -------------------------------------------- *)

let test_probe_basics () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, _, _, refs = mk_coll rt fixture_texts in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  let prefix n = T.probe_refs ix T.Prefix n and sub n = T.probe_refs ix T.Substring n in
  check Alcotest.int "prefix alpha: 2 rows" 2 (List.length (prefix "alpha"));
  check Alcotest.bool "alpha wolf found" true (mem_ref refs.(0) (prefix "alpha"));
  check Alcotest.bool "alphabet found" true (mem_ref refs.(1) (prefix "alpha"));
  check Alcotest.int "substring wolf: 3 rows" 3 (List.length (sub "wolf"));
  check Alcotest.bool "werewolf found by substring" true (mem_ref refs.(5) (sub "wolf"));
  check Alcotest.int "prefix wolf: 0 rows (not a prefix anywhere)" 0
    (List.length (prefix "wolf"));
  check Alcotest.int "empty needle matches every row" (List.length fixture_texts)
    (List.length (sub ""));
  check Alcotest.int "absent needle" 0 (List.length (sub "zebra"));
  (* A row with several matching suffixes is emitted once. *)
  check Alcotest.int "dedup across suffix hits" 1 (List.length (sub "a r"));
  check (Alcotest.list Alcotest.string) "audit clean" [] (T.audit ix);
  let st = T.stats ix in
  check Alcotest.int "entries" (List.length fixture_texts) st.T.entries;
  check Alcotest.int "pending drained by bulk load" 0 st.T.pending

let test_staleness () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, _, _, refs = mk_coll rt fixture_texts in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  check Alcotest.bool "werewolf matches before remove" true
    (T.contains_match ix T.Substring "werewolf");
  ignore (Smc.Collection.remove coll refs.(5));
  check Alcotest.bool "removed row never resurrects" false
    (T.contains_match ix T.Substring "werewolf");
  check Alcotest.int "other rows unaffected" 2
    (List.length (T.probe_refs ix T.Substring "wolf"));
  T.rebuild ix;
  check Alcotest.bool "still gone after rebuild" false
    (T.contains_match ix T.Substring "werewolf");
  check (Alcotest.list Alcotest.string) "audit clean after rebuild" [] (T.audit ix)

let test_store_rekey () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, _, ftxt, refs = mk_coll rt fixture_texts in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  store_string coll ftxt refs.(4) "epsilon horizon";
  (* The old arena entry must read as stale via the text re-check, and the
     new text must be findable straight from the pending log. *)
  check Alcotest.bool "old text misses after store" false
    (T.contains_match ix T.Substring "delta");
  check Alcotest.bool "new text hits from the pending log" true
    (T.contains_match ix T.Substring "horizon");
  check (Alcotest.list Alcotest.string) "audit clean with pending entries" []
    (T.audit ix);
  T.rebuild ix;
  check Alcotest.bool "new text survives the merge-rebuild" true
    (T.contains_match ix T.Substring "horizon");
  check Alcotest.bool "old text still gone" false (T.contains_match ix T.Substring "delta");
  check (Alcotest.list Alcotest.string) "audit clean after rebuild" [] (T.audit ix)

let test_churn_rebuild () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, fid, ftxt, _ = mk_coll rt fixture_texts in
  let ix = T.attach ~churn_limit:3 ~name:"by_txt" ~column:"txt" coll in
  for i = 0 to 9 do
    ignore
      (Smc.Collection.add coll ~init:(fun blk slot ->
           Smc.Field.set_int fid blk slot (100 + i);
           Smc.Field.set_string ftxt blk slot (Printf.sprintf "extra row %d here" i)))
  done;
  (* With a churn limit of 3, ten appends force merges: the pending log
     cannot have accumulated all of them. *)
  let st = T.stats ix in
  check Alcotest.bool "pending bounded by churn limit" true (st.T.pending <= 3);
  check Alcotest.int "all rows indexed" (List.length fixture_texts + 10)
    (List.length (T.probe_refs ix T.Substring ""));
  check Alcotest.int "appended rows findable" 10
    (List.length (T.probe_refs ix T.Substring "extra row"));
  check (Alcotest.list Alcotest.string) "audit clean" [] (T.audit ix)

let test_top_k_similar () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, _, _, refs =
    mk_coll rt [ "the quick brown fox"; "the quick brown cat"; "slow green turtle" ]
  in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  (match T.top_k_similar ix ~k:2 "the quick brown fox" with
  | (r, s1) :: rest ->
    check Alcotest.bool "best match is the identical row" true (Smc.Ref.equal r refs.(0));
    check Alcotest.bool "positive score" true (s1 > 0);
    (match rest with
    | [ (r2, s2) ] ->
      check Alcotest.bool "runner-up is the near-duplicate" true
        (Smc.Ref.equal r2 refs.(1));
      check Alcotest.bool "scores ordered" true (s1 >= s2)
    | _ -> Alcotest.fail "expected exactly two results")
  | [] -> Alcotest.fail "no similarity results");
  check Alcotest.int "k bounds the result" 1
    (List.length (T.top_k_similar ix ~k:1 "quick brown"))

let test_attach_detach () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, fid, ftxt, _ = mk_coll rt fixture_texts in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  check Alcotest.string "name" "by_txt" (T.name ix);
  check Alcotest.string "column" "txt" (T.column ix);
  (match T.attach ~name:"by_txt" ~column:"txt" coll with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate name must be rejected");
  (match T.attach ~name:"by_id" ~column:"id" coll with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-string column must be rejected");
  T.detach ix;
  ignore
    (Smc.Collection.add coll ~init:(fun blk slot ->
         Smc.Field.set_int fid blk slot 999;
         Smc.Field.set_string ftxt blk slot "post-detach row"));
  check Alcotest.bool "detached index is frozen" false
    (T.contains_match ix T.Substring "post-detach")

(* ---- levels: seals, merges, and probes racing them ------------------ *)

(* Sa_index seals its pending tail into a run at this many refs (a private
   constant of the index; maintenance keeps the tail below it). *)
let run_size = 256

let model_tokens =
  [| "alpha"; "Bravo"; "chaRLie"; "delta"; "ECHO"; "wolf"; "were"; "ray"; "burst"; "ab" |]

(* Seals and merges observed from outside: a seal resets the tail, and a
   seal that does not grow the run count by one carried into a merge. *)
type level_watch = { mutable seals : int; mutable merges : int; mutable last : T.stats }

let watch ix = { seals = 0; merges = 0; last = T.stats ix }

let observe w ix =
  let st = T.stats ix in
  if st.T.pending < w.last.T.pending then begin
    w.seals <- w.seals + 1;
    w.merges <- w.merges + max 0 (w.last.T.runs + 1 - st.T.runs)
  end;
  w.last <- st

let brute_match op needle s =
  let fold = String.lowercase_ascii in
  let n = String.length needle and h = String.length s in
  let contains needle s =
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  match op with
  | T.Prefix -> n <= h && String.sub s 0 n = needle
  | T.Substring -> contains needle s
  | T.Substring_ci -> contains (fold needle) (fold s)

let brute_top_k live ~k query =
  let n = String.length query in
  let frags =
    if n < 3 then [ query ]
    else List.sort_uniq compare (List.init (n - 2) (fun i -> String.sub query i 3))
  in
  Hashtbl.fold
    (fun p s acc ->
      let score = List.length (List.filter (fun g -> brute_match T.Substring g s) frags) in
      if score > 0 then (p, score) :: acc else acc)
    live []
  |> List.sort (fun (pa, sa) (pb, sb) -> if sa <> sb then compare sb sa else compare pa pb)
  |> List.filteri (fun i _ -> i < k)

let check_against_model ?(needles = []) ~phase ix live =
  let expect op needle =
    Hashtbl.fold (fun p s acc -> if brute_match op needle s then p :: acc else acc) live []
    |> List.sort compare
  in
  let got op needle =
    List.sort compare (List.map Smc.Ref.to_packed (T.probe_refs ix op needle))
  in
  let live_texts = Hashtbl.fold (fun _ s acc -> s :: acc) live [] in
  let needles =
    needles
    @ [ ""; "a"; "al"; "wolf"; "WOLF"; "ra"; "Bravo e"; "zzz"; "keep" ]
    @ List.filteri (fun i _ -> i mod 17 = 0) live_texts
    @ List.filter_map
        (fun s -> if String.length s > 6 then Some (String.sub s 2 4) else None)
        (List.filteri (fun i _ -> i mod 23 = 0) live_texts)
  in
  List.iter
    (fun op ->
      List.iter
        (fun needle ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "%s: probe %S row for row" phase needle)
            (expect op needle) (got op needle))
        needles)
    [ T.Prefix; T.Substring; T.Substring_ci ];
  List.iter
    (fun q ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (Printf.sprintf "%s: top_k_similar %S" phase q)
        (brute_top_k live ~k:7 q)
        (List.map (fun (r, sc) -> (Smc.Ref.to_packed r, sc)) (T.top_k_similar ix ~k:7 q)))
    [ "alpha wolf"; "ab"; "chaRLie ray" ];
  check (Alcotest.list Alcotest.string) (phase ^ ": audit clean") [] (T.audit ix);
  check Alcotest.bool (phase ^ ": tail below the run size") true
    ((T.stats ix).T.pending < run_size)

let test_seal_merge_model () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, fid, ftxt, refs = mk_coll rt fixture_texts in
  (* far above anything this test appends: every fold below is a seal or a
     merge, never a full rebuild *)
  let ix = T.attach ~churn_limit:1_000_000 ~name:"by_txt" ~column:"txt" coll in
  let live = Hashtbl.create 256 in
  List.iteri (fun i s -> Hashtbl.replace live (Smc.Ref.to_packed refs.(i)) s) fixture_texts;
  let handles = ref (Array.to_list refs) in
  let prng = Smc_util.Prng.create ~seed:1311L () in
  let text () =
    String.concat " "
      (List.init (1 + Smc_util.Prng.int prng 3) (fun _ ->
           model_tokens.(Smc_util.Prng.int prng (Array.length model_tokens))))
  in
  let w = watch ix in
  (* audit after every step: the packed suffix words, the entry tables and
     the level shape hold through each append, seal and merge *)
  let step () =
    observe w ix;
    check (Alcotest.list Alcotest.string) "audit clean after the step" [] (T.audit ix)
  in
  let add s =
    let r =
      Smc.Collection.add coll ~init:(fun blk slot ->
          Smc.Field.set_int fid blk slot 0;
          Smc.Field.set_string ftxt blk slot s)
    in
    Hashtbl.replace live (Smc.Ref.to_packed r) s;
    handles := r :: !handles;
    step ();
    r
  in
  let restore r s =
    store_string coll ftxt r s;
    Hashtbl.replace live (Smc.Ref.to_packed r) s;
    step ()
  in
  let pick () =
    let hs = Array.of_list !handles in
    hs.(Smc_util.Prng.int prng (Array.length hs))
  in
  let phase i =
    for _ = 1 to 150 do
      let d = Smc_util.Prng.int prng 10 in
      if d < 5 || Hashtbl.length live < 10 then ignore (add (text ()) : Smc.Ref.t)
      else if d < 8 then restore (pick ()) (text ())
      else begin
        let r = pick () in
        check Alcotest.bool "remove a live handle" true (Smc.Collection.remove coll r);
        Hashtbl.remove live (Smc.Ref.to_packed r);
        handles := List.filter (fun h -> not (Smc.Ref.equal h r)) !handles;
        step ()
      end
    done;
    check_against_model ~phase:(Printf.sprintf "phase %d" i) ix live
  in
  (* Drive appends until the tail has been sealed [n] more times. *)
  let seal_times n =
    let target = w.seals + n in
    while w.seals < target do
      ignore (add (text ()) : Smc.Ref.t)
    done
  in
  for i = 1 to 6 do
    phase i
  done;
  (* A row whose old text was sealed into a run, then re-stored: its old
     text must miss, its new text hit once — also once the new text is
     sealed too and both levels hold an entry for it. *)
  let r = add "keepold row" in
  seal_times 1;
  restore r "keepnew row";
  let once phase =
    check Alcotest.int (phase ^ ": old text misses") 0
      (List.length (T.probe_refs ix T.Substring "keepold"));
    check (Alcotest.list Alcotest.int) (phase ^ ": new text emitted once")
      [ Smc.Ref.to_packed r ]
      (List.map Smc.Ref.to_packed (T.probe_refs ix T.Substring "keepnew"));
    check (Alcotest.list Alcotest.int) (phase ^ ": shared prefix emitted once")
      [ Smc.Ref.to_packed r ]
      (List.map Smc.Ref.to_packed (T.probe_refs ix T.Prefix "keep"))
  in
  once "re-stored, new text pending";
  seal_times 1;
  once "re-stored, new text sealed";
  check_against_model ~phase:"after re-store" ix live;
  check Alcotest.bool (Printf.sprintf "at least 4 seals (saw %d)" w.seals) true (w.seals >= 4);
  check Alcotest.bool (Printf.sprintf "at least 2 merges (saw %d)" w.merges) true
    (w.merges >= 2);
  check Alcotest.bool "runs still unfolded (no full rebuild)" true ((T.stats ix).T.runs > 0)

(* Texts that stress the level builder's radix sort, which orders
   suffixes 7 bytes at a time and breaks ties by position: empty texts,
   one byte repeated to the capacity, prefixes shared for exactly 6, 7,
   8, 13, 14 and 15 bytes (one short of, at and one past a 7-byte key),
   whole texts repeated, bytes >= 0x80 and texts equal only under case
   folding. Each text appears many times, so equal keys form runs longer
   than the insertion-sorted ones and every level below holds many equal
   suffixes. *)
let adversarial_texts =
  let cap = 42 in
  let stem = "the quick brown fox jumps" in
  let shared =
    List.concat_map
      (fun k ->
        let p = String.sub stem 0 k in
        [ p; p ^ "a"; p ^ "A"; p ^ "b"; p ^ " zz"; p ^ "\xe9t\xe9"; p ^ String.sub stem k 9 ])
      [ 6; 7; 8; 13; 14; 15 ]
  in
  [ ""; String.make cap 'a'; String.make (cap - 1) 'a'; String.make cap 'z';
    String.make 7 'a'; String.make 8 'a'; String.make cap '\xff';
    "\x80\x80\x80\x80\x80\x80\x80\x81"; "\x80\x80\x80\x80\x80\x80\x80\x80";
    "caf\xc3\xa9 cr\xc3\xa8me"; "ABC"; "abc"; "AbC def"; "abc DEF"; "same text"; "same text" ]
  @ shared

let test_adversarial_levels () =
  let copies = 9 in
  let rt = Smc_offheap.Runtime.create () in
  let texts = List.concat (List.init copies (fun _ -> adversarial_texts)) in
  let coll, fid, ftxt, refs = mk_coll rt texts in
  let ix = T.attach ~churn_limit:1_000_000 ~name:"by_txt" ~column:"txt" coll in
  let live = Hashtbl.create 1024 in
  List.iteri (fun i s -> Hashtbl.replace live (Smc.Ref.to_packed refs.(i)) s) texts;
  let needles =
    [ "the qu"; "the qui"; "the quic"; "the quick bro"; "the quick brow"; "the quick brown";
      "the quick browna"; "THE QUICK BROWN"; String.make 7 'a'; String.make 8 'a';
      String.make 42 'a'; "\xff\xff"; "\x80\x80\x80\x80\x80\x80\x80\x81"; "\xe9t"; "abc";
      "ABC"; "same text"; "k brown fox" ]
  in
  let w = watch ix in
  check_against_model ~needles ~phase:"attach" ix live;
  (* the same texts again, in reverse, through the tail: seals, then a merge *)
  List.iter
    (fun s ->
      let r =
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fid blk slot 0;
            Smc.Field.set_string ftxt blk slot s)
      in
      Hashtbl.replace live (Smc.Ref.to_packed r) s;
      observe w ix)
    (List.rev texts);
  check Alcotest.bool (Printf.sprintf "seals and a merge (saw %d, %d)" w.seals w.merges) true
    (w.seals >= 2 && w.merges >= 1);
  check_against_model ~needles ~phase:"seals and merges" ix live;
  T.rebuild ix;
  check_against_model ~needles ~phase:"rebuild" ix live

(* Probe-vs-seal race: one writer domain appends across many seal and
   merge boundaries (adding rows, rewriting and removing some of its own)
   while the main domain probes rows that are live throughout — the bulk-
   loaded ones and every writer row already published as a keeper. Each
   seal or merge publishes a new store; a probe must see either the old
   one or the new one, and both hold every keeper. Misses are counted, and
   checked only after the join. *)
let test_probe_seal_race () =
  let rt = Smc_offheap.Runtime.create () in
  let base_texts = List.init 200 (Printf.sprintf "base%05d row") in
  let coll, fid, ftxt, _ = mk_coll rt base_texts in
  let ix = T.attach ~churn_limit:1_000_000 ~name:"by_txt" ~column:"txt" coll in
  let keeper j = Printf.sprintf "keep%06d" j in
  let n_writes = 4_000 in
  let published = Atomic.make 0 (* keepers 0 .. published-1 are in the index *) in
  let max_runs = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for j = 0 to n_writes - 1 do
          ignore
            (Smc.Collection.add coll ~init:(fun blk slot ->
                 Smc.Field.set_int fid blk slot j;
                 Smc.Field.set_string ftxt blk slot (keeper j ^ " stays"))
              : Smc.Ref.t);
          Atomic.set published (j + 1);
          let churn =
            Smc.Collection.add coll ~init:(fun blk slot ->
                Smc.Field.set_int fid blk slot (-j);
                Smc.Field.set_string ftxt blk slot (Printf.sprintf "churn%06d" j))
          in
          if j land 1 = 0 then store_string coll ftxt churn (Printf.sprintf "moved%06d" j)
          else ignore (Smc.Collection.remove coll churn : bool);
          let runs = (T.stats ix).T.runs in
          if runs > Atomic.get max_runs then Atomic.set max_runs runs
        done)
  in
  let misses = Atomic.make 0 and probes = ref 0 in
  let prng = Smc_util.Prng.create ~seed:77L () in
  while Atomic.get published < n_writes do
    let n = Atomic.get published in
    let needle =
      if n = 0 || Smc_util.Prng.int prng 4 = 0 then
        Printf.sprintf "base%05d" (Smc_util.Prng.int prng 200)
      else keeper (Smc_util.Prng.int prng n)
    in
    if not (T.contains_match ix T.Substring needle) then Atomic.incr misses;
    incr probes
  done;
  Domain.join writer;
  check Alcotest.int "no probe missed a row live throughout the seals and merges" 0
    (Atomic.get misses);
  check Alcotest.bool "the prober ran" true (!probes > 0);
  check Alcotest.bool "the writer crossed several seals into merged runs" true
    (Atomic.get max_runs >= 2);
  check (Alcotest.list Alcotest.string) "audit clean after the race" [] (T.audit ix);
  for j = 0 to n_writes - 1 do
    if not (T.contains_match ix T.Substring (keeper j)) then
      Alcotest.failf "keeper %d missing at the quiescent point" j
  done

(* ---- planner -------------------------------------------------------- *)

let mk_src ?(with_text = true) rt texts =
  let coll, fid, ftxt, refs = mk_coll rt texts in
  let tix = if with_text then Some (T.attach ~name:"by_txt" ~column:"txt" coll) else None in
  let src =
    Source.of_smc coll
      ?text_indexes:(Option.map (fun ix -> [ ("txt", ix) ]) tix)
      ~columns:[ ("id", Source.C_int fid); ("txt", Source.C_str ftxt) ]
  in
  (src, coll, fid, ftxt, refs)

let test_planner_rewrites () =
  let rt = Smc_offheap.Runtime.create () in
  let src, _, _, _, _ = mk_src rt fixture_texts in
  let plan = Plan.(where Expr.(Contains (Col "txt", "wolf")) (scan src)) in
  let p = Planner.choose_access_paths plan in
  check Alcotest.bool "Contains routed to TextScan" true (Planner.uses_index p);
  (match p with
  | Plan.Where (_, Plan.TextScan { op = T.Substring; needle = "wolf"; _ }) -> ()
  | _ -> Alcotest.fail "expected Where over TextScan(Substring)");
  let pre = Plan.(where Expr.(StartsWith (Col "txt", "alpha")) (scan src)) in
  (match Planner.choose_access_paths pre with
  | Plan.Where (_, Plan.TextScan { op = T.Prefix; needle = "alpha"; _ }) -> ()
  | _ -> Alcotest.fail "expected Where over TextScan(Prefix)");
  (* Inside an And tree, with the whole predicate kept residual. *)
  let conj =
    Plan.(
      where Expr.(And (Ge (Col "id", int 0), Contains (Col "txt", "wolf"))) (scan src))
  in
  (match Planner.choose_access_paths conj with
  | Plan.Where (Expr.And _, Plan.TextScan _) -> ()
  | _ -> Alcotest.fail "conjunct routing must keep the whole predicate residual");
  (* The empty needle matches everything: routing it would be a slower
     full scan, so the plan stays as written. *)
  let empty = Plan.(where Expr.(Contains (Col "txt", "")) (scan src)) in
  check Alcotest.bool "empty needle not routed" false
    (Planner.uses_index (Planner.choose_access_paths empty));
  (* No advertised text index: no rewrite. *)
  let rt2 = Smc_offheap.Runtime.create () in
  let bare, _, _, _, _ = mk_src ~with_text:false rt2 fixture_texts in
  let plain = Plan.(where Expr.(Contains (Col "txt", "wolf")) (scan bare)) in
  check Alcotest.bool "no text index, no rewrite" false
    (Planner.uses_index (Planner.choose_access_paths plain));
  (* text_scan smart constructor validates the column. *)
  (match Plan.text_scan src ~column:"id" ~op:T.Substring ~needle:"x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "text_scan over an unindexed column must be rejected");
  (* Case-insensitive contains rides the same index via the folded arena. *)
  let ci = Plan.(where Expr.(ContainsCI (Col "txt", "WoLf")) (scan src)) in
  (match Planner.choose_access_paths ci with
  | Plan.Where (_, Plan.TextScan { op = T.Substring_ci; needle = "WoLf"; _ }) -> ()
  | _ -> Alcotest.fail "expected Where over TextScan(Substring_ci)");
  let ci_empty = Plan.(where Expr.(ContainsCI (Col "txt", "")) (scan src)) in
  check Alcotest.bool "empty CI needle not routed" false
    (Planner.uses_index (Planner.choose_access_paths ci_empty))

let test_equality_wins () =
  let rt = Smc_offheap.Runtime.create () in
  let coll, fid, ftxt, _ = mk_coll rt fixture_texts in
  let hix =
    Smc_index.Hash_index.attach ~name:"by_id"
      ~key:(Smc_index.Hash_index.Int_key (Smc.Field.get_int fid))
      coll
  in
  let tix = T.attach ~name:"by_txt" ~column:"txt" coll in
  let src =
    Source.of_smc coll
      ~indexes:[ ("id", hix) ]
      ~text_indexes:[ ("txt", tix) ]
      ~columns:[ ("id", Source.C_int fid); ("txt", Source.C_str ftxt) ]
  in
  let plan =
    Plan.(
      where Expr.(And (Contains (Col "txt", "wolf"), Eq (Col "id", int 0))) (scan src))
  in
  (match Planner.choose_access_paths plan with
  | Plan.Where (_, Plan.IndexScan _) -> ()
  | _ -> Alcotest.fail "equality conjunct must win over the text conjunct")

let test_needles_share_a_plugin () =
  (* The needle rides in the leaf closure, not in the rendered source:
     substring probes that differ only in their needle share one plugin. *)
  let rt = Smc_offheap.Runtime.create () in
  let src, _, _, _, _ = mk_src rt fixture_texts in
  let probe needle = Plan.text_scan src ~column:"txt" ~op:T.Substring ~needle in
  check Alcotest.string "same plugin source for different needles"
    (Codegen.to_ocaml_source (probe "wolf"))
    (Codegen.to_ocaml_source (probe "alpha"));
  check Alcotest.int "wolf rows" 3 (List.length (Codegen.collect (probe "wolf")));
  check Alcotest.int "alpha rows" 2 (List.length (Codegen.collect (probe "alpha")));
  (* The planned shape keeps the whole predicate as a residual [Where]
     above the probe; its needle is a constant too, so the plugin is
     still shared. *)
  let obs = rt.Smc_offheap.Runtime.obs in
  let hits () = Smc_obs.get (Smc_obs.snapshot obs) Smc_obs.c_cg_cache_hits in
  List.iter
    (fun (name, pred) ->
      let planned needle = Planner.choose_access_paths Plan.(where (pred needle) (scan src)) in
      check Alcotest.bool (name ^ " is planned to a text probe") true
        (Planner.uses_index (planned "wolf"));
      check Alcotest.string
        (name ^ ": same plugin source for different needles")
        (Codegen.to_ocaml_source (planned "wolf"))
        (Codegen.to_ocaml_source (planned "alpha"));
      ignore (Codegen.collect (planned "wolf") : Value.t array list);
      let before = hits () in
      check rows_testable (name ^ ": second needle still gets its own rows")
        (Fuse.collect (planned "alpha"))
        (Codegen.collect (planned "alpha"));
      if Dynlink.is_native then
        check Alcotest.int (name ^ ": second needle hits the plugin cache") (before + 1) (hits ()))
    [
      ("Contains", fun n -> Expr.Contains (Expr.Col "txt", n));
      ("ContainsCI", fun n -> Expr.ContainsCI (Expr.Col "txt", n));
      ("StartsWith", fun n -> Expr.StartsWith (Expr.Col "txt", n));
    ]

(* ---- four-engine parity --------------------------------------------- *)

let all_engines name plan =
  let reference = sorted (Interp.collect plan) in
  List.iter
    (fun (engine, collect) ->
      check rows_testable
        (Printf.sprintf "%s: %s agrees with Volcano" name engine)
        reference
        (sorted (collect plan)))
    [
      ("Fuse", Fuse.collect);
      ("Vector", fun p -> Vector.collect p);
      ("Compiled", Codegen.collect);
    ];
  reference

let parity_case name ?(expect : int option) pred =
  let rt = Smc_offheap.Runtime.create () in
  let texts =
    [
      "alpha wolf";
      "alphabet";
      "s\xc3\xa9ance caf\xc3\xa9";  (* non-ASCII bytes *)
      "boundary7x straddle";  (* 'x' sits at the 7-byte word seam *)
      "";
      "exactly42bytes-0123456789012345678901234567";
    ]
  in
  let src, _, _, _, _ = mk_src rt texts in
  let plan = Plan.(where pred (scan src)) in
  let scan_rows = all_engines (name ^ " (scan)") plan in
  let routed = Planner.choose_access_paths plan in
  let idx_rows = all_engines (name ^ " (routed)") routed in
  check rows_testable (name ^ ": routed plan matches scan plan") scan_rows idx_rows;
  Option.iter (fun n -> check Alcotest.int (name ^ ": row count") n (List.length scan_rows)) expect

let test_parity_empty_needle () =
  parity_case "empty needle" ~expect:6 Expr.(Contains (Col "txt", ""));
  parity_case "empty prefix" ~expect:6 Expr.(StartsWith (Col "txt", ""))

let test_parity_over_capacity () =
  let long = String.make 60 'a' in
  parity_case "needle over field capacity" ~expect:0 Expr.(Contains (Col "txt", long));
  parity_case "prefix over field capacity" ~expect:0 Expr.(StartsWith (Col "txt", long))

let test_parity_word_boundary () =
  (* "boundary7x": bytes 0-6 fill packed word 0, "7x…" spills into word 1 —
     both needles straddle the seam. *)
  parity_case "substring across the word seam" ~expect:1
    Expr.(Contains (Col "txt", "ary7x s"));
  parity_case "prefix across the word seam" ~expect:1
    Expr.(StartsWith (Col "txt", "boundary7x"))

let test_parity_non_ascii () =
  parity_case "non-ASCII needle" ~expect:1 Expr.(Contains (Col "txt", "caf\xc3\xa9"));
  parity_case "non-ASCII prefix" ~expect:1 Expr.(StartsWith (Col "txt", "s\xc3\xa9"))

let test_parity_case_insensitive () =
  (* Mixed-case corpus: the arena is stored case-folded, so a
     case-sensitive probe over-matches at the suffix array and must be
     cut back by the live-text re-check, while the CI operator accepts
     every folding. Both paths must agree with the scan on all engines. *)
  let rt = Smc_offheap.Runtime.create () in
  let texts =
    [ "Alpha Wolf"; "ALPHABET SOUP"; "beta wolf"; "WereWOLF"; "Gamma Ray"; "delta" ]
  in
  let src, _, _, _, _ = mk_src rt texts in
  let case name ~expect pred =
    let plan = Plan.(where pred (scan src)) in
    let scan_rows = all_engines (name ^ " (scan)") plan in
    let routed = Planner.choose_access_paths plan in
    check Alcotest.bool (name ^ ": routed") true (Planner.uses_index routed);
    let idx_rows = all_engines (name ^ " (routed)") routed in
    check rows_testable (name ^ ": routed matches scan") scan_rows idx_rows;
    check Alcotest.int (name ^ ": row count") expect (List.length scan_rows)
  in
  case "CI needle, mixed case" ~expect:3 Expr.(ContainsCI (Col "txt", "wOlF"));
  case "CI needle, upper" ~expect:2 Expr.(ContainsCI (Col "txt", "ALPHA"));
  (* Case-sensitive ops over the folded arena: candidates over-match,
     the re-check decides. *)
  case "sensitive substring cut back" ~expect:1 Expr.(Contains (Col "txt", "wolf"));
  case "sensitive substring upper" ~expect:1 Expr.(Contains (Col "txt", "WOLF"));
  case "sensitive prefix cut back" ~expect:1 Expr.(StartsWith (Col "txt", "Alpha"));
  (* Non-letter bytes fold to themselves ("Alpha Wolf", "beta wolf"). *)
  case "CI with space" ~expect:2 Expr.(ContainsCI (Col "txt", "a wOLF"));
  (* The folded arena still audits clean against the original-case rows,
     and a store re-keys through the pending log under CI probes too. *)
  let rt2 = Smc_offheap.Runtime.create () in
  let coll, _, ftxt, refs = mk_coll rt2 texts in
  let ix = T.attach ~name:"by_txt" ~column:"txt" coll in
  check (Alcotest.list Alcotest.string) "audit clean with folded arena" [] (T.audit ix);
  check Alcotest.int "CI probe_refs" 3 (List.length (T.probe_refs ix T.Substring_ci "WOLF"));
  store_string coll ftxt refs.(5) "DELTA FORCE wolf";
  check Alcotest.int "CI sees the pending store" 4
    (List.length (T.probe_refs ix T.Substring_ci "Wolf"));
  T.rebuild ix;
  check Alcotest.int "CI survives the merge-rebuild" 4
    (List.length (T.probe_refs ix T.Substring_ci "wolF"));
  check (Alcotest.list Alcotest.string) "audit clean after rebuild" [] (T.audit ix)

let test_parity_null_column () =
  (* A computed column that is Null on odd ids: the scalar engines coerce
     Null via [Value.to_string] = "null", and every engine must agree. *)
  let rt = Smc_offheap.Runtime.create () in
  let coll, fid, ftxt, _ = mk_coll rt fixture_texts in
  let src =
    Source.of_smc coll
      ~columns:
        [
          ("id", Source.C_int fid);
          ( "maybe",
            Source.C_fn
              (fun blk slot ->
                if Smc.Field.get_int fid blk slot mod 2 = 0 then
                  Value.Str (Smc.Field.get_string ftxt blk slot)
                else Value.Null) );
        ]
  in
  let rows =
    all_engines "Null column Contains"
      Plan.(where Expr.(Contains (Col "maybe", "null")) (scan src))
  in
  check Alcotest.int "Null rows match the literal \"null\"" 3 (List.length rows);
  let rows =
    all_engines "Null column StartsWith"
      Plan.(where Expr.(StartsWith (Col "maybe", "alpha")) (scan src))
  in
  check Alcotest.int "only the even alpha row matches" 1 (List.length rows)

(* ---- packed-word field predicates ----------------------------------- *)

let test_field_predicates () =
  let rt = Smc_offheap.Runtime.create () in
  let texts =
    [
      "";
      "a";
      "abcdefg";  (* exactly one packed word *)
      "abcdefgh";  (* one byte into the second word *)
      "abcdefghijklmn";  (* exactly two packed words *)
      "s\xc3\xa9ance caf\xc3\xa9";
      "exactly42bytes-0123456789012345678901234567";
      "nul\x01control";
    ]
  in
  let coll, _, ftxt, _ = mk_coll rt texts in
  let needles =
    [
      ""; "a"; "ab"; "abcdefg"; "abcdefgh"; "abcdefghijklmn"; "bcdefgh"; "fgh"; "hij";
      "caf\xc3\xa9"; "\xc3\xa9"; "42bytes"; "7"; "zzz"; "abcdefgz";
      String.make 43 'a'; "bad\x00nul";
    ]
  in
  List.iter
    (fun needle ->
      let pre = Smc.Field.string_prefix ftxt needle in
      let con = Smc.Field.string_contains ftxt needle in
      let nul_free = not (String.contains needle '\000') in
      Smc.Collection.with_read coll (fun () ->
          Smc.Collection.iter coll ~f:(fun blk slot ->
              let s = Smc.Field.get_string ftxt blk slot in
              let want_pre = nul_free && String.starts_with ~prefix:needle s in
              let want_con =
                nul_free && Smc_query.Expr.string_contains ~needle s
              in
              check Alcotest.bool
                (Printf.sprintf "string_prefix %S on %S" needle s)
                want_pre (pre blk slot);
              check Alcotest.bool
                (Printf.sprintf "string_contains %S on %S" needle s)
                want_con (con blk slot))))
    needles

let () =
  Alcotest.run "smc_text"
    [
      ( "sa_index",
        [
          Alcotest.test_case "probe basics" `Quick test_probe_basics;
          Alcotest.test_case "staleness never resurrects" `Quick test_staleness;
          Alcotest.test_case "store re-keys via pending" `Quick test_store_rekey;
          Alcotest.test_case "churn limit forces merges" `Quick test_churn_rebuild;
          Alcotest.test_case "top-k similarity" `Quick test_top_k_similar;
          Alcotest.test_case "attach/detach" `Quick test_attach_detach;
          Alcotest.test_case "seals and merges match a brute-force model" `Quick
            test_seal_merge_model;
          Alcotest.test_case "probes racing seals and merges" `Quick test_probe_seal_race;
          Alcotest.test_case "adversarial texts at every level" `Quick test_adversarial_levels;
        ] );
      ( "planner",
        [
          Alcotest.test_case "Contains/StartsWith routing" `Quick test_planner_rewrites;
          Alcotest.test_case "equality conjunct wins" `Quick test_equality_wins;
          Alcotest.test_case "needles share a compiled plugin" `Quick
            test_needles_share_a_plugin;
        ] );
      ( "parity",
        [
          Alcotest.test_case "empty needle" `Quick test_parity_empty_needle;
          Alcotest.test_case "needle over capacity" `Quick test_parity_over_capacity;
          Alcotest.test_case "word-boundary straddle" `Quick test_parity_word_boundary;
          Alcotest.test_case "non-ASCII bytes" `Quick test_parity_non_ascii;
          Alcotest.test_case "case-insensitive contains" `Quick
            test_parity_case_insensitive;
          Alcotest.test_case "Null computed column" `Quick test_parity_null_column;
        ] );
      ( "field",
        [ Alcotest.test_case "packed-word predicates" `Quick test_field_predicates ] );
    ]
