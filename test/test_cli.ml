(* CLI contract of the bench harness: unknown subcommands and flags must
   exit non-zero with a usage message that lists every subcommand, so a
   typo'd bench invocation in CI can never silently pass; --json artifacts
   must name the commit they ran from. The binary under test is the first
   command-line argument (see test/dune); the rest go to Alcotest. *)

let check = Alcotest.check

let exe, alcotest_argv =
  match Array.to_list Sys.argv with
  | self :: bin :: rest ->
    let bin = if Filename.is_relative bin then Filename.concat (Sys.getcwd ()) bin else bin in
    (bin, Array.of_list (self :: rest))
  | _ -> failwith "usage: test_cli.exe PATH_TO_SMC_BENCH [alcotest args]"

(* Run the binary, returning (exit code, combined stdout+stderr). *)
let run_bench args =
  let out = Filename.temp_file "smc_cli_test" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1"
          (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)
      in
      let code =
        match Unix.system cmd with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
      in
      let ic = open_in out in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let subcommands =
  [
    "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "linq"; "ext";
    "qscale"; "ablations"; "stats"; "index"; "text"; "matview"; "persist"; "vectorized";
    "shard"; "all";
  ]

let test_unknown_subcommand () =
  let code, text = run_bench [ "frobnicate" ] in
  check Alcotest.bool "non-zero exit" true (code <> 0);
  check Alcotest.bool "names the bad command" true (contains_sub ~sub:"frobnicate" text);
  List.iter
    (fun sc ->
      check Alcotest.bool (Printf.sprintf "usage lists %s" sc) true
        (contains_sub ~sub:(Printf.sprintf "'%s'" sc) text))
    subcommands

let test_unknown_flag () =
  let code, text = run_bench [ "persist"; "--bogus-flag" ] in
  check Alcotest.bool "non-zero exit" true (code <> 0);
  check Alcotest.bool "names the bad flag" true (contains_sub ~sub:"--bogus-flag" text)

let test_missing_command () =
  let code, text = run_bench [] in
  check Alcotest.bool "non-zero exit" true (code <> 0);
  check Alcotest.bool "explains a command is required" true
    (contains_sub ~sub:"COMMAND" text)

let test_help_lists_persist () =
  let code, text = run_bench [ "--help=plain" ] in
  check Alcotest.int "help exits zero" 0 code;
  check Alcotest.bool "help lists persist" true (contains_sub ~sub:"persist" text)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* A checkout after `git gc`/`git pack-refs` has no loose .git/refs/heads
   file: HEAD names a branch whose commit is only in .git/packed-refs. The
   --json artifact must still record that commit, not "unknown". *)
let test_git_rev_packed_refs () =
  let dir = Filename.temp_dir "smc_cli_git" "" in
  let git = Filename.concat dir ".git" in
  let rev = "0123456789abcdef0123456789abcdef01234567" in
  let write f text =
    Out_channel.with_open_bin (Filename.concat git f) (fun oc -> output_string oc text)
  in
  Sys.mkdir git 0o755;
  write "HEAD" "ref: refs/heads/main\n";
  write "packed-refs"
    (Printf.sprintf
       "# pack-refs with: peeled fully-peeled sorted \n\
        fedcba9876543210fedcba9876543210fedcba98 refs/heads/other\n\
        %s refs/heads/main\n"
       rev);
  let json = Filename.concat dir "fig12.json" in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ Filename.concat git "HEAD"; Filename.concat git "packed-refs"; json ];
    List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ git; dir ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let cmd =
        Printf.sprintf "cd %s && env -u SMC_GIT_REV %s fig12 --sf 0.001 --json %s > /dev/null 2>&1"
          (Filename.quote dir) (Filename.quote exe) (Filename.quote json)
      in
      check Alcotest.bool "fig12 exits zero" true (Unix.system cmd = Unix.WEXITED 0);
      check Alcotest.bool "artifact records the packed ref's commit" true
        (contains_sub ~sub:(Printf.sprintf "\"git_rev\":\"%s\"" rev) (read_file json)))

let () =
  Alcotest.run ~argv:alcotest_argv "cli"
    [
      ( "smc_bench",
        [
          Alcotest.test_case "unknown subcommand rejected" `Quick test_unknown_subcommand;
          Alcotest.test_case "unknown flag rejected" `Quick test_unknown_flag;
          Alcotest.test_case "missing command rejected" `Quick test_missing_command;
          Alcotest.test_case "--help lists persist" `Quick test_help_lists_persist;
          Alcotest.test_case "git_rev from packed-refs" `Quick test_git_rev_packed_refs;
        ] );
    ]
