(* Golden regression corpus for the CPLEX-LP reader/writer and the
   solver front end.  Each fixture under fixtures/ is a hand-written
   (or exported) LP file with a sidecar recording the expected verdict;
   the test parses it, checks the solve against the sidecar, and checks
   that the writer's output is a fixed point of write/parse/write — a
   structural round-trip failure is reported as a unified diff of the
   two texts, so a regression shows exactly which lines moved. The
   trajectory group pins the lazy EBF's pivots on the scaled batch
   corpus (ebf_trajectory.ml). *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Status = Lubt_lp.Status

let fixtures =
  [
    "bounds_only";
    "free_vars";
    "empty_objective";
    "all_negative";
    "neg_upper";
    "number_first_bounds";
    "range_rows";
    "infeasible_box";
    "unbounded";
    "scientific";
    "ebf_five_point";
  ]

(* ------------------------------------------------------------------ *)
(* Minimal unified diff (LCS over lines)                               *)
(* ------------------------------------------------------------------ *)

let unified_diff a b =
  let la = Array.of_list (String.split_on_char '\n' a) in
  let lb = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length la and m = Array.length lb in
  (* lcs.(i).(j) = LCS length of la[i..] and lb[j..] *)
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if la.(i) = lb.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let buf = Buffer.create 256 in
  let rec walk i j =
    if i < n && j < m && la.(i) = lb.(j) then begin
      Buffer.add_string buf (" " ^ la.(i) ^ "\n");
      walk (i + 1) (j + 1)
    end
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then begin
      Buffer.add_string buf ("+" ^ lb.(j) ^ "\n");
      walk i (j + 1)
    end
    else if i < n then begin
      Buffer.add_string buf ("-" ^ la.(i) ^ "\n");
      walk (i + 1) j
    end
  in
  walk 0 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Sidecar parsing: "status <s>" and optionally "objective <v>"        *)
(* ------------------------------------------------------------------ *)

let read_expected path =
  let ic = open_in path in
  let status = ref "" and objective = ref None in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ "status"; s ] -> status := s
       | [ "objective"; v ] -> objective := Some (float_of_string v)
       | [ "" ] | [] -> ()
       | _ -> failwith ("malformed sidecar line in " ^ path)
     done
   with End_of_file -> ());
  close_in ic;
  (!status, !objective)

(* dune runtest runs the exe next to fixtures/; a manual dune exec runs
   from the project root *)
let fixtures_dir =
  if Sys.file_exists "fixtures" then "fixtures"
  else Filename.concat "test" "fixtures"

let check_fixture name () =
  let lp_path = Filename.concat fixtures_dir (name ^ ".lp") in
  let expected_status, expected_obj =
    read_expected (Filename.concat fixtures_dir (name ^ ".expected"))
  in
  let p =
    match Lp_format.read lp_path with
    | Error msg -> Alcotest.failf "%s: parse error: %s" name msg
    | Ok p -> p
  in
  (* solve and compare against the sidecar *)
  let sol = Solver.solve p in
  let got_status = Status.to_string sol.Status.status in
  if got_status <> expected_status then
    Alcotest.failf "%s: status %s, expected %s" name got_status expected_status;
  (match expected_obj with
  | Some v ->
    if not (Lubt_util.Stats.approx_eq ~eps:1e-9 sol.Status.objective v) then
      Alcotest.failf "%s: objective %.17g, expected %.17g" name
        sol.Status.objective v
  | None -> ());
  (* structural round-trip: the writer's text must be a fixed point of
     parse/write, and the reparsed model must solve identically *)
  let t1 = Lp_format.to_string p in
  let p2 =
    match Lp_format.of_string t1 with
    | Error msg -> Alcotest.failf "%s: reparse error: %s\n%s" name msg t1
    | Ok p2 -> p2
  in
  let t2 = Lp_format.to_string p2 in
  if t1 <> t2 then
    Alcotest.failf "%s: write/parse/write is not a fixed point:\n%s" name
      (unified_diff t1 t2);
  let sol2 = Solver.solve p2 in
  if sol2.Status.status <> sol.Status.status then
    Alcotest.failf "%s: round-trip changed status %s -> %s" name got_status
      (Status.to_string sol2.Status.status);
  if
    sol.Status.status = Status.Optimal
    && not
         (Lubt_util.Stats.approx_eq ~eps:1e-9 sol.Status.objective
            sol2.Status.objective)
  then
    Alcotest.failf "%s: round-trip changed objective %.17g -> %.17g" name
      sol.Status.objective sol2.Status.objective

(* The first field where two trajectory lines part, as
   [(key, expected, got)]; a field one line lacks reads "(none)". *)
let first_field_difference expected got =
  let split l =
    List.map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
        | None -> ("id", tok))
      (String.split_on_char ' ' l)
  in
  let rec go = function
    | [], [] -> None
    | (k, v) :: _, [] -> Some (k, v, "(none)")
    | [], (k, v) :: _ -> Some (k, "(none)", v)
    | (ke, ve) :: es, (kg, vg) :: gs ->
      if ke <> kg then Some (ke ^ "/" ^ kg, ke ^ "=" ^ ve, kg ^ "=" ^ vg)
      else if ve <> vg then Some (ke, ve, vg)
      else go (es, gs)
  in
  go (split expected, split got)

(* The lazy EBF's trajectory on the scaled batch corpus (see
   ebf_trajectory.ml) is pinned field by field: a change that keeps the
   pivots keeps every line. A failure names the first instance and the
   first field that moved; test/golden/dune says how to rewrite the
   fixture when a change moves it on purpose. *)
let test_ebf_trajectory () =
  let expected =
    In_channel.with_open_text
      (Filename.concat fixtures_dir "ebf_trajectory.golden")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = Ebf_trajectory.lines () in
  Alcotest.(check int) "instances" (List.length expected) (List.length got);
  let changed =
    List.filter (fun (e, g) -> e <> g) (List.combine expected got)
  in
  match changed with
  | [] -> ()
  | (e, g) :: _ -> (
    let id l = List.hd (String.split_on_char ' ' l) in
    match first_field_difference e g with
    | Some (key, ve, vg) ->
      Alcotest.failf
        "%d of %d instances changed; first: %s, field %s: expected %s, got %s"
        (List.length changed) (List.length got) (id e) key ve vg
    | None -> assert false (* the lines differ *))

let test_first_field_difference () =
  let check what expected e g =
    Alcotest.(check (option (triple string string string)))
      what expected (first_field_difference e g)
  in
  check "equal" None "a/s0 x=1 y=2" "a/s0 x=1 y=2";
  check "value" (Some ("y", "2", "3")) "a/s0 x=1 y=2" "a/s0 x=1 y=3";
  check "id" (Some ("id", "a/s0", "a/s1")) "a/s0 x=1" "a/s1 x=1";
  check "missing field" (Some ("y", "2", "(none)")) "a/s0 x=1 y=2" "a/s0 x=1";
  check "key order" (Some ("y/z", "y=2", "z=2")) "a/s0 y=2" "a/s0 z=2"

(* the diff printer is itself load-bearing for failure reports: pin it *)
let test_unified_diff () =
  let a = "alpha\nbeta\ngamma" and b = "alpha\ngamma\ndelta" in
  Alcotest.(check string)
    "diff" " alpha\n-beta\n gamma\n+delta\n" (unified_diff a b)

let () =
  Alcotest.run "lp_golden"
    [
      ( "fixtures",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_fixture name))
          fixtures );
      ("diff", [ Alcotest.test_case "unified diff shape" `Quick test_unified_diff ]);
      ( "trajectory",
        [ Alcotest.test_case "ebf trajectory golden" `Slow test_ebf_trajectory;
          Alcotest.test_case "first differing field" `Quick
            test_first_field_difference ] );
    ]
