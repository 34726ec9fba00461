(* Golden regression corpus for the CPLEX-LP reader/writer and the
   solver front end.  Each fixture under fixtures/ is a hand-written
   (or exported) LP file with a sidecar recording the expected verdict;
   the test parses it, checks the solve against the sidecar, and checks
   that the writer's output is a fixed point of write/parse/write — a
   structural round-trip failure is reported as a unified diff of the
   two texts, so a regression shows exactly which lines moved. *)

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
    ]
