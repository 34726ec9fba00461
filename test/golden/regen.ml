(* Prints the lines of one golden fixture (see the dune file here). *)

let () =
  let lines =
    match Sys.argv with
    | [| _; "ebf" |] -> Ebf_trajectory.lines ()
    | [| _; "bst" |] -> Bst_golden.lines ()
    | _ ->
      prerr_endline "usage: regen (ebf|bst)";
      exit 2
  in
  List.iter print_endline lines
