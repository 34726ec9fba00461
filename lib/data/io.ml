module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance

let float_str f = if f = infinity then "inf" else Printf.sprintf "%.17g" f

let parse_float s =
  match s with
  | "inf" -> Some infinity
  | _ -> float_of_string_opt s

let instance_to_string (inst : Instance.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# LUBT instance\n";
  (match inst.Instance.source with
  | Some src ->
    Buffer.add_string buf
      (Printf.sprintf "source %.17g %.17g\n" src.Point.x src.Point.y)
  | None -> ());
  Array.iteri
    (fun k p ->
      Buffer.add_string buf
        (Printf.sprintf "sink %.17g %.17g %.17g %s\n" p.Point.x p.Point.y
           inst.Instance.lower.(k)
           (float_str inst.Instance.upper.(k))))
    inst.Instance.sinks;
  Buffer.contents buf

let tokenize text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           Some
             (String.split_on_char ' ' line
             |> List.filter (fun s -> s <> "")))

let instance_of_string text =
  let lines = tokenize text in
  let source = ref None in
  let sinks = ref [] in
  let error = ref None in
  List.iter
    (fun tokens ->
      if !error = None then
        match tokens with
        | [ "source"; xs; ys ] -> (
          match (parse_float xs, parse_float ys) with
          | Some x, Some y ->
            if !source <> None then error := Some "duplicate source line"
            else source := Some (Point.make x y)
          | _ -> error := Some "bad source coordinates")
        | [ "sink"; xs; ys; ls; us ] -> (
          match (parse_float xs, parse_float ys, parse_float ls, parse_float us)
          with
          | Some x, Some y, Some l, Some u ->
            sinks := (Point.make x y, l, u) :: !sinks
          | _ -> error := Some "bad sink line")
        | kw :: _ -> error := Some (Printf.sprintf "unknown record %S" kw)
        | [] -> ())
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> (
    let entries = Array.of_list (List.rev !sinks) in
    if Array.length entries = 0 then Error "no sinks"
    else
      let sinks = Array.map (fun (p, _, _) -> p) entries in
      let lower = Array.map (fun (_, l, _) -> l) entries in
      let upper = Array.map (fun (_, _, u) -> u) entries in
      match Instance.create ?source:!source ~sinks ~lower ~upper () with
      | inst -> Ok inst
      | exception Invalid_argument msg -> Error msg)

let tree_to_string tree =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# LUBT topology\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Tree.num_nodes tree));
  for i = 1 to Tree.num_nodes tree - 1 do
    Buffer.add_string buf
      (Printf.sprintf "edge %d %d%s\n" i (Tree.parent tree i)
         (if Tree.forced_zero tree i then " zero" else ""))
  done;
  Array.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "sink %d\n" s))
    (Tree.sinks tree);
  Buffer.contents buf

let tree_of_string text =
  let lines = tokenize text in
  let n = ref (-1) in
  let edges = ref [] in
  let sinks = ref [] in
  let error = ref None in
  List.iter
    (fun tokens ->
      if !error = None then
        match tokens with
        | [ "nodes"; ns ] -> (
          match int_of_string_opt ns with
          | Some v when v >= 2 -> n := v
          | _ -> error := Some "bad nodes line")
        | [ "edge"; cs; ps ] | [ "edge"; cs; ps; "zero" ] -> (
          let zero = List.length tokens = 4 in
          match (int_of_string_opt cs, int_of_string_opt ps) with
          | Some c, Some p -> edges := (c, p, zero) :: !edges
          | _ -> error := Some "bad edge line")
        | [ "sink"; ss ] -> (
          match int_of_string_opt ss with
          | Some s -> sinks := s :: !sinks
          | None -> error := Some "bad sink line")
        | kw :: _ -> error := Some (Printf.sprintf "unknown record %S" kw)
        | [] -> ())
    lines;
  match !error with
  | Some msg -> Error msg
  | None ->
    if !n < 2 then Error "missing nodes line"
    else if List.length !edges < !n - 1 then
      (* checked before allocating: "nodes" could claim billions *)
      Error "some node has no edge record"
    else begin
      let parents = Array.make !n (-2) in
      parents.(0) <- -1;
      List.iter
        (fun (c, p, _) ->
          if c >= 1 && c < !n then parents.(c) <- p
          else error := Some "edge child out of range")
        !edges;
      let zero = Array.make !n false in
      List.iter (fun (c, _, z) -> if c >= 1 && c < !n then zero.(c) <- z) !edges;
      if Array.exists (fun p -> p = -2) parents then
        Error "some node has no edge record"
      else
        match !error with
        | Some msg -> Error msg
        | None -> (
          match
            Tree.create ~forced_zero:zero ~parents
              ~sinks:(Array.of_list (List.rev !sinks))
              ()
          with
          | t -> Ok t
          | exception Invalid_argument msg -> Error msg)
    end

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let write_instance path inst = write_file path (instance_to_string inst)

let read_instance path =
  match read_file path with
  | content -> instance_of_string content
  | exception Sys_error msg -> Error msg

let write_tree path tree = write_file path (tree_to_string tree)

let read_tree path =
  match read_file path with
  | content -> tree_of_string content
  | exception Sys_error msg -> Error msg
