module Point = Lubt_geom.Point

type t = {
  sinks : Point.t array;
  source : Point.t option;
  lower : float array;
  upper : float array;
}

let create ?source ~sinks ~lower ~upper () =
  let m = Array.length sinks in
  if m = 0 then invalid_arg "Instance.create: no sinks";
  if Array.length lower <> m || Array.length upper <> m then
    invalid_arg "Instance.create: bounds length mismatch";
  let finite (p : Point.t) = Float.is_finite p.x && Float.is_finite p.y in
  let source_ok = Option.fold ~none:true ~some:finite source in
  if not (source_ok && Array.for_all finite sinks) then
    invalid_arg "Instance.create: non-finite coordinate";
  (* an infinite lower bound admits no tree, and the solver's relative
     violation test reads inf/inf = NaN as satisfied *)
  for i = 0 to m - 1 do
    if not (0.0 <= lower.(i) && lower.(i) <= upper.(i)) then
      invalid_arg "Instance.create: need 0 <= lower <= upper";
    if not (Float.is_finite lower.(i)) then
      invalid_arg "Instance.create: lower bound must be finite"
  done;
  { sinks; source; lower = Array.copy lower; upper = Array.copy upper }

let uniform_bounds ?source ~sinks ~lower ~upper () =
  let m = Array.length sinks in
  create ?source ~sinks ~lower:(Array.make m lower) ~upper:(Array.make m upper)
    ()

let num_sinks t = Array.length t.sinks

(* In rotated coordinates the Manhattan diameter of a point set is the
   larger of the two coordinate ranges. *)
let diameter t =
  let ulo = ref infinity and uhi = ref neg_infinity in
  let vlo = ref infinity and vhi = ref neg_infinity in
  Array.iter
    (fun p ->
      let u, v = Point.to_rotated p in
      if u < !ulo then ulo := u;
      if u > !uhi then uhi := u;
      if v < !vlo then vlo := v;
      if v > !vhi then vhi := v)
    t.sinks;
  max (!uhi -. !ulo) (!vhi -. !vlo)

let radius t =
  match t.source with
  | None -> diameter t /. 2.0
  | Some src ->
    Array.fold_left (fun acc p -> max acc (Point.dist src p)) 0.0 t.sinks

let with_bounds t ~lower ~upper =
  create ?source:t.source ~sinks:t.sinks ~lower ~upper ()

let with_normalized_bounds t ~lower ~upper =
  let r = radius t in
  let m = num_sinks t in
  with_bounds t ~lower:(Array.make m (lower *. r))
    ~upper:(Array.make m (upper *. r))

let bounds_admissible t =
  let r = radius t in
  let ok = ref true in
  Array.iteri
    (fun i p ->
      let floor_u =
        match t.source with Some src -> Point.dist src p | None -> r
      in
      if t.upper.(i) < floor_u -. 1e-9 then ok := false)
    t.sinks;
  !ok

module Edit = struct
  type op =
    | Set_bounds of { sink : int; lower : float; upper : float }
    | Move_sink of { sink : int; dx : float; dy : float }
    | Add_sink of { point : Point.t; lower : float; upper : float }
    | Remove_sink of { sink : int }

  let op_name = function
    | Set_bounds _ -> "set_bounds"
    | Move_sink _ -> "move_sink"
    | Add_sink _ -> "add_sink"
    | Remove_sink _ -> "remove_sink"

  (* drop index [k] from an array *)
  let remove_at arr k =
    Array.init
      (Array.length arr - 1)
      (fun i -> if i < k then arr.(i) else arr.(i + 1))

  let apply t op =
    let m = Array.length t.sinks in
    let check_sink sink =
      if sink < 0 || sink >= m then
        Error (Printf.sprintf "%s: sink %d out of range (instance has %d)"
                 (op_name op) sink m)
      else Ok ()
    in
    let rebuild ?(sinks = t.sinks) ?(lower = t.lower) ?(upper = t.upper) () =
      match create ?source:t.source ~sinks ~lower ~upper () with
      | inst -> Ok inst
      | exception Invalid_argument msg ->
        Error (Printf.sprintf "%s: %s" (op_name op) msg)
    in
    match op with
    | Set_bounds { sink; lower; upper } -> (
      match check_sink sink with
      | Error _ as e -> e
      | Ok () ->
        let lo = Array.copy t.lower and up = Array.copy t.upper in
        lo.(sink) <- lower;
        up.(sink) <- upper;
        rebuild ~lower:lo ~upper:up ())
    | Move_sink { sink; dx; dy } -> (
      match check_sink sink with
      | Error _ as e -> e
      | Ok () ->
        let sinks = Array.copy t.sinks in
        sinks.(sink) <- Point.add sinks.(sink) (Point.make dx dy);
        rebuild ~sinks ())
    | Add_sink { point; lower; upper } ->
      rebuild
        ~sinks:(Array.append t.sinks [| point |])
        ~lower:(Array.append t.lower [| lower |])
        ~upper:(Array.append t.upper [| upper |])
        ()
    | Remove_sink { sink } -> (
      match check_sink sink with
      | Error _ as e -> e
      | Ok () ->
        if m = 1 then Error "remove_sink: cannot remove the last sink"
        else
          rebuild ~sinks:(remove_at t.sinks sink)
            ~lower:(remove_at t.lower sink) ~upper:(remove_at t.upper sink) ())

  let apply_all t ops =
    List.fold_left
      (fun acc op -> match acc with Error _ -> acc | Ok t -> apply t op)
      (Ok t) ops

  let preserves_topology = function
    | Set_bounds _ | Move_sink _ -> true
    | Add_sink _ | Remove_sink _ -> false
end
