(** Shared randomised-instance generators for the LP test-suites.

    Every suite that cross-checks solver engines used to carry its own
    copy of a [random_problem]; they are consolidated here so the
    distributions stay in sync and new suites (the fast-path equivalence
    layer in particular) can reuse them.  The [Prng]-driven generators
    preserve the exact call sequences of their original call sites, so
    the seeded suites keep their historical case streams.

    Beyond the ports, this module adds
    - {!certified_problem}: bounded LPs with a {e constructed} optimum —
      a primal point and a dual certificate are chosen first and the
      objective is back-derived, so the optimal value is known exactly
      (all arithmetic stays on small integers);
    - {!random_ebf}: random EBF instances (sinks, bounds, topology) for
      engine cross-checks on the paper's LP family;
    - a first-class {!spec} representation with a QCheck generator,
      printer (CPLEX-LP text) and structural shrinker, for
      property-based tests with useful counterexamples. *)

module Problem = Lubt_lp.Problem
module Prng = Lubt_util.Prng
module Instance = Lubt_core.Instance
module Point = Lubt_geom.Point

(* ------------------------------------------------------------------ *)
(* Prng-driven generators (ports of the per-suite originals)           *)
(* ------------------------------------------------------------------ *)

(* General mixed-bound LP: the cross-check workhorse.  [fixed_vars]
   adds a fixed-variable kind ([lo = up] bounds) while
   keeping the draw sequence of both original variants. *)
let random_problem ?(fixed_vars = false) rng =
  let nv = 1 + Prng.int rng 6 in
  let nr = Prng.int rng 8 in
  let p = Problem.create () in
  for _ = 1 to nv do
    let kind = Prng.int rng (if fixed_vars then 5 else 4) in
    let lo, up =
      match kind with
      | 0 -> (0.0, infinity)
      | 1 -> (float_of_int (Prng.int rng 5 - 2), infinity)
      | 2 ->
        let l = float_of_int (Prng.int rng 5 - 2) in
        (l, l +. float_of_int (Prng.int rng 6))
      | 3 when fixed_vars ->
        (* fixed variable: exercises substitution *)
        let v = float_of_int (Prng.int rng 7 - 3) in
        (v, v)
      | _ -> (neg_infinity, infinity)
    in
    let obj = float_of_int (Prng.int rng 9 - 4) in
    ignore (Problem.add_var ~lo ~up ~obj p)
  done;
  for _ = 1 to nr do
    let coeffs = ref [] in
    for j = 0 to nv - 1 do
      if Prng.int rng 3 > 0 then begin
        let c = float_of_int (Prng.int rng 7 - 3) in
        if c <> 0.0 then coeffs := (j, c) :: !coeffs
      end
    done;
    let base = float_of_int (Prng.int rng 21 - 10) in
    let lo, up =
      match Prng.int rng 4 with
      | 0 -> (base, infinity)
      | 1 -> (neg_infinity, base)
      | 2 -> (base, base +. float_of_int (Prng.int rng 8))
      | _ -> (base, base)
    in
    ignore (Problem.add_row p ~lo ~up !coeffs)
  done;
  p

(* Guaranteed-feasible covering LP (x >= 0, >=-rows with positive
   coefficients): every optimal solve certifies, so corruption sweeps
   can assert the certifier's verdicts both ways. *)
let random_bounded_problem rng =
  let nv = 2 + Prng.int rng 5 in
  let p = Problem.create () in
  for _ = 1 to nv do
    let up =
      if Prng.bool rng then infinity else float_of_int (3 + Prng.int rng 8)
    in
    ignore (Problem.add_var ~lo:0.0 ~up ~obj:(1.0 +. Prng.float rng 4.0) p)
  done;
  for _ = 1 to 1 + Prng.int rng 4 do
    let coeffs = ref [] in
    for j = 0 to nv - 1 do
      if Prng.int rng 3 > 0 then
        coeffs := (j, 1.0 +. Prng.float rng 3.0) :: !coeffs
    done;
    if !coeffs <> [] then
      ignore
        (Problem.add_row p ~lo:(1.0 +. Prng.float rng 9.0) ~up:infinity !coeffs)
  done;
  p

(* Tuned for the CPLEX-LP writer: scientific-notation magnitudes,
   free/fixed/one-sided bounds, a variable referenced only by its
   Bounds line, and no range rows (the writer splits those in two by
   design, so they cannot round-trip structurally). *)
let random_format_problem rng =
  let nv = 2 + Prng.int rng 6 in
  let p = Problem.create () in
  let mag () =
    [| 1.0; 0.5; 2.5e-7; 3.0e6; 1.0e12; 1.25e-3; 7.0 |].(Prng.int rng 7)
  in
  for k = 0 to nv - 1 do
    let lo, up =
      match Prng.int rng 5 with
      | 0 -> (0.0, infinity)
      | 1 -> (neg_infinity, infinity)
      | 2 -> (neg_infinity, float_of_int (Prng.int rng 9 - 4))
      | 3 ->
        let v = mag () *. float_of_int (Prng.int rng 5 - 2) in
        (v, v)
      | _ ->
        let l = float_of_int (Prng.int rng 9 - 4) in
        (l, l +. float_of_int (1 + Prng.int rng 6))
    in
    let obj =
      if Prng.bool rng then 0.0 else mag () *. float_of_int (Prng.int rng 5 - 2)
    in
    ignore (Problem.add_var ~lo ~up ~obj ~name:(Printf.sprintf "x%d" k) p)
  done;
  for _ = 1 to Prng.int rng 6 do
    let coeffs = ref [] in
    (* x(nv-1) never enters a row, so with a zero objective it only
       appears in the Bounds section *)
    for j = 0 to nv - 2 do
      if Prng.int rng 3 > 0 then begin
        let c = mag () *. float_of_int (Prng.int rng 7 - 3) in
        if c <> 0.0 then coeffs := (j, c) :: !coeffs
      end
    done;
    let base = mag () *. float_of_int (Prng.int rng 9 - 4) in
    let lo, up =
      match Prng.int rng 3 with
      | 0 -> (base, infinity)
      | 1 -> (neg_infinity, base)
      | _ -> (base, base)
    in
    ignore (Problem.add_row p ~lo ~up !coeffs)
  done;
  p

(* ------------------------------------------------------------------ *)
(* LPs with a constructed (exactly known) optimum                      *)
(* ------------------------------------------------------------------ *)

type certified = {
  c_problem : Problem.t;
  c_optimum : float;  (** exact optimal value, by construction *)
  c_primal : float array;  (** an optimal point witnessing it *)
}

(* Pick the optimal point x*, the constraint matrix, the bounds and a
   complementary dual pair (y, z) first; then derive the objective as
   c = A^T y + z.  Weak duality gives, for any feasible x,

     c.x = y.(Ax) + z.x >= sum_i y_i b_i + sum_j z_j bnd_j = c.x*

   provided each multiplier respects its sign convention (y_i >= 0 only
   on rows active at their lower bound at x*, y_i <= 0 only at upper,
   equality rows free; z_j >= 0 only for x*_j at its lower bound,
   z_j <= 0 at upper, interior/free variables z_j = 0).  So x* is
   optimal and the optimal value is exactly c.x* — every quantity is a
   small integer, hence exact in floating point. *)
let certified_problem rng =
  let nv = 1 + Prng.int rng 5 in
  let nr = Prng.int rng 6 in
  let xstar = Array.init nv (fun _ -> float_of_int (Prng.int rng 7 - 3)) in
  let c = Array.make nv 0.0 in
  let p = Problem.create () in
  (* variable bounds + reduced costs z (accumulated straight into c) *)
  let var_bounds =
    Array.init nv (fun j ->
        let x = xstar.(j) in
        match Prng.int rng 4 with
        | 0 ->
          (* active at lower: z_j >= 0 *)
          c.(j) <- float_of_int (Prng.int rng 4);
          (x, x +. float_of_int (Prng.int rng 5))
        | 1 ->
          (* active at upper: z_j <= 0 *)
          c.(j) <- -.float_of_int (Prng.int rng 4);
          (x -. float_of_int (Prng.int rng 5), x)
        | 2 ->
          (* strict interior: z_j = 0 *)
          (x -. float_of_int (1 + Prng.int rng 3),
           x +. float_of_int (1 + Prng.int rng 3))
        | _ -> (neg_infinity, infinity))
  in
  (* rows: integer coefficients, activity computed at x*, row bounds and
     multiplier sign chosen together *)
  let rows = ref [] in
  for _ = 1 to nr do
    let coeffs = ref [] in
    let act = ref 0.0 in
    for j = 0 to nv - 1 do
      if Prng.int rng 3 > 0 then begin
        let a = float_of_int (Prng.int rng 7 - 3) in
        if a <> 0.0 then begin
          coeffs := (j, a) :: !coeffs;
          act := !act +. (a *. xstar.(j))
        end
      end
    done;
    let b = !act in
    let lo, up, y =
      match Prng.int rng 4 with
      | 0 -> (b, b, float_of_int (Prng.int rng 5 - 2)) (* equality: y free *)
      | 1 -> (b, infinity, float_of_int (Prng.int rng 3)) (* >=: y >= 0 *)
      | 2 -> (neg_infinity, b, -.float_of_int (Prng.int rng 3)) (* <= *)
      | _ ->
        (* slack on both sides: y = 0 *)
        (b -. float_of_int (1 + Prng.int rng 5),
         b +. float_of_int (1 + Prng.int rng 5),
         0.0)
    in
    List.iter (fun (j, a) -> c.(j) <- c.(j) +. (y *. a)) !coeffs;
    rows := (lo, up, !coeffs) :: !rows
  done;
  for j = 0 to nv - 1 do
    let lo, up = var_bounds.(j) in
    ignore (Problem.add_var ~lo ~up ~obj:c.(j) p)
  done;
  List.iter
    (fun (lo, up, coeffs) -> ignore (Problem.add_row p ~lo ~up coeffs))
    (List.rev !rows);
  let optimum = ref 0.0 in
  for j = 0 to nv - 1 do
    optimum := !optimum +. (c.(j) *. xstar.(j))
  done;
  { c_problem = p; c_optimum = !optimum; c_primal = xstar }

(* ------------------------------------------------------------------ *)
(* Random EBF instances                                                *)
(* ------------------------------------------------------------------ *)

(* Random sinks (optionally a source) on a 100x100 grid with a random
   binary topology.  Feasible instances get a delay window spanning the
   radius; [infeasible] forces the upper bound below the radius, so no
   lower/upper-bounded tree exists and engines must agree on the
   verdict too.  [min_sinks]/[sink_span] size the instance: the default
   3..10 sinks converges in one row-generation round on most draws,
   while ~25+ sinks reliably produce multi-round lazy solves (for
   warm-start uptake tests). *)
let random_ebf ?(infeasible = false) ?(min_sinks = 3) ?(sink_span = 8) rng =
  let m = min_sinks + Prng.int rng sink_span in
  let with_source = Prng.bool rng in
  let coord () = Prng.float rng 100.0 in
  let sinks = Array.init m (fun _ -> Point.make (coord ()) (coord ())) in
  let source =
    if with_source then Some (Point.make (coord ()) (coord ())) else None
  in
  let base =
    Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity ()
  in
  let r = Instance.radius base in
  let l, u =
    if infeasible then (0.0, r *. (0.1 +. Prng.float rng 0.8))
    else
      let u = r *. (1.0 +. Prng.float rng 1.0) in
      (Prng.float rng u, u)
  in
  let inst = Instance.uniform_bounds ?source ~sinks ~lower:l ~upper:u () in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
  (inst, tree)

(* ------------------------------------------------------------------ *)
(* First-class specs for QCheck property tests                         *)
(* ------------------------------------------------------------------ *)

type var_spec = { v_lo : float; v_up : float; v_obj : float }
type row_spec = { r_lo : float; r_up : float; r_coeffs : (int * float) list }

type spec = { s_vars : var_spec list; s_rows : row_spec list }
(** A bounded LP as plain data, so shrinking can drop rows, variables
    and coefficients structurally instead of replaying a smaller seed. *)

let problem_of_spec s =
  let p = Problem.create () in
  List.iter
    (fun v -> ignore (Problem.add_var ~lo:v.v_lo ~up:v.v_up ~obj:v.v_obj p))
    s.s_vars;
  List.iter
    (fun r -> ignore (Problem.add_row p ~lo:r.r_lo ~up:r.r_up r.r_coeffs))
    s.s_rows;
  p

(* Same distribution as {!random_problem}, reified. *)
let spec_of_rng rng =
  let nv = 1 + Prng.int rng 6 in
  let nr = Prng.int rng 8 in
  let vars = ref [] in
  for _ = 1 to nv do
    let lo, up =
      match Prng.int rng 4 with
      | 0 -> (0.0, infinity)
      | 1 -> (float_of_int (Prng.int rng 5 - 2), infinity)
      | 2 ->
        let l = float_of_int (Prng.int rng 5 - 2) in
        (l, l +. float_of_int (Prng.int rng 6))
      | _ -> (neg_infinity, infinity)
    in
    let obj = float_of_int (Prng.int rng 9 - 4) in
    vars := { v_lo = lo; v_up = up; v_obj = obj } :: !vars
  done;
  let rows = ref [] in
  for _ = 1 to nr do
    let coeffs = ref [] in
    for j = 0 to nv - 1 do
      if Prng.int rng 3 > 0 then begin
        let c = float_of_int (Prng.int rng 7 - 3) in
        if c <> 0.0 then coeffs := (j, c) :: !coeffs
      end
    done;
    let base = float_of_int (Prng.int rng 21 - 10) in
    let lo, up =
      match Prng.int rng 4 with
      | 0 -> (base, infinity)
      | 1 -> (neg_infinity, base)
      | 2 -> (base, base +. float_of_int (Prng.int rng 8))
      | _ -> (base, base)
    in
    rows := { r_lo = lo; r_up = up; r_coeffs = !coeffs } :: !rows
  done;
  { s_vars = List.rev !vars; s_rows = List.rev !rows }

let spec_gen : spec QCheck.Gen.t =
 fun st ->
  (* seed a splitmix64 stream from QCheck's state so replaying a QCheck
     seed replays the instance *)
  let seed = Random.State.bits st lor (Random.State.bits st lsl 30) in
  spec_of_rng (Prng.create seed)

(* Counterexamples print as the CPLEX-LP text of the instance: directly
   readable and feedable back through the fixture pipeline. *)
let print_spec s = Lp_format.to_string (problem_of_spec s)

(* Structural shrinker: drop a row, drop a variable (reindexing the
   surviving coefficients), or drop a single coefficient.  Each step
   strictly reduces instance size, so shrinking terminates. *)
let shrink_spec s yield =
  List.iteri
    (fun i _ ->
      yield { s with s_rows = List.filteri (fun k _ -> k <> i) s.s_rows })
    s.s_rows;
  if List.length s.s_vars > 1 then
    List.iteri
      (fun j _ ->
        yield
          {
            s_vars = List.filteri (fun k _ -> k <> j) s.s_vars;
            s_rows =
              List.map
                (fun r ->
                  {
                    r with
                    r_coeffs =
                      List.filter_map
                        (fun (k, c) ->
                          if k = j then None
                          else Some ((if k > j then k - 1 else k), c))
                        r.r_coeffs;
                  })
                s.s_rows;
          })
      s.s_vars;
  List.iteri
    (fun i r ->
      List.iteri
        (fun k _ ->
          let r' =
            { r with r_coeffs = List.filteri (fun k' _ -> k' <> k) r.r_coeffs }
          in
          yield
            { s with s_rows = List.mapi (fun i' r0 -> if i' = i then r' else r0) s.s_rows })
        r.r_coeffs)
    s.s_rows

let arbitrary_spec =
  QCheck.make ~print:print_spec ~shrink:shrink_spec spec_gen
