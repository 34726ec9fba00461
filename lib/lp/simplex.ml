type vstat = Basic of int | At_lower | At_upper | Free_zero

type fault_kind = Fault_singular_refactor | Fault_perturb_ftran | Fault_zero_pivot

type fault = {
  fault_seed : int;
  fault_kinds : fault_kind list;
  fault_rate : float;
  max_faults : int;
}

let fault_plan ?(kinds = [ Fault_singular_refactor; Fault_perturb_ftran; Fault_zero_pivot ])
    ?(rate = 0.25) ?(max_faults = 3) seed =
  { fault_seed = seed; fault_kinds = kinds; fault_rate = rate; max_faults }

type recovery_stage = Refactor_retry | Tighten_pivot_tol | Perturb_and_resolve

let default_recovery = [ Refactor_retry; Tighten_pivot_tol; Perturb_and_resolve ]

type params = {
  max_iters : int;
  refactor_every : int;
  recovery : recovery_stage list;
  fault : fault option;
}

let default_params =
  {
    max_iters = 0;
    refactor_every = 100;
    recovery = default_recovery;
    fault = None;
  }

type probe_event = {
  pr_iteration : int;
  pr_phase : string;
  pr_objective : float;
  pr_primal_infeas : float;
  pr_dual_infeas : float;
  pr_entering : int;
  pr_leaving : int;
  pr_eta_count : int;
  pr_bound_flips : int;
  pr_recovery : string option;
}

type probe = probe_event -> unit

type recoveries = {
  refactor_retries : int;
  tolerance_escalations : int;
  perturbed_resolves : int;
  faults_injected : int;
  validations_rejected : int;
}

let no_recoveries =
  {
    refactor_retries = 0;
    tolerance_escalations = 0;
    perturbed_resolves = 0;
    faults_injected = 0;
    validations_rejected = 0;
  }

let recovery_attempts r =
  r.refactor_retries + r.tolerance_escalations + r.perturbed_resolves

type stats = {
  iterations : int;
  bound_flips : int;
  ftran_count : int;
  btran_count : int;
  basis_updates : int;
  basis_extensions : int;
  refactorisations : int;
  factor_nnz : int;
  basis_nnz : int;
  factor_dim : int;
  kernel_dim : int;
  dual_seconds : float;
  recoveries : recoveries;
}

(* Internal mutable mirror of the counters that are not already tracked
   elsewhere (iterations live on [t], linear-algebra traffic in the shared
   {!Basis.counters}). *)
type istats = {
  mutable s_flips : int;
  mutable s_dual_secs : float;
  mutable s_rec_refactor : int;
  mutable s_rec_tol : int;
  mutable s_rec_perturb : int;
  mutable s_injected : int;
  mutable s_rejected : int;
}

let fresh_istats () =
  {
    s_flips = 0;
    s_dual_secs = 0.0;
    s_rec_refactor = 0;
    s_rec_tol = 0;
    s_rec_perturb = 0;
    s_injected = 0;
    s_rejected = 0;
  }

type t = {
  n : int;  (* structural variables; auxiliary var of row i has index n+i *)
  p : params;
  mutable m : int;  (* rows *)
  mutable cap : int;  (* row capacity of the grown arrays *)
  cols : Sparse.t array;  (* length n; structural columns over row indices *)
  mutable rows : Sparse.t array;  (* length cap; rows over structural columns *)
  mutable aux_cols : Sparse.t array;  (* length cap; column -e_i of row i *)
  mutable lo : float array;  (* length n+cap *)
  mutable up : float array;
  mutable obj : float array;
  mutable basic : int array;  (* length cap: row -> basic variable *)
  mutable vstat : vstat array;  (* length n+cap *)
  mutable xb : float array;  (* length cap: basic values per row *)
  mutable last_status : Status.t;
  mutable basis : Basis.t;  (* sparse LU + eta/border trail *)
  (* warm-started rows were appended since the last solve: the incremental
     xb values must be refreshed from scratch before the next dual run, the
     same hygiene a cold start gets from [refactor]'s [recompute_xb] *)
  mutable xb_stale : bool;
  mutable iters : int;
  mutable since_refactor : int;
  (* resilience state: the recovery ladder may escalate the pivot
     tolerance mid-solve *)
  mutable cur_tol_pivot : float;
  mutable time_budget : float;  (* seconds per solve; infinity = none *)
  mutable deadline : float;  (* absolute, set at solve entry *)
  mutable solving : bool;  (* fault hooks only fire inside solve *)
  mutable probe : probe option;  (* per-iteration convergence probe *)
  mutable cur_phase : string;  (* "dual_phase1" or "dual", for probe events *)
  mutable faults_left : int;
  frng : Lubt_util.Prng.t option;  (* fault-injection stream *)
  st : istats;
  ops : Basis.counters;  (* shared with every factorisation of [basis] *)
  (* basis solve vectors, length cap: the ftran [w] of the entering
     column (or of a basic value update), the multipliers [y] of the
     basic costs, the pivot row [rho] of B^-1, and [rhs], a right-hand
     side being built (zero between uses) *)
  mutable w : Hvec.t;
  mutable y : Hvec.t;
  mutable rho : Hvec.t;
  mutable rhs : Hvec.t;
  (* dual simplex state, length n+cap: reduced costs [d], kept by the
     dual step between from-scratch recomputations (valid while
     [d_fresh]), and the pivot row [alpha] = rho . A_j at the nonbasic
     columns listed in [arow.(0 .. narow-1)] *)
  mutable d : float array;
  mutable d_fresh : bool;
  mutable alpha : float array;
  mutable arow : int array;
  mutable narow : int;
  srow : Hvec.t;  (* length n: rho . A_j summed row-wise over rho's nonzeros *)
}

exception Numerical of string

(* ------------------------------------------------------------------ *)
(* Tracing helpers                                                     *)
(* ------------------------------------------------------------------ *)

module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock

(* Hot-path guard idiom: when tracing is disabled a site costs one atomic
   load and a branch — no clock read, no closure allocation. *)
let tr_start () = if Trace.enabled () then Clock.now () else 0.0

let tr_stop t0 name = if Trace.enabled () then Trace.complete ~t0 name

module Metrics = Lubt_obs.Metrics

(* Aggregate solver metrics, recorded once per [solve] from the stats
   counters the engine maintains anyway — the per-pivot loops stay
   untouched, so the metrics registry adds nothing to the pivot path. *)
let m_solves =
  Metrics.counter ~help:"Simplex solve calls" "lubt_simplex_solves_total"

let m_iterations =
  Metrics.counter ~help:"Simplex pivots across all phases"
    "lubt_simplex_iterations_total"

let m_bound_flips =
  Metrics.counter ~help:"Dual bound flips" "lubt_simplex_bound_flips_total"

let m_recoveries =
  Metrics.counter ~help:"Numerical-recovery ladder stages consumed"
    "lubt_simplex_recoveries_total"

let m_ftrans =
  Metrics.counter ~help:"Forward basis solves" "lubt_simplex_ftrans_total"

let m_btrans =
  Metrics.counter ~help:"Transposed basis solves" "lubt_simplex_btrans_total"

(* ------------------------------------------------------------------ *)
(* Small accessors                                                     *)
(* ------------------------------------------------------------------ *)

let nrows t = t.m

let iterations t = t.iters

let is_fixed t j = t.up.(j) -. t.lo.(j) <= 0.0

let nonbasic_value t j =
  match t.vstat.(j) with
  | Basic _ -> invalid_arg "nonbasic_value: basic"
  | At_lower -> t.lo.(j)
  | At_upper -> t.up.(j)
  | Free_zero -> 0.0

let value t j =
  match t.vstat.(j) with Basic r -> t.xb.(r) | _ -> nonbasic_value t j

(* Iterate the equality-form column of variable [j]: structural columns come
   from the model, the auxiliary variable of row i is the column [-e_i]. *)
let col_iter t j f =
  if j < t.n then Sparse.iter f t.cols.(j) else f (j - t.n) (-1.0)

let col_dot t j dense =
  if j < t.n then Sparse.dot_dense t.cols.(j) dense
  else -.dense.(j - t.n)

(* Absolute primal feasibility, reduced-cost optimality and smallest
   acceptable pivot magnitude. The pivot tolerance only seeds
   [cur_tol_pivot], which the recovery ladder may escalate. *)
let tol_feas = 1e-7

let tol_dual = 1e-9

let tol_pivot = 1e-9

(* Relative tolerances: bounds in EBF problems are chip-scale (1e4..1e6), so
   absolute tests would be meaninglessly tight. *)
let feas_tol bound = tol_feas *. (1.0 +. abs_float bound)

let dual_tol t j = tol_dual *. (1.0 +. abs_float t.obj.(j))

(* Monotonic by construction: a wall-clock step (NTP slew, manual reset)
   must neither fire a spurious Time_limit nor disable the budget. *)
let out_of_time t = t.deadline < infinity && Clock.now () > t.deadline

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

(* Whether a configured fault of [kind] fires at this call site. Fires only
   while a solve is running (never during [of_problem] or [add_rows]) and at
   most [max_faults] times per engine, so recovery retries eventually see a
   clean run. The stream is seeded, so a given (problem, seed) pair fails in
   exactly the same way every time. *)
let fault_fires t kind =
  match (t.p.fault, t.frng) with
  | Some f, Some rng
    when t.solving && t.faults_left > 0 && List.mem kind f.fault_kinds ->
    if Lubt_util.Prng.float rng 1.0 < f.fault_rate then begin
      t.faults_left <- t.faults_left - 1;
      t.st.s_injected <- t.st.s_injected + 1;
      true
    end
    else false
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Linear algebra on the factorised basis                              *)
(* ------------------------------------------------------------------ *)

(* w <- B^-1 A_j *)
let ftran t q =
  let tr0 = tr_start () in
  (* hand the column over sparse: no dense copy of it is built here *)
  let rhs = if q < t.n then t.cols.(q) else t.aux_cols.(q - t.n) in
  Basis.ftran_sparse t.basis rhs t.w;
  if t.m > 0 && fault_fires t Fault_perturb_ftran then begin
    match t.frng with
    | Some rng ->
      (* large relative error in one component: either harmless (the
         component is never pivoted on) or caught by post-solve validation *)
      let r = Lubt_util.Prng.int rng t.m in
      Hvec.set t.w r (t.w.v.(r) +. (0.01 *. (1.0 +. abs_float t.w.v.(r))))
    | None -> ()
  end;
  tr_stop tr0 "simplex.ftran"

(* y <- (B^-1)^T cb for the basic costs cb *)
let compute_y t =
  for r = 0 to t.m - 1 do
    let c = t.obj.(t.basic.(r)) in
    if c <> 0.0 then Hvec.set t.rhs r c
  done;
  let tr0 = tr_start () in
  Basis.btran t.basis t.rhs t.y;
  Hvec.clear t.rhs;
  tr_stop tr0 "simplex.btran"

(* d <- c - A^T y from scratch. *)
let compute_d t =
  compute_y t;
  for j = 0 to t.n + t.m - 1 do
    t.d.(j) <-
      (match t.vstat.(j) with
      | Basic _ -> 0.0
      | _ -> t.obj.(j) -. col_dot t j t.y.v)
  done;
  t.d_fresh <- true

let primal_infeasibility t =
  let total = ref 0.0 in
  for r = 0 to t.m - 1 do
    let b = t.basic.(r) in
    let x = t.xb.(r) in
    if x < t.lo.(b) then total := !total +. (t.lo.(b) -. x)
    else if x > t.up.(b) then total := !total +. (x -. t.up.(b))
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Convergence probe                                                   *)
(* ------------------------------------------------------------------ *)

let set_probe t p = t.probe <- p

(* Worst dual-feasibility violation of any nonbasic column under the
   current multipliers. Only computed when a probe is installed: it costs
   a BTRAN plus a full column scan per pivot, and it bumps the shared
   linear-algebra counters — an observed engine reports more btrans than
   an unobserved one. *)
let dual_infeasibility t =
  compute_y t;
  let worst = ref 0.0 in
  let total = t.n + t.m in
  for j = 0 to total - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | _ when is_fixed t j -> ()
    | At_lower ->
      let d = t.obj.(j) -. col_dot t j t.y.v in
      if d < 0.0 then worst := max !worst (-.d)
    | At_upper ->
      let d = t.obj.(j) -. col_dot t j t.y.v in
      if d > 0.0 then worst := max !worst d
    | Free_zero ->
      let d = abs_float (t.obj.(j) -. col_dot t j t.y.v) in
      worst := max !worst d
  done;
  !worst

(* Objective of the current (possibly infeasible) point; reads variable
   values only, so it is safe even mid-recovery when the factorisation is
   suspect. *)
let objective t =
  let acc = ref 0.0 in
  for j = 0 to t.n - 1 do
    if t.obj.(j) <> 0.0 then acc := !acc +. (t.obj.(j) *. value t j)
  done;
  !acc

(* Fires the installed probe, if any. Recovery events skip the
   dual-infeasibility computation (the basis that just failed cannot be
   trusted to solve anything) and report it as nan. *)
let fire_probe t ?recovery ~entering ~leaving () =
  match t.probe with
  | None -> ()
  | Some f ->
    let mid_recovery = recovery <> None in
    f
      {
        pr_iteration = t.iters;
        pr_phase = (if mid_recovery then "recovery" else t.cur_phase);
        pr_objective = objective t;
        pr_primal_infeas = primal_infeasibility t;
        pr_dual_infeas =
          (if mid_recovery then Float.nan else dual_infeasibility t);
        pr_entering = entering;
        pr_leaving = leaving;
        pr_eta_count = t.since_refactor;
        pr_bound_flips = t.st.s_flips;
        pr_recovery = recovery;
      }

(* xb <- xb - B^-1 rhs over the nonzeros of the result, leaving [rhs]
   zeroed *)
let subtract_ftran_rhs t =
  Basis.ftran t.basis t.rhs t.w;
  Hvec.clear t.rhs;
  let w = t.w in
  for e = 0 to w.nnz - 1 do
    let r = w.idx.(e) in
    t.xb.(r) <- t.xb.(r) -. w.v.(r)
  done

(* xb = -B^-1 (sum of A_j x_j over the nonbasic columns) *)
let recompute_xb t =
  for j = 0 to t.n + t.m - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | At_lower | At_upper | Free_zero ->
      let v = nonbasic_value t j in
      if v <> 0.0 then col_iter t j (fun i a -> Hvec.add t.rhs i (a *. v))
  done;
  Array.fill t.xb 0 t.m 0.0;
  subtract_ftran_rhs t

(* The current basis matrix, column by column. *)
let basis_columns t =
  Array.init t.m (fun k ->
      let j = t.basic.(k) in
      if j < t.n then t.cols.(j) else t.aux_cols.(j - t.n))

(* LU pivot threshold scaled with the (possibly escalated) simplex pivot
   tolerance, never looser than the Lu.factor default. *)
let lu_pivot_tol tol = max 1e-11 (tol *. 1e-2)

let refactor_run t =
  if fault_fires t Fault_singular_refactor then
    raise (Numerical "fault injection: forced singular refactorisation");
  t.xb_stale <- false;
  (* the dual step's reduced costs restart from scratch with the factors *)
  t.d_fresh <- false;
  (* a singular basis is a hard numerical error handled by the driver *)
  (match
     Basis.create ~counters:t.ops ~pivot_tol:(lu_pivot_tol t.cur_tol_pivot)
       (basis_columns t)
   with
  | b -> t.basis <- b
  | exception Lu.Singular j ->
    raise (Numerical (Printf.sprintf "refactor: singular basis (column %d)" j)));
  t.since_refactor <- 0;
  recompute_xb t

(* [Trace.span] (rather than the complete-event idiom) so a singular
   factorisation still closes the span on the raise path. *)
let refactor t =
  if Trace.enabled () then Trace.span "simplex.refactor" (fun () -> refactor_run t)
  else refactor_run t

(* Classic product-form refactorisation criterion: once the eta/border
   trail stores as many nonzeros as the LU factors themselves, applying it
   costs more than a fresh solve would, so dragging it further is pure
   loss (and compounding rounding). *)
let trail_heavy t = Basis.trail_nnz t.basis > Basis.lu_nnz t.basis

let maybe_refactor t =
  if t.since_refactor >= t.p.refactor_every then refactor t

(* ------------------------------------------------------------------ *)
(* Pivoting                                                            *)
(* ------------------------------------------------------------------ *)

(* Eta update of the basis after variable q (with ftran result in t.w)
   replaces the basic variable of row r. *)
let update_basis t r =
  if fault_fires t Fault_zero_pivot then
    raise (Basis.Zero_pivot { row = r; magnitude = 0.0 });
  Basis.update ~tol:t.cur_tol_pivot t.basis r t.w

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

let effective_max_iters t =
  if t.p.max_iters > 0 then t.p.max_iters else (100 * (t.n + t.m)) + 10_000

let most_violated_row t =
  let best = ref None in
  for r = 0 to t.m - 1 do
    let b = t.basic.(r) in
    let x = t.xb.(r) in
    let viol =
      if x < t.lo.(b) -. feas_tol t.lo.(b) then t.lo.(b) -. x
      else if x > t.up.(b) +. feas_tol t.up.(b) then x -. t.up.(b)
      else 0.0
    in
    if viol > 0.0 then
      match !best with
      | Some (_, v) when v >= viol -> ()
      | _ -> best := Some (r, viol)
  done;
  !best

let dual_simplex t =
  let rec loop () =
    if t.iters > effective_max_iters t then Status.Iteration_limit
    else if out_of_time t then Status.Time_limit
    else begin
      maybe_refactor t;
      match most_violated_row t with
      | None -> Status.Optimal
      | Some (r, _) ->
        let b = t.basic.(r) in
        let above = t.xb.(r) > t.up.(b) in
        let s = if above then 1.0 else -1.0 in
        let rho = t.rho in
        Basis.btran_unit t.basis r rho;
        Hvec.sort rho t.m;
        if not t.d_fresh then compute_d t;
        (* pivot row and entering candidates: columns whose pivot sign
           restores primal feasibility, with their dual ratio
           |d_j| / |alpha_j| *)
        let tr0 = tr_start () in
        let cands = ref [] in
        let consider j ratio alpha =
          cands := (j, ratio, abs_float alpha) :: !cands
        in
        (* records alpha_j = rho . A_j for the dual step *)
        t.narow <- 0;
        let visit j a =
          match t.vstat.(j) with
          | Basic _ -> ()
          | _ when is_fixed t j -> ()
          | stat -> (
            if a <> 0.0 then begin
              t.alpha.(j) <- a;
              t.arow.(t.narow) <- j;
              t.narow <- t.narow + 1
            end;
            let alpha = s *. a in
            match stat with
            | At_lower ->
              if alpha > t.cur_tol_pivot then
                consider j (max 0.0 t.d.(j) /. alpha) alpha
            | At_upper ->
              if alpha < -.t.cur_tol_pivot then
                consider j (min 0.0 t.d.(j) /. alpha) alpha
            | Free_zero ->
              if abs_float alpha > t.cur_tol_pivot then consider j 0.0 alpha
            | Basic _ -> ())
        in
        (* The structural part row by row: sum rho_i row_i over rho's
           nonzeros in increasing i, so each alpha_j adds the terms of
           the column dot product in the same order. Only the columns it
           touches can have alpha_j <> 0; they are visited in increasing
           j, then the slacks of rho's nonzeros (alpha = -rho_i), the
           order of a scan over every column. *)
        let srow = t.srow in
        for e = 0 to rho.nnz - 1 do
          let i = rho.idx.(e) in
          let ri = rho.v.(i) in
          if ri <> 0.0 then
            Sparse.iter (fun j a -> Hvec.add srow j (a *. ri)) t.rows.(i)
        done;
        Hvec.sort srow t.n;
        for e = 0 to srow.nnz - 1 do
          let j = srow.idx.(e) in
          visit j srow.v.(j)
        done;
        Hvec.clear srow;
        for e = 0 to rho.nnz - 1 do
          let i = rho.idx.(e) in
          visit (t.n + i) (-.rho.v.(i))
        done;
        let target = if above then t.up.(b) else t.lo.(b) in
        (* Entering choice: minimum dual ratio, ties (within 1e-12) to the
           largest pivot, then to the scan order. *)
        let pick cs =
          let best = ref None in
          List.iter
            (fun (j, ratio, mag) ->
              match !best with
              | Some (_, br, bm)
                when br < ratio -. 1e-9 || (br <= ratio +. 1e-9 && bm >= mag)
                -> ()
              | _ -> best := Some (j, ratio, mag))
            cs;
          !best
        in
        (* Bound flips (long-step rule): walk the breakpoints in dual-ratio
           order by repeated extraction with the same rule; a boxed
           candidate whose full flip cannot absorb the remaining primal
           violation is flipped to its opposite bound (no basis change —
           its reduced cost has crossed zero, so it is dual feasible at
           the new bound) and the walk continues with the violation it
           paid off; the first candidate that would overshoot enters.
           With no flippable candidates this degenerates to a single
           extraction — identical to the flip-free rule. Flips are
           planned first and applied only once an entering column exists,
           so an infeasible exit mutates nothing. *)
        let entering, flips =
          let tol = feas_tol target in
          let rec walk cs delta flips =
            match pick cs with
            | None -> (-1, flips)
            | Some (j, _, mag) ->
              let range = t.up.(j) -. t.lo.(j) in
              let gain = if range < infinity then range *. mag else infinity in
              if gain < delta -. tol then
                walk
                  (List.filter (fun (j', _, _) -> j' <> j) cs)
                  (delta -. gain) (j :: flips)
              else (j, flips)
          in
          walk !cands (abs_float (t.xb.(r) -. target)) []
        in
        tr_stop tr0 "simplex.dual_scan";
        if entering < 0 then Status.Infeasible
        else begin
          let q = entering in
          (* apply the planned flips as one accumulated basic-value update:
             xb -= B^-1 (sum_j A_j dx_j) *)
          (match flips with
          | [] -> ()
          | fs ->
            List.iter
              (fun j ->
                let dx =
                  match t.vstat.(j) with
                  | At_lower ->
                    t.vstat.(j) <- At_upper;
                    t.up.(j) -. t.lo.(j)
                  | At_upper ->
                    t.vstat.(j) <- At_lower;
                    t.lo.(j) -. t.up.(j)
                  | Basic _ | Free_zero ->
                    invalid_arg "dual flip of unbounded variable"
                in
                col_iter t j (fun i a -> Hvec.add t.rhs i (a *. dx));
                t.st.s_flips <- t.st.s_flips + 1)
              fs;
            subtract_ftran_rhs t);
          ftran t q;
          let alpha_rq = t.w.v.(r) in
          if abs_float alpha_rq < t.cur_tol_pivot then
            raise (Numerical "dual simplex: tiny pivot");
          let dq = (t.xb.(r) -. target) /. alpha_rq in
          let q_new = value t q +. dq in
          (* basis update first: raises before any state mutation *)
          update_basis t r;
          let w = t.w in
          for e = 0 to w.nnz - 1 do
            let r' = w.idx.(e) in
            if r' <> r then t.xb.(r') <- t.xb.(r') -. (dq *. w.v.(r'))
          done;
          (* dual step (Koberstein 2005): y moves along rho by theta, so
             d_j -= theta alpha_j over the pivot row; q becomes basic and
             the leaving column, with alpha = 1, takes -theta *)
          let theta = t.d.(q) /. t.alpha.(q) in
          for k = 0 to t.narow - 1 do
            let j = t.arow.(k) in
            t.d.(j) <- t.d.(j) -. (theta *. t.alpha.(j))
          done;
          t.d.(q) <- 0.0;
          t.d.(b) <- -.theta;
          t.vstat.(b) <- (if above then At_upper else At_lower);
          t.basic.(r) <- q;
          t.vstat.(q) <- Basic r;
          t.xb.(r) <- q_new;
          t.iters <- t.iters + 1;
          t.since_refactor <- t.since_refactor + 1;
          fire_probe t ~entering:q ~leaving:b ();
          loop ()
        end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Loading and growing                                                 *)
(* ------------------------------------------------------------------ *)

let initial_vstat lo up =
  if lo > neg_infinity then At_lower
  else if up < infinity then At_upper
  else Free_zero

let aux_columns cap = Array.init cap (fun i -> Sparse.singleton i (-1.0))

let grow_arrays t needed_cap =
  if needed_cap > t.cap then begin
    let ncap = max needed_cap (2 * t.cap) in
    let grow_f arr extra =
      let res = Array.make (extra + ncap) 0.0 in
      Array.blit arr 0 res 0 (Array.length arr);
      res
    in
    let grow_i arr =
      let res = Array.make ncap 0 in
      Array.blit arr 0 res 0 t.m;
      res
    in
    t.lo <- grow_f t.lo t.n;
    t.up <- grow_f t.up t.n;
    t.obj <- grow_f t.obj t.n;
    t.basic <- grow_i t.basic;
    t.xb <- grow_f t.xb 0;
    let rows = Array.make ncap Sparse.empty in
    Array.blit t.rows 0 rows 0 t.m;
    t.rows <- rows;
    t.aux_cols <- aux_columns ncap;
    t.w <- Hvec.create ncap;
    t.y <- Hvec.create ncap;
    t.rho <- Hvec.create ncap;
    t.rhs <- Hvec.create ncap;
    t.d <- Array.make (t.n + ncap) 0.0;
    t.d_fresh <- false;
    t.alpha <- Array.make (t.n + ncap) 0.0;
    t.arow <- Array.make (t.n + ncap) 0;
    let vs = Array.make (t.n + ncap) Free_zero in
    Array.blit t.vstat 0 vs 0 (t.n + t.m);
    t.vstat <- vs;
    t.cap <- ncap
  end

let of_problem ?(params = default_params) prob =
  let n = Problem.nvars prob in
  let m = Problem.nrows prob in
  let cap = max 16 (m + (m / 2)) in
  let rows = Array.make cap Sparse.empty in
  for i = 0 to m - 1 do
    rows.(i) <- (Problem.row prob i).coeffs
  done;
  (* structural columns: transpose the row-wise model *)
  let buckets = Array.make n [] in
  for i = m - 1 downto 0 do
    Sparse.iter (fun j v -> buckets.(j) <- (i, v) :: buckets.(j)) rows.(i)
  done;
  let cols = Array.map Sparse.of_assoc buckets in
  let lo = Array.make (n + cap) 0.0 and up = Array.make (n + cap) 0.0 in
  let obj = Array.make (n + cap) 0.0 in
  for j = 0 to n - 1 do
    lo.(j) <- Problem.var_lo prob j;
    up.(j) <- Problem.var_up prob j;
    obj.(j) <- Problem.obj_coeff prob j
  done;
  for i = 0 to m - 1 do
    let r = Problem.row prob i in
    lo.(n + i) <- r.rlo;
    up.(n + i) <- r.rup
  done;
  let vstat = Array.make (n + cap) Free_zero in
  for j = 0 to n - 1 do
    vstat.(j) <- initial_vstat lo.(j) up.(j)
  done;
  let basic = Array.make cap 0 in
  for i = 0 to m - 1 do
    basic.(i) <- n + i;
    vstat.(n + i) <- Basic i
  done;
  let ops = Basis.fresh_counters () in
  let aux_cols = aux_columns cap in
  (* the all-slack start B = -I, factorised like every later basis *)
  let basis =
    Basis.create ~counters:ops ~pivot_tol:(lu_pivot_tol tol_pivot)
      (Array.sub aux_cols 0 m)
  in
  let t =
    {
      n;
      p = params;
      m;
      cap;
      cols;
      rows;
      aux_cols;
      lo;
      up;
      obj;
      basic;
      vstat;
      xb = Array.make cap 0.0;
      last_status = Status.Iteration_limit;
      basis;
      xb_stale = false;
      iters = 0;
      since_refactor = 0;
      cur_tol_pivot = tol_pivot;
      time_budget = infinity;
      deadline = infinity;
      solving = false;
      probe = None;
      cur_phase = "";
      faults_left =
        (match params.fault with Some f -> f.max_faults | None -> 0);
      frng =
        (match params.fault with
        | Some f -> Some (Lubt_util.Prng.create f.fault_seed)
        | None -> None);
      st = fresh_istats ();
      ops;
      w = Hvec.create cap;
      y = Hvec.create cap;
      rho = Hvec.create cap;
      rhs = Hvec.create cap;
      d = Array.make (n + cap) 0.0;
      d_fresh = false;
      alpha = Array.make (n + cap) 0.0;
      arow = Array.make (n + cap) 0;
      narow = 0;
      srow = Hvec.create n;
    }
  in
  recompute_xb t;
  t

let add_rows t rows =
  (* validate every row before anything is mutated *)
  let rows =
    List.map
      (fun (lo, up, coeffs) ->
        if not (lo <= up) then invalid_arg "Simplex.add_rows: lo > up";
        List.iter
          (fun (j, _) ->
            if j < 0 || j >= t.n then
              invalid_arg "Simplex.add_rows: unknown structural variable")
          coeffs;
        (lo, up, Sparse.of_assoc coeffs))
      rows
  in
  (* extend each referenced structural column once per batch: the new row
     indices are the largest in every column, so the new entries go at the
     end, in row order *)
  let fresh = Array.make t.n [] in
  List.iteri
    (fun q (_, _, sp) ->
      Sparse.iter (fun j v -> fresh.(j) <- (t.m + q, v) :: fresh.(j)) sp)
    rows;
  Array.iteri
    (fun j entries ->
      if entries <> [] then
        t.cols.(j) <- Sparse.append t.cols.(j) (List.rev entries))
    fresh;
  List.iter
    (fun (lo, up, sp) ->
      grow_arrays t (t.m + 1);
      let r_new = t.m in
      let aux = t.n + r_new in
      t.rows.(r_new) <- sp;
      t.lo.(aux) <- lo;
      t.up.(aux) <- up;
      t.obj.(aux) <- 0.0;
      (* extend the basis: the new basis matrix is [[B, 0], [C, -1]], where
         C holds the new row's coefficients on the current basic
         (necessarily structural) variables. This border is appended to
         the live factorisation, so the next solve re-enters the dual
         simplex without refactorising. *)
      let border = ref [] in
      Sparse.iter
        (fun j v ->
          match t.vstat.(j) with
          | Basic k -> border := (k, v) :: !border
          | At_lower | At_upper | Free_zero -> ())
        sp;
      Basis.append_row t.basis (Sparse.of_assoc !border);
      t.since_refactor <- t.since_refactor + 1;
      (* the new auxiliary variable enters the basis; its value, like
         every basic value, is recomputed before the next solve *)
      t.xb_stale <- true;
      t.d_fresh <- false;
      t.basic.(r_new) <- aux;
      t.vstat.(aux) <- Basic r_new;
      t.m <- t.m + 1;
      t.last_status <- Status.Iteration_limit)
    rows

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Recomputes the reduced costs from scratch, so the dual simplex
   entered next starts from exact ones. *)
let dual_feasible t =
  compute_d t;
  let ok = ref true in
  let total = t.n + t.m in
  let j = ref 0 in
  while !ok && !j < total do
    let d = t.d.(!j) in
    (match t.vstat.(!j) with
    | Basic _ -> ()
    | _ when is_fixed t !j -> ()
    | At_lower -> if d < -.(10.0 *. dual_tol t !j) then ok := false
    | At_upper -> if d > 10.0 *. dual_tol t !j then ok := false
    | Free_zero -> if abs_float d > 10.0 *. dual_tol t !j then ok := false);
    incr j
  done;
  !ok

(* One dual simplex run, with its wall time and the probe's phase label
   ("dual_phase1" or "dual"). *)
let run_dual t phase =
  let t0 = Clock.now () in
  let it0 = t.iters in
  t.cur_phase <- phase;
  let r = dual_simplex t in
  t.st.s_dual_secs <- t.st.s_dual_secs +. (Clock.now () -. t0);
  if Trace.enabled () then
    Trace.complete ~t0 "simplex.dual"
      ~args:
        [ ("phase", Trace.Str phase); ("iterations", Trace.Int (t.iters - it0)) ];
  r

(* Puts nonbasic [j] on the bound its reduced cost points to, or on any
   bound it has when [d_j] is zero within the tolerance [dual_feasible]
   accepts. Returns false when the bound [d_j] points to is infinite: [j]
   then sits on a bound it has and stays dual infeasible. *)
let seat t j =
  let d = t.d.(j) and tol = 10.0 *. dual_tol t j in
  let has_lo = t.lo.(j) > neg_infinity and has_up = t.up.(j) < infinity in
  t.vstat.(j) <-
    (if has_up && (d < -.tol || not has_lo) then At_upper
     else if has_lo then At_lower
     else Free_zero);
  (d >= -.tol || has_up) && (d <= tol || has_lo)

let seat_nonbasics t =
  let ok = ref true in
  for j = 0 to t.n + t.m - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | At_lower | At_upper | Free_zero -> if not (seat t j) then ok := false
  done;
  !ok

(* Dual phase 1, the subproblem approach of Koberstein and Suhl (2007):
   every bound is swapped for a box that contains 0 ([0,0] for boxed and
   fixed variables, [0,1] lower-only, [-1,0] upper-only, [-1,1] free), so
   every nonbasic has the bound its reduced cost points to, and the dual
   simplex then minimises the basis's dual infeasibility. The exact bounds
   come back on every exit, an exception included, with each nonbasic
   re-seated on a bound that exists. Returns the run's status and whether
   the re-seated basis is dual feasible. Expects [d] fresh. *)
let dual_phase1 t =
  let total = t.n + t.m in
  let lo = Array.sub t.lo 0 total and up = Array.sub t.up 0 total in
  for j = 0 to total - 1 do
    t.lo.(j) <- (if lo.(j) > neg_infinity then 0.0 else -1.0);
    t.up.(j) <- (if up.(j) < infinity then 0.0 else 1.0)
  done;
  let restore () =
    Array.blit lo 0 t.lo 0 total;
    Array.blit up 0 t.up 0 total
  in
  match
    ignore (seat_nonbasics t);
    recompute_xb t;
    run_dual t "dual_phase1"
  with
  | exception e ->
    restore ();
    ignore (seat_nonbasics t);
    t.xb_stale <- true;
    t.d_fresh <- false;
    raise e
  | status ->
    restore ();
    compute_d t;
    let feasible = seat_nonbasics t in
    recompute_xb t;
    (status, feasible)

(* A solve that ends Optimal must also look optimal when checked only
   against the original column data — never through the basis inverse,
   which is exactly the object a numerical fault corrupts. Checks the
   equality system [A | -I] x = 0 and the bound feasibility of the basic
   values; a failure re-enters the recovery ladder. *)
let validate_solution t =
  let m = t.m in
  if m > 0 then begin
    let s = Array.make m 0.0 in
    let scale = ref 1.0 in
    for j = 0 to t.n + m - 1 do
      let v = value t j in
      if v <> 0.0 then begin
        if abs_float v > !scale then scale := abs_float v;
        col_iter t j (fun i a -> s.(i) <- s.(i) +. (a *. v))
      end
    done;
    let residual = ref 0.0 in
    for i = 0 to m - 1 do
      if abs_float s.(i) > !residual then residual := abs_float s.(i)
    done;
    let residual = !residual /. !scale in
    let infeas = ref 0.0 in
    for r = 0 to m - 1 do
      let b = t.basic.(r) in
      let x = t.xb.(r) in
      let v =
        if x < t.lo.(b) then (t.lo.(b) -. x) /. (1.0 +. abs_float t.lo.(b))
        else if x > t.up.(b) then (x -. t.up.(b)) /. (1.0 +. abs_float t.up.(b))
        else 0.0
      in
      if v > !infeas then infeas := v
    done;
    let tol = 1e3 *. tol_feas in
    if residual > tol || !infeas > tol then begin
      t.st.s_rejected <- t.st.s_rejected + 1;
      raise
        (Numerical
           (Printf.sprintf
              "post-solve validation: equality residual %.3g, bound violation %.3g"
              residual !infeas))
    end
  end

(* Without a dual feasible basis the LP is unbounded if it is feasible at
   all. A dual simplex run under zero costs, where every basis is dual
   feasible, decides which; the feasible point it reaches is validated
   like an optimum. *)
let unbounded_or_infeasible t =
  let total = t.n + t.m in
  let obj = Array.sub t.obj 0 total in
  Array.fill t.obj 0 total 0.0;
  t.d_fresh <- false;
  Fun.protect
    ~finally:(fun () ->
      Array.blit obj 0 t.obj 0 total;
      t.d_fresh <- false)
    (fun () ->
      match run_dual t "dual_phase1" with
      | Status.Optimal ->
        validate_solution t;
        Status.Unbounded
      | s -> s)

(* Algorithm selection for one clean run from the current basis. The
   dual simplex keeps its reduced costs by updates, so its Optimal exit
   is re-checked from scratch; a basis that fails the check is
   refactorised and driven again. A start that is not dual feasible goes
   through dual phase 1 first. A limit hit in phase 1 is the solve's
   status. *)
let rec drive t =
  if dual_feasible t then begin
    match run_dual t "dual" with
    | Status.Optimal when not (dual_feasible t) ->
      refactor t;
      drive t
    | s -> s
  end
  else
    match dual_phase1 t with
    | Status.Optimal, true -> drive t
    | Status.Optimal, false -> unbounded_or_infeasible t
    | Status.Infeasible, _ ->
      (* 0 is feasible for the boxed bounds: only a numerical fault
         reaches this *)
      raise (Numerical "dual phase 1: boxed subproblem reported infeasible")
    | s, _ -> s

(* Reconstructs a standalone Problem.t equal to the engine's current model
   (including rows appended with add_rows), for oracles and diagnostics. *)
let to_problem t =
  let prob = Problem.create () in
  for j = 0 to t.n - 1 do
    ignore (Problem.add_var ~lo:t.lo.(j) ~up:t.up.(j) ~obj:t.obj.(j) prob)
  done;
  for i = 0 to t.m - 1 do
    ignore
      (Problem.add_row prob ~lo:t.lo.(t.n + i) ~up:t.up.(t.n + i)
         (Sparse.to_assoc t.rows.(i)))
  done;
  prob

(* The exception classes the recovery ladder is allowed to absorb. Anything
   else (Invalid_argument, Out_of_memory, ...) is a caller or engine bug and
   propagates. *)
let recoverable = function
  | Numerical msg -> Some msg
  | Lu.Singular j -> Some (Printf.sprintf "singular factorisation (column %d)" j)
  | Basis.Zero_pivot { row; magnitude } ->
    Some (Printf.sprintf "zero pivot at row %d (|pivot| = %g)" row magnitude)
  | _ -> None

let stage_name = function
  | Refactor_retry -> "refactor_retry"
  | Tighten_pivot_tol -> "tighten_pivot_tol"
  | Perturb_and_resolve -> "perturb_and_resolve"

let apply_stage t stage =
  let name = stage_name stage in
  Lubt_obs.Log.warn
    ~fields:
      [ ("stage", Trace.Str name); ("iteration", Trace.Int t.iters) ]
    "simplex recovery stage engaged";
  Trace.instant "simplex.recovery" ~args:[ ("stage", Trace.Str name) ];
  fire_probe t ~recovery:name ~entering:(-1) ~leaving:(-1) ();
  match stage with
  | Refactor_retry ->
    t.st.s_rec_refactor <- t.st.s_rec_refactor + 1;
    refactor t
  | Tighten_pivot_tol ->
    t.st.s_rec_tol <- t.st.s_rec_tol + 1;
    t.cur_tol_pivot <- min 1e-5 (t.cur_tol_pivot *. 100.0);
    refactor t
  | Perturb_and_resolve ->
    t.st.s_rec_perturb <- t.st.s_rec_perturb + 1;
    let total = t.n + t.m in
    let saved_lo = Array.sub t.lo 0 total in
    let saved_up = Array.sub t.up 0 total in
    (* outward relative perturbation of the finite bounds of non-fixed
       variables: relaxes the problem slightly and breaks the degenerate
       vertex that defeated the pivot tolerances; seeded, so deterministic *)
    let rng = Lubt_util.Prng.create (0x9e37 + t.st.s_rec_perturb) in
    for j = 0 to total - 1 do
      if t.up.(j) > t.lo.(j) then begin
        if t.lo.(j) > neg_infinity then
          t.lo.(j) <-
            t.lo.(j)
            -. (1e-7 *. (1.0 +. abs_float t.lo.(j)) *. Lubt_util.Prng.float rng 1.0);
        if t.up.(j) < infinity then
          t.up.(j) <-
            t.up.(j)
            +. (1e-7 *. (1.0 +. abs_float t.up.(j)) *. Lubt_util.Prng.float rng 1.0)
      end
    done;
    let outcome =
      match
        refactor t;
        ignore (drive t)
      with
      | () -> None
      | exception e -> Some e
    in
    Array.blit saved_lo 0 t.lo 0 total;
    Array.blit saved_up 0 t.up 0 total;
    (match outcome with
    | Some e when recoverable e = None -> raise e
    | _ -> ());
    (* clean re-solve on the exact bounds happens at the next attempt; here
       only the basis bookkeeping is refreshed for the restored bounds *)
    refactor t

let solve t =
  t.solving <- true;
  t.deadline <-
    (if t.time_budget = infinity then infinity
     else Clock.now () +. t.time_budget);
  let rec_total t = t.st.s_rec_refactor + t.st.s_rec_tol + t.st.s_rec_perturb in
  (* entry counters, so re-solves on a live engine report deltas *)
  let m0_iters = t.iters
  and m0_flips = t.st.s_flips
  and m0_ftrans = t.ops.Basis.ftrans
  and m0_btrans = t.ops.Basis.btrans
  and m0_rec = rec_total t in
  let finish status =
    t.solving <- false;
    t.last_status <- status;
    if Metrics.enabled () then begin
      let d c0 c1 = float_of_int (c1 - c0) in
      Metrics.incr m_solves;
      Metrics.incr ~by:(d m0_iters t.iters) m_iterations;
      Metrics.incr ~by:(d m0_flips t.st.s_flips) m_bound_flips;
      Metrics.incr ~by:(d m0_ftrans t.ops.Basis.ftrans) m_ftrans;
      Metrics.incr ~by:(d m0_btrans t.ops.Basis.btrans) m_btrans;
      Metrics.incr ~by:(d m0_rec (rec_total t)) m_recoveries
    end;
    status
  in
  let run () =
    (* rows appended since the last solve extended the live
       factorisation; give the solve the same starting hygiene a
       refactorisation provides: exact basic values. The live factorisation is
       kept unless its trail has grown heavier than the LU itself, in
       which case rebuilding now is cheaper than dragging the trail
       through the whole re-solve. *)
    if t.xb_stale then begin
      t.xb_stale <- false;
      if trail_heavy t then refactor t else recompute_xb t
    end;
    let s = drive t in
    if s = Status.Optimal then validate_solution t;
    s
  in
  let guard f =
    match f () with
    | v -> Ok v
    | exception e -> (
      match recoverable e with
      | Some reason -> Error reason
      | None ->
        t.solving <- false;
        raise e)
  in
  (* The ladder: each numerical failure consumes the next stage, then the
     whole solve is retried. Stages that themselves fail numerically are
     skipped. An empty (or exhausted) ladder is a hard failure. *)
  let rec attempt stages =
    match guard run with
    | Ok s -> s
    | Error _ -> escalate stages
  and escalate = function
    | [] -> Status.Numerical_failure
    | stage :: rest -> (
      match guard (fun () -> apply_stage t stage) with
      | Ok () -> attempt rest
      | Error _ -> escalate rest)
  in
  let status =
    if Trace.enabled () then
      Trace.span "simplex.solve" (fun () -> attempt t.p.recovery)
    else attempt t.p.recovery
  in
  finish status

let set_time_limit t seconds = t.time_budget <- seconds

(* ------------------------------------------------------------------ *)
(* Warm-basis snapshots                                                *)
(* ------------------------------------------------------------------ *)

type warm_basis = {
  wb_nvars : int;
  wb_nrows : int;
  wb_basic : int array;
  wb_nonbasic : string;
}

type basis_mismatch = {
  bm_expected_vars : int;
  bm_expected_rows : int;
  bm_got_vars : int;
  bm_got_rows : int;
  bm_reason : string;
}

let pp_basis_mismatch fmt bm =
  Format.fprintf fmt "basis mismatch: %s (engine %dx%d, snapshot %dx%d)"
    bm.bm_reason bm.bm_expected_rows bm.bm_expected_vars bm.bm_got_rows
    bm.bm_got_vars

let warm_basis t =
  let total = t.n + t.m in
  let statuses = Bytes.create total in
  for j = 0 to total - 1 do
    Bytes.set statuses j
      (match t.vstat.(j) with
      | Basic _ -> 'b'
      | At_lower -> 'l'
      | At_upper -> 'u'
      | Free_zero -> 'f')
  done;
  {
    wb_nvars = t.n;
    wb_nrows = t.m;
    wb_basic = Array.sub t.basic 0 t.m;
    wb_nonbasic = Bytes.unsafe_to_string statuses;
  }

(* The always-valid cold start: every auxiliary variable basic in its
   own row (B = -I), structurals at their [initial_vstat] bound. This is
   exactly the basis [of_problem] builds, so reinstalling it after a failed
   warm install returns the engine to a known-good cold state. *)
let install_slack_basis t =
  for j = 0 to t.n - 1 do
    t.vstat.(j) <- initial_vstat t.lo.(j) t.up.(j)
  done;
  for i = 0 to t.m - 1 do
    t.basic.(i) <- t.n + i;
    t.vstat.(t.n + i) <- Basic i
  done;
  refactor t

let install_warm_basis t wb =
  let mismatch reason =
    Error
      {
        bm_expected_vars = t.n;
        bm_expected_rows = t.m;
        bm_got_vars = wb.wb_nvars;
        bm_got_rows = wb.wb_nrows;
        bm_reason = reason;
      }
  in
  let total = t.n + t.m in
  if wb.wb_nvars <> t.n then mismatch "structural variable count differs"
  else if wb.wb_nrows <> t.m then mismatch "row count differs"
  else if Array.length wb.wb_basic <> t.m then
    mismatch "basic array length disagrees with row count"
  else if String.length wb.wb_nonbasic <> total then
    mismatch "status string length disagrees with variable count"
  else begin
    (* validate before mutating anything: indices in range, no duplicate
       basic variable, statuses consistent with the basic set *)
    let seen = Array.make total false in
    let bad = ref None in
    let fail reason = if !bad = None then bad := Some reason in
    Array.iter
      (fun b ->
        if b < 0 || b >= total then fail "basic variable index out of range"
        else if seen.(b) then fail "duplicate basic variable"
        else begin
          seen.(b) <- true;
          if wb.wb_nonbasic.[b] <> 'b' then
            fail "basic variable not marked basic in status string"
        end)
      wb.wb_basic;
    String.iteri
      (fun j c ->
        match c with
        | 'b' -> if not seen.(j) then fail "stray basic status marker"
        | 'l' | 'u' | 'f' -> ()
        | _ -> fail "unknown status marker")
      wb.wb_nonbasic;
    match !bad with
    | Some reason -> mismatch reason
    | None ->
      for j = 0 to total - 1 do
        t.vstat.(j) <-
          (match wb.wb_nonbasic.[j] with
          | 'l' when t.lo.(j) > neg_infinity -> At_lower
          | 'u' when t.up.(j) < infinity -> At_upper
          | 'l' | 'u' ->
            (* the bound this status rested on is no longer finite (an ECO
               edit relaxed it): coerce to a valid nonbasic state *)
            initial_vstat t.lo.(j) t.up.(j)
          | 'f' -> Free_zero
          | _ -> Free_zero (* 'b': overwritten below *))
      done;
      Array.iteri
        (fun r b ->
          t.basic.(r) <- b;
          t.vstat.(b) <- Basic r)
        wb.wb_basic;
      t.last_status <- Status.Iteration_limit;
      (* factorise now, so the next solve starts from the installed basis.
         A singular warm basis is the snapshot's fault, not the engine's —
         reinstall the all-slack basis and report the mismatch. *)
      (match refactor t with
      | () -> Ok ()
      | exception e -> (
        match recoverable e with
        | Some reason ->
          install_slack_basis t;
          mismatch (Printf.sprintf "warm basis not factorisable: %s" reason)
        | None -> raise e))
  end

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let primal t = Array.init t.n (fun j -> value t j)

let row_activity t = Array.init t.m (fun i -> value t (t.n + i))

let dual t =
  compute_y t;
  Array.sub t.y.v 0 t.m

let solution t =
  {
    Status.status = t.last_status;
    objective = objective t;
    primal = primal t;
    row_activity = row_activity t;
    dual = dual t;
    iterations = t.iters;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let stats t =
  {
    iterations = t.iters;
    bound_flips = t.st.s_flips;
    ftran_count = t.ops.Basis.ftrans;
    btran_count = t.ops.Basis.btrans;
    basis_updates = t.ops.Basis.updates;
    basis_extensions = t.ops.Basis.extensions;
    refactorisations = t.ops.Basis.factorisations;
    factor_nnz = t.ops.Basis.factor_nnz;
    basis_nnz = t.ops.Basis.basis_nnz;
    factor_dim = t.ops.Basis.factor_dim;
    kernel_dim = t.ops.Basis.kernel_dim;
    dual_seconds = t.st.s_dual_secs;
    recoveries =
      {
        refactor_retries = t.st.s_rec_refactor;
        tolerance_escalations = t.st.s_rec_tol;
        perturbed_resolves = t.st.s_rec_perturb;
        faults_injected = t.st.s_injected;
        validations_rejected = t.st.s_rejected;
      };
  }

let zero_stats =
  {
    iterations = 0;
    bound_flips = 0;
    ftran_count = 0;
    btran_count = 0;
    basis_updates = 0;
    basis_extensions = 0;
    refactorisations = 0;
    factor_nnz = 0;
    basis_nnz = 0;
    factor_dim = 0;
    kernel_dim = 0;
    dual_seconds = 0.0;
    recoveries = no_recoveries;
  }

let merge_recoveries a b =
  {
    refactor_retries = a.refactor_retries + b.refactor_retries;
    tolerance_escalations = a.tolerance_escalations + b.tolerance_escalations;
    perturbed_resolves = a.perturbed_resolves + b.perturbed_resolves;
    faults_injected = a.faults_injected + b.faults_injected;
    validations_rejected = a.validations_rejected + b.validations_rejected;
  }

let merge_stats a b =
  {
    iterations = a.iterations + b.iterations;
    bound_flips = a.bound_flips + b.bound_flips;
    ftran_count = a.ftran_count + b.ftran_count;
    btran_count = a.btran_count + b.btran_count;
    basis_updates = a.basis_updates + b.basis_updates;
    basis_extensions = a.basis_extensions + b.basis_extensions;
    refactorisations = a.refactorisations + b.refactorisations;
    factor_nnz = a.factor_nnz + b.factor_nnz;
    basis_nnz = a.basis_nnz + b.basis_nnz;
    factor_dim = a.factor_dim + b.factor_dim;
    kernel_dim = a.kernel_dim + b.kernel_dim;
    dual_seconds = a.dual_seconds +. b.dual_seconds;
    recoveries = merge_recoveries a.recoveries b.recoveries;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>iterations: %d, bound flips: %d@,\
     ftran/btran: %d/%d, basis updates: %d, \
     extensions: %d, refactorisations: %d@,\
     LU fill: %.2f (%d LU / %d basis nonzeros)@,\
     time: dual %.3fms"
    s.iterations s.bound_flips s.ftran_count
    s.btran_count s.basis_updates
    s.basis_extensions s.refactorisations
    (float_of_int s.factor_nnz /. float_of_int (max 1 s.basis_nnz))
    s.factor_nnz s.basis_nnz
    (s.dual_seconds *. 1e3);
  let r = s.recoveries in
  Format.fprintf fmt
    "@,recoveries: %d refactor, %d tolerance, %d perturb; faults injected: \
     %d, validations rejected: %d"
    r.refactor_retries r.tolerance_escalations r.perturbed_resolves
    r.faults_injected r.validations_rejected;
  Format.fprintf fmt "@]"
