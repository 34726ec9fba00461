(* Request-scoped graceful degradation: certified EBF -> uncertified
   EBF -> reduced-round EBF -> BRBC heuristic. The service-level mirror
   of the in-solver recovery ladder of Simplex.solve: there a failing
   *factorisation* steps down through cheaper engines; here a failing
   (or deadline-starved) *solve* steps down through cheaper answers. *)

module Ebf = Lubt_core.Ebf
module Embed = Lubt_core.Embed
module Lubt = Lubt_core.Lubt
module Instance = Lubt_core.Instance
module Routed = Lubt_core.Routed
module Brbc = Lubt_bst.Brbc
module Clock = Lubt_obs.Clock
module Certify = Lubt_lp.Certify
module Status = Lubt_lp.Status
module Metrics = Lubt_obs.Metrics

(* which rung answered, as a labelled counter family: the service-level
   quality mix (how often requests degrade, and to where) in one scrape *)
let m_rung name =
  Metrics.counter ~help:"Ladder answers by winning rung"
    ~labels:[ ("rung", name) ]
    "lubt_ladder_answers_total"

let m_rung_certified = m_rung "certified"
let m_rung_uncertified = m_rung "uncertified"
let m_rung_reduced = m_rung "reduced"
let m_rung_heuristic = m_rung "heuristic"

type rung = Certified | Uncertified | Reduced | Heuristic

let rung_to_string = function
  | Certified -> "certified"
  | Uncertified -> "uncertified"
  | Reduced -> "reduced"
  | Heuristic -> "heuristic"

let count_rung rung =
  Metrics.incr
    (match rung with
    | Certified -> m_rung_certified
    | Uncertified -> m_rung_uncertified
    | Reduced -> m_rung_reduced
    | Heuristic -> m_rung_heuristic)

type outcome = {
  report : Lubt.report option;
  routed : Routed.t;
  rung : rung;
  degraded : bool;
  attempts : (rung * string) list;
  verified : bool;
}

type error =
  | Infeasible
  | Exhausted of (rung * string) list

let error_to_string = function
  | Infeasible -> "infeasible: no LUBT exists for this topology and bounds"
  | Exhausted attempts ->
    let b = Buffer.create 128 in
    Buffer.add_string b "every rung of the degradation ladder failed:";
    List.iter
      (fun (r, msg) ->
        Buffer.add_string b
          (Printf.sprintf "\n  %s: %s" (rung_to_string r) msg))
      attempts;
    Buffer.contents b

type options = {
  base : Ebf.options;
  deadline : float option;
  tweak : rung -> Ebf.options -> Ebf.options;
}

let default_options =
  { base = Ebf.default_options; deadline = None; tweak = (fun _ o -> o) }

(* [max_rounds] of the reduced rung *)
let reduced_rounds = 2

(* below this many remaining seconds an LP rung is skipped outright
   rather than started doomed *)
let min_lp_budget = 1e-3

(* BRBC epsilon of the heuristic rung *)
let epsilon = 1.0

(* The uniform acceptance check every rung's answer must pass before the
   ladder returns it: the independent geometric re-verification of the
   embedding (Embed.verify shares no state with placement). Delay-bound
   satisfaction is deliberately NOT required here — the whole point of
   the lower rungs is a feasible tree now over a bound-certified tree
   later; Routed.validate remains available to callers who care. *)
let verify_routed inst (r : Routed.t) =
  Embed.verify inst r.Routed.tree r.Routed.lengths
    { Embed.positions = r.Routed.positions; feasible_regions = [||] }

let heuristic inst =
  match inst.Instance.source with
  | None ->
    Error
      (Exhausted [ (Heuristic, "instance has no source (BRBC requires one)") ])
  | Some source ->
    let b = Brbc.route ~epsilon ~source inst.Instance.sinks in
    let routed = { b.Brbc.routed with Routed.instance = inst } in
    let verified =
      match verify_routed inst routed with Ok () -> true | Error _ -> false
    in
    count_rung Heuristic;
    Ok
      {
        report = None;
        routed;
        rung = Heuristic;
        degraded = true;
        attempts = [];
        verified;
      }

exception Ladder_infeasible

let solve opts inst tree =
  let attempts = ref [] in
  let fail rung msg = attempts := (rung, msg) :: !attempts in
  let remaining () =
    match opts.deadline with
    | None -> infinity
    | Some d -> d -. Clock.now ()
  in
  let top_rung =
    if opts.base.Ebf.check <> Certify.Off then Certified else Uncertified
  in
  let finish rung report routed =
    count_rung rung;
    let verified =
      match verify_routed inst routed with Ok () -> true | Error _ -> false
    in
    {
      report;
      routed;
      rung;
      degraded = rung <> top_rung;
      attempts = List.rev !attempts;
      verified;
    }
  in
  (* One full-quality EBF attempt (Lubt.solve: LP + placement + the
     configured certification). [frac] spends only part of the budget
     that is left, keeping the rest for the rungs below. *)
  let lp_rung rung ~check ~frac =
    let rem = remaining () in
    if rem < min_lp_budget then begin
      fail rung
        (Printf.sprintf "skipped: %.3gs of deadline budget left" rem);
      None
    end
    else begin
      let time_limit =
        Float.min opts.base.Ebf.time_limit
          (if rem = infinity then infinity else rem *. frac)
      in
      let options =
        opts.tweak rung { opts.base with Ebf.check; time_limit }
      in
      match Lubt.solve ~options inst tree with
      | Ok report -> Some (finish rung (Some report) report.Lubt.routed)
      | Error Lubt.No_solution -> raise Ladder_infeasible
      | Error e ->
        fail rung (Lubt.error_to_string e);
        None
    end
  in
  (* The reduced rung drives Ebf.solve directly: Lubt.solve (rightly)
     refuses to embed a non-Optimal solve, but lengths from an exhausted
     row generation are still usable whenever placement succeeds — the
     un-materialised Steiner rows they might violate are exactly what
     Embed.place's feasible-region intersection detects. *)
  let reduced_rung () =
    let rem = remaining () in
    if rem < min_lp_budget then begin
      fail Reduced
        (Printf.sprintf "skipped: %.3gs of deadline budget left" rem);
      None
    end
    else begin
      let time_limit =
        Float.min opts.base.Ebf.time_limit
          (if rem = infinity then infinity else rem *. 0.8)
      in
      let options =
        opts.tweak Reduced
          {
            opts.base with
            Ebf.check = Certify.Off;
            max_rounds = reduced_rounds;
            time_limit;
          }
      in
      let res = Ebf.solve ~options inst tree in
      match res.Ebf.status with
      | Status.Infeasible -> raise Ladder_infeasible
      | Status.Optimal | Status.Time_limit | Status.Iteration_limit -> (
        match Embed.place inst tree res.Ebf.lengths with
        | Ok emb ->
          let routed =
            {
              Routed.instance = inst;
              tree;
              lengths = res.Ebf.lengths;
              positions = emb.Embed.positions;
            }
          in
          (match verify_routed inst routed with
          | Ok () ->
            Some (finish Reduced (Some { Lubt.routed; ebf = res }) routed)
          | Error msg ->
            fail Reduced (Printf.sprintf "verification failed: %s" msg);
            None)
        | Error msg ->
          fail Reduced (Printf.sprintf "placement failed: %s" msg);
          None)
      | st ->
        fail Reduced
          (Printf.sprintf "reduced solve ended %s"
             (Status.to_string st));
        None
    end
  in
  (* The floor: a BRBC tree from scratch. Needs no LP, no deadline
     budget, and no topology — but it does need a source (the radius
     guarantee is source-relative), and it honours delay bounds only by
     accident. *)
  let heuristic_rung () =
    match heuristic inst with
    | Ok o -> Some { o with attempts = List.rev !attempts }
    | Error (Exhausted failed) ->
      List.iter (fun (r, msg) -> fail r msg) failed;
      None
    | Error Infeasible -> raise Ladder_infeasible
  in
  try
    let result =
      match
        if top_rung = Certified then
          lp_rung Certified ~check:opts.base.Ebf.check ~frac:0.5
        else None
      with
      | Some _ as r -> r
      | None -> (
        match lp_rung Uncertified ~check:Certify.Off ~frac:0.5 with
        | Some _ as r -> r
        | None -> (
          match reduced_rung () with
          | Some _ as r -> r
          | None -> heuristic_rung ()))
    in
    match result with
    | Some outcome -> Ok outcome
    | None -> Error (Exhausted (List.rev !attempts))
  with Ladder_infeasible -> Error Infeasible
