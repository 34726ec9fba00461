module Point = Lubt_geom.Point
module Trr = Lubt_geom.Trr
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Routed = Lubt_core.Routed
module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock
module Metrics = Lubt_obs.Metrics

let m_merge_evals =
  Metrics.counter ~help:"Baseline-router merge-cost evaluations"
    "lubt_bst_merge_evals_total"

(* [Stdlib.max]/[min] typed float: the same results, NaN and signed zero
   included, from a float compare instead of the polymorphic one. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

type result = {
  routed : Routed.t;
  topology : Tree.t;
  lengths : float array;
  cost : float;
  dmin : float;
  dmax : float;
}

(* A candidate is one partially-committed embedding of a cluster's subtree:
   a TRR of equivalent placements for the cluster root, the exact min/max
   sink delay below any of those placements (wire lengths are committed at
   merge time and elongation makes them exact from every region point), the
   wire spent so far, and backpointers for reconstruction. The spread
   tmax - tmin never exceeds the skew bound.

   With bound = 0 the only feasible wire split is the balance split and the
   regions are the classic zero-skew merging segments, so the router is
   exact ZST-DME; with a loose bound the beam also carries "attach" moves
   (one wire of length 0), which act like a nearest-region Steiner
   heuristic — the behaviour of [9]'s fat merging regions. *)
type candidate = {
  reg : Trr.t;
  tmin : float;
  tmax : float;
  cost : float;
  come_from : parentage;
}

and parentage =
  | Leaf
  | Join of {
      left : candidate;
      right : candidate;
      w_left : float;
      w_right : float;
    }

type options = {
  beam_width : int;
  estimation_candidates : int;  (* beam prefix used for merge-cost estimates *)
}

let default_options = { beam_width = 8; estimation_candidates = 3 }

let intersect_padded ra wa rb wb =
  match Trr.intersect (Trr.expand ra wa) (Trr.expand rb wb) with
  | Some r -> Some r
  | None -> (
    let pad = 1e-9 *. (1.0 +. wa +. wb) in
    Trr.intersect (Trr.expand ra (wa +. pad)) (Trr.expand rb (wb +. pad)))

(* Wire splits to try for joining candidates [ca], [cb] whose regions are
   [d] apart. x = w_a - w_b must stay within the skew-feasibility interval
   [xlo, xhi]; total wire is max(d, |x|). Besides the cheapest and the
   delay-balancing splits we try the two pure attach moves (w = 0 on one
   side), which cost nothing extra when the budget allows them and leave
   the join region equal to one child's whole region. *)
let wire_splits ~bound ca cb d =
  let xlo = if bound = infinity then neg_infinity else cb.tmax -. ca.tmin -. bound in
  let xhi = if bound = infinity then infinity else bound +. cb.tmin -. ca.tmax in
  if xlo > xhi +. 1e-9 then []
  else begin
    let clamp v = if v < xlo then xlo else if v > xhi then xhi else v in
    let of_x x =
      let s = fmax d (abs_float x) in
      ((s +. x) /. 2.0, (s -. x) /. 2.0)
    in
    let splits = ref [] in
    let add w = splits := w :: !splits in
    add (of_x (clamp 0.0));
    add (of_x (clamp (cb.tmax -. ca.tmax)));
    (* attach at a: w_a = 0, w_b >= d with -w_b feasible *)
    let wb_attach = fmax d (-.xhi) in
    if -.wb_attach >= xlo -. 1e-12 then add (0.0, wb_attach);
    let wa_attach = fmax d xlo in
    if wa_attach <= xhi +. 1e-12 then add (wa_attach, 0.0);
    !splits
  end

let join ~bound ca cb =
  let d = Trr.distance ca.reg cb.reg in
  List.filter_map
    (fun (w_left, w_right) ->
      match intersect_padded ca.reg w_left cb.reg w_right with
      | None -> None
      | Some reg ->
        Some
          {
            reg;
            tmin = fmin (ca.tmin +. w_left) (cb.tmin +. w_right);
            tmax = fmax (ca.tmax +. w_left) (cb.tmax +. w_right);
            cost = ca.cost +. cb.cost +. w_left +. w_right;
            come_from = Join { left = ca; right = cb; w_left; w_right };
          })
    (wire_splits ~bound ca cb d)

type cluster = {
  cands : candidate array;  (* sorted by cost *)
  box : Trr.t;
      (* rotated bounding box of the regions [merge_cost] reads: those of
         the first [estimation_candidates] candidates *)
}

let cluster ~opts cands =
  let n = min opts.estimation_candidates (Array.length cands) in
  let box = ref cands.(0).reg in
  for i = 1 to n - 1 do
    let b = !box and r = cands.(i).reg in
    box :=
      Trr.make ~ulo:(fmin b.Trr.ulo r.Trr.ulo) ~uhi:(fmax b.Trr.uhi r.Trr.uhi)
        ~vlo:(fmin b.Trr.vlo r.Trr.vlo) ~vhi:(fmax b.Trr.vhi r.Trr.vhi)
  done;
  { cands; box = !box }

let leaf_cluster ~opts p =
  cluster ~opts
    [| { reg = Trr.of_point p; tmin = 0.0; tmax = 0.0; cost = 0.0; come_from = Leaf } |]

(* Beam selection: the two cheapest candidates always survive; remaining
   slots prefer geometric spread (distinct region centres give later merges
   genuine attachment choices). *)
let select_beam ~beam_width pool =
  let sorted = Array.of_list pool in
  Array.stable_sort (fun c1 c2 -> compare c1.cost c2.cost) sorted;
  let n = Array.length sorted in
  let centres = Array.map (fun c -> Trr.center c.reg) sorted in
  let spread = ref 0.0 in
  for i = 1 to n - 1 do
    spread := fmax !spread (Point.dist centres.(0) centres.(i))
  done;
  let min_gap = !spread /. float_of_int (2 * beam_width) in
  (* indices into [sorted] of the kept candidates, in keeping order *)
  let kept = Array.make (max 2 beam_width) 0 and nk = ref (min 2 n) in
  kept.(1) <- 1;
  let keep gap i =
    if !nk < beam_width then begin
      let clash = ref false and k = ref 0 in
      while (not !clash) && !k < !nk do
        let j = kept.(!k) in
        clash :=
          Point.dist centres.(j) centres.(i) <= gap
          && abs_float (sorted.(j).tmax -. sorted.(i).tmax) <= 1e-9 +. (gap /. 2.0);
        incr k
      done;
      if not !clash then begin
        kept.(!nk) <- i;
        incr nk
      end
    end
  in
  for i = 0 to n - 1 do keep min_gap i done;
  for i = 0 to n - 1 do keep 1e-9 i done;
  let arr = Array.init !nk (fun k -> sorted.(kept.(k))) in
  Array.sort (fun c1 c2 -> compare c1.cost c2.cost) arr;
  arr

let merge_clusters ~opts ~bound a b =
  let pool = ref [] in
  Array.iter
    (fun ca -> Array.iter (fun cb -> pool := join ~bound ca cb @ !pool) b.cands)
    a.cands;
  match select_beam ~beam_width:opts.beam_width !pool with
  | [||] -> None
  | cands -> Some (cluster ~opts cands)

(* Cheapest incremental wire of a merge, estimated on a beam prefix (used
   by the nearest-neighbour topology selection). It is at least the gap
   between the two clusters' boxes: every split [wire_splits] returns has
   w_a + w_b >= d, the Trr.distance of the two regions, and the cost terms
   c.cost - cands.(0).cost are >= 0 because beams are sorted by cost. *)
let merge_cost ~opts ~bound a b =
  let best = ref infinity in
  let na = min opts.estimation_candidates (Array.length a.cands) in
  let nb = min opts.estimation_candidates (Array.length b.cands) in
  for i = 0 to na - 1 do
    for j = 0 to nb - 1 do
      let ca = a.cands.(i) and cb = b.cands.(j) in
      let d = Trr.distance ca.reg cb.reg in
      List.iter
        (fun (wl, wr) ->
          let inc = wl +. wr +. (ca.cost -. a.cands.(0).cost) +. (cb.cost -. b.cands.(0).cost) in
          if inc < !best then best := inc)
        (wire_splits ~bound ca cb d)
    done
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Main driver                                                         *)
(* ------------------------------------------------------------------ *)

(* Unbounded skew degenerates to rectilinear Steiner routing, for which the
   dedicated edge-based heuristic (reference [6] of the paper) beats the
   merge-based construction — exactly as [9] switches modes. *)
let route_unbounded ?source sinks =
  let b = Steiner.build ?source sinks in
  let inst = Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity () in
  let routed =
    {
      Routed.instance = inst;
      tree = b.Steiner.tree;
      lengths = b.Steiner.lengths;
      positions = b.Steiner.positions;
    }
  in
  let dmin, dmax = Routed.min_max_delay routed in
  {
    routed;
    topology = b.Steiner.tree;
    lengths = b.Steiner.lengths;
    cost = Routed.cost routed;
    dmin;
    dmax;
  }

(* [evals] counts the [merge_cost] calls. *)
let route_bounded ~opts ~evals ~bound ?source sinks =
  let m = Array.length sinks in
  let total_temp = (2 * m) - 1 in
  let clusters =
    Array.make total_temp (leaf_cluster ~opts (Point.make 0.0 0.0))
  in
  for i = 0 to m - 1 do
    clusters.(i) <- leaf_cluster ~opts sinks.(i)
  done;
  let kids = Array.make total_temp None in
  let alive = Array.make total_temp false in
  for i = 0 to m - 1 do
    alive.(i) <- true
  done;
  let next = ref m in
  (* nearest-partner cache with lazy invalidation *)
  let best = Array.make total_temp (infinity, -1) in
  (* Partner j is skipped when its box gap exceeds the best cost so far:
     [merge_cost] is at least that gap (see there), so j cannot win. The
     margin covers the rounding of (s + x)/2 + (s - x)/2, which can fall a
     few ulps below s >= d; the box gap itself never exceeds a real pair's
     d, because float subtraction is monotone. The scan stays ascending
     with a strict [<], so the first of equal minima still wins and the
     chosen partner is the one the unpruned scan picks. *)
  let recompute i =
    let ci = clusters.(i) in
    let bc = ref infinity and bp = ref (-1) in
    for j = 0 to !next - 1 do
      if j <> i && alive.(j) then begin
        let cj = clusters.(j) in
        let gap = Trr.distance ci.box cj.box in
        if not (gap > !bc +. (1e-9 *. (1.0 +. !bc))) then begin
          incr evals;
          let c = merge_cost ~opts ~bound ci cj in
          if c < !bc then begin
            bc := c;
            bp := j
          end
        end
      end
    done;
    best.(i) <- (!bc, !bp)
  in
  for i = 0 to m - 1 do
    if m > 1 then recompute i
  done;
  let remaining = ref m in
  while !remaining > 1 do
    let bi = ref (-1) and bc = ref infinity in
    for i = 0 to !next - 1 do
      if alive.(i) then begin
        let _, p = best.(i) in
        if p < 0 || not alive.(p) then recompute i;
        let c, _ = best.(i) in
        if c < !bc then begin
          bc := c;
          bi := i
        end
      end
    done;
    let a = !bi in
    let _, b = best.(a) in
    assert (a >= 0 && b >= 0 && alive.(a) && alive.(b));
    let merged =
      match merge_clusters ~opts ~bound clusters.(a) clusters.(b) with
      | Some c -> c
      | None -> assert false (* invariant: children spreads within bound *)
    in
    let id = !next in
    incr next;
    clusters.(id) <- merged;
    kids.(id) <- Some (a, b);
    alive.(a) <- false;
    alive.(b) <- false;
    alive.(id) <- true;
    remaining := !remaining - 1;
    if !remaining > 1 then recompute id
  done;
  let top = !next - 1 in
  (* renumber: sinks 0..m-1 -> 1..m; merge j -> j+1; without a source the
     top merge (always the last temp id) becomes the root *)
  let with_source = source <> None in
  let n = if with_source then total_temp + 1 else total_temp in
  let remap t = if (not with_source) && t = top then 0 else t + 1 in
  let parents = Array.make n (-1) in
  for j = m to !next - 1 do
    match kids.(j) with
    | None -> ()
    | Some (a, b) ->
      parents.(remap a) <- remap j;
      parents.(remap b) <- remap j
  done;
  (match source with Some _ -> parents.(remap top) <- 0 | None -> ());
  let sink_ids = Array.init m (fun i -> i + 1) in
  let topology = Tree.create ~parents ~sinks:sink_ids () in
  (* pick the root candidate (cheapest total wire including the source
     trunk, if any) *)
  let root_cand =
    match source with
    | None -> clusters.(top).cands.(0)
    | Some src ->
      Array.fold_left
        (fun acc c ->
          let total = c.cost +. Trr.dist_to_point c.reg src in
          match acc with
          | Some (bt, _) when bt <= total -> acc
          | _ -> Some (total, c))
        None clusters.(top).cands
      |> Option.get |> snd
  in
  let lengths = Array.make n 0.0 in
  let positions = Array.make n (Point.make 0.0 0.0) in
  (* top-down: realise each candidate region at the point nearest its
     placed parent (the committed wire length absorbs any slack) *)
  let rec unwind temp_id (cand : candidate) here =
    positions.(remap temp_id) <- here;
    match (kids.(temp_id), cand.come_from) with
    | None, Leaf -> ()
    | Some (a, b), Join { left; right; w_left; w_right } ->
      lengths.(remap a) <- w_left;
      lengths.(remap b) <- w_right;
      unwind a left (Trr.closest_point left.reg here);
      unwind b right (Trr.closest_point right.reg here)
    | Some _, Leaf | None, Join _ ->
      invalid_arg "Bst_dme: inconsistent candidate chain"
  in
  let root_here =
    match source with
    | Some src -> Trr.closest_point root_cand.reg src
    | None -> Trr.center root_cand.reg
  in
  unwind top root_cand root_here;
  (match source with
  | Some src ->
    positions.(0) <- src;
    lengths.(remap top) <- Point.dist src root_here
  | None -> ());
  let inst = Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity () in
  let routed = { Routed.instance = inst; tree = topology; lengths; positions } in
  let dmin, dmax = Routed.min_max_delay routed in
  let merged = { routed; topology; lengths; cost = Routed.cost routed; dmin; dmax } in
  (* a plain Steiner tree may happen to satisfy a generous finite bound
     and cost much less than any merge-based construction; [9]'s fat
     merging regions have the same effect for large bounds *)
  let steiner = route_unbounded ?source sinks in
  if steiner.dmax -. steiner.dmin <= bound && steiner.cost < merged.cost then
    steiner
  else merged

let route ?(options = default_options) ?(skew_bound = infinity) ?source sinks =
  let m = Array.length sinks in
  if m = 0 then invalid_arg "Bst_dme.route: no sinks";
  if m = 1 && source = None then
    invalid_arg "Bst_dme.route: a single sink needs a source";
  let t0 = if Trace.enabled () then Clock.now () else 0.0 in
  let evals = ref 0 in
  let r =
    if skew_bound = infinity then route_unbounded ?source sinks
    else
      route_bounded ~opts:options ~evals ~bound:(fmax 0.0 skew_bound) ?source
        sinks
  in
  Metrics.incr ~by:(float_of_int !evals) m_merge_evals;
  if Trace.enabled () then
    Trace.complete ~t0 "bst.route"
      ~args:[ ("sinks", Trace.Int m); ("merge_evals", Trace.Int !evals) ];
  r

let extract_instance r =
  let inst = r.routed.Routed.instance in
  let m = Instance.num_sinks inst in
  (* widen by a relative epsilon: region padding during the merge phase can
     make the measured delays undershoot the exact radius by a few 1e-9s,
     and the baseline's own solution must stay LP-feasible *)
  let eps = 1e-9 *. (1.0 +. r.dmax) in
  Instance.create ?source:inst.Instance.source ~sinks:inst.Instance.sinks
    ~lower:(Array.make m (fmax 0.0 (r.dmin -. eps)))
    ~upper:(Array.make m (r.dmax +. eps))
    ()
