type t = { ulo : float; uhi : float; vlo : float; vhi : float }

(* [Stdlib.max]/[min] with the arguments typed float: the same results
   (NaN and signed zero included), but the comparison compiles to a float
   compare instead of a call to the polymorphic one. The router evaluates
   [distance] and [intersect] in its innermost loops. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

let make ~ulo ~uhi ~vlo ~vhi =
  assert (ulo <= uhi && vlo <= vhi);
  { ulo; uhi; vlo; vhi }

let of_point p =
  let u, v = Point.to_rotated p in
  { ulo = u; uhi = u; vlo = v; vhi = v }

let of_points points =
  match points with
  | [] -> invalid_arg "Trr.of_points: empty list"
  | first :: rest ->
    let u0, v0 = Point.to_rotated first in
    let box = ref { ulo = u0; uhi = u0; vlo = v0; vhi = v0 } in
    let extend p =
      let u, v = Point.to_rotated p in
      let b = !box in
      box :=
        { ulo = fmin b.ulo u; uhi = fmax b.uhi u;
          vlo = fmin b.vlo v; vhi = fmax b.vhi v }
    in
    List.iter extend rest;
    !box

let extents t = (t.uhi -. t.ulo, t.vhi -. t.vlo)

let is_point ?(eps = 1e-9) t =
  let eu, ev = extents t in
  eu <= eps && ev <= eps

let width t =
  let eu, ev = extents t in
  fmin eu ev

let center t = Point.of_rotated ((t.ulo +. t.uhi) /. 2.0) ((t.vlo +. t.vhi) /. 2.0)

let contains ?(eps = 1e-9) t p =
  let u, v = Point.to_rotated p in
  u >= t.ulo -. eps && u <= t.uhi +. eps && v >= t.vlo -. eps && v <= t.vhi +. eps

let subset ?(eps = 1e-9) a b =
  a.ulo >= b.ulo -. eps && a.uhi <= b.uhi +. eps
  && a.vlo >= b.vlo -. eps && a.vhi <= b.vhi +. eps

let equal ?(eps = 1e-9) a b = subset ~eps a b && subset ~eps b a

let intersect a b =
  let ulo = fmax a.ulo b.ulo and uhi = fmin a.uhi b.uhi in
  let vlo = fmax a.vlo b.vlo and vhi = fmin a.vhi b.vhi in
  if ulo <= uhi && vlo <= vhi then Some { ulo; uhi; vlo; vhi } else None

let intersect_all = function
  | [] -> invalid_arg "Trr.intersect_all: empty list"
  | first :: rest ->
    let step acc t =
      match acc with None -> None | Some acc -> intersect acc t
    in
    List.fold_left step (Some first) rest

let expand t r =
  assert (r >= 0.0);
  { ulo = t.ulo -. r; uhi = t.uhi +. r; vlo = t.vlo -. r; vhi = t.vhi +. r }

(* Distance between 1-D intervals; 0 when they overlap. *)
let interval_gap alo ahi blo bhi = fmax 0.0 (fmax (blo -. ahi) (alo -. bhi))

let distance a b =
  let gu = interval_gap a.ulo a.uhi b.ulo b.uhi in
  let gv = interval_gap a.vlo a.vhi b.vlo b.vhi in
  fmax gu gv

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let closest_point t p =
  let u, v = Point.to_rotated p in
  Point.of_rotated (clamp t.ulo t.uhi u) (clamp t.vlo t.vhi v)

let dist_to_point t p = Point.dist (closest_point t p) p

(* Per axis: if the intervals overlap, both points take the midpoint of the
   overlap; otherwise each takes its facing endpoint, realising the gap. *)
let closest_pair a b =
  let axis alo ahi blo bhi =
    let lo = fmax alo blo and hi = fmin ahi bhi in
    if lo <= hi then
      let m = (lo +. hi) /. 2.0 in
      (m, m)
    else if blo > ahi then (ahi, blo)
    else (alo, bhi)
  in
  let ua, ub = axis a.ulo a.uhi b.ulo b.uhi in
  let va, vb = axis a.vlo a.vhi b.vlo b.vhi in
  (Point.of_rotated ua va, Point.of_rotated ub vb)

let corners t =
  [ Point.of_rotated t.ulo t.vlo;
    Point.of_rotated t.ulo t.vhi;
    Point.of_rotated t.uhi t.vlo;
    Point.of_rotated t.uhi t.vhi ]

let sample rng t =
  let pick lo hi =
    if hi > lo then Lubt_util.Prng.float_range rng lo hi else lo
  in
  Point.of_rotated (pick t.ulo t.uhi) (pick t.vlo t.vhi)

let pp fmt t =
  Format.fprintf fmt "TRR[u:%g..%g v:%g..%g]" t.ulo t.uhi t.vlo t.vhi
