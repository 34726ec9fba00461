(* B^-1 = G_k ... G_1 (diag(LU, I))^-1 where each G is either an eta
   transformation from a pivot (r, w) — identity except for column r,
   with E[r][r] = 1/w_r and E[i][r] = -w_i / w_r — or a border extension
   from an appended row: for B' = [[B, 0]; [bc^T, -1]] the inverse is
   [[B^-1, 0]; [bc^T B^-1, -1]], i.e. G computes v_bd <- bc . v - v_bd
   after the inner operators have been applied to the head. *)

type counters = {
  mutable ftrans : int;
  mutable btrans : int;
  mutable updates : int;
  mutable factorisations : int;
  mutable extensions : int;
}

let fresh_counters () =
  {
    ftrans = 0;
    btrans = 0;
    updates = 0;
    factorisations = 0;
    extensions = 0;
  }

exception Zero_pivot of { row : int; magnitude : float }

type op =
  | Eta of { r : int; wr : float; nz_idx : int array; nz_val : float array }
      (* off-pivot nonzeros of the pivot column (index <> r) *)
  | Border of { bd : int; bc : Sparse.t }
      (* appended row [bd]; [bc] is the new row over basis positions < bd *)

type t = {
  mutable lu : Lu.t;
  mutable trail : op list;  (* newest first *)
  mutable count : int;  (* etas in the trail *)
  mutable extra : int;  (* borders in the trail *)
  mutable tnnz : int;  (* nonzeros stored across the trail *)
  ops : counters;
}

let create ?counters ?pivot_tol cols =
  let ops = match counters with Some c -> c | None -> fresh_counters () in
  ops.factorisations <- ops.factorisations + 1;
  {
    lu = Lu.factor ?pivot_tol cols;
    trail = [];
    count = 0;
    extra = 0;
    tnnz = 0;
    ops;
  }

let dim t = Lu.dim t.lu + t.extra

let eta_count t = t.count

let trail_nnz t = t.tnnz

let lu_nnz t = Lu.nnz t.lu

(* (G v), oldest operator already applied to v. *)
let apply_forward v op =
  match op with
  | Eta e ->
      let vr = v.(e.r) /. e.wr in
      if v.(e.r) <> 0.0 then
        for i = 0 to Array.length e.nz_idx - 1 do
          let j = e.nz_idx.(i) in
          v.(j) <- v.(j) -. (e.nz_val.(i) *. vr)
        done;
      v.(e.r) <- vr
  | Border b -> v.(b.bd) <- Sparse.dot_dense b.bc v -. v.(b.bd)

(* (G^T c): eta adjoints touch only component r; border adjoints negate
   the border component and scatter it into the head. *)
let apply_adjoint v op =
  match op with
  | Eta e ->
      let s = ref 0.0 in
      for i = 0 to Array.length e.nz_idx - 1 do
        s := !s +. (e.nz_val.(i) *. v.(e.nz_idx.(i)))
      done;
      v.(e.r) <- (v.(e.r) -. !s) /. e.wr
  | Border b ->
      let vd = v.(b.bd) in
      v.(b.bd) <- -.vd;
      if vd <> 0.0 then Sparse.add_scaled_into v vd b.bc

(* Extend an LU-dimension solution to full dimension, filling the border
   tail from [tail_of]. *)
let widen t sol tail_of =
  let n = Lu.dim t.lu in
  let d = n + t.extra in
  if d = n then sol
  else begin
    let full = Array.make d 0.0 in
    Array.blit sol 0 full 0 n;
    for i = n to d - 1 do
      full.(i) <- tail_of i
    done;
    full
  end

let ftran t b =
  t.ops.ftrans <- t.ops.ftrans + 1;
  let n = Lu.dim t.lu in
  let sol = Lu.solve t.lu (if t.extra = 0 then b else Array.sub b 0 n) in
  let v = widen t sol (fun i -> b.(i)) in
  List.iter (apply_forward v) (List.rev t.trail);
  v

let ftran_sparse t sp =
  t.ops.ftrans <- t.ops.ftrans + 1;
  let n = Lu.dim t.lu in
  let b = Array.make n 0.0 in
  Sparse.iter (fun i x -> if i < n then b.(i) <- x) sp;
  let v = widen t (Lu.solve t.lu b) (fun _ -> 0.0) in
  if t.extra > 0 then Sparse.iter (fun i x -> if i >= n then v.(i) <- x) sp;
  List.iter (apply_forward v) (List.rev t.trail);
  v

let btran t c =
  t.ops.btrans <- t.ops.btrans + 1;
  let v = Array.copy c in
  (* adjoints newest first *)
  List.iter (apply_adjoint v) t.trail;
  let n = Lu.dim t.lu in
  let sol =
    Lu.solve_transpose t.lu (if t.extra = 0 then v else Array.sub v 0 n)
  in
  widen t sol (fun i -> v.(i))

let btran_unit t r =
  let c = Array.make (dim t) 0.0 in
  c.(r) <- 1.0;
  btran t c

let update ?(tol = 1e-12) t r w =
  if abs_float w.(r) < tol then
    raise (Zero_pivot { row = r; magnitude = abs_float w.(r) });
  t.ops.updates <- t.ops.updates + 1;
  let nz = ref 0 in
  Array.iteri (fun i x -> if i <> r && x <> 0.0 then incr nz) w;
  let nz_idx = Array.make !nz 0 and nz_val = Array.make !nz 0.0 in
  let p = ref 0 in
  Array.iteri
    (fun i x ->
      if i <> r && x <> 0.0 then begin
        nz_idx.(!p) <- i;
        nz_val.(!p) <- x;
        incr p
      end)
    w;
  t.trail <- Eta { r; wr = w.(r); nz_idx; nz_val } :: t.trail;
  t.count <- t.count + 1;
  t.tnnz <- t.tnnz + !nz + 1

let append_row t bc =
  if Sparse.max_index bc >= dim t then
    invalid_arg "Basis.append_row: row index out of range";
  t.ops.extensions <- t.ops.extensions + 1;
  t.trail <- Border { bd = dim t; bc } :: t.trail;
  t.extra <- t.extra + 1;
  t.tnnz <- t.tnnz + Sparse.nnz bc + 1
