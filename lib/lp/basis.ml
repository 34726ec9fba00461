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
  mutable factor_nnz : int;
  mutable basis_nnz : int;
}

let fresh_counters () =
  {
    ftrans = 0;
    btrans = 0;
    updates = 0;
    factorisations = 0;
    extensions = 0;
    factor_nnz = 0;
    basis_nnz = 0;
  }

exception Zero_pivot of { row : int; magnitude : float }

type op =
  | Eta of { r : int; wr : float; nz_idx : int array; nz_val : float array }
      (* off-pivot nonzeros of the pivot column (index <> r) *)
  | Border of { bd : int; bc : Sparse.t }
      (* appended row [bd]; [bc] is the new row over basis positions < bd *)

type t = {
  mutable lu : Lu.t;
  mutable trail : op array;  (* oldest first; [len] entries are live *)
  mutable len : int;
  mutable count : int;  (* etas in the trail *)
  mutable extra : int;  (* borders in the trail *)
  mutable tnnz : int;  (* nonzeros stored across the trail *)
  mutable ws : float array;  (* all-zero between solves, length >= dim *)
  ops : counters;
}

let create ?counters ?pivot_tol cols =
  let ops = match counters with Some c -> c | None -> fresh_counters () in
  let lu = Lu.factor ?pivot_tol cols in
  ops.factorisations <- ops.factorisations + 1;
  ops.factor_nnz <- ops.factor_nnz + Lu.nnz lu;
  ops.basis_nnz <-
    ops.basis_nnz + Array.fold_left (fun acc c -> acc + Sparse.nnz c) 0 cols;
  {
    lu;
    trail = [||];
    len = 0;
    count = 0;
    extra = 0;
    tnnz = 0;
    ws = Array.make (Lu.dim lu) 0.0;
    ops;
  }

let push t op =
  if t.len = Array.length t.trail then begin
    let grown = Array.make (max 16 (2 * t.len)) op in
    Array.blit t.trail 0 grown 0 t.len;
    t.trail <- grown
  end;
  t.trail.(t.len) <- op;
  t.len <- t.len + 1

let dim t = Lu.dim t.lu + t.extra

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

(* The whole trail, oldest operator first. *)
let forward t v =
  for k = 0 to t.len - 1 do
    apply_forward v t.trail.(k)
  done

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

(* The zeroed workspace of length >= dim. The per-pivot solves build
   their right-hand sides in it rather than in fresh arrays, which at
   basis dimensions are allocated on the major heap. *)
let workspace t =
  if Array.length t.ws < dim t then t.ws <- Array.make (dim t) 0.0;
  t.ws

(* Lu.solve and Lu.solve_transpose read only the first [Lu.dim] entries,
   so the head of a full-dimension vector is passed as it is. *)
let ftran t b =
  t.ops.ftrans <- t.ops.ftrans + 1;
  let v = widen t (Lu.solve t.lu b) (fun i -> b.(i)) in
  forward t v;
  v

let ftran_sparse t sp =
  t.ops.ftrans <- t.ops.ftrans + 1;
  let n = Lu.dim t.lu in
  let b = workspace t in
  Sparse.iter (fun i x -> if i < n then b.(i) <- x) sp;
  let sol = Lu.solve t.lu b in
  Sparse.iter (fun i _ -> if i < n then b.(i) <- 0.0) sp;
  let v = widen t sol (fun _ -> 0.0) in
  if t.extra > 0 then Sparse.iter (fun i x -> if i >= n then v.(i) <- x) sp;
  forward t v;
  v

(* B^-T v for the right-hand side the caller placed in [workspace t]:
   adjoints newest first, then the transposed LU solve; leaves the
   workspace zeroed. *)
let btran_ws t =
  t.ops.btrans <- t.ops.btrans + 1;
  let v = t.ws in
  for k = t.len - 1 downto 0 do
    apply_adjoint v t.trail.(k)
  done;
  let x = widen t (Lu.solve_transpose t.lu v) (fun i -> v.(i)) in
  Array.fill v 0 (dim t) 0.0;
  x

let btran t c =
  Array.blit c 0 (workspace t) 0 (dim t);
  btran_ws t

let btran_unit t r =
  (workspace t).(r) <- 1.0;
  btran_ws t

let update ?(tol = 1e-12) t r w =
  if abs_float w.(r) < tol then
    raise (Zero_pivot { row = r; magnitude = abs_float w.(r) });
  t.ops.updates <- t.ops.updates + 1;
  let d = dim t in
  let nz = ref 0 in
  for i = 0 to d - 1 do
    if i <> r && w.(i) <> 0.0 then incr nz
  done;
  let nz_idx = Array.make !nz 0 and nz_val = Array.make !nz 0.0 in
  let p = ref 0 in
  for i = 0 to d - 1 do
    if i <> r && w.(i) <> 0.0 then begin
      nz_idx.(!p) <- i;
      nz_val.(!p) <- w.(i);
      incr p
    end
  done;
  push t (Eta { r; wr = w.(r); nz_idx; nz_val });
  t.count <- t.count + 1;
  t.tnnz <- t.tnnz + !nz + 1

let append_row t bc =
  if Sparse.max_index bc >= dim t then
    invalid_arg "Basis.append_row: row index out of range";
  t.ops.extensions <- t.ops.extensions + 1;
  push t (Border { bd = dim t; bc });
  t.extra <- t.extra + 1;
  t.tnnz <- t.tnnz + Sparse.nnz bc + 1
