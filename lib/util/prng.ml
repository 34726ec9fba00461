type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 (Steele, Lea, Flood 2014): a tiny, high-quality, reproducible
   generator whose whole state is one 64-bit word. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform float in [0,1) from the top 53 bits. *)
let unit_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound =
  assert (bound > 0.0);
  unit_float t *. bound

let float_range t lo hi =
  assert (lo < hi);
  lo +. (unit_float t *. (hi -. lo))

let int t bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
