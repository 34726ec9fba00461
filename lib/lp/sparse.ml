type t = { idx : int array; value : float array }

let empty = { idx = [||]; value = [||] }

let of_assoc pairs =
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) pairs in
  let merged =
    List.fold_left
      (fun acc (i, v) ->
        assert (i >= 0);
        match acc with
        | (j, w) :: rest when j = i -> (j, w +. v) :: rest
        | _ -> (i, v) :: acc)
      [] sorted
  in
  let nonzero = List.filter (fun (_, v) -> v <> 0.0) (List.rev merged) in
  let k = List.length nonzero in
  let idx = Array.make k 0 and value = Array.make k 0.0 in
  List.iteri
    (fun pos (i, v) ->
      idx.(pos) <- i;
      value.(pos) <- v)
    nonzero;
  { idx; value }

let append t entries =
  let k = Array.length t.idx in
  let extra = List.length entries in
  let idx = Array.make (k + extra) 0 and value = Array.make (k + extra) 0.0 in
  Array.blit t.idx 0 idx 0 k;
  Array.blit t.value 0 value 0 k;
  List.iteri
    (fun pos (i, v) ->
      let p = k + pos in
      assert (v <> 0.0);
      assert (if p = 0 then i >= 0 else i > idx.(p - 1));
      idx.(p) <- i;
      value.(p) <- v)
    entries;
  { idx; value }

let singleton i v =
  assert (i >= 0);
  if v = 0.0 then empty else { idx = [| i |]; value = [| v |] }

let of_dense dense =
  let k = ref 0 in
  Array.iter (fun v -> if v <> 0.0 then incr k) dense;
  let idx = Array.make !k 0 and value = Array.make !k 0.0 in
  let pos = ref 0 in
  Array.iteri
    (fun i v ->
      if v <> 0.0 then begin
        idx.(!pos) <- i;
        value.(!pos) <- v;
        incr pos
      end)
    dense;
  { idx; value }

let nnz t = Array.length t.idx

let iter f t =
  for i = 0 to Array.length t.idx - 1 do
    f t.idx.(i) t.value.(i)
  done

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.idx - 1 do
    acc := f t.idx.(i) t.value.(i) !acc
  done;
  !acc

let dot_dense t dense =
  let acc = ref 0.0 in
  for i = 0 to Array.length t.idx - 1 do
    acc := !acc +. (t.value.(i) *. dense.(t.idx.(i)))
  done;
  !acc

let add_scaled_into dst k t =
  for i = 0 to Array.length t.idx - 1 do
    let j = t.idx.(i) in
    dst.(j) <- dst.(j) +. (k *. t.value.(i))
  done

let to_assoc t = fold (fun i v acc -> (i, v) :: acc) t [] |> List.rev

let max_index t =
  let k = Array.length t.idx in
  if k = 0 then -1 else t.idx.(k - 1)
