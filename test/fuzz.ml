(* Byte-string generators for decoder fuzzing, shared by the JSON and
   serve-protocol suites: arbitrary bytes, and near-valid inputs made
   by a few byte edits of a valid one. *)

open QCheck.Gen

(* One edit: replace, insert or delete a byte, or cut the string short. *)
let edit s =
  let n = String.length s in
  if n = 0 then map (String.make 1) char
  else
    int_bound (n - 1) >>= fun i ->
    char >>= fun c ->
    oneofl
      [
        String.mapi (fun j d -> if i = j then c else d) s;
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1);
        String.sub s 0 i;
      ]

(* A string from [valid] after one to four edits. *)
let mutated valid =
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  valid >>= fun s -> int_range 1 4 >>= fun k -> go k s

let bytes = string_size ~gen:char (int_bound 60)

(* Arbitrary bytes one time in four, near-valid inputs otherwise. *)
let inputs valid = frequency [ (1, bytes); (3, mutated valid) ]

let arbitrary valid = QCheck.make ~print:(Printf.sprintf "%S") (inputs valid)
