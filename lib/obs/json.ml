type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of int * string

let int n = Num (float_of_int n)

(* Arrays and objects nest at most this deep. No output of ours comes
   near it, and a deeper input (a line of nothing but "[") costs time
   superlinear in its depth: minutes for a line of 8 MiB. *)
let max_depth = 512

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let lit w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" w)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  (* UTF-8 encode one codepoint (no surrogate-pair recombination) *)
  let add_codepoint buf c =
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> incr pos; Buffer.add_char buf '"'
        | '\\' -> incr pos; Buffer.add_char buf '\\'
        | '/' -> incr pos; Buffer.add_char buf '/'
        | 'b' -> incr pos; Buffer.add_char buf '\b'
        | 'f' -> incr pos; Buffer.add_char buf '\012'
        | 'n' -> incr pos; Buffer.add_char buf '\n'
        | 'r' -> incr pos; Buffer.add_char buf '\r'
        | 't' -> incr pos; Buffer.add_char buf '\t'
        | 'u' ->
          incr pos;
          add_codepoint buf (hex4 ())
        | c -> fail (Printf.sprintf "bad escape \\%C" c));
        loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        incr pos;
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let depth = ref 0 in
  let nested f =
    if !depth >= max_depth then fail "nested too deep";
    incr depth;
    let v = f () in
    decr depth;
    v
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> nested obj
    | Some '[' -> nested arr
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let members = ref [] in
      let rec loop () =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        members := (k, v) :: !members;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          loop ()
        | Some '}' -> incr pos
        | _ -> fail "expected ',' or '}'"
      in
      loop ();
      Obj (List.rev !members)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let elems = ref [] in
      let rec loop () =
        let v = value () in
        elems := v :: !elems;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          loop ()
        | Some ']' -> incr pos
        | _ -> fail "expected ',' or ']'"
      in
      loop ();
      Arr (List.rev !elems)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data after value";
  v

let parse_exn s =
  match parse_exn s with
  | v -> v
  | exception Error (p, msg) ->
    failwith (Printf.sprintf "JSON parse error at byte %d: %s" p msg)

let parse s =
  match parse_exn s with v -> Ok v | exception Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* the bytes a JSON string cannot hold raw: controls, quote, backslash *)
let needs_escape c = c < ' ' || c = '"' || c = '\\'

let escape_into buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* The C formatter behind [Printf.sprintf "%.17g"], called without the
   format interpreter: the same bytes for a finite float, for less. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral values below 1e15 print as "%.0f" would: every such float
   is an exact OCaml int, and -0 keeps its sign. Everything else prints
   with 17 significant digits, enough to read back the same float. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && abs_float f < 1e15 then
    if f = 0.0 && Float.sign_bit f then "-0"
    else string_of_int (int_of_float f)
  else format_float "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\": ";
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let num = function Num f -> Some f | _ -> None

let str = function Str s -> Some s | _ -> None

let arr = function Arr vs -> Some vs | _ -> None

let obj = function Obj kvs -> Some kvs | _ -> None
