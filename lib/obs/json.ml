type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal representation that round-trips to the same double:
   re-parsing the output and serializing again is byte-stable, which the
   determinism guarantees (and the JSONL round-trip tests) rely on. *)
let float_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

(* Whether [s] from [i] on needs no escape. *)
let rec plain s i =
  i = String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1)

let escape w s =
  w "\"";
  if plain s 0 then w s
  else
    String.iter
      (fun c ->
        w
          (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
          | c -> String.make 1 c))
      s;
  w "\""

(* Pretty printing puts each element on its own line, indented two spaces
   per level; compact printing puts nothing between the separators. *)
let write ?(pretty = false) w v =
  let line n = if pretty then "\n" ^ String.make n ' ' else "" in
  let elements indent opening closing element xs =
    let inner = line (indent + 2) in
    w opening;
    List.iteri
      (fun i x ->
        if i > 0 then w ",";
        if pretty then w inner;
        element x)
      xs;
    if pretty then w (line indent);
    w closing
  in
  let rec value indent = function
    | Null -> w "null"
    | Bool b -> w (if b then "true" else "false")
    | Int i -> w (string_of_int i)
    | Float f -> w (float_string f)
    | String s -> escape w s
    | List [] -> w "[]"
    | Obj [] -> w "{}"
    | List xs -> elements indent "[" "]" (value (indent + 2)) xs
    | Obj fields ->
        elements indent "{" "}"
          (fun (k, v) ->
            escape w k;
            w (if pretty then ": " else ":");
            value (indent + 2) v)
          fields
  in
  value 0 v;
  if pretty then w "\n"

let to_string v =
  let buf = Buffer.create 256 in
  write (Buffer.add_string buf) v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                   in
                   (* Only BMP codepoints; encode as UTF-8. *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end;
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape %C" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if lit = "" then fail "expected a number";
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let to_list = function List xs -> Some xs | _ -> None
