(* Described JSON objects: one field list both encodes and validates.

   A check fails with the path below the checked value and a message; each
   enclosing object or list prefixes its step, so a valid document builds
   no path strings. *)

type 'a ty = { enc : 'a -> Json.t; check : Json.t -> (unit, string * string) result }

(* A field's [ty] encodes from the object's value: [field] composes the
   projection in. *)
type 'a field = { name : string; ty : 'a ty }

type presence = Given | Iff of (Json.t -> bool)

type 'a entry =
  | One : 'a field -> 'a entry
  | Group : presence * ('a -> 'b option) * 'b field list -> 'a entry
  | Rule : (Json.t -> string option) -> 'a entry

type 'a t = 'a entry list

let fail fmt = Printf.ksprintf (fun msg -> Error ("", msg)) fmt

(* [step] is applied on failure only. *)
let under step = function Ok () -> Ok () | Error (path, msg) -> Error (step () ^ path, msg)

let each f = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ())

(* Types *)

let leaf what enc accepts =
  { enc; check = (fun j -> if accepts j then Ok () else fail "expected %s" what) }

(* [ty] narrowed by [bad], which says what is wrong with a well-typed
   value. *)
let refine ty bad =
  {
    ty with
    check =
      (fun j ->
        Result.bind (ty.check j) (fun () ->
            match bad j with Some msg -> fail "%s" msg | None -> Ok ()));
  }

let int = leaf "an integer" (fun n -> Json.Int n) (fun j -> Json.to_int j <> None)

let at_least lo =
  refine int (fun j ->
      match Json.to_int j with
      | Some n when n < lo -> Some (Printf.sprintf "must be at least %d (got %d)" lo n)
      | _ -> None)

let num = leaf "a number" (fun x -> Json.Float x) (fun j -> Json.to_float j <> None)

let str = leaf "a string" (fun s -> Json.String s) (function Json.String _ -> true | _ -> false)

let bool = leaf "a boolean" (fun b -> Json.Bool b) (function Json.Bool _ -> true | _ -> false)

let enum values =
  refine str (function
    | Json.String s when not (List.mem s values) ->
        Some (Printf.sprintf "unknown value %S (%s)" s (String.concat "|" values))
    | _ -> None)

let list ty =
  {
    enc = (fun xs -> Json.List (List.map ty.enc xs));
    check =
      (function
      | Json.List xs ->
          each
            (fun (i, x) -> under (fun () -> Printf.sprintf "[%d]" i) (ty.check x))
            (List.mapi (fun i x -> (i, x)) xs)
      | _ -> fail "expected a list");
  }

let map ty =
  {
    enc = (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, ty.enc v)) kvs));
    check =
      (function
      | Json.Obj kvs -> each (fun (k, x) -> under (fun () -> "." ^ k) (ty.check x)) kvs
      | _ -> fail "expected an object");
  }

(* Entries *)

let field name ty get = One { name; ty = { ty with enc = (fun v -> ty.enc (get v)) } }

let const name n =
  field name
    (refine int (fun j ->
         match Json.to_int j with
         | Some m when m <> n -> Some (Printf.sprintf "got %d, expected %d" m n)
         | _ -> None))
    (fun _ -> n)

let group presence project entries =
  let plain = function One f -> f | _ -> invalid_arg "Schema: a group holds plain fields" in
  Group (presence, project, List.map plain entries)

let some project entries = group Given project entries

let given p entries = some (fun v -> if p v then Some v else None) entries

let iff q entries = group (Iff q) Option.some entries

let opt name ty project = some project [ field name ty Fun.id ]

let rule r = Rule r

let int_at name o = Option.bind (Json.member name o) Json.to_int

let positive name o = match int_at name o with Some n -> n > 0 | None -> false

let list_at name o = match Json.member name o with Some (Json.List xs) -> xs | _ -> []

(* Walks *)

let encode t v =
  let add v acc f = (f.name, f.ty.enc v) :: acc in
  let fields =
    List.fold_left
      (fun acc -> function
        | One f -> add v acc f
        | Group (presence, project, fs) -> (
            let holds = match presence with Iff q -> q (Json.Obj (List.rev acc)) | Given -> true in
            match project v with Some b when holds -> List.fold_left (add b) acc fs | _ -> acc)
        | Rule _ -> acc)
      [] t
  in
  Json.Obj (List.rev fields)

let check t =
  let names = function
    | One f -> [ f.name ]
    | Group (_, _, fs) -> List.map (fun f -> f.name) fs
    | Rule _ -> []
  in
  let known = List.concat_map names t in
  function
  | Json.Obj kvs as j ->
      let check_field f =
        match List.assoc_opt f.name kvs with
        | Some x -> under (fun () -> "." ^ f.name) (f.ty.check x)
        | None -> fail "missing field %S" f.name
      in
      let entry = function
        | One f -> check_field f
        | Group (presence, _, fs) -> (
            let present, absent = List.partition (fun f -> List.mem_assoc f.name kvs) fs in
            match (presence, present, absent) with
            | Iff q, _, _ when q j -> each check_field fs
            | Iff _, f :: _, _ -> fail "%S present where its condition fails" f.name
            (* A given group is all there or all absent. *)
            | Given, f :: _, g :: _ -> fail "%S present without %S" f.name g.name
            | _ -> each check_field present)
        | Rule r -> ( match r j with Some msg -> fail "%s" msg | None -> Ok ())
      in
      Result.bind (each entry t) (fun () ->
          each (fun (k, _) -> if List.mem k known then Ok () else fail "unknown field %S" k) kvs)
  | _ -> fail "expected an object"

let obj t = { enc = encode t; check = check t }

let validate t ~path j =
  Result.map_error (fun (below, msg) -> Printf.sprintf "%s%s: %s" path below msg) (check t j)
