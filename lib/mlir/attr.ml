(** Attributes — compile-time constant information attached to operations.

    Mirrors the MLIR attribute kinds used by the SPNC dialects: integers,
    floats, strings, booleans, types, arrays, and dense float arrays (used
    for sum weights, histogram buckets and categorical probabilities). *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Type of Types.t
  | Array of t list
  | DenseF of float array  (** dense 1-D float payload, e.g. sum weights *)
  | Unit

let rec equal (a : t) (b : t) =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Type x, Type y -> Types.equal x y
  | Array x, Array y ->
      List.length x = List.length y && List.for_all2 equal x y
  | DenseF x, DenseF y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i v -> if not (Float.equal v y.(i)) then ok := false) x;
          !ok)
  | Unit, Unit -> true
  | _ -> false

(* Accessors: return [None] on kind mismatch so verifiers can produce
   proper diagnostics instead of exceptions. *)

let as_int = function Int i -> Some i | _ -> None
let as_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let as_string = function String s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_type = function Type t -> Some t | _ -> None
let as_array = function Array a -> Some a | _ -> None
let as_dense_f = function
  | DenseF a -> Some a
  | Array l ->
      let out = Array.make (List.length l) 0.0 in
      let ok = ref true in
      List.iteri
        (fun i x -> match as_float x with Some f -> out.(i) <- f | None -> ok := false)
        l;
      if !ok then Some out else None
  | _ -> None

(** Print a float the way MLIR does: always with a decimal point or
    exponent so it re-parses as a float. *)
let pp_float ppf f =
  if Float.is_nan f then Fmt.string ppf "nanf"
  else if f = Float.infinity then Fmt.string ppf "inf"
  else if f = Float.neg_infinity then Fmt.string ppf "ninf"
  else if Float.is_integer f && Float.abs f < 1e16 then Fmt.pf ppf "%.1f" f
  else Fmt.pf ppf "%.17g" f

let rec pp ppf = function
  | Int i -> Fmt.pf ppf "%d" i
  | Float f -> pp_float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.pf ppf "%b" b
  | Type t -> Types.pp ppf t
  | Array l -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") pp) l
  | DenseF a ->
      Fmt.pf ppf "dense<[%a]>"
        (Fmt.array ~sep:(Fmt.any ", ") pp_float)
        a
  | Unit -> Fmt.string ppf "unit"

let to_string a = Fmt.str "%a" pp a

(** Named attribute dictionaries, stored sorted by key for deterministic
    printing and structural comparison (needed by CSE). *)
module Dict = struct
  type attr = t
  type t = (string * attr) list

  let empty : t = []
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && sorted rest
    | _ -> true

  (* [List.sort] is stable, so a sorted list is its own result *)
  let of_list l : t =
    if sorted l then l else List.sort (fun (a, _) (b, _) -> String.compare a b) l

  (* [String.equal], not [List.assoc_opt]'s polymorphic comparison:
     every selected op and most lowered ones look an attribute up *)
  let rec find (d : t) key =
    match d with
    | (k, v) :: rest -> if String.equal k key then Some v else find rest key
    | [] -> None

  let mem (d : t) key = Option.is_some (find d key)

  let set (d : t) key v : t =
    of_list ((key, v) :: List.filter (fun (k, _) -> k <> key) d)

  let remove (d : t) key : t = List.filter (fun (k, _) -> k <> key) d

  let equal (a : t) (b : t) =
    List.length a = List.length b
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         a b

  let pp ppf (d : t) =
    if d <> [] then
      Fmt.pf ppf " {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s = %a" k pp v))
        d
end
