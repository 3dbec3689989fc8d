(** Dialect registry.

    A dialect contributes, per operation name: a verifier and an optional
    constant folder.  This is the OCaml equivalent of MLIR's
    [OpTrait]/[OpInterface] registration; dialects register themselves at
    module-initialization time (each dialect library calls {!register}). *)

type op_info = {
  op_name : string;
  verify : Ir.op -> (unit, string) result;
      (** structural checks beyond generic SSA well-formedness *)
  fold : (Ir.op -> (int, Attr.t) Hashtbl.t -> Attr.t option) option;
      (** constant folder: given the op and a map from operand value id to
          known-constant attribute, return the folded constant for the
          single result, if any *)
  canon : (Builder.t -> Ir.op -> (Ir.op list * Ir.value list) option) option;
      (** canonicalization pattern: return replacement ops plus the values
          the original results should be rewritten to *)
  pure : bool;
      (** no side effects; eligible for CSE and dead-code elimination *)
}

(* keyed by op name: every pass looks ops up here, so the table compares
   names with [String.equal] rather than the polymorphic equality *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let registry : op_info Names.t = Names.create 64

(** [register info] installs [info]; re-registration replaces silently so
    test suites can run registration code repeatedly. *)
let register (info : op_info) = Names.replace registry info.op_name info

let register_simple ?fold ?canon ?(pure = false) op_name verify =
  register { op_name; verify; fold; canon; pure }

let is_pure name =
  match Names.find_opt registry name with
  | Some i -> i.pure
  | None -> false

let lookup name = Names.find_opt registry name

(** [known_dialects ()] lists the dialect prefixes with registered ops. *)
let known_dialects () =
  Names.fold
    (fun name _ acc ->
      let d =
        match String.index_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> "builtin"
      in
      if List.mem d acc then acc else d :: acc)
    registry []
  |> List.sort String.compare

(* Small result-combinator helpers shared by dialect verifiers. *)

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let checkf cond fmt = Fmt.kstr (fun s -> check cond s) fmt

(** [expect_operands op n] checks the operand count. *)
let expect_operands (op : Ir.op) n =
  checkf
    (List.length op.operands = n)
    "%s: expected %d operands, got %d" op.name n (List.length op.operands)

let expect_results (op : Ir.op) n =
  checkf
    (List.length op.results = n)
    "%s: expected %d results, got %d" op.name n (List.length op.results)

let expect_min_operands (op : Ir.op) n =
  checkf
    (List.length op.operands >= n)
    "%s: expected at least %d operands, got %d" op.name n
    (List.length op.operands)

let expect_regions (op : Ir.op) n =
  checkf
    (List.length op.regions = n)
    "%s: expected %d regions, got %d" op.name n (List.length op.regions)

let expect_attr (op : Ir.op) key =
  match Ir.attr op key with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "%s: missing attribute %S" op.name key)

let expect_int_attr (op : Ir.op) key =
  let* a = expect_attr op key in
  match Attr.as_int a with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: attribute %S must be an integer" op.name key)

let expect_dense_attr (op : Ir.op) key =
  let* a = expect_attr op key in
  match Attr.as_dense_f a with
  | Some d -> Ok d
  | None ->
      Error (Printf.sprintf "%s: attribute %S must be a dense float array" op.name key)
