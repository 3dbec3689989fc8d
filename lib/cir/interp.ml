(** Reference interpreter for cir modules (functions over buffers).

    This is the semantic ground truth for the CPU lowering: the test suite
    compares it against both the LoSPN interpreter above it and the Lir VM
    below it.  It is also reused by the GPU simulator, which executes one
    GPU-kernel body per thread through this evaluator. *)

open Spnc_mlir

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type buffer = { data : float array; rows : int; cols : int }

type value =
  | F of float
  | I of int
  | B of bool
  | V of float array  (** vector of floats *)
  | BV of bool array  (** vector of predicates *)
  | Buf of buffer

let as_f = function F f -> f | I i -> float_of_int i | _ -> fail "expected float"
let as_i = function I i -> i | F f -> int_of_float f | _ -> fail "expected int"
let as_b = function B b -> b | _ -> fail "expected bool"
let as_v = function V v -> v | F f -> [| f |] | _ -> fail "expected vector"
let as_buf = function Buf b -> b | _ -> fail "expected buffer"

type ctx = {
  funcs : (string, Ir.op) Hashtbl.t;
  values : (int, value) Hashtbl.t;
}

let lookup ctx (v : Ir.value) =
  match Hashtbl.find_opt ctx.values v.Ir.vid with
  | Some x -> x
  | None -> fail "undefined value %%%d" v.Ir.vid

let set ctx (v : Ir.value) x = Hashtbl.replace ctx.values v.Ir.vid x

let is_vector_ty (t : Types.t) = match t with Types.Vector _ -> true | _ -> false

let lift2 f a b =
  match (a, b) with
  | V x, V y -> V (Array.mapi (fun i v -> f v y.(i)) x)
  | V x, F y -> V (Array.map (fun v -> f v y) x)
  | F x, V y -> V (Array.map (fun v -> f x v) y)
  | a, b -> F (f (as_f a) (as_f b))

let lift1 f = function V x -> V (Array.map f x) | a -> F (f (as_f a))

let cmp_fn pred : float -> float -> bool =
  match pred with
  | "olt" -> fun a b -> a < b
  | "ole" -> fun a b -> a <= b
  | "ogt" -> fun a b -> a > b
  | "oge" -> fun a b -> a >= b
  | "oeq" -> fun a b -> a = b
  | "one" -> fun a b -> a <> b && not (Float.is_nan a || Float.is_nan b)
  | "uno" -> fun a b -> Float.is_nan a || Float.is_nan b
  | p -> fail "unknown cmpf predicate %S" p

let rec exec_block ctx (ops : Ir.op list) : unit = List.iter (exec_op ctx) ops

and exec_op ctx (op : Ir.op) : unit =
  let r () = Ir.result op in
  let o n = lookup ctx (Ir.operand_n op n) in
  match op.Ir.name with
  | "arith.constant" -> (
      let res = r () in
      match (Ir.attr op "value", res.Ir.vty) with
      | Some (Attr.Float f), Types.Vector (w, _) -> set ctx res (V (Array.make w f))
      | Some (Attr.Float f), _ -> set ctx res (F f)
      | Some (Attr.Int i), Types.Index | Some (Attr.Int i), Types.Int _ ->
          set ctx res (I i)
      | Some (Attr.Int i), Types.Vector (w, _) ->
          set ctx res (V (Array.make w (float_of_int i)))
      | Some (Attr.Int i), _ -> set ctx res (F (float_of_int i))
      | _ -> fail "bad arith.constant")
  | "arith.addf" -> set ctx (r ()) (lift2 ( +. ) (o 0) (o 1))
  | "arith.subf" -> set ctx (r ()) (lift2 ( -. ) (o 0) (o 1))
  | "arith.mulf" -> set ctx (r ()) (lift2 ( *. ) (o 0) (o 1))
  | "arith.divf" -> set ctx (r ()) (lift2 ( /. ) (o 0) (o 1))
  | "arith.maxf" -> set ctx (r ()) (lift2 Float.max (o 0) (o 1))
  | "arith.minf" -> set ctx (r ()) (lift2 Float.min (o 0) (o 1))
  | "arith.andi" -> (
      match (o 0, o 1) with
      | BV x, BV y -> set ctx (r ()) (BV (Array.mapi (fun i v -> v && y.(i)) x))
      | a, b -> set ctx (r ()) (B (as_b a && as_b b)))
  | "arith.ori" -> (
      match (o 0, o 1) with
      | BV x, BV y -> set ctx (r ()) (BV (Array.mapi (fun i v -> v || y.(i)) x))
      | a, b -> set ctx (r ()) (B (as_b a || as_b b)))
  | "arith.addi" -> set ctx (r ()) (I (as_i (o 0) + as_i (o 1)))
  | "arith.muli" -> set ctx (r ()) (I (as_i (o 0) * as_i (o 1)))
  | "arith.fptosi" -> (
      match o 0 with
      | V x -> set ctx (r ()) (V (Array.map (fun f -> Float.of_int (int_of_float (Float.floor f))) x))
      | a -> set ctx (r ()) (I (int_of_float (Float.floor (as_f a)))))
  | "arith.sitofp" -> set ctx (r ()) (F (float_of_int (as_i (o 0))))
  | "arith.cmpf" -> (
      let pred = Option.value ~default:"olt" (Ir.string_attr op "predicate") in
      let f = cmp_fn pred in
      match (o 0, o 1) with
      | V x, V y -> set ctx (r ()) (BV (Array.mapi (fun i v -> f v y.(i)) x))
      | V x, b -> let bf = as_f b in set ctx (r ()) (BV (Array.map (fun v -> f v bf) x))
      | a, V y -> let af = as_f a in set ctx (r ()) (BV (Array.map (fun v -> f af v) y))
      | a, b -> set ctx (r ()) (B (f (as_f a) (as_f b))))
  | "arith.cmpi" ->
      let pred = Option.value ~default:"slt" (Ir.string_attr op "predicate") in
      let a = as_i (o 0) and bb = as_i (o 1) in
      let res =
        match pred with
        | "slt" -> a < bb
        | "sle" -> a <= bb
        | "seq" -> a = bb
        | "sge" -> a >= bb
        | "sgt" -> a > bb
        | p -> fail "unknown cmpi predicate %S" p
      in
      set ctx (r ()) (B res)
  | "arith.select" -> (
      match (o 0, o 1, o 2) with
      | B c, t, f -> set ctx (r ()) (if c then t else f)
      | BV c, t, f ->
          let tv = as_v t and fv = as_v f in
          set ctx (r ()) (V (Array.mapi (fun i b -> if b then tv.(i) else fv.(i)) c))
      | _ -> fail "bad select condition")
  | "math.log" -> set ctx (r ()) (lift1 log (o 0))
  | "math.exp" -> set ctx (r ()) (lift1 exp (o 0))
  | "math.log1p" -> set ctx (r ()) (lift1 Float.log1p (o 0))
  | "memref.load" ->
      let buf = as_buf (o 0) in
      let idx = as_i (o 1) in
      if idx < 0 || idx >= Array.length buf.data then
        fail "memref.load out of bounds: %d / %d" idx (Array.length buf.data);
      set ctx (r ()) (F buf.data.(idx))
  | "memref.store" ->
      let buf = as_buf (o 0) in
      let idx = as_i (o 1) in
      if idx < 0 || idx >= Array.length buf.data then
        fail "memref.store out of bounds: %d / %d" idx (Array.length buf.data);
      buf.data.(idx) <- as_f (o 2)
  | "memref.dim" ->
      let buf = as_buf (o 0) in
      let which = Option.value ~default:0 (Ir.int_attr op "index") in
      set ctx (r ()) (I (if which = 0 then buf.rows else buf.cols))
  | "memref.alloc" -> (
      (* size from operand 0 (rows) times static cols from result type *)
      let rows = as_i (o 0) in
      let res = r () in
      match res.Ir.vty with
      | Types.MemRef (dims, _) ->
          let cols =
            List.fold_left
              (fun acc d -> match d with Some n -> acc * n | None -> acc)
              1 dims
          in
          set ctx res (Buf { data = Array.make (rows * cols) 0.0; rows; cols })
      | _ -> fail "memref.alloc: result not a memref")
  | "memref.dealloc" -> ()
  | "memref.copy" ->
      let src = as_buf (o 0) and dst = as_buf (o 1) in
      Array.blit src.data 0 dst.data 0 (Array.length src.data)
  | "memref.global_table" -> (
      match Ir.dense_attr op "values" with
      | Some values ->
          set ctx (r ())
            (Buf { data = values; rows = Array.length values; cols = 1 })
      | None -> fail "global_table without values")
  | "scf.for" ->
      let lb = as_i (o 0) and ub = as_i (o 1) and step = as_i (o 2) in
      if step <= 0 then fail "scf.for with non-positive step";
      let blk = Option.get (Ir.entry_block op) in
      let iv = List.hd blk.Ir.bargs in
      let i = ref lb in
      while !i < ub do
        set ctx iv (I !i);
        exec_block ctx
          (List.filter (fun (op : Ir.op) -> op.Ir.name <> "scf.yield") blk.Ir.bops);
        i := !i + step
      done
  | "scf.if" ->
      if as_b (o 0) then begin
        let blk = Option.get (Ir.entry_block op) in
        exec_block ctx
          (List.filter (fun (op : Ir.op) -> op.Ir.name <> "scf.yield") blk.Ir.bops)
      end
  | "scf.yield" -> ()
  | "vector.load" ->
      let buf = as_buf (o 0) in
      let base = as_i (o 1) in
      let w = match (r ()).Ir.vty with Types.Vector (w, _) -> w | _ -> 1 in
      if base < 0 || base + w > Array.length buf.data then
        fail "vector.load out of bounds";
      set ctx (r ()) (V (Array.sub buf.data base w))
  | "vector.store" ->
      let buf = as_buf (o 0) in
      let base = as_i (o 1) in
      let v = as_v (o 2) in
      if base < 0 || base + Array.length v > Array.length buf.data then
        fail "vector.store out of bounds";
      Array.blit v 0 buf.data base (Array.length v)
  | "vector.gather" | "vector.shuffled_load" ->
      let buf = as_buf (o 0) in
      let base = as_i (o 1) in
      let stride = Option.value ~default:1 (Ir.int_attr op "stride") in
      let w = match (r ()).Ir.vty with Types.Vector (w, _) -> w | _ -> 1 in
      set ctx (r ())
        (V
           (Array.init w (fun i ->
                let idx = base + (i * stride) in
                if idx < 0 || idx >= Array.length buf.data then
                  fail "%s out of bounds: %d" op.Ir.name idx
                else buf.data.(idx))))
  | "vector.gather_indexed" ->
      let buf = as_buf (o 0) in
      let idx = as_v (o 1) in
      set ctx (r ())
        (V
           (Array.map
              (fun i ->
                let k = int_of_float i in
                if k < 0 || k >= Array.length buf.data then
                  fail "gather_indexed out of bounds: %d" k
                else buf.data.(k))
              idx))
  | "vector.extract" ->
      let v = as_v (o 0) in
      let lane = Option.value ~default:0 (Ir.int_attr op "lane") in
      set ctx (r ()) (F v.(lane))
  | "vector.insert" ->
      let s = as_f (o 0) in
      let v = Array.copy (as_v (o 1)) in
      let lane = Option.value ~default:0 (Ir.int_attr op "lane") in
      v.(lane) <- s;
      set ctx (r ()) (V v)
  | "vector.broadcast" ->
      let w = match (r ()).Ir.vty with Types.Vector (w, _) -> w | _ -> 1 in
      set ctx (r ()) (V (Array.make w (as_f (o 0))))
  | "func.call" -> (
      let callee = Option.get (Ir.string_attr op "callee") in
      match Hashtbl.find_opt ctx.funcs callee with
      | Some f -> call_func ctx f (List.map (lookup ctx) op.Ir.operands)
      | None -> fail "unknown function %S" callee)
  | "func.return" -> ()
  | other -> fail "cir interp: unsupported op %s" other

and call_func ctx (f : Ir.op) (args : value list) : unit =
  let blk = Option.get (Ir.entry_block f) in
  if List.length blk.Ir.bargs <> List.length args then
    fail "function %s arity mismatch"
      (Option.value ~default:"?" (Ir.string_attr f "sym_name"));
  List.iter2 (fun (barg : Ir.value) v -> set ctx barg v) blk.Ir.bargs args;
  exec_block ctx blk.Ir.bops

(** [run_module m ~entry ~args] executes function [entry] of module [m].
    Buffers in [args] are shared with the caller (outputs are visible). *)
let run_module (m : Ir.modul) ~entry ~(args : value list) : unit =
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = Ops.func then
        match Ir.string_attr op "sym_name" with
        | Some name -> Hashtbl.replace funcs name op
        | None -> ())
    m.Ir.mops;
  let ctx = { funcs; values = Hashtbl.create 1024 } in
  match Hashtbl.find_opt funcs entry with
  | Some f -> call_func ctx f args
  | None -> fail "entry function %S not found" entry
