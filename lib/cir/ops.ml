(** The mid-level dialect mix ("cir") standing in for MLIR's Standard,
    Math, SCF, MemRef and Vector dialects (paper §IV-B/§IV-C): the result
    of the target lowerings, below LoSPN and above the LLVM-like backend
    IR.

    Naming follows MLIR: [arith.*] scalar/vector arithmetic, [math.*]
    elementary functions, [scf.for] structured loops, [memref.*] buffers,
    [vector.*] SIMD, [func.*] functions/calls.

    Simplifications (documented in DESIGN.md §4):
    - memory accesses use a single pre-computed linear index (the address
      arithmetic is explicit [arith.muli]/[arith.addi] ops, as it would be
      after lowering memref descriptors);
    - [vector.gather] takes a base index and a constant stride — the only
      gather pattern SPN kernels need;
    - [vector.shuffled_load] stands for the loads+shuffles replacement of
      a gather (§IV-B); the amortized instruction counts it represents are
      carried as attributes for the cost model. *)

open Spnc_mlir

(* arith *)
let constant = "arith.constant"
let addf = "arith.addf"
let subf = "arith.subf"
let mulf = "arith.mulf"
let divf = "arith.divf"
let maxf = "arith.maxf"
let minf = "arith.minf"
let cmpf = "arith.cmpf"  (* predicate attr: "olt","ole","oeq","oge","uno" *)
let cmpi = "arith.cmpi"  (* predicate attr: "slt","sle","seq","sge" *)
let select = "arith.select"
let addi = "arith.addi"
let muli = "arith.muli"
let fptosi = "arith.fptosi"
let sitofp = "arith.sitofp"
let andi = "arith.andi"  (* i1 conjunction (scalar or vector) *)
let ori = "arith.ori"

(* math *)
let log_ = "math.log"
let exp_ = "math.exp"
let log1p = "math.log1p"

(* scf *)
let for_ = "scf.for"
let if_ = "scf.if"  (* operand: i1 condition; single then-region, no results *)
let yield = "scf.yield"

(* memref *)
let load = "memref.load"
let store = "memref.store"
let alloc = "memref.alloc"
let dealloc = "memref.dealloc"
let copy = "memref.copy"
let dim = "memref.dim"
let global_table = "memref.global_table"  (* values attr; constant lookup table *)

(* vector *)
let vload = "vector.load"
let vstore = "vector.store"
let vgather = "vector.gather"
let vshuffled_load = "vector.shuffled_load"
let vgather_indexed = "vector.gather_indexed"
  (* operands: table buffer, index vector (floored floats); per-lane load *)
let vextract = "vector.extract"
let vinsert = "vector.insert"
let vbroadcast = "vector.broadcast"

(* func *)
let func = "func.func"
let call = "func.call"
let return_ = "func.return"

(* -- Builders -------------------------------------------------------------- *)

let const_f b v ~ty =
  Builder.op b constant ~results:[ ty ] ~attrs:[ ("value", Attr.Float v) ] ()

let const_i b v =
  Builder.op b constant ~results:[ Types.Index ] ~attrs:[ ("value", Attr.Int v) ] ()

let binary b name l r ~ty = Builder.op b name ~operands:[ l; r ] ~results:[ ty ] ()
let unary b name x ~ty = Builder.op b name ~operands:[ x ] ~results:[ ty ] ()

let cmp b pred l r ~ty =
  Builder.op b cmpf ~operands:[ l; r ] ~results:[ ty ]
    ~attrs:[ ("predicate", Attr.String pred) ]
    ()

let select_op b c t f ~ty = Builder.op b select ~operands:[ c; t; f ] ~results:[ ty ] ()

let load_op b buf idx ~ty = Builder.op b load ~operands:[ buf; idx ] ~results:[ ty ] ()
let store_op b buf idx v = Builder.op b store ~operands:[ buf; idx; v ] ()

let dim_op b buf ~index =
  Builder.op b dim ~operands:[ buf ] ~results:[ Types.Index ]
    ~attrs:[ ("index", Attr.Int index) ]
    ()

let global_table_op b ~values ~name =
  Builder.op b global_table
    ~results:[ Types.MemRef ([ Some (Array.length values) ], Types.F64) ]
    ~attrs:[ ("values", Attr.DenseF values); ("sym_name", Attr.String name) ]
    ()

let for_op b ~lb ~ub ~step ~body_block =
  Builder.op b for_ ~operands:[ lb; ub; step ]
    ~regions:[ Builder.region1 body_block ]
    ()

let if_op b ~cond ~then_block =
  Builder.op b if_ ~operands:[ cond ]
    ~regions:[ Builder.region1 then_block ]
    ()

let func_op b ~sym_name ~block =
  Builder.op b func
    ~attrs:
      [
        ("sym_name", Attr.String sym_name);
        ( "function_type",
          Attr.Type
            (Types.Func
               (List.map (fun (v : Ir.value) -> v.Ir.vty) block.Ir.bargs, [])) );
      ]
    ~regions:[ Builder.region1 block ]
    ()

let call_op b ~callee ~operands =
  Builder.op b call ~operands ~attrs:[ ("callee", Attr.String callee) ] ()

(* -- Dialect registration --------------------------------------------------- *)

open Dialect

let v_ok (_ : Ir.op) = Ok ()

let verify_binary (op : Ir.op) =
  let* () = expect_operands op 2 in
  expect_results op 1

let verify_unary (op : Ir.op) =
  let* () = expect_operands op 1 in
  expect_results op 1

let verify_for (op : Ir.op) =
  let* () = expect_operands op 3 in
  let* () = expect_regions op 1 in
  match Ir.entry_block op with
  | Some blk ->
      checkf (List.length blk.Ir.bargs = 1) "scf.for block takes the induction variable"
  | None -> Error "scf.for needs a region"

let verify_store (op : Ir.op) = expect_operands op 3

let register () =
  register_simple ~pure:true constant v_ok;
  List.iter
    (fun n -> register_simple ~pure:true n verify_binary)
    [ addf; subf; mulf; divf; maxf; minf; addi; muli; andi; ori ];
  register_simple ~pure:true cmpf verify_binary;
  register_simple ~pure:true cmpi verify_binary;
  List.iter (fun n -> register_simple ~pure:true n verify_unary)
    [ log_; exp_; log1p; fptosi; sitofp; vbroadcast ];
  register_simple ~pure:true select (fun op ->
      let* () = expect_operands op 3 in
      expect_results op 1);
  register_simple for_ verify_for;
  register_simple if_ (fun op ->
      let* () = expect_operands op 1 in
      expect_regions op 1);
  register_simple yield v_ok;
  register_simple ~pure:true load verify_binary;
  register_simple store verify_store;
  register_simple alloc v_ok;
  register_simple dealloc v_ok;
  register_simple copy v_ok;
  register_simple ~pure:true dim verify_unary;
  register_simple ~pure:true global_table v_ok;
  register_simple ~pure:true vload verify_binary;
  register_simple vstore verify_store;
  register_simple ~pure:true vgather v_ok;
  register_simple ~pure:true vshuffled_load v_ok;
  register_simple ~pure:true vgather_indexed verify_binary;
  register_simple ~pure:true vextract verify_unary;
  register_simple ~pure:true vinsert verify_binary;
  register_simple func v_ok;
  register_simple call v_ok;
  register_simple return_ v_ok

let () = register ()
