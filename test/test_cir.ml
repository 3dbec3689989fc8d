(** Unit tests for the cir dialect interpreter — per-operation semantics
    of the Standard/Math/SCF/MemRef/Vector mix both target lowerings emit.
    These are the execution-engine ground truth, so each op kind gets a
    direct check. *)

open Spnc_mlir
module C = Spnc_cir.Ops
module I = Spnc_cir.Interp

let check = Alcotest.check
let tfloat = Alcotest.float 1e-12
let tbool = Alcotest.bool
let tint = Alcotest.int

(* Build a single-function module from a block body and execute it. *)
let run_func ~arg_tys ~args (body : Builder.t -> Ir.value list -> Ir.op list) =
  Spnc_cir.Ops.register ();
  let b = Builder.create () in
  let block = Builder.block b ~arg_tys (fun vs -> body b vs) in
  let f = C.func_op b ~sym_name:"t" ~block in
  let m = Builder.modul [ f ] in
  I.run_module m ~entry:"t" ~args

(* Common scaffold: one output buffer, write a computed scalar into it. *)
let compute_scalar (emit : Builder.t -> Ir.value -> Ir.op list * Ir.value) =
  let out = { I.data = Array.make 1 0.0; rows = 1; cols = 1 } in
  run_func ~arg_tys:[ Types.MemRef ([ Some 1 ], Types.F64) ]
    ~args:[ I.Buf out ]
    (fun b vs ->
      let buf = List.hd vs in
      let ops, result = emit b buf in
      let zero = C.const_i b 0 in
      ops @ [ zero; C.store_op b buf (Ir.result zero) result; Builder.op b C.return_ () ]);
  out.I.data.(0)

let test_arith_ops () =
  let v =
    compute_scalar (fun b _ ->
        let c2 = C.const_f b 2.0 ~ty:Types.F64 in
        let c3 = C.const_f b 3.0 ~ty:Types.F64 in
        let add = C.binary b C.addf (Ir.result c2) (Ir.result c3) ~ty:Types.F64 in
        let mul = C.binary b C.mulf (Ir.result add) (Ir.result c3) ~ty:Types.F64 in
        let sub = C.binary b C.subf (Ir.result mul) (Ir.result c2) ~ty:Types.F64 in
        let div = C.binary b C.divf (Ir.result sub) (Ir.result c2) ~ty:Types.F64 in
        ([ c2; c3; add; mul; sub; div ], Ir.result div))
  in
  (* ((2+3)*3 - 2) / 2 = 6.5 *)
  check tfloat "arith chain" 6.5 v

let test_minmax () =
  let v =
    compute_scalar (fun b _ ->
        let a = C.const_f b (-3.0) ~ty:Types.F64 in
        let c = C.const_f b 7.0 ~ty:Types.F64 in
        let mx = C.binary b C.maxf (Ir.result a) (Ir.result c) ~ty:Types.F64 in
        let mn = C.binary b C.minf (Ir.result a) (Ir.result c) ~ty:Types.F64 in
        let s = C.binary b C.addf (Ir.result mx) (Ir.result mn) ~ty:Types.F64 in
        ([ a; c; mx; mn; s ], Ir.result s))
  in
  check tfloat "max+min" 4.0 v

let test_math_fns () =
  let v =
    compute_scalar (fun b _ ->
        let x = C.const_f b 2.0 ~ty:Types.F64 in
        let l = C.unary b C.log_ (Ir.result x) ~ty:Types.F64 in
        let e = C.unary b C.exp_ (Ir.result l) ~ty:Types.F64 in
        ([ x; l; e ], Ir.result e))
  in
  check (Alcotest.float 1e-9) "exp(log 2) = 2" 2.0 v;
  let v =
    compute_scalar (fun b _ ->
        let x = C.const_f b 1e-8 ~ty:Types.F64 in
        let l = C.unary b C.log1p (Ir.result x) ~ty:Types.F64 in
        ([ x; l ], Ir.result l))
  in
  check tbool "log1p stable for tiny x" true (Float.abs (v -. 1e-8) < 1e-15)

let test_cmp_and_select () =
  let mk pred a bv expected () =
    let v =
      compute_scalar (fun b _ ->
          let x = C.const_f b a ~ty:Types.F64 in
          let y = C.const_f b bv ~ty:Types.F64 in
          let c = C.cmp b pred (Ir.result x) (Ir.result y) ~ty:Types.Bool in
          let t = C.const_f b 1.0 ~ty:Types.F64 in
          let f = C.const_f b 0.0 ~ty:Types.F64 in
          let s = C.select_op b (Ir.result c) (Ir.result t) (Ir.result f) ~ty:Types.F64 in
          ([ x; y; c; t; f; s ], Ir.result s))
    in
    check tfloat (Printf.sprintf "%s %g %g" pred a bv) expected v
  in
  mk "olt" 1.0 2.0 1.0 ();
  mk "olt" 2.0 1.0 0.0 ();
  mk "oge" 2.0 2.0 1.0 ();
  mk "oeq" 3.0 3.0 1.0 ();
  mk "one" 3.0 4.0 1.0 ();
  mk "uno" Float.nan 1.0 1.0 ();
  mk "uno" 1.0 1.0 0.0 ();
  (* comparisons with NaN are false for ordered predicates *)
  mk "olt" Float.nan 1.0 0.0 ();
  mk "oge" Float.nan 1.0 0.0 ()

let test_scf_for_sum () =
  (* sum 0..9 via loop accumulating into a buffer cell *)
  let out = { I.data = Array.make 1 0.0; rows = 1; cols = 1 } in
  run_func ~arg_tys:[ Types.MemRef ([ Some 1 ], Types.F64) ]
    ~args:[ I.Buf out ]
    (fun b vs ->
      let buf = List.hd vs in
      let zero = C.const_i b 0 in
      let ten = C.const_i b 10 in
      let one = C.const_i b 1 in
      let body =
        Builder.block b ~arg_tys:[ Types.Index ] (fun ivs ->
            let iv = List.hd ivs in
            let idx = C.const_i b 0 in
            let cur = C.load_op b buf (Ir.result idx) ~ty:Types.F64 in
            let ivf = C.unary b C.sitofp iv ~ty:Types.F64 in
            let add = C.binary b C.addf (Ir.result cur) (Ir.result ivf) ~ty:Types.F64 in
            [ idx; cur; ivf; add; C.store_op b buf (Ir.result idx) (Ir.result add);
              Builder.op b C.yield () ])
      in
      [ zero; ten; one;
        C.for_op b ~lb:(Ir.result zero) ~ub:(Ir.result ten) ~step:(Ir.result one)
          ~body_block:body;
        Builder.op b C.return_ () ]);
  check tfloat "loop sum" 45.0 out.I.data.(0)

let test_scf_if_real () =
  let run cond_val =
    let out = { I.data = Array.make 1 0.0; rows = 1; cols = 1 } in
    run_func ~arg_tys:[ Types.MemRef ([ Some 1 ], Types.F64) ]
      ~args:[ I.Buf out ]
      (fun b vs ->
        let buf = List.hd vs in
        let x = C.const_f b cond_val ~ty:Types.F64 in
        let zero = C.const_f b 0.0 ~ty:Types.F64 in
        let c = C.cmp b "ogt" (Ir.result x) (Ir.result zero) ~ty:Types.Bool in
        let then_block =
          Builder.block b ~arg_tys:[] (fun _ ->
              let idx = C.const_i b 0 in
              let v = C.const_f b 42.0 ~ty:Types.F64 in
              [ idx; v; C.store_op b buf (Ir.result idx) (Ir.result v);
                Builder.op b C.yield () ])
        in
        [ x; zero; c; C.if_op b ~cond:(Ir.result c) ~then_block;
          Builder.op b C.return_ () ]);
    out.I.data.(0)
  in
  check tfloat "taken branch" 42.0 (run 1.0);
  check tfloat "skipped branch" 0.0 (run (-1.0))

let test_global_table_and_lookup () =
  let v =
    compute_scalar (fun b _ ->
        let t = C.global_table_op b ~values:[| 0.25; 0.5; 0.75 |] ~name:"tbl" in
        let i = C.const_i b 2 in
        let l = C.load_op b (Ir.result t) (Ir.result i) ~ty:Types.F64 in
        ([ t; i; l ], Ir.result l))
  in
  check tfloat "table lookup" 0.75 v

let test_vector_ops () =
  (* vload + lanewise add + vstore *)
  let buf = { I.data = [| 1.0; 2.0; 3.0; 4.0; 0.0; 0.0; 0.0; 0.0 |]; rows = 8; cols = 1 } in
  run_func ~arg_tys:[ Types.MemRef ([ Some 8 ], Types.F64) ]
    ~args:[ I.Buf buf ]
    (fun b vs ->
      let m = List.hd vs in
      let zero = C.const_i b 0 in
      let four = C.const_i b 4 in
      let vt = Types.Vector (4, Types.F64) in
      let v = Builder.op b C.vload ~operands:[ m; Ir.result zero ] ~results:[ vt ] () in
      let s = Builder.op b C.vload ~operands:[ m; Ir.result zero ] ~results:[ vt ] () in
      let add = C.binary b C.addf (Ir.result v) (Ir.result s) ~ty:vt in
      [ zero; four; v; s; add;
        Builder.op b C.vstore ~operands:[ m; Ir.result four; Ir.result add ] ();
        Builder.op b C.return_ () ]);
  check tfloat "vstore lane 0" 2.0 buf.I.data.(4);
  check tfloat "vstore lane 3" 8.0 buf.I.data.(7)

let test_vector_gather_extract_insert () =
  let buf = { I.data = [| 10.; 11.; 20.; 21.; 30.; 31. |]; rows = 3; cols = 2 } in
  let out = { I.data = Array.make 3 0.0; rows = 3; cols = 1 } in
  run_func
    ~arg_tys:
      [ Types.MemRef ([ Some 3; Some 2 ], Types.F64);
        Types.MemRef ([ Some 3 ], Types.F64) ]
    ~args:[ I.Buf buf; I.Buf out ]
    (fun b vs ->
      let m = List.nth vs 0 and o = List.nth vs 1 in
      let one = C.const_i b 1 in
      let zero = C.const_i b 0 in
      let vt = Types.Vector (3, Types.F64) in
      (* gather column 1: base=1 stride=2 -> [11;21;31] *)
      let g =
        Builder.op b C.vgather ~operands:[ m; Ir.result one ] ~results:[ vt ]
          ~attrs:[ ("stride", Attr.Int 2) ] ()
      in
      (* extract lane 1, add 0.5, insert at lane 0 *)
      let e =
        Builder.op b C.vextract ~operands:[ Ir.result g ] ~results:[ Types.F64 ]
          ~attrs:[ ("lane", Attr.Int 1) ] ()
      in
      let h = C.const_f b 0.5 ~ty:Types.F64 in
      let a = C.binary b C.addf (Ir.result e) (Ir.result h) ~ty:Types.F64 in
      let ins =
        Builder.op b C.vinsert ~operands:[ Ir.result a; Ir.result g ]
          ~results:[ vt ] ~attrs:[ ("lane", Attr.Int 0) ] ()
      in
      [ one; zero; g; e; h; a; ins;
        Builder.op b C.vstore ~operands:[ o; Ir.result zero; Ir.result ins ] ();
        Builder.op b C.return_ () ]);
  check tfloat "inserted lane" 21.5 out.I.data.(0);
  check tfloat "gathered lane 1" 21.0 out.I.data.(1);
  check tfloat "gathered lane 2" 31.0 out.I.data.(2)

let test_out_of_bounds_traps () =
  match
    compute_scalar (fun b buf ->
        let i = C.const_i b 99 in
        let l = C.load_op b buf (Ir.result i) ~ty:Types.F64 in
        ([ i; l ], Ir.result l))
  with
  | exception I.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds load accepted"

let test_func_call () =
  Spnc_cir.Ops.register ();
  let b = Builder.create () in
  let buf_ty = Types.MemRef ([ Some 1 ], Types.F64) in
  (* callee writes 7.0 into its buffer argument *)
  let callee_block =
    Builder.block b ~arg_tys:[ buf_ty ] (fun vs ->
        let buf = List.hd vs in
        let i = C.const_i b 0 in
        let v = C.const_f b 7.0 ~ty:Types.F64 in
        [ i; v; C.store_op b buf (Ir.result i) (Ir.result v);
          Builder.op b C.return_ () ])
  in
  let callee = C.func_op b ~sym_name:"callee" ~block:callee_block in
  let main_block =
    Builder.block b ~arg_tys:[ buf_ty ] (fun vs ->
        [ C.call_op b ~callee:"callee" ~operands:[ List.hd vs ];
          Builder.op b C.return_ () ])
  in
  let main = C.func_op b ~sym_name:"main" ~block:main_block in
  let out = { I.data = Array.make 1 0.0; rows = 1; cols = 1 } in
  I.run_module (Builder.modul [ callee; main ]) ~entry:"main" ~args:[ I.Buf out ];
  check tfloat "call writes through" 7.0 out.I.data.(0)

let test_memref_dim_and_alloc () =
  let out = { I.data = Array.make 1 0.0; rows = 5; cols = 1 } in
  run_func ~arg_tys:[ Types.MemRef ([ None; Some 1 ], Types.F64) ]
    ~args:[ I.Buf { out with I.data = Array.make 5 0.0 } ]
    (fun b vs ->
      let m = List.hd vs in
      let d = C.dim_op b m ~index:0 in
      (* alloc a rows x 2 scratch and store dim into out[0] via sitofp *)
      let a =
        Builder.op b C.alloc ~operands:[ Ir.result d ]
          ~results:[ Types.MemRef ([ None; Some 2 ], Types.F64) ] ()
      in
      let zero = C.const_i b 0 in
      let f = C.unary b C.sitofp (Ir.result d) ~ty:Types.F64 in
      [ d; a; zero; f; C.store_op b m (Ir.result zero) (Ir.result f);
        Builder.op b C.dealloc ~operands:[ Ir.result a ] ();
        Builder.op b C.return_ () ])

let suite =
  [
    Alcotest.test_case "arith chain" `Quick test_arith_ops;
    Alcotest.test_case "min/max" `Quick test_minmax;
    Alcotest.test_case "math fns" `Quick test_math_fns;
    Alcotest.test_case "cmp + select" `Quick test_cmp_and_select;
    Alcotest.test_case "scf.for sum" `Quick test_scf_for_sum;
    Alcotest.test_case "scf.if branches" `Quick test_scf_if_real;
    Alcotest.test_case "global table" `Quick test_global_table_and_lookup;
    Alcotest.test_case "vector load/add/store" `Quick test_vector_ops;
    Alcotest.test_case "gather/extract/insert" `Quick test_vector_gather_extract_insert;
    Alcotest.test_case "oob trap" `Quick test_out_of_bounds_traps;
    Alcotest.test_case "func call" `Quick test_func_call;
    Alcotest.test_case "dim + alloc" `Quick test_memref_dim_and_alloc;
  ]
