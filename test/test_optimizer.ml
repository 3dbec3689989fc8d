(** Precise unit tests of the individual Lir optimizer passes on
    hand-assembled functions (the differential tests elsewhere check
    whole-pipeline equivalence; these pin down each pass's behaviour). *)

module Lir = Spnc_cpu.Lir
module Opt = Spnc_cpu.Optimizer

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let func body ~nf ~ni =
  {
    Lir.fname = "t";
    params = [ 0 ];
    body = Array.of_list body;
    nf;
    ni;
    nv = 0;
    nb = 1;
    vec_width = 1;
    prov = Lir.no_prov;
  }

let size f = Lir.func_size f

let count pred (f : Lir.func) = Lir.count_instrs ~filter:pred f.Lir.body

(* -- constant folding ------------------------------------------------------- *)

let test_constfold_folds () =
  let f =
    func ~nf:4 ~ni:1
      [
        Lir.ConstF (0, 2.0);
        Lir.ConstF (1, 3.0);
        Lir.FBin (Lir.FMul, 2, 0, 1);
        (* -> ConstF (2, 6.0) *)
        Lir.FBin (Lir.FAdd, 3, 2, 0);
        (* -> ConstF (3, 8.0) *)
        Lir.ConstI (0, 0);
        Lir.Store (0, 0, 3);
        Lir.Ret;
      ]
  in
  let f' = Opt.constfold f in
  let consts =
    count (fun i -> match i with Lir.ConstF _ -> true | _ -> false) f'
  in
  check tint "both binops folded" 4 consts;
  let has v =
    count (fun i -> match i with Lir.ConstF (_, x) -> x = v | _ -> false) f' > 0
  in
  check tbool "6.0 present" true (has 6.0);
  check tbool "8.0 present" true (has 8.0)

let test_constfold_stops_at_unknown () =
  let f =
    func ~nf:3 ~ni:1
      [
        Lir.ConstF (0, 2.0);
        Lir.Load (1, 0, 0);
        (* unknown *)
        Lir.FBin (Lir.FMul, 2, 0, 1);
        Lir.Ret;
      ]
  in
  let f' = Opt.constfold f in
  check tint "mul not folded" 1
    (count (fun i -> match i with Lir.FBin _ -> true | _ -> false) f')

(* -- CSE ---------------------------------------------------------------------- *)

let test_cse_dedups_and_rewrites_uses () =
  let f =
    func ~nf:5 ~ni:2
      [
        Lir.ConstF (0, 2.0);
        Lir.ConstF (1, 2.0);
        (* dup of r0 *)
        Lir.FBin (Lir.FAdd, 2, 0, 0);
        Lir.FBin (Lir.FAdd, 3, 1, 1);
        (* dup of r2 once r1 -> r0 *)
        Lir.FBin (Lir.FMul, 4, 2, 3);
        Lir.ConstI (0, 0);
        Lir.Store (0, 0, 4);
        Lir.Ret;
      ]
  in
  let f' = Opt.dce (Opt.cse f) in
  check tint "constants deduped" 1
    (count (fun i -> match i with Lir.ConstF _ -> true | _ -> false) f');
  check tint "adds deduped" 1
    (count (fun i -> match i with Lir.FBin (Lir.FAdd, _, _, _) -> true | _ -> false) f')

let test_cse_does_not_merge_loads () =
  let f =
    func ~nf:3 ~ni:1
      [
        Lir.ConstI (0, 0);
        Lir.Load (0, 0, 0);
        Lir.Store (0, 0, 0);
        (* intervening store *)
        Lir.Load (1, 0, 0);
        Lir.FBin (Lir.FAdd, 2, 0, 1);
        Lir.Store (0, 0, 2);
        Lir.Ret;
      ]
  in
  let f' = Opt.cse f in
  check tint "loads preserved" 2
    (count (fun i -> match i with Lir.Load _ -> true | _ -> false) f')

(* CSE merges two constants only when their bit patterns are equal or
   both are NaN: 0.0 and -0.0 stay apart. *)
let test_cse_float_rule () =
  let nan2 = Int64.float_of_bits 0x7FF0000000000001L in
  let values = [ 0.0; -0.0; 0.0; -0.0; Float.nan; nan2; 1.5; 1.5 ] in
  let n = List.length values in
  let f =
    {
      (func ~nf:n ~ni:1
         ((Lir.ConstI (0, 0) :: List.mapi (fun k v -> Lir.ConstF (k, v)) values)
         @ List.init n (fun k -> Lir.Store (0, 0, k))
         @ [ Lir.Ret ]))
      with
      nv = n;
    }
  in
  let vec =
    {
      f with
      body =
        Array.of_list
          ((Lir.ConstI (0, 0) :: List.mapi (fun k v -> Lir.VConst (k, v)) values)
          @ List.init n (fun k -> Lir.VStore (0, 0, k))
          @ [ Lir.Ret ]);
    }
  in
  let kept f =
    let out = ref [] in
    Array.iter
      (function
        | Lir.ConstF (_, v) | Lir.VConst (_, v) -> out := Int64.bits_of_float v :: !out
        | _ -> ())
      (Opt.cse f).Lir.body;
    List.rev !out
  in
  let expected = List.map Int64.bits_of_float [ 0.0; -0.0; Float.nan; 1.5 ] in
  check (Alcotest.list Alcotest.int64) "scalar constants kept" expected (kept f);
  check (Alcotest.list Alcotest.int64) "vector constants kept" expected (kept vec)

(* The function that exposed the ±0 merge: x / -0.0 after an unrelated
   use of 0.0.  Every level must store -inf on both engines. *)
let test_signed_zero_levels () =
  let f =
    func ~nf:5 ~ni:2
      [
        Lir.ConstI (0, 0);
        Lir.ConstI (1, 1);
        Lir.Load (0, 0, 0);
        (* x = 1.0 *)
        Lir.ConstF (1, 0.0);
        Lir.FBin (Lir.FAdd, 2, 0, 1);
        Lir.Store (0, 1, 2);
        Lir.ConstF (3, -0.0);
        Lir.FBin (Lir.FDiv, 4, 0, 3);
        Lir.Store (0, 0, 4);
        Lir.Ret;
      ]
  in
  List.iter
    (fun level ->
      let m = Opt.run level { Lir.funcs = [| f |]; entry = 0 } in
      List.iter
        (fun (engine, run) ->
          let buf = Spnc_cpu.Vm.buffer ~rows:2 ~cols:1 in
          buf.Spnc_cpu.Vm.data.(0) <- 1.0;
          run m ~buffers:[ buf ];
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s %s: 1 / -0" (Opt.level_to_string level) engine)
            Float.neg_infinity buf.Spnc_cpu.Vm.data.(0))
        [ ("vm", Spnc_cpu.Vm.run); ("jit", Spnc_cpu.Jit.run_once) ])
    [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ]

(* -- DCE ---------------------------------------------------------------------- *)

let test_dce_keeps_effects () =
  let f =
    func ~nf:3 ~ni:1
      [
        Lir.ConstF (0, 1.0);
        (* used *)
        Lir.ConstF (1, 2.0);
        (* dead *)
        Lir.FBin (Lir.FAdd, 2, 1, 1);
        (* dead chain *)
        Lir.ConstI (0, 0);
        Lir.Store (0, 0, 0);
        Lir.Ret;
      ]
  in
  let f' = Opt.dce f in
  check tint "dead chain removed" 4 (size f');
  check tint "store kept" 1
    (count (fun i -> match i with Lir.Store _ -> true | _ -> false) f')

(* The DCE's oracle: rounds of "mark every register any instruction
   reads, drop the pure instructions whose register is unmarked" until a
   round drops nothing.  Buffer registers count as read. *)
let reference_dce (f : Lir.func) : Lir.func =
  let skip (_ : Opt.rc) (_ : Lir.reg) = () in
  let rec round (body : Lir.instr array) =
    let used = Hashtbl.create 64 in
    let rec mark body =
      Array.iter
        (fun i ->
          Opt.iter_regs i ~def:skip ~use:(fun c r -> Hashtbl.replace used (c, r) ());
          match i with Lir.Loop l -> mark l.Lir.body | _ -> ())
        body
    in
    mark body;
    let dropped = ref false in
    let rec sweep body =
      Array.of_list
        (List.filter_map
           (fun i ->
             let dead = ref false in
             Opt.iter_regs i ~use:skip ~def:(fun c r ->
                 dead := c <> Opt.B && not (Hashtbl.mem used (c, r)));
             match i with
             | Lir.Loop l -> Some (Lir.Loop { l with body = sweep l.Lir.body })
             | _ when Opt.pure i && !dead ->
                 dropped := true;
                 None
             | _ -> Some i)
           (Array.to_list body))
    in
    let body' = sweep body in
    if !dropped then round body' else body'
  in
  { f with Lir.body = round f.Lir.body }

(* Registers carried around a loop: a pure cycle reads itself and
   survives, a dead chain goes whole, a two-register cycle survives, and
   a register with two pure definers goes with both once unread. *)
let test_dce_carried_loops () =
  let f =
    func ~nf:10 ~ni:3
      [
        Lir.ConstI (0, 0);
        Lir.ConstI (1, 8);
        Lir.ConstF (0, 1.0);
        Lir.ConstF (6, 0.5);
        Lir.Loop
          {
            Lir.iv = 2;
            lb = 0;
            ub = 1;
            step = 1;
            vector_width = 1;
            body =
              [|
                Lir.FBin (Lir.FAdd, 1, 1, 0);
                (* f1 = f1 + f0: reads itself *)
                Lir.FBin (Lir.FMul, 2, 0, 0);
                Lir.FBin (Lir.FAdd, 3, 2, 2);
                Lir.FBin (Lir.FSub, 4, 3, 2);
                (* f2 -> f3 -> f4: a dead chain *)
                Lir.FBin (Lir.FAdd, 5, 7, 0);
                Lir.FBin (Lir.FMul, 7, 5, 0);
                (* f5 <-> f7: carried across iterations *)
                Lir.ConstF (6, 0.25);
                (* f6's second definer, read by nothing *)
                Lir.FBin (Lir.FMul, 8, 0, 0);
                Lir.Store (0, 2, 8);
              |];
          };
        Lir.ConstF (9, 3.0);
        Lir.Ret;
      ]
  in
  let f' = Opt.dce f in
  let want = reference_dce f in
  check tbool "one use-count pass = rounds" true (compare f'.Lir.body want.Lir.body = 0);
  let defines r =
    count (fun i -> match i with Lir.FBin (_, d, _, _) | Lir.ConstF (d, _) -> d = r | _ -> false) f'
  in
  check tint "pure self-cycle survives" 1 (defines 1);
  check tint "dead chain goes" 0 (defines 2 + defines 3 + defines 4);
  check tint "two-register cycle survives" 2 (defines 5 + defines 7);
  check tint "unread two-definer register goes" 0 (defines 6);
  check tint "unread constant goes" 0 (defines 9);
  check tbool "nothing dead: the same function back" true (Opt.dce f' == f')

(* The same oracle on isel output: every kernel of a few models *)
let test_dce_matches_rounds_on_kernels () =
  let models =
    List.init 4 (fun seed ->
        Spnc_spn.Random_spn.generate (Spnc_data.Rng.create ~seed)
          Spnc_spn.Random_spn.default_config)
  in
  List.iter
    (fun model ->
      List.iter
        (fun vectorize ->
          let options =
            { Spnc.Options.default with vectorize; opt_level = Opt.O0;
              support_marginal = vectorize }
          in
          match (Spnc.Compiler.compile ~options model).Spnc.Compiler.artifact with
          | Spnc.Compiler.Cpu_kernel { lir; _ } ->
              Array.iter
                (fun f ->
                  let f = Opt.cse (Opt.constfold f) in
                  check tbool "one use-count pass = rounds" true
                    (compare (Opt.dce f).Lir.body (reference_dce f).Lir.body = 0))
                lir.Lir.funcs
          | Spnc.Compiler.Gpu_kernel _ -> Alcotest.fail "expected a CPU kernel")
        [ false; true ])
    models

(* -- LICM ---------------------------------------------------------------------- *)

let test_licm_hoists_invariants_only () =
  let loop_body =
    [|
      Lir.ConstF (0, 5.0);
      (* invariant: hoist *)
      Lir.ItoF (1, 2);
      (* depends on iv: stays *)
      Lir.FBin (Lir.FMul, 2, 0, 1);
      (* depends on 1: stays *)
      Lir.Store (0, 2, 2);
      (* effect: stays *)
    |]
  in
  let f =
    func ~nf:3 ~ni:3
      [
        Lir.ConstI (0, 0);
        Lir.Dim (1, 0);
        Lir.Loop { Lir.iv = 2; lb = 0; ub = 1; step = 1; body = loop_body; vector_width = 1 };
        Lir.Ret;
      ]
  in
  let f' = Opt.licm f in
  let in_loop pred =
    let n = ref 0 in
    Array.iter
      (fun i ->
        match i with
        | Lir.Loop l -> Array.iter (fun i -> if pred i then incr n) l.Lir.body
        | _ -> ())
      f'.Lir.body;
    !n
  in
  check tint "constant hoisted out" 0
    (in_loop (fun i -> match i with Lir.ConstF _ -> true | _ -> false));
  check tint "iv-dependent stays" 1
    (in_loop (fun i -> match i with Lir.ItoF _ -> true | _ -> false));
  check tint "store stays" 1
    (in_loop (fun i -> match i with Lir.Store _ -> true | _ -> false))

(* -- FMA fusion ----------------------------------------------------------------- *)

let test_fma_fuses_single_use_mul () =
  let f =
    func ~nf:6 ~ni:1
      [
        Lir.ConstF (0, 2.0);
        Lir.ConstF (1, 3.0);
        Lir.ConstF (2, 4.0);
        Lir.FBin (Lir.FMul, 3, 0, 1);
        Lir.FBin (Lir.FAdd, 4, 3, 2);
        Lir.ConstI (0, 0);
        Lir.Store (0, 0, 4);
        Lir.Ret;
      ]
  in
  let f' = Opt.fma f in
  check tint "fma created" 1
    (count (fun i -> match i with Lir.FBin3 _ -> true | _ -> false) f');
  check tint "mul+add gone" 0
    (count
       (fun i ->
         match i with Lir.FBin ((Lir.FMul | Lir.FAdd), _, _, _) -> true | _ -> false)
       f')

let test_fma_respects_multiple_uses () =
  (* the mul result is used twice: fusing would duplicate work *)
  let f =
    func ~nf:6 ~ni:1
      [
        Lir.ConstF (0, 2.0);
        Lir.ConstF (1, 3.0);
        Lir.FBin (Lir.FMul, 2, 0, 1);
        Lir.FBin (Lir.FAdd, 3, 2, 0);
        Lir.FBin (Lir.FAdd, 4, 2, 1);
        (* second use of r2 *)
        Lir.ConstI (0, 0);
        Lir.Store (0, 0, 3);
        Lir.Store (0, 0, 4);
        Lir.Ret;
      ]
  in
  let f' = Opt.fma f in
  check tint "no fma" 0
    (count (fun i -> match i with Lir.FBin3 _ -> true | _ -> false) f')

(* Per-register state is arrays sized by the function's register counts:
   a register beyond them raises instead of reading out of bounds. *)
let test_registers_beyond_counts_raise () =
  let f =
    func ~nf:1 ~ni:1
      [
        Lir.ConstI (0, 0);
        Lir.ConstF (3, 1.0);
        Lir.FBin (Lir.FAdd, 4, 3, 3);
        Lir.Store (0, 0, 4);
        Lir.Ret;
      ]
  in
  List.iter
    (fun (name, pass) ->
      check tbool name true
        (match pass f with _ -> false | exception Invalid_argument _ -> true))
    [
      ("constfold", Opt.constfold);
      ("cse", Opt.cse);
      ("dce", Opt.dce);
      ("licm", Opt.licm);
      ("fma", Opt.fma);
    ]

(* [run] goes pass by pass over every function, one [pass] span per
   pass, and gives what [run_func] gives on each function. *)
let test_run_spans_passes () =
  let module Trace = Spnc_obs.Trace in
  let f =
    func ~nf:4 ~ni:1
      [
        Lir.ConstI (0, 0);
        Lir.ConstF (0, 2.0);
        Lir.ConstF (1, 2.0);
        Lir.FBin (Lir.FMul, 2, 0, 1);
        Lir.FBin (Lir.FAdd, 3, 2, 0);
        Lir.Store (0, 0, 3);
        Lir.Ret;
      ]
  in
  let m = { Lir.funcs = [| f; { f with Lir.fname = "u" } |]; entry = 0 } in
  Trace.clear ();
  Trace.set_enabled true;
  let m' = Fun.protect ~finally:(fun () -> Trace.set_enabled false) (fun () -> Opt.run Opt.O3 m) in
  let spans =
    List.filter_map
      (fun (e : Trace.event) -> if e.Trace.cat = "pass" then Some e.Trace.name else None)
      (Trace.events ())
  in
  Trace.clear ();
  check (Alcotest.list Alcotest.string) "one span per pass"
    [ "lir-constfold"; "lir-cse"; "lir-dce"; "lir-constfold"; "lir-cse"; "lir-dce";
      "lir-licm"; "lir-cse"; "lir-dce"; "lir-fma" ]
    spans;
  Array.iteri
    (fun k g -> check tbool "run = run_func" true (m'.Lir.funcs.(k) = Opt.run_func Opt.O3 g))
    m.Lir.funcs

(* semantic check: every pass preserves results on a concrete function *)
let test_passes_preserve_semantics () =
  let body =
    [
      Lir.ConstF (0, 2.0);
      Lir.ConstF (1, 3.0);
      Lir.FBin (Lir.FMul, 2, 0, 1);
      Lir.FBin (Lir.FAdd, 3, 2, 0);
      Lir.FBin (Lir.FSub, 4, 3, 1);
      Lir.ConstI (0, 0);
      Lir.Store (0, 0, 4);
      Lir.Ret;
    ]
  in
  let run f =
    let out = Spnc_cpu.Vm.buffer ~rows:1 ~cols:1 in
    Spnc_cpu.Vm.run { Lir.funcs = [| f |]; entry = 0 } ~buffers:[ out ];
    out.Spnc_cpu.Vm.data.(0)
  in
  let f = func ~nf:5 ~ni:1 body in
  let expected = run f in
  List.iter
    (fun (name, pass) ->
      let got = run (pass f) in
      check (Alcotest.float 0.0) name expected got)
    [
      ("constfold", Opt.constfold);
      ("cse", Opt.cse);
      ("dce", Opt.dce);
      ("licm", Opt.licm);
      ("fma", Opt.fma);
    ]

let suite =
  [
    Alcotest.test_case "constfold folds" `Quick test_constfold_folds;
    Alcotest.test_case "constfold stops" `Quick test_constfold_stops_at_unknown;
    Alcotest.test_case "cse dedups" `Quick test_cse_dedups_and_rewrites_uses;
    Alcotest.test_case "cse keeps loads" `Quick test_cse_does_not_merge_loads;
    Alcotest.test_case "cse float rule" `Quick test_cse_float_rule;
    Alcotest.test_case "signed zero at every level" `Quick test_signed_zero_levels;
    Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_effects;
    Alcotest.test_case "dce carried loops" `Quick test_dce_carried_loops;
    Alcotest.test_case "dce matches rounds on kernels" `Quick test_dce_matches_rounds_on_kernels;
    Alcotest.test_case "licm selective" `Quick test_licm_hoists_invariants_only;
    Alcotest.test_case "fma fuses" `Quick test_fma_fuses_single_use_mul;
    Alcotest.test_case "fma multiple uses" `Quick test_fma_respects_multiple_uses;
    Alcotest.test_case "registers beyond counts raise" `Quick
      test_registers_beyond_counts_raise;
    Alcotest.test_case "run spans each pass" `Quick test_run_spans_passes;
    Alcotest.test_case "passes preserve semantics" `Quick test_passes_preserve_semantics;
  ]
