(** Cross-backend and cross-representation property tests: the different
    execution paths of the system must agree with each other on randomly
    generated models, and serialization must round-trip arbitrary
    generator output. *)

open Spnc_spn
module Rng = Spnc_data.Rng
module Compiler = Spnc.Compiler
module Options = Spnc.Options

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let random_model seed =
  let rng = Rng.create ~seed in
  Random_spn.generate rng
    { Random_spn.default_config with num_features = 6; max_depth = 5 }

let random_rows seed n f =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Array.init f (fun _ -> Rng.range rng (-3.0) 3.0))

let outputs_agree ~tol a b =
  Array.for_all2
    (fun x y -> x = y || (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= tol)
    a b

(* -- GPU ≡ CPU ----------------------------------------------------------------- *)

let test_gpu_equals_cpu_prop =
  QCheck.Test.make ~count:10 ~name:"GPU and CPU kernels agree on random SPNs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_model seed in
      let rows = random_rows (seed + 1) 11 6 in
      let cpu =
        Compiler.execute (Compiler.compile ~options:(Options.best_cpu ()) t) rows
      in
      let gpu =
        Compiler.execute (Compiler.compile ~options:(Options.best_gpu ()) t) rows
      in
      outputs_agree ~tol:1e-9 cpu gpu)

(* -- partitioned ≡ whole --------------------------------------------------------- *)

let test_partitioned_equals_whole_prop =
  QCheck.Test.make ~count:8 ~name:"partitioned kernels agree with whole kernels"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate_sized rng
          { Random_spn.default_config with num_features = 8; max_depth = 6 }
          ~min_ops:120
      in
      let rows = random_rows (seed + 2) 9 8 in
      let whole =
        Compiler.execute (Compiler.compile ~options:(Options.best_cpu ()) t) rows
      in
      let parts =
        Compiler.execute
          (Compiler.compile
             ~options:{ (Options.best_cpu ()) with max_partition_size = Some 30 }
             t)
          rows
      in
      outputs_agree ~tol:1e-9 whole parts)

(* -- marginal consistency ---------------------------------------------------------- *)

let test_marginal_consistency_prop =
  (* marginalizing a variable must give a result between min and max of
     conditioning on extreme values is hard to bound, but marginalizing
     ALL variables must give exactly probability 1 *)
  QCheck.Test.make ~count:10 ~name:"all-marginal evidence yields probability 1"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_model seed in
      let options = { (Options.best_cpu ()) with support_marginal = true } in
      let c = Compiler.compile ~options t in
      let all_nan = [| Array.make 6 Float.nan |] in
      let out = Compiler.execute c all_nan in
      Float.abs out.(0) < 1e-6)

(* -- serialization round-trips on generator output --------------------------------- *)

let test_serialize_roundtrip_prop =
  QCheck.Test.make ~count:20 ~name:"binary roundtrip on random generator output"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate rng
          { Random_spn.default_config with num_features = 5; max_depth = 5 }
      in
      match Serialize.of_string (Serialize.to_string t) with
      | Error _ -> false
      | Ok t' ->
          let rows = random_rows (seed + 3) 10 5 in
          Array.for_all
            (fun row ->
              let a = Infer.log_likelihood t row
              and b = Infer.log_likelihood t' row in
              a = b || Float.abs (a -. b) < 1e-12)
            rows)

let test_rat_spn_serialize_roundtrip () =
  let rng = Rng.create ~seed:90 in
  let models =
    Rat_spn.generate rng { Rat_spn.bench_config with num_features = 16; repetitions = 2 }
  in
  let t = models.(3) in
  let t' = Serialize.of_string_exn (Serialize.to_string t) in
  check tint "node count preserved (incl. sharing)" (Model.node_count t)
    (Model.node_count t');
  let rows = random_rows 91 8 16 in
  check tbool "semantics preserved" true
    (Array.for_all
       (fun row ->
         Float.abs (Infer.log_likelihood t row -. Infer.log_likelihood t' row) < 1e-12)
       rows)

(* -- Rat_spn.specialize ---------------------------------------------------------------- *)

let test_specialize_produces_valid_models () =
  let rng = Rng.create ~seed:92 in
  let models =
    Rat_spn.generate rng { Rat_spn.bench_config with num_features = 16; repetitions = 2 }
  in
  let rows = random_rows 93 50 16 in
  let s = Rat_spn.specialize rng models.(0) rows in
  (match Validate.check s with
  | [] -> ()
  | issues -> Alcotest.failf "specialized model invalid: %s" (Validate.issues_to_string issues));
  (* specialization breaks sharing with the original *)
  check tbool "fresh structure" true
    (s.Model.root.Model.id <> models.(0).Model.root.Model.id)

(* -- machine descriptions ---------------------------------------------------------------- *)

let test_simd_widths () =
  let module M = Spnc_machine.Machine in
  check tint "avx2 f32" 8 (M.simd_width M.AVX2 ~bits:32);
  check tint "avx512 f32" 16 (M.simd_width M.AVX512 ~bits:32);
  check tint "avx512 f64" 8 (M.simd_width M.AVX512 ~bits:64);
  check tint "neon f32" 4 (M.simd_width M.Neon ~bits:32);
  check tint "scalar" 1 (M.simd_width M.Scalar ~bits:32)

let test_neon_machine_end_to_end () =
  let module M = Spnc_machine.Machine in
  let t = random_model 94 in
  let rows = random_rows 95 17 6 in
  let options = Options.best_cpu ~machine:M.neoverse_n1 () in
  let c = Compiler.compile ~options t in
  (* Neon lowers to width-4 vectors *)
  (match c.Compiler.artifact with
  | Compiler.Cpu_kernel { lir; _ } ->
      let has_w4 =
        Array.exists (fun (f : Spnc_cpu.Lir.func) -> f.Spnc_cpu.Lir.vec_width = 4) lir.Spnc_cpu.Lir.funcs
      in
      check tbool "width-4 vector code" true has_w4
  | _ -> Alcotest.fail "expected CPU artifact");
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      let e = Infer.log_likelihood t row in
      if Float.abs (out.(i) -. e) > 1e-9 && not (e = out.(i)) then
        Alcotest.failf "neon row %d: %g vs %g" i e out.(i))
    rows

let test_f64_base_type () =
  (* force f64 computation through the lowering options *)
  let t = random_model 96 in
  let hi = Spnc_hispn.From_model.translate t in
  let lo =
    Spnc_lospn.Lower_hispn.run
      ~options:
        {
          Spnc_lospn.Lower_hispn.default_options with
          base_type = Spnc_mlir.Types.F64;
          space = Spnc_lospn.Lower_hispn.Force_log;
        }
      hi
  in
  let lo = Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo) in
  let has_f64 =
    Spnc_mlir.Ir.count_ops
      (fun o ->
        List.exists
          (fun (r : Spnc_mlir.Ir.value) ->
            Spnc_mlir.Types.equal r.Spnc_mlir.Ir.vty
              (Spnc_mlir.Types.Log Spnc_mlir.Types.F64))
          o.Spnc_mlir.Ir.results)
      lo
    > 0
  in
  check tbool "log<f64> values present" true has_f64;
  (* and it still executes correctly *)
  let rows = random_rows 97 7 6 in
  let flat = Array.concat (Array.to_list rows) in
  let out = Spnc_lospn.Interp.run_kernel lo ~inputs:[ flat ] ~rows:(Array.length rows) in
  Array.iteri
    (fun i row ->
      let e = Infer.log_likelihood t row in
      if Float.abs (out.(i) -. e) > 1e-9 && not (e = out.(i)) then
        Alcotest.failf "f64 row %d: %g vs %g" i e out.(i))
    rows

let suite =
  [
    QCheck_alcotest.to_alcotest test_gpu_equals_cpu_prop;
    QCheck_alcotest.to_alcotest test_partitioned_equals_whole_prop;
    QCheck_alcotest.to_alcotest test_marginal_consistency_prop;
    QCheck_alcotest.to_alcotest test_serialize_roundtrip_prop;
    Alcotest.test_case "rat-spn serialize roundtrip" `Quick test_rat_spn_serialize_roundtrip;
    Alcotest.test_case "specialize validity" `Quick test_specialize_produces_valid_models;
    Alcotest.test_case "simd widths" `Quick test_simd_widths;
    Alcotest.test_case "neon end-to-end" `Quick test_neon_machine_end_to_end;
    Alcotest.test_case "f64 base type" `Quick test_f64_base_type;
  ]

(* -- printer/parser round-trip on real lowered modules ------------------------- *)

let roundtrip_ok (m : Spnc_mlir.Ir.modul) =
  let s = Spnc_mlir.Printer.modul_to_string m in
  match Spnc_mlir.Parser.modul_of_string s with
  | m' -> Spnc_mlir.Printer.modul_to_string m' = s
  | exception _ -> false

let test_roundtrip_lowered_modules_prop =
  QCheck.Test.make ~count:10 ~name:"print/parse roundtrip on lowered modules"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate rng
          { Random_spn.default_config with num_features = 5; max_depth = 5 }
      in
      let hi = Spnc_hispn.From_model.translate t in
      let lo = Spnc_lospn.Lower_hispn.run hi in
      let buf = Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo) in
      let gpu = Spnc_gpu.Lower_gpu.run buf in
      roundtrip_ok hi && roundtrip_ok lo && roundtrip_ok buf && roundtrip_ok gpu)

(* -- pass manager failure attribution --------------------------------------------- *)

let test_verify_each_attributes_breakage () =
  (* a deliberately IR-breaking pass: drop the first op of the module,
     leaving later uses dangling *)
  let open Spnc_mlir in
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 1.0) ] () in
  let m1 = Builder.op b "lo_spn.mul"
      ~operands:[ Ir.result c; Ir.result c ] ~results:[ Types.F32 ] () in
  let y = Builder.op b "lo_spn.yield" ~operands:[ Ir.result m1 ] () in
  let m = Builder.modul [ c; m1; y ] in
  let breaking =
    Pass.make "break-ir" (fun m -> { m with Ir.mops = List.tl m.Ir.mops })
  in
  match
    Pass.run_pipeline_checked ~verify_each:true [ Pass.make "cse" Cse.run; breaking ] m
  with
  | Error f -> Alcotest.(check string) "blamed pass" "break-ir" f.Pass.failed_pass
  | Ok _ -> Alcotest.fail "breakage not caught"

(* -- canonicalize is a fixpoint ------------------------------------------------------ *)

let test_canonicalize_idempotent_prop =
  QCheck.Test.make ~count:10 ~name:"canonicalize is idempotent on HiSPN"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate rng
          { Random_spn.default_config with num_features = 4; max_depth = 4 }
      in
      let m = Spnc_mlir.Canonicalize.run (Spnc_hispn.From_model.translate t) in
      let m' = Spnc_mlir.Canonicalize.run m in
      Spnc_mlir.Ir.count_ops (fun _ -> true) m
      = Spnc_mlir.Ir.count_ops (fun _ -> true) m')

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest test_roundtrip_lowered_modules_prop;
      Alcotest.test_case "verify_each attribution" `Quick test_verify_each_attributes_breakage;
      QCheck_alcotest.to_alcotest test_canonicalize_idempotent_prop;
    ]
