(** Edge-case tests: runtime chunking corners, GPU chunked-estimate
    arithmetic, option derivation, and degenerate inputs. *)

open Spnc_spn
module Rng = Spnc_data.Rng
module Compiler = Spnc.Compiler
module Options = Spnc.Options

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let tiny_model () =
  Model.make ~num_features:2
    (Model.product
       [
         Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0;
         Model.gaussian ~var:1 ~mean:0.0 ~stddev:1.0;
       ])

let test_execute_empty_batch () =
  let c = Compiler.compile (tiny_model ()) in
  check tint "cpu empty" 0 (Array.length (Compiler.execute c [||]));
  let g = Compiler.compile ~options:(Options.best_gpu ()) (tiny_model ()) in
  check tint "gpu empty" 0 (Array.length (Compiler.execute g [||]))

let test_single_row () =
  let c = Compiler.compile ~options:(Options.best_cpu ()) (tiny_model ()) in
  let out = Compiler.execute c [| [| 0.3; -0.4 |] |] in
  let e = Infer.log_likelihood (tiny_model ()) [| 0.3; -0.4 |] in
  (* the two models have different node ids but identical parameters *)
  check tbool "single row" true (Float.abs (out.(0) -. e) < 1e-9)

let test_more_threads_than_chunks () =
  let t = tiny_model () in
  let rows =
    Array.init 10 (fun i -> [| float_of_int i /. 5.0; 0.1 |])
  in
  let c =
    Compiler.compile
      ~options:{ (Options.best_cpu ()) with threads = 16; batch_size = 4 }
      t
  in
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      let e = Infer.log_likelihood t row in
      check tbool (Printf.sprintf "row %d" i) true (Float.abs (out.(i) -. e) < 1e-9))
    rows

let test_batch_size_one () =
  let t = tiny_model () in
  let rows = Array.init 5 (fun i -> [| float_of_int i; 0.0 |]) in
  let c =
    Compiler.compile ~options:{ (Options.best_cpu ()) with batch_size = 1 } t
  in
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      check tbool "bs=1" true
        (Float.abs (out.(i) -. Infer.log_likelihood t row) < 1e-9))
    rows

(* -- GPU chunked estimate --------------------------------------------------- *)

let test_estimate_chunked_arithmetic () =
  let t = tiny_model () in
  let c = Compiler.compile ~options:(Options.best_gpu ()) t in
  match c.Compiler.artifact with
  | Compiler.Gpu_kernel { gpu_module; _ } ->
      let gpu = Spnc_machine.Machine.rtx_2070_super in
      let one =
        Spnc_gpu.Sim.estimate gpu_module ~gpu ~entry:"spn_kernel" ~rows:64
      in
      let four =
        Spnc_gpu.Sim.estimate_chunked gpu_module ~gpu ~entry:"spn_kernel"
          ~rows:256 ~chunk:64
      in
      let t1 = Spnc_gpu.Sim.total_seconds one in
      let t4 = Spnc_gpu.Sim.total_seconds four in
      check tbool
        (Printf.sprintf "4 chunks = 4x one chunk (%.2e vs %.2e)" t4 (4.0 *. t1))
        true
        (Float.abs (t4 -. (4.0 *. t1)) < 1e-12);
      (* remainder chunk: 300 rows = 4 full + 44 *)
      let rem =
        Spnc_gpu.Sim.estimate_chunked gpu_module ~gpu ~entry:"spn_kernel"
          ~rows:300 ~chunk:64
      in
      check tbool "remainder adds time" true
        (Spnc_gpu.Sim.total_seconds rem > t4)
  | _ -> Alcotest.fail "expected GPU artifact"

let test_estimate_monotone_in_rows () =
  let t = tiny_model () in
  List.iter
    (fun options ->
      let c = Compiler.compile ~options t in
      let e1 = Compiler.estimate_seconds c ~rows:1_000 in
      let e2 = Compiler.estimate_seconds c ~rows:100_000 in
      check tbool "monotone" true (e2 > e1))
    [ Options.best_cpu (); Options.best_gpu () ]

(* -- Options derivation -------------------------------------------------------- *)

let test_cpu_lower_options_width () =
  let module M = Spnc_machine.Machine in
  let width o =
    Options.(cpu_lower_options (compile_of o)).Spnc_cpu.Lower_cpu.width
  in
  check tint "avx512 width" 16 (width (Options.best_cpu ~machine:M.xeon_9242 ()));
  check tint "avx2 width" 8 (width (Options.best_cpu ~machine:M.ryzen_3900xt ()));
  check tint "scalar width" 1 (width { (Options.best_cpu ()) with vectorize = false })

let test_threaded_seconds () =
  let est = { Spnc_cpu.Cost.cycles = 3.8e9; seconds = 1.0; spill_cycles = 0.0 } in
  check tbool "single thread" true
    (Spnc_cpu.Cost.threaded_seconds est ~threads:1 = 1.0);
  let t12 = Spnc_cpu.Cost.threaded_seconds est ~threads:12 in
  check tbool "12 threads ~10.8x" true (t12 > 0.09 && t12 < 0.1)

(* -- unused features are handled ------------------------------------------------- *)

let test_sparse_feature_use () =
  (* 10 declared features, only features 3 and 7 used *)
  let t =
    Model.make ~num_features:10
      (Model.product
         [
           Model.gaussian ~var:3 ~mean:0.5 ~stddev:1.0;
           Model.gaussian ~var:7 ~mean:(-0.5) ~stddev:2.0;
         ])
  in
  let rng = Rng.create ~seed:99 in
  let rows =
    Array.init 9 (fun _ -> Array.init 10 (fun _ -> Rng.range rng (-2.0) 2.0))
  in
  List.iter
    (fun options ->
      let c = Compiler.compile ~options t in
      let out = Compiler.execute c rows in
      Array.iteri
        (fun i row ->
          check tbool "sparse features" true
            (Float.abs (out.(i) -. Infer.log_likelihood t row) < 1e-9))
        rows)
    [ Options.best_cpu (); Options.best_gpu () ]

(* -- deeply nested structures ----------------------------------------------------- *)

let test_deep_chain () =
  (* alternating sum/product chain 60 levels deep: exercises log-space
     selection and deep recursion paths *)
  let rec build depth =
    if depth = 0 then Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0
    else if depth mod 2 = 0 then
      Model.sum [ (0.4, build (depth - 1)); (0.6, build (depth - 1)) ]
    else Model.product [ build (depth - 1) ]
  in
  let t = Model.make ~num_features:1 (build 16) in
  let c = Compiler.compile ~options:(Options.best_cpu ()) t in
  let out = Compiler.execute c [| [| 0.7 |] |] in
  check tbool "deep chain" true
    (Float.abs (out.(0) -. Infer.log_likelihood t [| 0.7 |]) < 1e-8)

let suite =
  [
    Alcotest.test_case "execute empty batch" `Quick test_execute_empty_batch;
    Alcotest.test_case "single row" `Quick test_single_row;
    Alcotest.test_case "threads > chunks" `Quick test_more_threads_than_chunks;
    Alcotest.test_case "batch size 1" `Quick test_batch_size_one;
    Alcotest.test_case "chunked estimate arithmetic" `Quick test_estimate_chunked_arithmetic;
    Alcotest.test_case "estimate monotone" `Quick test_estimate_monotone_in_rows;
    Alcotest.test_case "lower options width" `Quick test_cpu_lower_options_width;
    Alcotest.test_case "threaded seconds" `Quick test_threaded_seconds;
    Alcotest.test_case "sparse feature use" `Quick test_sparse_feature_use;
    Alcotest.test_case "deep chain" `Quick test_deep_chain;
  ]

(* -- f64 through the driver; AMD GPU preset ---------------------------------- *)

let test_f64_through_driver () =
  let t = tiny_model () in
  let options =
    { (Options.best_cpu ()) with
      base_type = Spnc_mlir.Types.F64;
      space = Spnc_lospn.Lower_hispn.Force_log }
  in
  let c = Compiler.compile ~options t in
  check tbool "f64 selected" true
    (Spnc_mlir.Types.equal c.Compiler.datatype.Spnc_lospn.Lower_hispn.base
       Spnc_mlir.Types.F64);
  let rows = [| [| 0.2; -0.3 |]; [| 1.5; 0.7 |] |] in
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      check tbool "f64 result" true
        (Float.abs (out.(i) -. Infer.log_likelihood (tiny_model ()) row) < 1e-9))
    rows

let test_amd_gpu_preset () =
  let t = tiny_model () in
  let options =
    { (Options.best_gpu ()) with gpu = Spnc_machine.Machine.radeon_6800 }
  in
  let c = Compiler.compile ~options t in
  let rows = [| [| 0.1; 0.2 |]; [| -1.0; 1.0 |]; [| 2.0; -2.0 |] |] in
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      check tbool "amd result" true
        (Float.abs (out.(i) -. Infer.log_likelihood (tiny_model ()) row) < 1e-9))
    rows;
  check tbool "amd estimate positive" true
    (Compiler.estimate_seconds c ~rows:10_000 > 0.0)

let suite =
  suite
  @ [
      Alcotest.test_case "f64 through driver" `Quick test_f64_through_driver;
      Alcotest.test_case "amd gpu preset" `Quick test_amd_gpu_preset;
    ]

let test_gather_tables_through_driver () =
  let t =
    Model.make ~num_features:2
      (Model.product
         [
           Model.categorical ~var:0 ~probs:[| 0.2; 0.5; 0.3 |];
           Model.histogram ~var:1 ~breaks:[| 0; 2; 4 |] ~densities:[| 0.3; 0.2 |];
         ])
  in
  let rng = Rng.create ~seed:100 in
  let rows =
    Array.init 21 (fun _ ->
        [| float_of_int (Rng.int rng 4); float_of_int (Rng.int rng 5) |])
  in
  let c =
    Compiler.compile
      ~options:{ (Options.best_cpu ()) with use_gather_tables = true }
      t
  in
  (match c.Compiler.artifact with
  | Compiler.Cpu_kernel { lir; _ } ->
      check tbool "gather_indexed in kernel" true
        (Array.exists
           (fun (f : Spnc_cpu.Lir.func) ->
             Spnc_cpu.Lir.count_instrs
               ~filter:(function Spnc_cpu.Lir.VGatherIdx _ -> true | _ -> false)
               f.Spnc_cpu.Lir.body
             > 0)
           lir.Spnc_cpu.Lir.funcs)
  | _ -> Alcotest.fail "expected cpu artifact");
  let out = Compiler.execute c rows in
  Array.iteri
    (fun i row ->
      let e = Infer.log_likelihood t row in
      check tbool "driver gather result" true
        (e = out.(i) || Float.abs (out.(i) -. e) < 1e-9))
    rows

let suite =
  suite
  @ [ Alcotest.test_case "gather tables via driver" `Quick test_gather_tables_through_driver ]
