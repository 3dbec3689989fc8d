(** Tests for the public API ([Spnc.Compiler]), the multi-threaded
    runtime, and the SPFlow/TensorFlow baselines. *)

open Spnc_spn
module Rng = Spnc_data.Rng
module Compiler = Spnc.Compiler
module Options = Spnc.Options

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let speaker_like_spn ?(seed = 80) () =
  let rng = Rng.create ~seed in
  Random_spn.generate_sized rng
    { Random_spn.speaker_id_config with num_features = 12; max_depth = 6 }
    ~min_ops:150

let random_rows rng n f =
  Array.init n (fun _ -> Array.init f (fun _ -> Rng.range rng (-3.0) 3.0))

let agree ~tol expected got =
  (Float.is_nan expected && Float.is_nan got)
  || expected = got
  || Float.abs (got -. expected) <= tol

let check_against_reference ~tol t rows out =
  Array.iteri
    (fun i row ->
      let expected = Infer.log_likelihood t row in
      if not (agree ~tol expected out.(i)) then
        Alcotest.failf "row %d: expected %.12g got %.12g" i expected out.(i))
    rows

(* -- Compile & execute -------------------------------------------------------- *)

let test_compile_execute_cpu () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:81) 50 12 in
  let c = Compiler.compile ~options:(Options.best_cpu ()) t in
  check_against_reference ~tol:1e-8 t rows (Compiler.execute c rows)

let test_compile_execute_gpu () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:82) 50 12 in
  let c = Compiler.compile ~options:(Options.best_gpu ()) t in
  check_against_reference ~tol:1e-8 t rows (Compiler.execute c rows)

let test_compile_execute_partitioned () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:83) 30 12 in
  let options =
    { (Options.best_cpu ()) with max_partition_size = Some 40 }
  in
  let c = Compiler.compile ~options t in
  check tbool "multiple tasks" true (c.Compiler.num_tasks > 1);
  check_against_reference ~tol:1e-8 t rows (Compiler.execute c rows)

let test_one_call_api () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:84) 10 12 in
  let _c, out = Compiler.compile_and_execute t rows in
  check_against_reference ~tol:1e-8 t rows out

(* every stage records the minor-heap words it allocated beside its time;
   the lowering stages build new IR, so theirs cannot be 0 *)
let test_stage_minor_words () =
  let c =
    Compiler.compile
      ~options:{ (Options.best_cpu ()) with use_kernel_cache = false }
      (speaker_like_spn ())
  in
  List.iter
    (fun (t : Compiler.timing) ->
      check tbool (t.Compiler.stage ^ " words >= 0") true (t.Compiler.minor_words >= 0.0);
      check tbool (t.Compiler.stage ^ " major words >= 0") true
        (t.Compiler.direct_words >= 0.0);
      check tbool (t.Compiler.stage ^ " collections >= 0") true
        (t.Compiler.minor_collections >= 0);
      if List.mem t.Compiler.stage [ "hispn-translation"; "lower-to-lospn"; "cpu-lowering" ]
      then check tbool (t.Compiler.stage ^ " allocates") true (t.Compiler.minor_words > 0.0))
    c.Compiler.timings;
  check tbool "cpu-lowering timed" true
    (List.exists (fun (t : Compiler.timing) -> t.Compiler.stage = "cpu-lowering") c.Compiler.timings);
  (* a RAT-SPN class model: its stages allocate several minor heaps, and
     register allocation's per-register arrays (one entry per vector
     register, thousands) go straight to the major heap *)
  let rat =
    (Rat_spn.generate ~name_prefix:"rat" (Rng.create ~seed:11)
       {
         Rat_spn.num_features = 32;
         depth = 3;
         repetitions = 2;
         num_sums = 4;
         num_input_distributions = 4;
         num_classes = 1;
       }).(0)
  in
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  let before = collections () in
  let c =
    Compiler.compile ~options:{ (Options.best_cpu ()) with use_kernel_cache = false } rat
  in
  let during = collections () - before in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 c.Compiler.timings in
  let staged = sum (fun t -> t.Compiler.minor_collections) in
  check tbool (Printf.sprintf "%d staged collections <= %d during" staged during) true
    (staged <= during);
  let minor = sum (fun t -> int_of_float t.Compiler.minor_words) in
  if minor > 2 * (Gc.get ()).Gc.minor_heap_size then
    check tbool "a stage reports a collection" true (staged > 0);
  check tbool "register-allocation major words" true
    (List.exists
       (fun (t : Compiler.timing) ->
         t.Compiler.stage = "register-allocation" && t.Compiler.direct_words > 256.0)
       c.Compiler.timings)

let test_invalid_model_rejected () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:0 ~mean:1.0 ~stddev:1.0 in
  let bad = Model.make ~num_features:1 (Model.sum [ (0.5, g0); (0.2, g1) ]) in
  match Compiler.compile bad with
  | exception Validate.Invalid _ -> ()
  | _ -> Alcotest.fail "invalid model accepted"

let test_timings_recorded () =
  let t = speaker_like_spn () in
  let c = Compiler.compile ~options:(Options.best_cpu ()) t in
  let stages = List.map (fun t -> t.Compiler.stage) c.Compiler.timings in
  List.iter
    (fun s ->
      check tbool (s ^ " present") true (List.mem s stages))
    [
      "hispn-translation"; "lower-to-lospn"; "bufferization"; "cpu-lowering";
      "instruction-selection"; "llvm-optimization"; "register-allocation";
    ];
  check tbool "total positive" true (Compiler.compile_seconds c > 0.0)

let test_gpu_timings_recorded () =
  let t = speaker_like_spn () in
  let c = Compiler.compile ~options:(Options.best_gpu ()) t in
  let stages = List.map (fun t -> t.Compiler.stage) c.Compiler.timings in
  List.iter
    (fun s -> check tbool (s ^ " present") true (List.mem s stages))
    [ "gpu-lowering"; "gpu-copy-optimization"; "ptx-generation"; "cubin-assembly" ]

(* -- Runtime -------------------------------------------------------------------- *)

let test_multithreaded_matches_single () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:85) 200 12 in
  let c1 =
    Compiler.compile ~options:{ (Options.best_cpu ()) with threads = 1; batch_size = 32 } t
  in
  let c4 =
    Compiler.compile ~options:{ (Options.best_cpu ()) with threads = 4; batch_size = 32 } t
  in
  let o1 = Compiler.execute c1 rows in
  let o4 = Compiler.execute c4 rows in
  Array.iteri
    (fun i v ->
      if not (agree ~tol:0.0 v o4.(i)) then
        Alcotest.failf "thread mismatch at %d: %g vs %g" i v o4.(i))
    o1

let test_batch_size_is_only_a_hint () =
  (* "the generated kernel can still process an arbitrary number of
     inputs": row counts that are not multiples of the batch size work *)
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:86) 77 12 in
  let c =
    Compiler.compile ~options:{ (Options.best_cpu ()) with batch_size = 32 } t
  in
  check_against_reference ~tol:1e-8 t rows (Compiler.execute c rows)

(* -- Baselines ------------------------------------------------------------------- *)

let test_spflow_interp_matches_reference () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:87) 40 12 in
  let out = Spnc_baselines.Spflow_interp.log_likelihood_batch t rows in
  check_against_reference ~tol:1e-10 t rows out

let test_spflow_interp_marginal () =
  let t = speaker_like_spn () in
  let rng = Rng.create ~seed:88 in
  let rows =
    Array.map
      (fun (row : float array) ->
        Array.map (fun v -> if Rng.float rng < 0.3 then Float.nan else v) row)
      (random_rows rng 40 12)
  in
  let out = Spnc_baselines.Spflow_interp.log_likelihood_batch t rows in
  check_against_reference ~tol:1e-10 t rows out

let test_tf_graph_matches_reference () =
  let t = speaker_like_spn () in
  let rows = random_rows (Rng.create ~seed:89) 40 12 in
  match Spnc_baselines.Tf_graph.translate t ~marginal:false with
  | Error e -> Alcotest.failf "translation failed: %s" e
  | Ok g ->
      check_against_reference ~tol:1e-10 t rows
        (Spnc_baselines.Tf_graph.execute g rows)

let test_tf_graph_rejects_marginal () =
  let t = speaker_like_spn () in
  match Spnc_baselines.Tf_graph.translate t ~marginal:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "TF translation must not support marginalization"

(* -- Modelled performance ordering (the headline result) ------------------------- *)

let test_speedup_ordering () =
  (* SPNC CPU ≫ TF > SPFlow for generic SPNs (Fig. 7 ordering) *)
  let t = speaker_like_spn () in
  let rows = 100_000 in
  let spflow = Spnc_baselines.Spflow_interp.model_seconds t ~rows in
  let tf =
    match Spnc_baselines.Tf_graph.translate t ~marginal:false with
    | Ok g -> Spnc_baselines.Tf_graph.model_seconds g ~rows ~device:Spnc_baselines.Tf_graph.TF_CPU
    | Error e -> Alcotest.failf "tf: %s" e
  in
  (* the paper's comparison runs the compiled kernel with the runtime's
     multi-threading enabled (all cores of the 3900XT) *)
  let c =
    Compiler.compile ~options:{ (Options.best_cpu ()) with threads = 12 } t
  in
  let spnc = Compiler.estimate_seconds c ~rows in
  check tbool (Printf.sprintf "tf %.3f < spflow %.3f" tf spflow) true (tf < spflow);
  check tbool (Printf.sprintf "spnc %.5f << tf %.3f" spnc tf) true
    (spnc *. 20.0 < tf);
  let speedup = spflow /. spnc in
  check tbool (Printf.sprintf "speedup %.0fx in [50, 5000]" speedup) true
    (speedup > 50.0 && speedup < 5000.0)

let test_gpu_estimate_positive () =
  let t = speaker_like_spn () in
  let c = Compiler.compile ~options:(Options.best_gpu ()) t in
  let s = Compiler.estimate_seconds c ~rows:100_000 in
  check tbool "positive" true (s > 0.0);
  match Compiler.gpu_ledger c ~rows:100_000 with
  | Some ledger ->
      (* the estimate additionally includes the one-time CUDA context /
         module-load overhead that the per-operation ledger excludes *)
      let init = Compiler.gpu_init_seconds c in
      check tbool "ledger total matches estimate" true
        (Float.abs (Spnc_gpu.Sim.total_seconds ledger +. init -. s) < 1e-9)
  | None -> Alcotest.fail "no ledger for GPU artifact"

let test_datatype_reported () =
  let t = speaker_like_spn () in
  let c = Compiler.compile t in
  (* the record is populated; deep SPNs in auto mode pick log space *)
  check tbool "worst magnitude is negative" true
    (c.Compiler.datatype.Spnc_lospn.Lower_hispn.worst_log2_magnitude < 0.0)

let suite =
  [
    Alcotest.test_case "compile+execute cpu" `Quick test_compile_execute_cpu;
    Alcotest.test_case "compile+execute gpu" `Quick test_compile_execute_gpu;
    Alcotest.test_case "compile+execute partitioned" `Quick test_compile_execute_partitioned;
    Alcotest.test_case "one-call api" `Quick test_one_call_api;
    Alcotest.test_case "stage minor words" `Quick test_stage_minor_words;
    Alcotest.test_case "invalid model rejected" `Quick test_invalid_model_rejected;
    Alcotest.test_case "cpu timings recorded" `Quick test_timings_recorded;
    Alcotest.test_case "gpu timings recorded" `Quick test_gpu_timings_recorded;
    Alcotest.test_case "multithreaded matches" `Quick test_multithreaded_matches_single;
    Alcotest.test_case "batch size is a hint" `Quick test_batch_size_is_only_a_hint;
    Alcotest.test_case "spflow baseline matches" `Quick test_spflow_interp_matches_reference;
    Alcotest.test_case "spflow baseline marginal" `Quick test_spflow_interp_marginal;
    Alcotest.test_case "tf baseline matches" `Quick test_tf_graph_matches_reference;
    Alcotest.test_case "tf rejects marginal" `Quick test_tf_graph_rejects_marginal;
    Alcotest.test_case "speedup ordering" `Quick test_speedup_ordering;
    Alcotest.test_case "gpu estimate + ledger" `Quick test_gpu_estimate_positive;
    Alcotest.test_case "datatype reported" `Quick test_datatype_reported;
  ]

(* -- Classifier --------------------------------------------------------------- *)

let test_classifier_api () =
  let rng = Rng.create ~seed:98 in
  (* two well-separated single-gaussian "classes" over 2 features *)
  let mk mean =
    Model.make ~num_features:2
      (Model.product
         [ Model.gaussian ~var:0 ~mean ~stddev:0.5;
           Model.gaussian ~var:1 ~mean ~stddev:0.5 ])
  in
  let models = [| mk (-2.0); mk 2.0 |] in
  let cls = Spnc.Classifier.compile ~options:(Options.best_cpu ()) models in
  Alcotest.(check int) "classes" 2 (Spnc.Classifier.num_classes cls);
  let rows =
    Array.init 40 (fun i ->
        let m = if i mod 2 = 0 then -2.0 else 2.0 in
        [| m +. Rng.gaussian rng *. 0.3; m +. Rng.gaussian rng *. 0.3 |])
  in
  let labels = Array.init 40 (fun i -> i mod 2) in
  let acc = Spnc.Classifier.accuracy cls rows labels in
  check tbool (Printf.sprintf "accuracy %.2f = 1.0" acc) true (acc > 0.99);
  check tbool "compile time recorded" true
    (Spnc.Classifier.total_compile_seconds cls > 0.0);
  check tbool "estimate positive" true
    (Spnc.Classifier.estimate_seconds cls ~rows:1000 > 0.0)

let suite =
  suite @ [ Alcotest.test_case "classifier api" `Quick test_classifier_api ]
