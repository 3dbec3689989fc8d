(** Application 2 (paper §V-B): Random Tensorized SPNs for image
    classification — the compiler stress test.

    A RAT-SPN is generated per class over a synthetic MNIST-like task;
    the class SPNs are huge (and physically share their substructure), so
    graph partitioning is required to keep compilation tractable.

    Run with: [dune exec examples/rat_spn_classification.exe] *)

module Rng = Spnc_data.Rng
module Mnist = Spnc_data.Mnist

let () =
  let rng = Rng.create ~seed:4242 in
  let side = 8 in
  (* scaled-down images: 8x8 = 64 features *)
  let images = Mnist.generate ~variant:Mnist.Digits ~side ~images:300 rng () in
  Fmt.pr "dataset: %d synthetic %dx%d images, %d classes@."
    (Spnc_data.Synth.num_rows images.Mnist.data)
    side side Mnist.num_classes;

  let cfg = { Spnc_spn.Rat_spn.bench_config with num_features = side * side } in
  let class_models = Spnc_spn.Rat_spn.generate rng cfg in
  let stats = Spnc_spn.Stats.compute class_models.(0) in
  Fmt.pr "per-class RAT-SPN: %a@." Spnc_spn.Stats.pp stats;

  (* fit leaf parameters per class from training data — the stand-in for
     the original auto-diff weight learning (paper §V-B) *)
  let training = Mnist.train_rows rng images ~per_class:100 in
  let class_models =
    Array.mapi
      (fun c m -> Spnc_spn.Rat_spn.specialize rng m training.(c))
      class_models
  in
  Fmt.pr "compiling %d class SPNs with graph partitioning...@."
    (Array.length class_models);
  let options =
    {
      (Spnc.Options.best_cpu ()) with
      max_partition_size = Some 2000;
      opt_level = Spnc_cpu.Optimizer.O1;
      threads = 2;
    }
  in
  let t0 = Unix.gettimeofday () in
  let classifier = Spnc.Classifier.compile ~options class_models in
  Fmt.pr "compiled all classes in %.2fs (tasks per class: %d)@."
    (Unix.gettimeofday () -. t0)
    classifier.Spnc.Classifier.compiled.(0).Spnc.Compiler.num_tasks;
  Fmt.pr "compile-time breakdown of class 0:@.%a" Spnc_mlir.Pass.pp_timings
    (`Stages classifier.Spnc.Classifier.compiled.(0).Spnc.Compiler.timings);

  (* classification: argmax of per-class log-likelihood *)
  let rows = images.Mnist.data.Spnc_data.Synth.samples in
  let out = Spnc.Classifier.log_likelihoods classifier rows in
  Fmt.pr "classification accuracy (leaves fitted per class): %.1f%%@."
    (100.0
    *. Spnc.Classifier.accuracy classifier rows
         images.Mnist.data.Spnc_data.Synth.labels);

  (* verify one class against the reference evaluator *)
  let worst = ref 0.0 in
  Array.iteri
    (fun i row ->
      let e = Spnc_spn.Infer.log_likelihood class_models.(0) row in
      let d = Float.abs (out.(0).(i) -. e) in
      if d > !worst then worst := d)
    rows;
  Fmt.pr "max deviation vs reference on class 0: %.3g@." !worst;

  (* the paper's Tensorflow comparison, modelled at paper scale ------------- *)
  let paper_rows = Mnist.paper_test_images in
  let tf_graph =
    match Spnc_baselines.Tf_graph.translate class_models.(0) ~marginal:false with
    | Ok g -> g
    | Error e -> failwith e
  in
  let tf_cpu =
    10.0 *. Spnc_baselines.Tf_graph.model_seconds tf_graph ~rows:paper_rows
              ~device:Spnc_baselines.Tf_graph.TF_CPU
  in
  let spnc_cpu =
    10.0
    *. Spnc.Compiler.estimate_seconds
         (Spnc.Compiler.compile ~options:{ options with threads = 12 } class_models.(0))
         ~rows:paper_rows
  in
  Fmt.pr
    "modelled 10-class classification of %d images: TF-CPU %.2fs, compiled \
     CPU %.2fs@."
    paper_rows tf_cpu spnc_cpu
