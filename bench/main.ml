(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§V).  See DESIGN.md §3 for the experiment index and
    EXPERIMENTS.md for recorded paper-vs-measured results.

    Conventions:
    - compile times are {e measured} wall-clock of this compiler;
    - execution times for specific ISAs/devices come from the calibrated
      machine cost models applied to the generated instruction streams
      (DESIGN.md §1); measured wall clock of the execution engines is
      [spnc_bench]'s (EXPERIMENTS.md);
    - paper numbers are printed alongside for comparison.

    Scale: set [SPNC_BENCH_SCALE=paper] for paper-sized models (slow);
    the default is a scaled-down configuration with identical shapes. *)

module W = Workloads
module Compiler = Spnc.Compiler
module Options = Spnc.Options

let line = String.make 78 '-'
let header fmt = Fmt.kstr (fun s -> Fmt.pr "@.%s@.%s@.%s@." line s line) fmt

(* Average modelled execution time of the speaker models under [options]
   at [rows] samples, plus compile-time statistics. *)
let speaker_avg options ~rows =
  let models = Lazy.force W.speaker_models in
  let total_exec = ref 0.0 and total_compile = ref 0.0 and max_compile = ref 0.0 in
  Array.iter
    (fun m ->
      let c = Compiler.compile ~options m in
      let ct = Compiler.compile_seconds c in
      total_compile := !total_compile +. ct;
      if ct > !max_compile then max_compile := ct;
      total_exec := !total_exec +. Compiler.estimate_seconds c ~rows)
    models;
  let n = float_of_int (Array.length models) in
  (!total_exec /. n, !total_compile /. n, !max_compile)

(* -- Fig. 6: CPU configuration DSE ------------------------------------------- *)

let fig6 () =
  header "Fig. 6 — CPU vectorization DSE (speaker ID, clean, batch 4096)";
  let rows = W.clean_rows_paper in
  let configs =
    [
      ("No Vec.", W.cpu_novec ());
      ("AVX2 (no veclib)", W.cpu_avx2 ~veclib:false ~shuffle:false ());
      ("AVX2 +VecLib", W.cpu_avx2 ~veclib:true ~shuffle:false ());
      ("AVX2 +VecLib +Shuffle", W.cpu_avx2 ~veclib:true ~shuffle:true ());
    ]
  in
  let base = ref 0.0 in
  Fmt.pr "%-26s %14s %10s@." "configuration" "exec time (s)" "vs No-Vec";
  List.iter
    (fun (name, options) ->
      let t, _, _ = speaker_avg options ~rows in
      if !base = 0.0 then base := t;
      Fmt.pr "%-26s %14.4f %9.2fx@." name t (t /. !base))
    configs;
  Fmt.pr
    "paper shape: vectorization without a vector library is SLOWER than \
     scalar; +VecLib is a large improvement; +Shuffle a further small one.@."

(* -- GPU block-size sweep (§V-A.1) --------------------------------------------- *)

let fig6b () =
  header "GPU block-size sweep (speaker ID) — paper picks 64";
  let model = (Lazy.force W.speaker_models).(0) in
  Fmt.pr "%-12s %16s@." "block size" "kernel exec time (s)";
  let best = ref (0, infinity) in
  List.iter
    (fun bs ->
      let c = Compiler.compile ~options:(W.gpu_best ~block_size:bs ()) model in
      (* block-size semantics: one grid over the whole batch; block size
         trades occupancy (register pressure) against block scheduling *)
      let t =
        match c.Compiler.artifact with
        | Compiler.Gpu_kernel { gpu_module; _ } ->
            Spnc_gpu.Sim.total_seconds
              (Spnc_gpu.Sim.estimate gpu_module ~gpu:W.rtx ~entry:"spn_kernel"
                 ~rows:100_000)
        | _ -> assert false
      in
      if t < snd !best then best := (bs, t);
      Fmt.pr "%-12d %16.4f@." bs t)
    [ 32; 64; 128; 256; 512; 1024 ];
  Fmt.pr "best block size: %d (paper: 64)@." (fst !best)

(* -- Figs. 7/8: speedups over SPFlow -------------------------------------------- *)

let speedup_table ~marginal ~rows ~title ~paper =
  header "%s" title;
  let models = Lazy.force W.speaker_models in
  let spflow =
    Array.fold_left
      (fun acc m -> acc +. Spnc_baselines.Spflow_interp.model_seconds m ~rows)
      0.0 models
    /. float_of_int (Array.length models)
  in
  Fmt.pr "SPFlow (Python/numpy) baseline: %.3f s (avg per speaker SPN)@.@." spflow;
  Fmt.pr "%-24s %12s %12s %12s@." "configuration" "time (s)" "speedup" "paper";
  let row name seconds paper_x =
    Fmt.pr "%-24s %12.4f %11.2fx %12s@." name seconds (spflow /. seconds) paper_x
  in
  (if not marginal then begin
     let g =
       match Spnc_baselines.Tf_graph.translate models.(0) ~marginal:false with
       | Ok g -> g
       | Error e -> failwith e
     in
     row "TF graph (CPU)"
       (Spnc_baselines.Tf_graph.model_seconds g ~rows
          ~device:Spnc_baselines.Tf_graph.TF_CPU)
       "1.5x";
     row "TF graph (GPU)"
       (Spnc_baselines.Tf_graph.model_seconds g ~rows
          ~device:Spnc_baselines.Tf_graph.TF_GPU)
       "1.38x"
   end
   else
     Fmt.pr "%-24s %12s %12s %12s@." "TF graph" "unsupported" "-"
       "(no marginalization)");
  let cpu_n, _, _ = speaker_avg (W.cpu_novec ~marginal ()) ~rows in
  row "SPNC CPU (no vec.)" cpu_n (List.nth paper 0);
  let cpu_a, _, _ = speaker_avg (W.cpu_avx2 ~marginal ()) ~rows in
  row "SPNC CPU (AVX2)" cpu_a (List.nth paper 1);
  let cpu_x, _, _ = speaker_avg (W.cpu_avx512 ~marginal ()) ~rows in
  row "SPNC CPU (AVX-512)" cpu_x (List.nth paper 2);
  let gpu_t, _, _ = speaker_avg (W.gpu_best ~marginal ()) ~rows in
  row "SPNC GPU" gpu_t (List.nth paper 3)

let fig7 () =
  speedup_table ~marginal:false ~rows:W.clean_rows_paper
    ~title:
      (Printf.sprintf "Fig. 7 — speedup over SPFlow, clean speech (%d samples)"
         W.clean_rows_paper)
    ~paper:[ "564x"; "801x"; "976x"; "352x" ]

let fig8 () =
  speedup_table ~marginal:true ~rows:W.noisy_rows_paper
    ~title:
      (Printf.sprintf
         "Fig. 8 — speedup over SPFlow, noisy speech w/ marginalization (%d)"
         W.noisy_rows_paper)
    ~paper:[ "482x"; "814x"; "935x"; "524x" ]

(* -- Fig. 9: GPU execution-time breakdown ----------------------------------------- *)

let fig9 () =
  header "Fig. 9 — GPU execution time breakdown (batch size 64)";
  let model = (Lazy.force W.speaker_models).(0) in
  let c = Compiler.compile ~options:(W.gpu_best ()) model in
  List.iter
    (fun (name, rows) ->
      match Compiler.gpu_ledger c ~rows with
      | Some l ->
          let total = Spnc_gpu.Sim.total_seconds l in
          Fmt.pr
            "%-8s total %8.3fs: transfers %5.1f%% kernel %5.1f%% launch %5.1f%%@."
            name total
            (100.0 *. Spnc_gpu.Sim.transfer_fraction l)
            (100.0 *. l.Spnc_gpu.Sim.kernel_s /. total)
            (100.0 *. l.Spnc_gpu.Sim.launch_s /. total)
      | None -> ())
    [ ("clean", W.clean_rows_paper); ("noisy", W.noisy_rows_paper) ];
  Fmt.pr "paper: data movement accounts for >60%% of GPU execution time.@."

(* -- Compile-time statistics (§V-A.2) ------------------------------------------------ *)

let compile_time_stats () =
  header "Compile-time statistics over the speaker SPN set (§V-A.2)";
  let _, cpu_avg, cpu_max = speaker_avg (W.cpu_avx2 ()) ~rows:1 in
  Fmt.pr "CPU compile: avg %.2fs max %.2fs   (paper: avg 3.3s max 18s)@." cpu_avg
    cpu_max;
  let _, gpu_avg, gpu_max = speaker_avg (W.gpu_best ()) ~rows:1 in
  Fmt.pr "GPU compile: avg %.2fs max %.2fs   (paper: avg 1.7s max 4.1s)@." gpu_avg
    gpu_max;
  let models = Lazy.force W.speaker_models in
  let tf_avg =
    Array.fold_left
      (fun acc m -> acc +. Spnc_baselines.Tf_graph.translation_seconds m)
      0.0 models
    /. float_of_int (Array.length models)
  in
  Fmt.pr "TF translation (modelled): avg %.2fs   (paper: avg 8.6s max 14.5s)@."
    tf_avg

(* -- Figs. 10/12: partition-size sweeps ------------------------------------------------ *)

let partition_sweep ~target ~title ~sizes ~exec_rows =
  header "%s" title;
  let model = Lazy.force W.rat_class_model in
  Fmt.pr "RAT-SPN class model: %a@.@." Spnc_spn.Stats.pp
    (Spnc_spn.Stats.compute model);
  Fmt.pr "%-16s %8s %14s %16s@." "max part. size" "tasks" "compile (s)"
    "exec est. (s)";
  List.iter
    (fun size ->
      let options =
        match target with
        | `Cpu ->
            {
              (W.cpu_avx2 ()) with
              max_partition_size = Some size;
              opt_level = Spnc_cpu.Optimizer.O1;
            }
        | `Gpu ->
            {
              (W.gpu_best ()) with
              max_partition_size = Some size;
              batch_size = exec_rows;
              opt_level = Spnc_cpu.Optimizer.O1;
            }
      in
      let c = Compiler.compile ~options model in
      (* the exec column excludes the one-time CUDA init so the
         per-partitioning differences are visible *)
      let exec =
        match Compiler.gpu_ledger c ~rows:exec_rows with
        | Some l -> Spnc_gpu.Sim.total_seconds l
        | None -> Compiler.estimate_seconds c ~rows:exec_rows
      in
      Fmt.pr "%-16d %8d %14.3f %16.5f@." size c.Compiler.num_tasks
        (Compiler.compile_seconds c) exec)
    sizes;
  Fmt.pr
    "paper shape: compile time falls then rises with partition size; \
     execution time falls monotonically (fewer buffer round-trips).@."

let fig10 () =
  let sizes =
    match W.scale with
    | W.Small -> [ 500; 1_000; 2_500; 5_000; 10_000; 25_000 ]
    | W.Paper -> [ 1_000; 5_000; 10_000; 25_000; 50_000; 100_000 ]
  in
  partition_sweep ~target:`Cpu
    ~title:"Fig. 10 — CPU: compilation/execution vs max partition size (RAT-SPN)"
    ~sizes ~exec_rows:10_000

let fig12 () =
  let sizes =
    match W.scale with
    | W.Small -> [ 1_000; 2_500; 5_000; 10_000 ]
    | W.Paper -> [ 5_000; 10_000; 25_000; 50_000 ]
  in
  partition_sweep ~target:`Gpu
    ~title:"Fig. 12 — GPU: compilation/execution vs max partition size (RAT-SPN)"
    ~sizes ~exec_rows:10_000

(* -- Figs. 11/13: optimization-level sweeps ---------------------------------------------- *)

let optlevel_sweep ~target ~title ~part_size =
  header "%s" title;
  let model = Lazy.force W.rat_class_model in
  Fmt.pr "%-8s %14s %16s@." "level" "compile (s)" "exec est. (s)";
  List.iter
    (fun lvl ->
      let options =
        match target with
        | `Cpu ->
            {
              (W.cpu_avx2 ()) with
              max_partition_size = Some part_size;
              opt_level = lvl;
            }
        | `Gpu ->
            {
              (W.gpu_best ()) with
              max_partition_size = Some part_size;
              batch_size = 10_000;
              opt_level = lvl;
            }
      in
      let c = Compiler.compile ~options model in
      let exec =
        match Compiler.gpu_ledger c ~rows:10_000 with
        | Some l -> Spnc_gpu.Sim.total_seconds l
        | None -> Compiler.estimate_seconds c ~rows:10_000
      in
      Fmt.pr "%-8s %14.3f %16.5f@."
        (Spnc_cpu.Optimizer.level_to_string lvl)
        (Compiler.compile_seconds c) exec)
    [ Spnc_cpu.Optimizer.O0; O1; O2; O3 ];
  Fmt.pr
    "paper shape: -O0 compiles fastest but executes slowest; -O1..-O3 \
     compile slower with similar execution; -O1 is the chosen trade-off.@."

let fig11 () =
  optlevel_sweep ~target:`Cpu
    ~title:"Fig. 11 — CPU: compilation/execution vs optimization level (RAT-SPN)"
    ~part_size:(match W.scale with W.Small -> 5_000 | W.Paper -> 25_000)

let fig13 () =
  optlevel_sweep ~target:`Gpu
    ~title:"Fig. 13 — GPU: compilation/execution vs optimization level (RAT-SPN)"
    ~part_size:(match W.scale with W.Small -> 2_500 | W.Paper -> 10_000)

(* -- §V-B.1 compile-time breakdown --------------------------------------------------------- *)

let compile_breakdown () =
  header "Compile-time breakdown at the chosen configurations (§V-B.1)";
  let model = Lazy.force W.rat_class_model in
  let cpu =
    Compiler.compile
      ~options:
        {
          (W.cpu_avx2 ()) with
          max_partition_size =
            Some (match W.scale with W.Small -> 5_000 | W.Paper -> 25_000);
          opt_level = Spnc_cpu.Optimizer.O1;
        }
      model
  in
  Fmt.pr "CPU (-O1):@.%a" Spnc_mlir.Pass.pp_timings (`Stages cpu.Compiler.timings);
  (* selecting each cir op happens in the cpu-lowering walk; the
     instruction-selection stage only closes the functions *)
  let object_code =
    Compiler.stage_seconds cpu "instruction-selection"
    +. Compiler.stage_seconds cpu "llvm-optimization"
    +. Compiler.stage_seconds cpu "register-allocation"
  in
  Fmt.pr
    "object-code translation share: %.0f%%, selection itself inside \
     cpu-lowering (paper: ~75%%, of which isel 27%% and regalloc 25%%)@.@."
    (100.0 *. object_code /. Compiler.compile_seconds cpu);
  let gpu =
    Compiler.compile
      ~options:
        {
          (W.gpu_best ()) with
          max_partition_size =
            Some (match W.scale with W.Small -> 2_500 | W.Paper -> 10_000);
          opt_level = Spnc_cpu.Optimizer.O1;
        }
      model
  in
  Fmt.pr "GPU (-O1):@.%a" Spnc_mlir.Pass.pp_timings (`Stages gpu.Compiler.timings);
  Fmt.pr "CUBIN share: %.0f%% (paper: ~95%%)@."
    (100.0
    *. Compiler.stage_seconds gpu "cubin-assembly"
    /. Compiler.compile_seconds gpu)

(* -- §V-B.2 RAT-SPN performance comparison --------------------------------------------------- *)

let tab_ratspn () =
  header "§V-B.2 — RAT-SPN classification of %d images (10 class SPNs)"
    W.mnist_images_paper;
  let model = Lazy.force W.rat_class_model in
  let rows = W.mnist_images_paper in
  let classes = 10.0 in
  let tf =
    match Spnc_baselines.Tf_graph.translate model ~marginal:false with
    | Ok g -> g
    | Error e -> failwith e
  in
  (* TF executes the entire RAT-SPN in one run; our compiler runs ten
     distinct class SPNs (§V-B.2) *)
  (* RAT-SPNs are natively tensorized in TF (§V-B.2) *)
  let tf_cpu =
    Spnc_baselines.Tf_graph.model_seconds_tensorized tf ~rows
      ~device:Spnc_baselines.Tf_graph.TF_CPU
  in
  let tf_gpu =
    Spnc_baselines.Tf_graph.model_seconds_tensorized tf ~rows
      ~device:Spnc_baselines.Tf_graph.TF_GPU
  in
  let cpu =
    Compiler.compile
      ~options:
        {
          (W.cpu_avx2 ()) with
          max_partition_size =
            Some (match W.scale with W.Small -> 5_000 | W.Paper -> 25_000);
        }
      model
  in
  let spnc_cpu = classes *. Compiler.estimate_seconds cpu ~rows in
  let gpu =
    Compiler.compile
      ~options:
        {
          (W.gpu_best ()) with
          batch_size = rows;
          max_partition_size =
            Some (match W.scale with W.Small -> 2_500 | W.Paper -> 10_000);
        }
      model
  in
  let spnc_gpu = classes *. Compiler.estimate_seconds gpu ~rows in
  Fmt.pr "%-22s %12s %22s@." "system" "time (s)" "paper (MNIST/fashion)";
  Fmt.pr "%-22s %12.3f %22s@." "TF (GPU)" tf_gpu "0.427 / 0.426";
  Fmt.pr "%-22s %12.3f %22s@." "SPNC CPU" spnc_cpu "0.444 / 0.437";
  Fmt.pr "%-22s %12.3f %22s@." "SPNC GPU" spnc_gpu "1.299 / 1.310";
  Fmt.pr "%-22s %12.3f %22s@." "TF (CPU)" tf_cpu "1.720 / 1.742";
  Fmt.pr
    "paper ordering: TF-GPU ~ SPNC-CPU < SPNC-GPU < TF-CPU (SPNC pays ten \
     separate launches/transfers on the GPU).@."

(* -- Ablations of the design choices DESIGN.md calls out --------------------------------------- *)

(* DAG of an SPN model: nodes = model nodes, edges child -> parent. *)
let dag_of_model (m : Spnc_spn.Model.t) =
  let nodes = Spnc_spn.Model.nodes_postorder m in
  let index = Hashtbl.create 256 in
  List.iteri
    (fun i (n : Spnc_spn.Model.node) ->
      Hashtbl.replace index n.Spnc_spn.Model.id i)
    nodes;
  let edges = ref [] in
  List.iter
    (fun (n : Spnc_spn.Model.node) ->
      let pi = Hashtbl.find index n.Spnc_spn.Model.id in
      List.iter
        (fun (c : Spnc_spn.Model.node) ->
          edges := (Hashtbl.find index c.Spnc_spn.Model.id, pi) :: !edges)
        (Spnc_spn.Model.children n))
    nodes;
  Spnc_partition.Dag.create ~num_nodes:(List.length nodes) ~edges:!edges

let ablation_partitioning () =
  header "Ablation — partitioner ordering and refinement (§IV-A4 choices)";
  let model = Lazy.force W.rat_class_model in
  let dag = dag_of_model model in
  Fmt.pr "DAG: %d nodes, %d edges@.@." dag.Spnc_partition.Dag.num_nodes
    (Spnc_partition.Dag.num_edges dag);
  Fmt.pr "%-34s %14s@." "configuration" "comm. cost";
  let module P = Spnc_partition.Partitioner in
  let run_cfg name cfg =
    let p = P.run ~config:cfg dag in
    assert (P.respects_topological_order dag p);
    Fmt.pr "%-34s %14d@." name (P.cost dag p)
  in
  let base = { P.default_config with P.max_partition_size = 1000 } in
  run_cfg "DFS ordering + refinement (paper)" base;
  run_cfg "DFS ordering, no refinement" { base with P.refinement_passes = 0 };
  run_cfg "random ordering + refinement"
    { base with P.ordering = P.Random_order 7 };
  run_cfg "random ordering, no refinement"
    { base with P.ordering = P.Random_order 7; refinement_passes = 0 };
  Fmt.pr
    "@.the paper's DFS-flavoured ordering keeps SPN subtrees contiguous and \
     should beat the random ordering of the original heuristic; Simple-Moves \
     refinement must never increase the cost.@."

let ablation_gpu_copy_opt () =
  header "Ablation — GPU device-buffer copy elimination (§IV-C)";
  let model = Lazy.force W.rat_class_model in
  let lower copy_opt =
    let hi = Spnc_hispn.From_model.translate model in
    let lo = Spnc_lospn.Lower_hispn.run hi in
    let lo =
      Spnc_lospn.Partition_pass.run
        ~options:
          {
            Spnc_lospn.Partition_pass.default_options with
            max_partition_size = 1000;
          }
        lo
    in
    let lo = Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo) in
    let g = Spnc_gpu.Lower_gpu.run lo in
    if copy_opt then Spnc_gpu.Copy_opt.run g else g
  in
  let report name m =
    let h2d, d2h = Spnc_gpu.Copy_opt.count_transfers m in
    let t =
      Spnc_gpu.Sim.total_seconds
        (Spnc_gpu.Sim.estimate m ~gpu:W.rtx ~entry:"spn_kernel" ~rows:10_000)
    in
    Fmt.pr "%-22s h2d %4d  d2h %4d  est. exec %8.4fs@." name h2d d2h t
  in
  report "naive schedule" (lower false);
  report "copy-optimized" (lower true);
  Fmt.pr "paper: the pass removes a significant number of expensive copies.@."

let ablation_gather_tables () =
  header "Ablation — discrete-leaf vectorization strategy (extension)";
  (* a discrete-heavy model: half categorical, half histogram leaves *)
  let rng = Spnc_data.Rng.create ~seed:77 in
  let model =
    Spnc_spn.Random_spn.generate_sized rng
      { Spnc_spn.Random_spn.default_config with
        num_features = 26; leaf_gaussian_fraction = 0.0; max_depth = 7 }
      ~min_ops:1500
  in
  Fmt.pr "model: %a@.@." Spnc_spn.Stats.pp (Spnc_spn.Stats.compute model);
  let time use_gather =
    let options =
      { (W.cpu_avx2 ()) with Options.use_gather_tables = use_gather }
    in
    let c = Compiler.compile ~options model in
    Compiler.estimate_seconds c ~rows:100_000
  in
  let scalarized = time false and gathered = time true in
  Fmt.pr "%-34s %12.4fs@." "per-lane scalarized lookups" scalarized;
  Fmt.pr "%-34s %12.4fs (%.2fx)@." "hardware indexed gathers" gathered
    (scalarized /. gathered);
  Fmt.pr
    "the paper scalarizes discrete lookups; AVX2/AVX-512 indexed gathers      are an extension this ablation quantifies.@."

let ablation_buffer_opt () =
  header "Ablation — CPU output-buffer copy avoidance (§IV-A5)";
  let model = (Lazy.force W.speaker_models).(0) in
  let hi = Spnc_hispn.From_model.translate model in
  let lo = Spnc_lospn.Lower_hispn.run hi in
  let naive = Spnc_lospn.Bufferize.run lo in
  let opt = Spnc_lospn.Buffer_opt.run naive in
  let count name m =
    Fmt.pr "%-22s copies %d  allocs %d@." name
      (Spnc_mlir.Ir.count_ops (fun o -> o.Spnc_mlir.Ir.name = "lo_spn.copy") m)
      (Spnc_mlir.Ir.count_ops (fun o -> o.Spnc_mlir.Ir.name = "lo_spn.alloc") m)
  in
  count "naive bufferization" naive;
  count "buffer-optimized" opt

(* -- Main ---------------------------------------------------------------------------------------- *)

let () =
  Fmt.pr "SPNC benchmark harness — scale: %s@." W.scale_name;
  Fmt.pr "(set SPNC_BENCH_SCALE=paper for paper-sized workloads)@.";
  fig6 ();
  fig6b ();
  fig7 ();
  fig8 ();
  fig9 ();
  compile_time_stats ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  compile_breakdown ();
  tab_ratspn ();
  ablation_partitioning ();
  ablation_gpu_copy_opt ();
  ablation_gather_tables ();
  ablation_buffer_opt ();
  Fmt.pr "@.done.@."
