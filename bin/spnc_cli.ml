(** spnc — command-line driver for the SPN compiler.

    Subcommands:
    - [generate]: synthesize a random SPN (generic or RAT-SPN) and write
      it to a binary or text file;
    - [inspect]: print model statistics and optionally the HiSPN / LoSPN
      IR of its query;
    - [compile]: run the full pipeline, printing per-stage timings,
      instruction counts and (for GPU) the pseudo-PTX;
    - [run]: compile and execute over synthetic inputs, printing result
      statistics and a comparison against the reference evaluator. *)

open Cmdliner
module Model = Spnc_spn.Model

(* sysexits-style exit codes (documented in README.md): scripts driving
   spnc can tell a bad input from a runtime failure from a timeout
   without parsing stderr. *)
let exit_compile_failure = 65 (* EX_DATAERR: bad model / failed pipeline *)
let exit_execution_failure = 70 (* EX_SOFTWARE: kernel failed at runtime *)
let exit_timeout = 75 (* EX_TEMPFAIL: deadline exceeded; retry may work *)

(* Every subcommand runs under this barrier: compiler and runtime
   failures land on stderr as one diagnostic with a class-specific
   nonzero exit code, never as an uncaught-exception backtrace. *)
let guarded (f : unit -> int) : int =
  try f () with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Fmt.epr "spnc: error: %s@." msg;
      1
  | Spnc_resilience.Diag.Diag_error d ->
      Fmt.epr "spnc: error: %a@." Spnc_resilience.Diag.pp d;
      exit_compile_failure
  | Spnc_resilience.Guard.Guard_failure d ->
      Fmt.epr "spnc: error: %a@." Spnc_resilience.Diag.pp d;
      exit_execution_failure
  | Spnc_resilience.Fault.Transient msg ->
      Fmt.epr "spnc: error: transient execution failure: %s@." msg;
      exit_execution_failure
  | Spnc_runtime.Exec.Chunk_error e ->
      Fmt.epr "spnc: error: kernel failed on samples [%d,%d): %s@."
        e.Spnc_runtime.Exec.chunk_lo e.Spnc_runtime.Exec.chunk_hi
        e.Spnc_runtime.Exec.message;
      exit_execution_failure
  | Spnc_runtime.Exec.Deadline_exceeded d ->
      Fmt.epr "spnc: error: deadline exceeded (over budget by %.3fs)@."
        (d.Spnc_runtime.Exec.now -. d.Spnc_runtime.Exec.deadline);
      exit_timeout
  | Spnc_spn.Validate.Invalid issues ->
      Fmt.epr "spnc: error: invalid model:@.%s@."
        (Spnc_spn.Validate.issues_to_string issues);
      exit_compile_failure

let write_model path m =
  if Filename.check_suffix path ".spn" then Spnc_spn.Serialize.write_file path m
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Spnc_spn.Text.to_string m))
  end

(* -- generate ----------------------------------------------------------------- *)

let generate seed kind features min_ops out =
  guarded @@ fun () ->
  let rng = Spnc_data.Rng.create ~seed in
  let model =
    match kind with
    | `Generic ->
        Spnc_spn.Random_spn.generate_sized rng
          { Spnc_spn.Random_spn.speaker_id_config with num_features = features }
          ~min_ops
    | `Rat ->
        let models =
          Spnc_spn.Rat_spn.generate rng
            { Spnc_spn.Rat_spn.bench_config with num_features = features }
        in
        models.(0)
  in
  write_model out model;
  let stats = Spnc_spn.Stats.compute model in
  Fmt.pr "wrote %s: %a@." out Spnc_spn.Stats.pp stats;
  (* [generate_sized] gives up after a few tries; a short model is still
     written and the exit status stays 0 *)
  if kind = `Generic && stats.Spnc_spn.Stats.total < min_ops then
    Fmt.epr "spnc: warning: --min-ops %d not reached: the model has %d ops@."
      min_ops stats.Spnc_spn.Stats.total;
  0

let generate_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let kind =
    Arg.(
      value
      & opt (enum [ ("generic", `Generic); ("rat-spn", `Rat) ]) `Generic
      & info [ "kind" ] ~doc:"Model family: generic or rat-spn.")
  in
  let features =
    Arg.(value & opt int 26 & info [ "features" ] ~doc:"Number of input features.")
  in
  let min_ops =
    Arg.(
      value & opt int 2000
      & info [ "min-ops" ]
          ~doc:
            "Minimum operation count of a generic model, best effort: \
             generation gives up after a few tries and warns when the model \
             falls short.  rat-spn models ignore it.")
  in
  let out =
    Arg.(
      value & opt string "model.spn"
      & info [ "o"; "output" ] ~doc:"Output path (.spn binary or .txt DSL).")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesize a random SPN model.")
    Term.(const generate $ seed $ kind $ features $ min_ops $ out)

(* -- train ---------------------------------------------------------------------- *)

let train data_path em_iters min_rows out seed =
  guarded @@ fun () ->
  let rng = Spnc_data.Rng.create ~seed in
  let dataset =
    match data_path with
    | Some path -> (
        match Spnc_data.Csv.read_file path with
        | Ok d -> d
        | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    | None ->
        (* no data given: synthesize a Gaussian-mixture training set *)
        let gmms =
          [| Spnc_data.Synth.random_gmm rng ~num_features:8 ~components:3 ~spread:3.0 |]
        in
        Spnc_data.Synth.dataset_of_gmms rng gmms ~rows_per_class:600
  in
  Fmt.pr "training data: %d rows x %d features@."
    (Spnc_data.Synth.num_rows dataset)
    dataset.Spnc_data.Synth.num_features;
  let model =
    Spnc_spn.Learnspn.learn rng
      ~config:{ Spnc_spn.Learnspn.default_config with min_rows }
      dataset.Spnc_data.Synth.samples
      ~num_features:dataset.Spnc_data.Synth.num_features ~name:"learned"
  in
  Fmt.pr "LearnSPN structure: %a@." Spnc_spn.Stats.pp (Spnc_spn.Stats.compute model);
  let model, report =
    Spnc_spn.Em.fit
      ~config:{ Spnc_spn.Em.default_config with iterations = em_iters }
      model dataset.Spnc_data.Synth.samples
  in
  (match (report.Spnc_spn.Em.log_likelihoods, List.rev report.Spnc_spn.Em.log_likelihoods) with
  | first :: _, last :: _ -> Fmt.pr "EM (%d iters): train LL %.2f -> %.2f@." em_iters first last
  | _ -> ());
  write_model out model;
  Fmt.pr "wrote %s@." out;
  0

let train_cmd =
  let data =
    Arg.(
      value & opt (some string) None
      & info [ "data" ] ~doc:"Training CSV (float features; NaN/empty = missing).")
  in
  let em = Arg.(value & opt int 5 & info [ "em-iterations" ] ~doc:"EM iterations.") in
  let min_rows =
    Arg.(value & opt int 16 & info [ "min-rows" ] ~doc:"LearnSPN row threshold.")
  in
  let out =
    Arg.(value & opt string "learned.spn" & info [ "o"; "output" ] ~doc:"Output model path.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "train" ~doc:"Learn an SPN from data (LearnSPN structure + EM weights).")
    Term.(const train $ data $ em $ min_rows $ out $ seed)

(* -- inspect ------------------------------------------------------------------- *)

let inspect path dump_hispn dump_lospn =
  guarded @@ fun () ->
  let model = Spnc_spn.Serialize.read_model path in
  Fmt.pr "%s: %a@." path Spnc_spn.Stats.pp (Spnc_spn.Stats.compute model);
  (match Spnc_spn.Validate.check model with
  | [] -> Fmt.pr "structure: valid (smooth, decomposable, normalized)@."
  | issues ->
      Fmt.pr "structure: INVALID@.%s@." (Spnc_spn.Validate.issues_to_string issues));
  if dump_hispn then begin
    let hi = Spnc_hispn.From_model.translate model in
    Fmt.pr "--- HiSPN ---@.%s@." (Spnc_mlir.Printer.modul_to_string hi)
  end;
  if dump_lospn then begin
    let hi = Spnc_hispn.From_model.translate model in
    let lo = Spnc_lospn.Lower_hispn.run hi in
    Fmt.pr "--- LoSPN ---@.%s@." (Spnc_mlir.Printer.modul_to_string lo)
  end;
  0

let inspect_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let hispn = Arg.(value & flag & info [ "hispn" ] ~doc:"Dump the HiSPN IR.") in
  let lospn = Arg.(value & flag & info [ "lospn" ] ~doc:"Dump the LoSPN IR.") in
  Cmd.v (Cmd.info "inspect" ~doc:"Show statistics and IR of a model.")
    Term.(const inspect $ path $ hispn $ lospn)

(* -- shared compile options ------------------------------------------------------ *)

let options_term =
  let target =
    Arg.(
      value
      & opt (enum [ ("cpu", Spnc.Options.Cpu); ("gpu", Spnc.Options.Gpu) ]) Spnc.Options.Cpu
      & info [ "target" ] ~doc:"Compilation target: cpu or gpu.")
  in
  let vectorize = Arg.(value & flag & info [ "vectorize" ] ~doc:"Enable SIMD vectorization.") in
  let no_veclib =
    Arg.(value & flag & info [ "no-veclib" ] ~doc:"Disable the vector math library.")
  in
  let no_shuffle =
    Arg.(value & flag & info [ "no-shuffle" ] ~doc:"Use gathers instead of shuffled loads.")
  in
  let opt_level =
    Arg.(value & opt int 1 & info [ "O"; "opt-level" ] ~doc:"Optimization level 0-3.")
  in
  let partition =
    Arg.(
      value & opt (some int) None
      & info [ "max-partition-size" ] ~doc:"Enable graph partitioning with this max task size.")
  in
  let batch = Arg.(value & opt int 4096 & info [ "batch-size" ] ~doc:"Batch size hint.") in
  let block = Arg.(value & opt int 64 & info [ "block-size" ] ~doc:"GPU block size.") in
  let marginal =
    Arg.(value & flag & info [ "support-marginal" ] ~doc:"Compile marginal inference support.")
  in
  let threads =
    Arg.(
      value & opt int 1
      & info [ "threads" ]
          ~doc:
            "Runtime worker threads; 0 (or negative) auto-detects from the \
             available cores.")
  in
  let streams =
    Arg.(
      value & opt int 1
      & info [ "streams" ]
          ~doc:
            "GPU stream chunks for double-buffered transfer/compute overlap \
             (1 = monolithic schedule).")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("vm", Spnc_cpu.Jit.Vm); ("jit", Spnc_cpu.Jit.Jit) ])
          Spnc_cpu.Jit.Jit
      & info [ "engine" ]
          ~doc:
            "CPU execution engine: jit (closure compiler, default) or vm \
             (reference interpreter).")
  in
  let kernel_cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel-cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist compiled kernels to $(docv) across processes \
             (crash-safe: checksummed entries, atomic publish, LRU-bounded; \
             corrupt entries are quarantined and recompiled — \
             docs/RESILIENCE.md).")
  in
  let kernel_cache_mb =
    Arg.(
      value & opt int 256
      & info [ "kernel-cache-mb" ]
          ~doc:"On-disk kernel cache size budget in megabytes.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Wall-clock budget per execution call, in milliseconds; \
             exceeding it cancels in-flight work and exits with code 75.")
  in
  let exec_retries =
    Arg.(
      value & opt int 2
      & info [ "exec-retries" ]
          ~doc:
            "Retries for transient execution failures (capped exponential \
             backoff, never past the deadline).")
  in
  let machine =
    Arg.(
      value
      & opt (enum [ ("ryzen", `Ryzen); ("xeon", `Xeon) ]) `Ryzen
      & info [ "machine" ] ~doc:"CPU model: ryzen (AVX2) or xeon (AVX-512).")
  in
  let veclib =
    Arg.(
      value
      & opt (some (enum (List.map (fun v -> (Spnc_machine.Machine.veclib_to_string v, v))
                           [ Spnc_machine.Machine.No_veclib; Spnc_machine.Machine.SVML;
                             Spnc_machine.Machine.Libmvec ])))
          None
      & info [ "veclib" ]
          ~doc:
            "Vector math library the machine links: libmvec, svml or none \
             (default: the machine's own — libmvec on ryzen, svml on xeon).  \
             Distinct from $(b,--no-veclib), which keeps the library \
             available but stops the compiler from calling it.")
  in
  let output_guard =
    Arg.(
      value
      & opt
          (enum
             [
               ("fail", Spnc_resilience.Guard.Fail);
               ("warn", Spnc_resilience.Guard.Warn);
               ("clamp", Spnc_resilience.Guard.Clamp);
             ])
          Spnc_resilience.Guard.Warn
      & info [ "output-guard" ]
          ~doc:"Policy for NaN/inf/log-underflow kernel outputs.")
  in
  let no_gpu_fallback =
    Arg.(
      value & flag
      & info [ "no-gpu-fallback" ]
          ~doc:"Fail instead of falling back to CPU on a GPU backend error.")
  in
  let passorder =
    let passorder_c =
      let parse s =
        let order = Spnc_smith.Passorder.order_of_string s in
        match Spnc.Pipelines.lospn_opt_passes order with
        | Ok _ -> Ok order
        | Error e -> Error (`Msg e)
      in
      let pp ppf o = Fmt.string ppf (Spnc_smith.Passorder.order_to_string o) in
      Arg.conv (parse, pp)
    in
    Arg.(
      value
      & opt (some passorder_c) None
      & info [ "passorder" ] ~docv:"P1,P2,.."
          ~doc:
            "Override the LoSPN opt-stage pass ordering (pool: constfold, \
             cse, dce, canonicalize).  Validated against the pass pool; \
             participates in the artifact fingerprint, so cached kernels are \
             keyed per ordering.  Orderings are discovered by $(b,spnc_fuzz \
             --smith-explore) (docs/FUZZING.md).")
  in
  let passorder_file =
    let passorder_file_c =
      let parse path =
        match Spnc_smith.Passorder.read_leaderboard ~path with
        | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e))
        | Ok scores -> (
            match Spnc_smith.Passorder.best scores with
            | Some s -> Ok s.Spnc_smith.Passorder.order
            | None ->
                Error (`Msg (path ^ ": no bit-identical ordering to promote")))
      in
      let pp ppf o = Fmt.string ppf (Spnc_smith.Passorder.order_to_string o) in
      Arg.conv (parse, pp)
    in
    Arg.(
      value
      & opt (some passorder_file_c) None
      & info [ "passorder-file" ] ~docv:"FILE"
          ~doc:
            "Promote the best bit-identical pass ordering from a \
             $(b,PASSORDER_cpu.json) leaderboard written by $(b,spnc_fuzz \
             --smith-explore); $(b,--passorder) wins when both are given.")
  in
  let build target vectorize no_veclib no_shuffle opt_level partition batch block
      marginal threads streams engine kernel_cache_dir kernel_cache_mb
      deadline_ms exec_retries machine veclib output_guard
      no_gpu_fallback passorder passorder_file =
    {
      Spnc.Options.default with
      target;
      machine =
        (let m =
           match machine with
           | `Ryzen -> Spnc_machine.Machine.ryzen_3900xt
           | `Xeon -> Spnc_machine.Machine.xeon_9242
         in
         match veclib with
         | None -> m
         | Some v -> { m with Spnc_machine.Machine.veclib = v });
      vectorize;
      use_veclib = not no_veclib;
      use_shuffle = not no_shuffle;
      opt_level = Spnc_cpu.Optimizer.level_of_int opt_level;
      max_partition_size = partition;
      batch_size = batch;
      block_size = block;
      support_marginal = marginal;
      threads = Spnc_runtime.Exec.normalize_threads threads;
      streams = max 1 streams;
      engine;
      kernel_cache_dir;
      kernel_cache_mb = max 1 kernel_cache_mb;
      deadline_ms;
      exec_retries = max 0 exec_retries;
      output_guard;
      gpu_fallback = not no_gpu_fallback;
      lospn_opt_order =
        (match passorder with Some o -> Some o | None -> passorder_file);
    }
  in
  Term.(
    const build $ target $ vectorize $ no_veclib $ no_shuffle $ opt_level
    $ partition $ batch $ block $ marginal $ threads $ streams $ engine
    $ kernel_cache_dir $ kernel_cache_mb $ deadline_ms
    $ exec_retries $ machine $ veclib $ output_guard $ no_gpu_fallback
    $ passorder $ passorder_file)

(* -- observability flags ----------------------------------------------------------- *)

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of this invocation to $(docv); \
             load it in chrome://tracing or Perfetto (docs/OBSERVABILITY.md).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics-registry snapshot before exiting.")
  in
  let remarks =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "remarks" ] ~docv:"FILE"
          ~doc:
            "Collect optimization remarks (the -Rpass analogue: which \
             rewrite fired, at which spn.node location).  Without a value \
             the remark stream is printed to stderr; with $(docv) it is \
             written as JSON (docs/OBSERVABILITY.md).")
  in
  Term.(
    const (fun trace metrics remarks -> (trace, metrics, remarks))
    $ trace $ metrics $ remarks)

(* Runs [f] with tracing/remarks enabled iff requested, then emits the
   artifacts even when [f] fails — a crashed compile is exactly when the
   trace is most wanted. *)
let with_obs (trace, metrics, remarks) (f : unit -> int) : int =
  if trace <> None then Spnc_obs.Trace.set_enabled true;
  if remarks <> None then Spnc_obs.Remark.set_enabled true;
  let finish () =
    (match trace with
    | Some path ->
        let n = List.length (Spnc_obs.Trace.events ()) in
        Spnc_obs.Trace.set_enabled false;
        Spnc_obs.Trace.write_file path;
        Fmt.pr "trace: %d event(s) written to %s@." n path
    | None -> ());
    (match remarks with
    | Some "-" -> Fmt.epr "%a" Spnc_obs.Remark.pp ()
    | Some path ->
        Spnc_obs.Remark.write_file path;
        Fmt.pr "remarks: %d remark(s) written to %s@."
          (List.length (Spnc_obs.Remark.all ()))
          path
    | None -> ());
    if metrics then Fmt.pr "%a" Spnc_obs.Snapshot.pp (Spnc_obs.Snapshot.take ())
  in
  match f () with
  | code ->
      finish ();
      code
  | exception e ->
      finish ();
      raise e

(* -- tuned configurations --------------------------------------------------------- *)

(* A tuned config is a compile key: it replaces the knobs and the
   machine's ISA/veclib only; runtime knobs (threads, scheduler, engine,
   caches, guards, deadlines) keep their command-line values. *)
let load_tuned_config path (o : Spnc.Options.t) : Spnc.Options.t =
  let module Json = Spnc_obs.Json in
  (* a bare key, or a full DSE report whose [best_config] is one *)
  let key j = Option.value (Json.member "best_config" j) ~default:j in
  match
    Result.bind (Json.parse_file path) (fun j ->
        Spnc.Options.compile_of_json (key j))
  with
  | Ok k -> Spnc.Options.with_compile k o
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* -- compile ---------------------------------------------------------------------- *)

let pp_cache_counters () =
  let k = Spnc.Compiler.cache_counters () in
  Fmt.pr "kernel cache: %d disk hit(s), %d full compile(s)@."
    k.Spnc.Compiler.disk_hits k.Spnc.Compiler.full_compiles;
  let d = Spnc.Kcache.counters () in
  if d.Spnc.Kcache.stores + d.Spnc.Kcache.hits + d.Spnc.Kcache.misses > 0 then
    Fmt.pr
      "disk cache: %d hit(s), %d miss(es), %d store(s), %d eviction(s), %d \
       corrupt@."
      d.Spnc.Kcache.hits d.Spnc.Kcache.misses d.Spnc.Kcache.stores
      d.Spnc.Kcache.evictions d.Spnc.Kcache.corrupt

let compile path options dump_ptx verbose obs =
  guarded @@ fun () ->
  with_obs obs @@ fun () ->
  let model = Spnc_spn.Serialize.read_model path in
  let c = Spnc.Compiler.compile ~options model in
  Fmt.pr "model: %a@." Spnc_spn.Stats.pp (Spnc_spn.Stats.compute model);
  Fmt.pr "options: %a@." Spnc.Options.pp options;
  Fmt.pr "datatype: %s (worst log2 magnitude %.1f)@."
    (if c.Spnc.Compiler.datatype.Spnc_lospn.Lower_hispn.use_log_space then
       "log-space f32"
     else "linear f32")
    c.Spnc.Compiler.datatype.Spnc_lospn.Lower_hispn.worst_log2_magnitude;
  Fmt.pr "tasks: %d@." c.Spnc.Compiler.num_tasks;
  List.iter
    (fun d -> Fmt.pr "diagnostic: %a@." Spnc_resilience.Diag.pp d)
    c.Spnc.Compiler.diags;
  Fmt.pr "--- compile time breakdown ---@.%a" Spnc_mlir.Pass.pp_timings
    (`Stages c.Spnc.Compiler.timings);
  (match c.Spnc.Compiler.artifact with
  | Spnc.Compiler.Cpu_kernel { lir; regalloc; _ } ->
      Fmt.pr "kernel instructions: %d@." (Spnc_cpu.Lir.module_size lir);
      let spills =
        Array.fold_left (fun acc s -> acc + Spnc_cpu.Regalloc.total_spills s) 0 regalloc
      in
      Fmt.pr "register spills: %d@." spills
  | Spnc.Compiler.Gpu_kernel { ptx; cubin; _ } ->
      Fmt.pr "SASS instructions: %d, registers: %d, cubin bytes: %d@."
        cubin.Spnc_gpu.Ptx.instructions cubin.Spnc_gpu.Ptx.regs_allocated
        (Bytes.length cubin.Spnc_gpu.Ptx.bytes);
      if dump_ptx then Fmt.pr "--- PTX ---@.%s@." ptx);
  if verbose then pp_cache_counters ();
  0

let compile_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let ptx = Arg.(value & flag & info [ "dump-ptx" ] ~doc:"Print the pseudo-PTX.") in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Also print kernel-cache counters.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a model and report the pipeline.")
    Term.(const compile $ path $ options_term $ ptx $ verbose $ obs_term)

(* -- run ---------------------------------------------------------------------------- *)

let run path options rows seed verify verbose profile tuned_config autotune obs =
  guarded @@ fun () ->
  with_obs obs @@ fun () ->
  let options =
    match tuned_config with
    | None -> options
    | Some p -> load_tuned_config p options
  in
  let model = Spnc_spn.Serialize.read_model path in
  let rng = Spnc_data.Rng.create ~seed in
  let data =
    Array.init rows (fun _ ->
        Array.init model.Model.num_features (fun _ ->
            Spnc_data.Rng.range rng (-3.0) 3.0))
  in
  let options =
    match autotune with
    | None -> options
    | Some measure ->
        let module T = Spnc_tune.Tune in
        let r = T.tune ~budget:{ T.measure; reps = 3 } ~options ~data model in
        Fmt.pr "--- autotune ---@.%a" T.pp_result r;
        Fmt.pr "autotuned config: %s@." r.T.best.T.label;
        r.T.best.T.options
  in
  let c = Spnc.Compiler.compile ~options model in
  let t0 = Unix.gettimeofday () in
  let out, prof =
    match profile with
    | None -> (Spnc.Compiler.execute c data, None)
    | Some _ ->
        let out, p = Spnc.Compiler.execute_profiled c data in
        (out, Some p)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let sum = Array.fold_left ( +. ) 0.0 out in
  Fmt.pr "evaluated %d samples in %.4fs (host wall-clock)@." rows wall;
  Fmt.pr "modelled execution time on %s: %.6fs@."
    (match options.Spnc.Options.target with
    | Spnc.Options.Cpu -> options.Spnc.Options.machine.Spnc_machine.Machine.cpu_name
    | Spnc.Options.Gpu -> options.Spnc.Options.gpu.Spnc_machine.Machine.gpu_name)
    (Spnc.Compiler.estimate_seconds c ~rows);
  Fmt.pr "mean log-likelihood: %.6f@." (sum /. float_of_int rows);
  if verify then begin
    let worst = ref 0.0 in
    Array.iteri
      (fun i row ->
        let expected = Spnc_spn.Infer.log_likelihood model row in
        let d = Float.abs (out.(i) -. expected) in
        if d > !worst then worst := d)
      data;
    Fmt.pr "verification vs reference evaluator: max |delta| = %.3g %s@." !worst
      (if !worst < 1e-6 then "(OK)" else "(MISMATCH)")
  end;
  (match prof with
  | None -> ()
  | Some p ->
      Fmt.pr "--- per-SPN-node profile ---@.%a"
        (Spnc_cpu.Profile.pp_report ?k:None)
        p;
      (* line the hot nodes up with the execution spans in the trace *)
      if Spnc_obs.Trace.enabled () then Spnc_cpu.Profile.to_trace p;
      (match profile with
      | Some path when path <> "-" ->
          Spnc_cpu.Profile.write_file p path;
          Fmt.pr "profile: written to %s@." path
      | _ -> ()));
  if verbose then begin
    pp_cache_counters ();
    let count name = Spnc_obs.Metrics.(counter_value (counter name)) in
    Fmt.pr "jit fusion: %d Gaussian leaf(s), %d log-sum-exp(s)@."
      (count "cpu.jit.fused_gaussian") (count "cpu.jit.fused_lse")
  end;
  0

let run_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let rows = Arg.(value & opt int 1000 & info [ "rows" ] ~doc:"Sample count.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Data RNG seed.") in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check against the reference evaluator.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print kernel-cache counters and the JIT's fused idioms.")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Profile the execution per SPN node (sampling-free: every \
             executed instruction is counted and attributed through \
             provenance; CPU targets only).  Prints the hottest-node \
             table; with $(docv) the full profile is also written as \
             JSON (docs/OBSERVABILITY.md).")
  in
  let tuned_config =
    Arg.(
      value
      & opt (some string) None
      & info [ "tuned-config" ] ~docv:"FILE"
          ~doc:
            "Load a tuned configuration JSON (from $(b,spnc tune --out) or \
             the DSE report) and compile with it; runtime knobs given on \
             this command line still apply.")
  in
  let autotune =
    Arg.(
      value
      & opt ~vopt:(Some 5) (some int) None
      & info [ "autotune" ] ~docv:"BUDGET"
          ~doc:
            "Auto-tune the vectorization configuration before running: \
             explore the design space, wall-clock-validate the top $(docv) \
             candidates (default 5) and run with the winner.  With \
             $(b,--kernel-cache-dir) the tuned config is cached by model \
             digest, so tuned models recompile free.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute a model on synthetic data.")
    Term.(
      const run $ path $ options_term $ rows $ seed $ verify $ verbose
      $ profile $ tuned_config $ autotune $ obs_term)

(* -- tune --------------------------------------------------------------------------- *)

let tune path options rows seed budget reps no_profile out report obs =
  guarded @@ fun () ->
  with_obs obs @@ fun () ->
  let module T = Spnc_tune.Tune in
  let model = Spnc_spn.Serialize.read_model path in
  let rng = Spnc_data.Rng.create ~seed in
  let data =
    Array.init rows (fun _ ->
        Array.init model.Model.num_features (fun _ ->
            Spnc_data.Rng.range rng (-3.0) 3.0))
  in
  let r =
    T.tune
      ~budget:{ T.measure = budget; reps = max 1 reps }
      ~use_profile:(not no_profile) ~options ~data model
  in
  Fmt.pr "%a" T.pp_result r;
  let write path text =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  in
  (* the tuned config is the winner's compile key, as the cache stores it *)
  let config =
    Spnc.Options.(fingerprint (compile_of r.T.best.T.options)) ^ "\n"
  in
  (match out with
  | None -> Fmt.pr "%s" config
  | Some p ->
      write p config;
      Fmt.pr "tuned config: written to %s@." p);
  (match report with
  | None -> ()
  | Some p ->
      write p (Spnc_obs.Json.to_string_pretty (T.result_to_json r));
      Fmt.pr "dse report: written to %s@." p);
  0

let tune_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let rows =
    Arg.(
      value & opt int 500
      & info [ "rows" ] ~doc:"Sample count for measurement and profiling.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Data RNG seed.") in
  let budget =
    Arg.(
      value & opt int 5
      & info [ "budget" ]
          ~doc:
            "Wall-clock validation budget: how many top-ranked candidates \
             (by modelled time) get measured and bit-checked.")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~doc:"Best-of repetitions per measured candidate.")
  in
  let no_profile =
    Arg.(
      value & flag
      & info [ "no-profile" ]
          ~doc:
            "Skip the profile-feedback stage (no search-space pruning, no \
             per-task refinement).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the tuned configuration JSON to $(docv) (otherwise it is \
             printed); feed it back via $(b,spnc run --tuned-config).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the full DSE report JSON (ranking, measurements, \
                profile feedback) to $(docv).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Explore the vectorization design space (the paper's Fig. 6) and \
          auto-tune a model's compile configuration.")
    Term.(
      const tune $ path $ options_term $ rows $ seed $ budget $ reps
      $ no_profile $ out $ report $ obs_term)

let main_cmd =
  Cmd.group
    (Cmd.info "spnc" ~version:"1.0.0"
       ~doc:"MLIR-style compiler for fast Sum-Product Network inference.")
    [ generate_cmd; train_cmd; inspect_cmd; compile_cmd; run_cmd; tune_cmd ]

let () =
  (* CI chaos canaries arm fault injection in this unmodified binary via
     the SPNC_CHAOS environment variable (docs/RESILIENCE.md) *)
  Spnc_resilience.Fault.arm_from_env ();
  exit (Cmd.eval' main_cmd)
