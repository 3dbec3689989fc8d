(** bench_cpu — VM-vs-JIT wall-clock comparison on the speaker-ID
    workload, writing a machine-readable [BENCH_cpu.json] so CI can track
    the perf trajectory per PR (docs/PERFORMANCE.md).

    Unlike [main.ml] (the full figure-by-figure harness, Bechamel-based),
    this is a focused smoke benchmark: compile each speaker model once,
    execute the clean-speech rows on both engines, report best-of-[reps]
    wall-clock per engine, their ratio, and an exact output comparison.
    Two configurations are measured: the scalar baseline ([no-vec]) and
    the paper's DSE-best CPU configuration (AVX2 + veclib + shuffle); the
    headline [jit_speedup] is the best-CPU one.  The scalar kernels spend
    most of their time in libm (log/exp of the log-space ops), which both
    engines pay identically, so dispatch elimination shows up strongest
    on the vectorized kernels, where the VM pays a per-lane opcode match.

    {v
    bench_cpu [--rows N] [--reps N] [--threads N] [--out FILE]
              [--min-speedup X]
    v}

    Exit is nonzero when the engines' outputs diverge, or when the
    measured best-CPU JIT speedup falls below [--min-speedup] (default 0:
    report only — CI hosts are too noisy for a hard perf gate by
    default). *)

module W = Workloads
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Exec = Spnc_runtime.Exec

let usage =
  "bench_cpu [--rows N] [--reps N] [--threads N] [--out FILE] [--min-speedup X]"

let rows_arg = ref 0 (* 0 = workload default *)
let reps = ref 5
let threads = ref 1
let out_path = ref "BENCH_cpu.json"
let trace_path = ref "TRACE_cpu.json"
let metrics_path = ref "METRICS_cpu.json"
let remarks_path = ref "REMARKS_cpu.json"
let profile_path = ref "PROFILE_cpu.json"
let min_speedup = ref 0.0
let cache_dir = ref ""
let cache_mb = ref 256
let sustained_calls = ref 120
let sustained_rows = ref 256
let sustained_threads = ref 4
let min_sustained_speedup = ref 0.0
let dse_budget = ref 4
let dse_out = ref "DSE_cpu.json"

let spec =
  [
    ("--rows", Arg.Set_int rows_arg, "N Samples to execute (default: workload scale)");
    ("--reps", Arg.Set_int reps, "N Timed repetitions; best-of wins (default 5)");
    ("--threads", Arg.Set_int threads, "N Runtime worker domains (default 1)");
    ("--out", Arg.Set_string out_path, "FILE Output JSON path (default BENCH_cpu.json)");
    ( "--trace",
      Arg.Set_string trace_path,
      "FILE Chrome trace artifact path (default TRACE_cpu.json)" );
    ( "--metrics-out",
      Arg.Set_string metrics_path,
      "FILE Metrics snapshot path (default METRICS_cpu.json)" );
    ( "--remarks-out",
      Arg.Set_string remarks_path,
      "FILE Optimization-remark artifact path (default REMARKS_cpu.json)" );
    ( "--profile-out",
      Arg.Set_string profile_path,
      "FILE Per-SPN-node profile artifact path (default PROFILE_cpu.json)" );
    ( "--min-speedup",
      Arg.Set_float min_speedup,
      "X Fail if the best-CPU JIT speedup over VM is below X (default 0 = no gate)" );
    ( "--kernel-cache-dir",
      Arg.Set_string cache_dir,
      "DIR Persistent kernel-cache directory, used by every compile and by \
       the cold-start section (default: cold-start uses a fresh temp dir)" );
    ( "--kernel-cache-mb",
      Arg.Set_int cache_mb,
      "MB Disk budget for the persistent kernel cache (default 256)" );
    ( "--sustained-calls",
      Arg.Set_int sustained_calls,
      "N Repeated executes in the sustained-throughput run (default 120)" );
    ( "--sustained-rows",
      Arg.Set_int sustained_rows,
      "N Rows per call in the sustained-throughput run (default 256)" );
    ( "--sustained-threads",
      Arg.Set_int sustained_threads,
      "N Worker domains in the sustained-throughput run (default 4)" );
    ( "--min-sustained-speedup",
      Arg.Set_float min_sustained_speedup,
      "X Fail if pool throughput is below X times spawn-per-call (default 0 = no gate)" );
    ( "--dse-budget",
      Arg.Set_int dse_budget,
      "N Wall-clock validation budget for the auto-tuner section (default 4)" );
    ( "--dse-out",
      Arg.Set_string dse_out,
      "FILE Full DSE report artifact path (default DSE_cpu.json)" );
  ]

let time_best f =
  let best = ref infinity in
  for _ = 1 to max 1 !reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type config_result = {
  cfg_name : string;
  vm_s : float;
  jit_s : float;
  identical : bool;
}

(* apply the --kernel-cache-dir/--kernel-cache-mb flags to a workload
   option set (no-op when the flag is unset) *)
let with_cache_flags base =
  {
    base with
    Options.kernel_cache_dir = (if !cache_dir = "" then None else Some !cache_dir);
    kernel_cache_mb = max 1 !cache_mb;
  }

let bench_config ~models ~data cfg_name base_options : config_result =
  let options engine =
    { (with_cache_flags base_options) with Options.threads = !threads; engine }
  in
  (* engine is a runtime-only option, so the kernel cache shares one
     compiled artifact between the VM and JIT runs of each model *)
  let vm_c =
    Array.map
      (fun m -> Compiler.compile ~options:(options Spnc_cpu.Jit.Vm) m)
      models
  in
  let jit_c =
    Array.map
      (fun m -> Compiler.compile ~options:(options Spnc_cpu.Jit.Jit) m)
      models
  in
  (* warmup + exact cross-engine output check *)
  let identical = ref true in
  Array.iteri
    (fun i vm ->
      let a = Compiler.execute vm data and b = Compiler.execute jit_c.(i) data in
      Array.iteri
        (fun j x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(j) then begin
            if !identical then
              Fmt.epr "MISMATCH [%s]: model %d row %d: vm=%h jit=%h@." cfg_name
                i j x b.(j);
            identical := false
          end)
        a)
    vm_c;
  let vm_s =
    time_best (fun () ->
        Array.iter (fun c -> ignore (Compiler.execute c data)) vm_c)
  in
  let jit_s =
    time_best (fun () ->
        Array.iter (fun c -> ignore (Compiler.execute c data)) jit_c)
  in
  Fmt.pr "%-8s vm %.4fs  jit %.4fs  speedup %.2fx  bit-identical %b@." cfg_name
    vm_s jit_s (vm_s /. jit_s) !identical;
  { cfg_name; vm_s; jit_s; identical = !identical }

(* -- Sustained throughput (docs/PERFORMANCE.md §4) ---------------------------- *)

(* The serving scenario: many small executes against one loaded kernel.
   The pool side loads the kernel once (its worker domains persist across
   calls); the baseline tears the runtime down and back up around every
   call — the spawn-per-call behaviour the streaming layer replaces.
   Both sides share one pre-compiled JIT kernel, so the difference is
   pure runtime cost. *)

type sustained_result = {
  calls_per_sec : float;
  p50_ms : float;
  p99_ms : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let time_calls ~calls f =
  let lat = Array.make calls 0.0 in
  (* warmup: fault in the code paths and the per-worker contexts *)
  for _ = 1 to 3 do
    f ()
  done;
  let t0 = Unix.gettimeofday () in
  for i = 0 to calls - 1 do
    let c0 = Unix.gettimeofday () in
    f ();
    lat.(i) <- Unix.gettimeofday () -. c0
  done;
  let total = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  {
    calls_per_sec = float_of_int calls /. total;
    p50_ms = 1e3 *. percentile lat 0.50;
    p99_ms = 1e3 *. percentile lat 0.99;
  }

let bench_sustained ~model ~data : sustained_result * sustained_result =
  let options =
    { (with_cache_flags (W.cpu_avx2 ())) with Options.threads = !sustained_threads }
  in
  let c = Compiler.compile ~options model in
  let lir, jit =
    match c.Compiler.artifact with
    | Compiler.Cpu_kernel a ->
        (a.Compiler.lir, Compiler.force_jit a.Compiler.jit)
    | Compiler.Gpu_kernel _ -> assert false
  in
  let rows = min !sustained_rows (Array.length data) in
  let num_features = Array.length data.(0) in
  let flat = Array.concat (Array.to_list (Array.sub data 0 rows)) in
  let calls = max 1 !sustained_calls in
  let load () =
    Exec.load ~batch_size:options.Options.batch_size
      ~threads:!sustained_threads ~jit ~out_cols:c.Compiler.out_cols lir
  in
  (* persistent pool: one load, many executes *)
  let exec = load () in
  let pool =
    time_calls ~calls (fun () ->
        ignore (Exec.execute exec ~flat ~rows ~num_features))
  in
  Exec.shutdown exec;
  (* spawn-per-call baseline: domains spawned and joined around each call *)
  let spawn =
    time_calls ~calls (fun () ->
        let e = load () in
        ignore (Exec.execute e ~flat ~rows ~num_features);
        Exec.shutdown e)
  in
  (pool, spawn)

(* -- Fig. 6: vectorization design space + auto-tuner -------------------------- *)

(* The paper's central CPU experiment, closed-loop: first the four Fig. 6
   points measured explicitly (the figure's shape is gated on the
   deterministic modelled times — vectorizing WITHOUT a vector library is
   a slowdown over scalar; the veclib is the big win; shuffled loads add
   a small extra win on AVX2), then the auto-tuner searching the same
   lattice automatically, with every measured candidate bit-checked
   against the scalar reference. *)

module Tune = Spnc_tune.Tune

type fig6_cfg = {
  f6_name : string;
  f6_est : float;  (** modelled seconds at the paper's sample count *)
  f6_wall : float;
  f6_identical : bool;
}

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let bench_fig6 ~model ~data : fig6_cfg list * Tune.result =
  let est_rows = W.clean_rows_paper in
  let configs =
    [
      ("novec", W.cpu_novec ());
      ("vec", W.cpu_avx2 ~veclib:false ~shuffle:false ());
      ("vec+veclib", W.cpu_avx2 ~shuffle:false ());
      ("vec+veclib+shuffle", W.cpu_avx2 ());
    ]
  in
  let ref_out = ref [||] in
  let points =
    List.map
      (fun (f6_name, o) ->
        let options = { (with_cache_flags o) with Options.threads = !threads } in
        let c = Compiler.compile ~options model in
        let out = Compiler.execute c data in
        if f6_name = "novec" then ref_out := out;
        let f6_wall = time_best (fun () -> ignore (Compiler.execute c data)) in
        let r =
          {
            f6_name;
            f6_est = Compiler.estimate_seconds c ~rows:est_rows;
            f6_wall;
            f6_identical = bits_equal out !ref_out;
          }
        in
        Fmt.pr "fig6 %-20s est %.6fs  wall %.4fs  bit-identical %b@." r.f6_name
          r.f6_est r.f6_wall r.f6_identical;
        r)
      configs
  in
  (* auto-tuner, seeded from the repo's fixed best-CPU config: the tuned
     result must be no slower (modelled) than what we hard-code today *)
  let base = { (with_cache_flags (W.cpu_avx2 ())) with Options.threads = !threads } in
  let tune_rows = min 500 (Array.length data) in
  let r =
    Tune.tune
      ~budget:{ Tune.measure = max 1 !dse_budget; reps = !reps }
      ~est_rows ~options:base
      ~data:(Array.sub data 0 tune_rows)
      model
  in
  Fmt.pr "--- auto-tune (budget %d) ---@.%a" !dse_budget Tune.pp_result r;
  (points, r)

let fig6_order_ok (points : fig6_cfg list) =
  let est name =
    match List.find_opt (fun p -> p.f6_name = name) points with
    | Some p -> p.f6_est
    | None -> nan
  in
  est "vec" > est "novec"
  && est "novec" > est "vec+veclib"
  && est "vec+veclib" >= est "vec+veclib+shuffle"

(* -- Cold start: persistent disk tier vs full compile ------------------------- *)

(* The serving-restart scenario (docs/RESILIENCE.md §1): a process comes
   up with an empty in-memory cache and must produce runnable kernels for
   every speaker model.  We time that in two worlds — nothing cached
   anywhere (full pipeline per model) and a warm on-disk kernel cache
   (deserialize + JIT-cell rebuild per model) — with best-of-[reps]
   timing, resetting the memory tier before every repetition. *)

type cold_start_result = {
  full_compile_s : float;
  disk_hit_s : float;
  cold_disk_hits : int;
}

let bench_cold_start ~models : cold_start_result =
  let dir =
    if !cache_dir <> "" then !cache_dir
    else
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "spnc-bench-kcache-%d" (Unix.getpid ()))
  in
  let base = W.cpu_avx2 () in
  let disk_options =
    {
      base with
      Options.kernel_cache_dir = Some dir;
      kernel_cache_mb = max 1 !cache_mb;
    }
  in
  let compile_all options =
    Compiler.reset_kernel_cache ();
    Array.iter (fun m -> ignore (Compiler.compile ~options m)) models
  in
  let full_compile_s = time_best (fun () -> compile_all base) in
  (* seed the disk tier, then measure fresh-process compiles against it *)
  compile_all disk_options;
  let disk_hit_s = time_best (fun () -> compile_all disk_options) in
  let k = Compiler.cache_counters () in
  { full_compile_s; disk_hit_s; cold_disk_hits = k.Compiler.disk_hits }

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let models = Lazy.force W.speaker_models in
  let all_rows = Lazy.force W.speech_clean in
  let rows =
    if !rows_arg > 0 then min !rows_arg (Array.length all_rows)
    else Array.length all_rows
  in
  let data = Array.sub all_rows 0 rows in
  Fmt.pr
    "bench_cpu: %d speaker models, %d rows, %d rep(s), %d thread(s), scale %s@."
    (Array.length models) rows !reps !threads W.scale_name;
  let scalar = bench_config ~models ~data "no-vec" (W.cpu_novec ()) in
  let best = bench_config ~models ~data "avx2" (W.cpu_avx2 ()) in
  let identical = scalar.identical && best.identical in
  let speedup = best.vm_s /. best.jit_s in
  (* sustained serving throughput on the first speaker model: persistent
     pool vs spawn-per-call (docs/PERFORMANCE.md §4) *)
  let pool, spawn = bench_sustained ~model:models.(0) ~data in
  let sustained_speedup = pool.calls_per_sec /. spawn.calls_per_sec in
  Fmt.pr
    "sustained (threads=%d, %d rows x %d calls): pool %.0f calls/s (p50 %.3fms \
     p99 %.3fms)  spawn-per-call %.0f calls/s (p50 %.3fms p99 %.3fms)  \
     speedup %.2fx@."
    !sustained_threads !sustained_rows !sustained_calls pool.calls_per_sec
    pool.p50_ms pool.p99_ms spawn.calls_per_sec spawn.p50_ms spawn.p99_ms
    sustained_speedup;
  let k = Compiler.cache_counters () in
  Fmt.pr "headline (best-CPU config) jit speedup: %.2fx@." speedup;
  Fmt.pr "kernel cache: %d hit(s), %d miss(es), %d full compile(s), %d disk hit(s)@."
    k.Compiler.hits k.Compiler.misses k.Compiler.full_compiles k.Compiler.disk_hits;
  (* Fig. 6 design space + auto-tuner (after the counters are captured,
     so its ~dozens of compiles do not shift the cache section) *)
  let fig6_points, tune_r = bench_fig6 ~model:models.(0) ~data in
  let order_ok = fig6_order_ok fig6_points in
  let fig6_identical = List.for_all (fun p -> p.f6_identical) fig6_points in
  Fmt.pr "fig6 ordering (vec > novec > vec+veclib >= vec+veclib+shuffle): %s@."
    (if order_ok then "OK" else "VIOLATED");
  (* cold start: full pipeline vs warm disk tier (resets the memory
     cache, so runs after the main counters are captured) *)
  let cold = bench_cold_start ~models in
  Fmt.pr
    "cold start (%d models): full compile %.4fs  disk-served %.4fs  speedup \
     %.2fx  (%d disk hit(s))@."
    (Array.length models) cold.full_compile_s cold.disk_hit_s
    (cold.full_compile_s /. cold.disk_hit_s)
    cold.cold_disk_hits;
  let oc = open_out !out_path in
  let fig6_json =
    let pts =
      String.concat ",\n      "
        (List.map
           (fun p ->
             Printf.sprintf
               "{ \"name\": \"%s\", \"est_seconds\": %.6f, \"wall_seconds\": \
                %.6f, \"bit_identical\": %b }"
               p.f6_name p.f6_est p.f6_wall p.f6_identical)
           fig6_points)
    in
    let measured =
      List.filter (fun c -> c.Tune.wall_seconds <> None) tune_r.Tune.candidates
    in
    let all_measured_identical =
      measured <> []
      && List.for_all (fun c -> c.Tune.identical = Some true) measured
    in
    let best = tune_r.Tune.best and reference = tune_r.Tune.reference in
    Printf.sprintf
      "{\n\
      \    \"configs\": [\n\
      \      %s\n\
      \    ],\n\
      \    \"order_ok\": %b,\n\
      \    \"bit_identical\": %b,\n\
      \    \"autotune\": {\n\
      \      \"budget\": %d,\n\
      \      \"space_size\": %d,\n\
      \      \"searched\": %d,\n\
      \      \"best\": \"%s\",\n\
      \      \"best_est_seconds\": %.6f,\n\
      \      \"default_est_seconds\": %.6f,\n\
      \      \"best_no_slower_than_default\": %b,\n\
      \      \"all_measured_bit_identical\": %b,\n\
      \      \"spearman\": %s,\n\
      \      \"inverted_dimensions\": \"%s\"\n\
      \    }\n\
      \  }"
      pts order_ok fig6_identical tune_r.Tune.budget.Tune.measure
      tune_r.Tune.space_size tune_r.Tune.searched best.Tune.label
      best.Tune.est_seconds reference.Tune.est_seconds
      (best.Tune.est_seconds <= reference.Tune.est_seconds)
      all_measured_identical
      (match Tune.spearman tune_r with
      | None -> "null"
      | Some v -> Printf.sprintf "%.4f" v)
      (String.concat "," (Tune.inverted_dimensions tune_r))
  in
  let config_json r =
    Printf.sprintf
      "{ \"vm_seconds\": %.6f, \"jit_seconds\": %.6f, \"jit_speedup\": %.4f, \
       \"bit_identical\": %b }"
      r.vm_s r.jit_s (r.vm_s /. r.jit_s) r.identical
  in
  let sustained_json (r : sustained_result) =
    Printf.sprintf
      "{ \"calls_per_sec\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f }"
      r.calls_per_sec r.p50_ms r.p99_ms
  in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"speaker-id-clean\",\n\
    \  \"scale\": \"%s\",\n\
    \  \"models\": %d,\n\
    \  \"rows\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"threads\": %d,\n\
    \  \"scalar\": %s,\n\
    \  \"best_cpu\": %s,\n\
    \  \"jit_speedup\": %.4f,\n\
    \  \"bit_identical\": %b,\n\
    \  \"fig6_cpu_dse\": %s,\n\
    \  \"sustained\": {\n\
    \    \"threads\": %d,\n\
    \    \"rows_per_call\": %d,\n\
    \    \"calls\": %d,\n\
    \    \"pool\": %s,\n\
    \    \"spawn_per_call\": %s,\n\
    \    \"pool_speedup\": %.4f\n\
    \  },\n\
    \  \"cache\": { \"hits\": %d, \"misses\": %d, \"full_compiles\": %d, \
     \"disk_hits\": %d },\n\
    \  \"cold_start\": {\n\
    \    \"models\": %d,\n\
    \    \"full_compile_seconds\": %.6f,\n\
    \    \"disk_hit_seconds\": %.6f,\n\
    \    \"speedup\": %.4f,\n\
    \    \"disk_hits\": %d\n\
    \  }\n\
     }\n"
    W.scale_name (Array.length models) rows !reps !threads (config_json scalar)
    (config_json best) speedup identical fig6_json !sustained_threads !sustained_rows
    !sustained_calls (sustained_json pool) (sustained_json spawn)
    sustained_speedup k.Compiler.hits k.Compiler.misses k.Compiler.full_compiles
    k.Compiler.disk_hits (Array.length models) cold.full_compile_s
    cold.disk_hit_s
    (cold.full_compile_s /. cold.disk_hit_s)
    cold.cold_disk_hits;
  close_out oc;
  Fmt.pr "wrote %s@." !out_path;
  let dse_oc = open_out !dse_out in
  output_string dse_oc
    (Spnc_obs.Json.to_string_pretty (Tune.result_to_json tune_r));
  close_out dse_oc;
  Fmt.pr "wrote %s@." !dse_out;
  (* observability artifacts (docs/OBSERVABILITY.md): tracing, remarks and
     the node profiler stay OFF during every timed section above so they
     cannot perturb the numbers; a dedicated post-timing capture pass —
     one uncached compile plus one small profiled execute — produces the
     trace, the remark stream and the per-node profile, and the metrics
     snapshot carries the counters/histograms accumulated by the whole
     run *)
  Spnc_obs.Trace.set_enabled true;
  Spnc_obs.Remark.set_enabled true;
  let obs_options =
    {
      (W.cpu_avx2 ()) with
      Options.threads = !sustained_threads;
      use_kernel_cache = false;
      profile = true;
      (* -O3 so the FMA-fusion rewrites fire and the remark stream shows
         what the optimizer did to this kernel; the capture pass is off
         the timed path, so the extra pipeline work costs nothing *)
      opt_level = Spnc_cpu.Optimizer.O3;
    }
  in
  let c_obs = Compiler.compile ~options:obs_options models.(0) in
  let _, prof =
    Compiler.execute_profiled c_obs
      (Array.sub data 0 (min 64 (Array.length data)))
  in
  (* hot nodes as instant events, lined up with the execution spans *)
  Spnc_cpu.Profile.to_trace prof;
  Spnc_obs.Trace.set_enabled false;
  Spnc_obs.Remark.set_enabled false;
  Spnc_obs.Trace.write_file !trace_path;
  Spnc_obs.Snapshot.write_file !metrics_path (Spnc_obs.Snapshot.take ());
  Spnc_obs.Remark.write_file !remarks_path;
  Spnc_cpu.Profile.write_file prof !profile_path;
  Fmt.pr "wrote %s, %s, %s and %s@." !trace_path !metrics_path !remarks_path
    !profile_path;
  if not identical then exit 1;
  if not fig6_identical then begin
    Fmt.epr "FAIL: a fig6 configuration diverged bitwise from the scalar reference@.";
    exit 1
  end;
  if speedup < !min_speedup then begin
    Fmt.epr "FAIL: jit speedup %.2fx below required %.2fx@." speedup !min_speedup;
    exit 1
  end;
  if sustained_speedup < !min_sustained_speedup then begin
    Fmt.epr "FAIL: sustained pool speedup %.2fx below required %.2fx@."
      sustained_speedup !min_sustained_speedup;
    exit 1
  end
