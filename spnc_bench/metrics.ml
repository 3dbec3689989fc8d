(** The metric catalogue (names and units, as in BENCHMARK.json) and the
    per-layer metrics derived from recorded spans and compiled
    artifacts. *)

module C = Spnc.Compiler

(** End-to-end metrics, measured with tracing off.  Every workload
    reports all five; README.md says what "operation" and "tail" mean
    on each. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_ms_p50", "ms");
    ("latency_ms_tail", "ms");
    ("rows_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* the stages of [Compiler.compile] the workloads run; graph
   partitioning is off in every workload's options *)
let stages =
  [
    "hispn-translation";
    "canonicalize";
    "lower-to-lospn";
    "lospn-optimization";
    "bufferization";
    "buffer-optimization";
    "cpu-lowering";
    "instruction-selection";
    "llvm-optimization";
    "register-allocation";
  ]

(** Per-layer metrics, from a traced run.  A layer a workload does not
    exercise reports 0. *)
let per_layer =
  [ ("spn.read_ms", "ms") ]
  @ List.map (fun s -> ("compile." ^ s ^ "_ms", "ms")) stages
  @ [
      ("compile.unattributed_ms", "ms");
      ("compile.full_compiles", "count");
      ("compile.cache_hits", "count");
      ("cpu.lir_instrs", "count");
      ("cpu.spills", "count");
      ("cpu.est_ns_per_row", "ns/row");
      ("jit.build_ms", "ms");
      ("exec.load_ms", "ms");
      ("exec.kernel_ns_per_row", "ns/row");
      ("core.finalize_ns_per_row", "ns/row");
      ("data.csv_parse_ns_per_row", "ns/row");
      ("serve.decode_us", "us");
      ("serve.submit_us", "us");
      ("serve.settle_ms_p50", "ms");
      ("serve.settle_ms_p99", "ms");
      ("serve.encode_us", "us");
      ("serve.queue_wait_ms_p50", "ms");
      ("serve.batch_rows_mean", "rows");
      ("serve.shed", "count");
      ("serve.wire_ms_p50", "ms");
      ("baselines.spflow_ns_per_row", "ns/row");
      ("loadgen.lag_ms_p99", "ms");
      ("loadgen.sent", "count");
      ("loadgen.received", "count");
      ("ledger.total_ms", "ms");
      ("ledger.unattributed_ms", "ms");
      ("ledger.unattributed_pct", "%");
      ("trace.overhead_pct", "%");
    ]

let ms_mean a = 1e3 *. Stat.mean a

(** Metrics read off the recorded spans: mean time per call of each
    layer function, per-row costs, cache outcomes, and the ledger. *)
let from_spans (l : Span.ledger) =
  let per_op x = 1e3 *. x /. float_of_int (max 1 l.Span.ops) in
  let compile cache (s : Span.t) = s.Span.name = "compile" && s.Span.cache = cache in
  let count keep = float_of_int (Array.length (Span.durations l keep)) in
  [
    ("spn.read_ms", ms_mean (Span.durations l (Span.named "spn.read")));
    ("compile.unattributed_ms", ms_mean (Span.self_times l (compile "full")));
    ("compile.full_compiles", count (compile "full"));
    ("compile.cache_hits", count (compile "memory"));
    ("jit.build_ms", ms_mean (Span.durations l (Span.named "jit.build")));
    ("exec.load_ms", ms_mean (Span.durations l (Span.named "exec.load")));
    ("exec.kernel_ns_per_row", 1e9 *. Span.seconds_per_row l "exec.execute");
    ("core.finalize_ns_per_row", 1e9 *. Span.seconds_per_row l "core.finalize");
    ("data.csv_parse_ns_per_row", 1e9 *. Span.seconds_per_row l "data.csv_parse");
    ("ledger.total_ms", per_op l.Span.total);
    ("ledger.unattributed_ms", per_op l.Span.unattributed);
    ( "ledger.unattributed_pct",
      if l.Span.total > 0.0 then 100.0 *. l.Span.unattributed /. l.Span.total
      else 0.0 );
  ]
  @ List.map
      (fun stage ->
        (* the stage spans [Compiler.compile_full] records *)
        ( "compile." ^ stage ^ "_ms",
          ms_mean
            (Span.durations l (fun s -> s.Span.cat = "compile" && s.Span.name = stage)) ))
      stages

(** Exact counts from the artifacts, and the cost model's estimate
    (modelled, not measured) beside them. *)
let from_artifacts (cs : C.compiled list) =
  let mean f = Stat.mean (Array.of_list (List.map f cs)) in
  let lir c = (Call.cpu_artifact c).C.lir in
  [
    ("cpu.lir_instrs", mean (fun c -> float_of_int (Spnc_cpu.Lir.module_size (lir c))));
    ( "cpu.spills",
      mean (fun c ->
          Array.fold_left
            (fun a s ->
              a
              +. float_of_int
                   Spnc_cpu.Regalloc.(s.spills_f + s.spills_i + s.spills_v))
            0.0 (Call.cpu_artifact c).C.regalloc) );
    ( "cpu.est_ns_per_row",
      mean (fun c -> 1e9 *. C.estimate_seconds c ~rows:4096 /. 4096.0) );
  ]

(** [SPFlow]-style batched interpretation of the same rows: the bar a
    compiled kernel has to beat. *)
let spflow models_and_rows =
  let t0 = Unix.gettimeofday () in
  let rows =
    List.fold_left
      (fun n (m, rows) ->
        ignore (Spnc_baselines.Spflow_interp.log_likelihood_batch m rows);
        n + Array.length rows)
      0 models_and_rows
  in
  ( "baselines.spflow_ns_per_row",
    1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int rows )

let overhead ~untraced ~traced =
  ("trace.overhead_pct", 100.0 *. ((Stat.mean traced /. Stat.mean untraced) -. 1.0))
