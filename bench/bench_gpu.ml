(** bench_gpu — monolithic vs stream-pipelined GPU schedule on the
    speaker-ID workload, writing the [spnc-bench-v1] artifact
    [BENCH_gpu.json] (see {!Artifact}; docs/PERFORMANCE.md §5).

    The paper's Fig. 9 point: at the DSE-best batch/block size of 64 the
    GPU schedule is transfer-bound — most of the modelled time is PCIe
    copies, not kernels.  A double-buffered stream pipeline hides copy
    time behind compute (and vice versa), which this benchmark quantifies
    two ways:

    - {e modelled}, at paper-scale rows: [Sim.estimate_streamed] vs the
      monolithic [Sim.estimate_chunked] for 2 and 4 streams;
    - {e functionally}, at small rows: [Sim.run_streamed] output must be
      bit-identical to the monolithic [Sim.run].

    Exit is nonzero when outputs diverge, or when the workload is
    transfer-bound ([transfer_fraction > 0.4]) yet streaming shows no
    modelled win. *)

module W = Workloads
module A = Artifact
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Sim = Spnc_gpu.Sim

let usage = "bench_gpu [--rows N] [--check-rows N] [--out FILE]"
let rows_arg = ref 0 (* 0 = paper scale *)
let check_rows = ref 512
let out_path = ref "BENCH_gpu.json"
let trace_path = ref "TRACE_gpu.json"
let metrics_path = ref "METRICS_gpu.json"
let remarks_path = ref "REMARKS_gpu.json"
let cache_dir = ref ""
let cache_mb = ref 256

let spec =
  [
    ("--rows", Arg.Set_int rows_arg, "N Modelled samples (default: paper scale)");
    ( "--check-rows",
      Arg.Set_int check_rows,
      "N Functionally executed samples for the identity check (default 512)" );
    ("--out", Arg.Set_string out_path, "FILE Output JSON path (default BENCH_gpu.json)");
    ( "--trace",
      Arg.Set_string trace_path,
      "FILE Chrome trace artifact path (default TRACE_gpu.json)" );
    ( "--metrics-out",
      Arg.Set_string metrics_path,
      "FILE Metrics snapshot path (default METRICS_gpu.json)" );
    ( "--remarks-out",
      Arg.Set_string remarks_path,
      "FILE Optimization-remark artifact path (default REMARKS_gpu.json)" );
    ( "--kernel-cache-dir",
      Arg.Set_string cache_dir,
      "DIR Persistent kernel-cache directory for the compile (default: none)" );
    ( "--kernel-cache-mb",
      Arg.Set_int cache_mb,
      "MB Disk budget for the persistent kernel cache (default 256)" );
  ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let model = (Lazy.force W.speaker_models).(0) in
  let options =
    {
      (W.gpu_best ()) with
      Options.kernel_cache_dir =
        (if !cache_dir = "" then None else Some !cache_dir);
      kernel_cache_mb = max 1 !cache_mb;
    }
  in
  (* remarks fire at compile time, and the timing below is fully modelled,
     so collecting them costs the reported numbers nothing *)
  Spnc_obs.Remark.set_enabled true;
  let c = Compiler.compile ~options model in
  Spnc_obs.Remark.set_enabled false;
  let gpu_module =
    match c.Compiler.artifact with
    | Compiler.Gpu_kernel g -> g.Compiler.gpu_module
    | Compiler.Cpu_kernel _ ->
        Fmt.epr "bench_gpu: GPU compile fell back to CPU@.";
        exit 2
  in
  let gpu = options.Options.gpu in
  let chunk = options.Options.batch_size in
  let rows = if !rows_arg > 0 then !rows_arg else W.clean_rows_paper in
  (* modelled schedules at paper scale *)
  let mono = Sim.estimate_chunked gpu_module ~gpu ~entry:"spn_kernel" ~rows ~chunk in
  let streamed s =
    Sim.estimate_streamed gpu_module ~gpu ~entry:"spn_kernel" ~rows ~chunk
      ~streams:s
  in
  let s2 = streamed 2 and s4 = streamed 4 in
  let tf = Sim.transfer_fraction mono in
  Fmt.pr "bench_gpu: %d rows, chunk %d, transfer fraction %.1f%%@." rows chunk
    (100.0 *. tf);
  let report name l =
    Fmt.pr "%-12s total %.4fs  (%a)@." name (Sim.total_seconds l) Sim.pp_ledger l
  in
  report "monolithic" mono;
  report "streams=2" s2;
  report "streams=4" s4;
  (* functional identity at small rows: every chunk executes exactly *)
  let n = !check_rows in
  let all = Lazy.force W.speech_clean in
  let data = Array.sub all 0 (min n (Array.length all)) in
  let n = Array.length data in
  let flat = Array.concat (Array.to_list data) in
  let run streams =
    Sim.run_streamed gpu_module ~gpu ~entry:"spn_kernel" ~inputs:[ flat ]
      ~rows:n ~out_cols:c.Compiler.out_cols ~streams ()
  in
  let ref_out = (run 1).Sim.output in
  let identical =
    List.for_all
      (fun streams ->
        let ok = A.same_bits (run streams).Sim.output ref_out in
        if not ok then
          Fmt.epr "MISMATCH: streams=%d diverges from monolithic@." streams;
        ok)
      [ 2; 4 ]
  in
  Fmt.pr "functional identity over %d rows (streams 2/4 vs 1): %b@." n identical;
  let a = A.create "bench_gpu" in
  A.check a "streams 2/4 vs monolithic" identical;
  A.entry a A.Modelled ~unit:"fraction" ~hard:true "transfer_fraction" tf;
  List.iter
    (fun (name, l, hard) ->
      A.entry a A.Modelled ~unit:"s" ~hard (name ^ ".total_seconds")
        (Sim.total_seconds l);
      List.iter
        (fun (part, v) -> A.entry a A.Modelled ~unit:"s" (name ^ "." ^ part) v)
        [
          ("h2d_s", l.Sim.h2d_s);
          ("d2h_s", l.Sim.d2h_s);
          ("kernel_s", l.Sim.kernel_s);
          ("launch_s", l.Sim.launch_s);
          ("alloc_s", l.Sim.alloc_s);
          ("overlap_s", l.Sim.overlap_s);
        ])
    [
      ("monolithic", mono, true); ("streams_2", s2, false); ("streams_4", s4, true);
    ];
  List.iter
    (fun (name, l) ->
      A.entry a A.Modelled ~better:A.Higher ~unit:"x" ("speedup_" ^ name)
        (Sim.total_seconds mono /. Sim.total_seconds l))
    [ ("streams_2", s2); ("streams_4", s4) ];
  A.write a !out_path;
  (* observability artifacts: the timing above is fully modelled (no wall
     clock), so a traced re-run of the 4-stream functional schedule is
     side-effect-free on the reported numbers *)
  Spnc_obs.Trace.set_enabled true;
  ignore (run 4);
  Spnc_obs.Trace.set_enabled false;
  Spnc_obs.Trace.write_file !trace_path;
  Spnc_obs.Snapshot.write_file !metrics_path (Spnc_obs.Snapshot.take ());
  Spnc_obs.Remark.write_file !remarks_path;
  Fmt.pr "wrote %s, %s and %s@." !trace_path !metrics_path !remarks_path;
  A.exit_on_divergence a;
  if tf > 0.4 && Sim.total_seconds s4 >= Sim.total_seconds mono then begin
    Fmt.epr
      "FAIL: transfer-bound workload (%.1f%% transfers) but streaming shows \
       no win@."
      (100.0 *. tf);
    exit 1
  end
