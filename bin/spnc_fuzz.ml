(** spnc_fuzz — the differential fuzzing driver (docs/FUZZING.md).

    One case loop: {!Spnc_smith.Smith.case} draws case [id] of the seed
    (even ids IR-level programs, odd ids [Random_spn] models translated
    to HiSPN), {!Spnc_smith.Harness.check_program} runs every check on
    it, and a failure is shrunk ({!Spnc_smith.Shrink}) and written as a
    reproducer bundle with a one-line replay command.  [--chaos] adds a
    fault-injected replay of each model-derived case's compiled run and
    a cache-recovery check at the end.  Exit code is nonzero iff a case
    failed, so the run gates CI.

    {v
    spnc_fuzz --seed 5 --cases 200
    spnc_fuzz --seed 7 --cases 30 --inject-bad-peephole   # must fail
    spnc_fuzz --chaos --seed 23 --cases 50
    v} *)

open Cmdliner
module Smith = Spnc_smith.Smith
module Harness = Spnc_smith.Harness
module Shrink = Spnc_smith.Shrink
module Passorder = Spnc_smith.Passorder
module Fault = Spnc_resilience.Fault
module Rng = Spnc_data.Rng
module Options = Spnc.Options
module Compiler = Spnc.Compiler

(* sysexits, matching the spnc CLI convention (README exit table):
   65 EX_DATAERR for failures the harness FOUND (miscompiles, divergence,
   illegal orderings), 70 EX_SOFTWARE for the harness itself crashing. *)
let exit_ok = 0
let exit_data = 65
let exit_internal = 70

(* -- Chaos -------------------------------------------------------------------- *)

(* Everything the resilience layer is allowed to surface under injected
   faults.  Anything else escaping a run is a crash — the chaos replay
   exists to prove this set is closed. *)
let is_clean_diagnostic = function
  | Spnc_resilience.Diag.Diag_error _ | Spnc_resilience.Guard.Guard_failure _
  | Fault.Transient _ | Spnc_runtime.Exec.Chunk_error _
  | Spnc_runtime.Exec.Deadline_exceeded _ | Spnc_spn.Validate.Invalid _ ->
      true
  | _ -> false

(* The fault families a chaos schedule may arm (prefix-matched).  The
   [compile.<stage>] points stay out: they fail a stage outright, which
   the resilience tests cover one stage at a time. *)
let chaos_families =
  [
    "kcache.";
    "pool.chunk_fail";
    "pool.chunk_stall";
    "pool.round_stall";
    "jit.build_fail";
    "gpu.build_fail";
    "gpu.launch_fail";
    "repro.write_fail";
  ]

(* Outputs and whether a GPU->CPU fallback fired, or the exception. *)
let chaos_eval options model data =
  match Compiler.compile ~options model with
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e -> Error e
  | c -> (
      match Compiler.execute c data with
      | v -> Ok (v, c.Compiler.diags <> [])
      | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
      | exception e -> Error e)

let injected_faults = ref 0

(* Replay a model-derived case's compiled run under a deterministic fault
   schedule drawn from (seed, id), over random engine × threads × target ×
   deadline × retries, against a persistent cache in [cache_dir].  The
   replay must give the clean run's bits, the CPU-fallback bits, or one
   clean structured diagnostic: other bits are silent corruption, any
   other exception is a crash. *)
let chaos_replay ~seed ~cache_dir (p : Smith.program) : Harness.failure option
    =
  match p.Smith.model with
  | None -> None
  | Some model ->
      let rng = Rng.create ~seed:((seed * 7_368_787) + p.Smith.id) in
      let threads = Rng.choose rng [ 1; 2; 4 ] in
      let engine = Rng.choose rng Spnc_cpu.Jit.[ Vm; Jit ] in
      let use_gpu = Rng.float rng < 0.25 in
      let gpu_fallback = Rng.float rng < 0.5 in
      let deadline_ms =
        (* mostly none; sometimes generous (must not fire by itself);
           occasionally absurdly tight (must fire as a clean timeout) *)
        let r = Rng.float rng in
        if r < 0.70 then None
        else if r < 0.95 then Some 30_000.0
        else Some 0.001
      in
      let options =
        {
          Options.default with
          Options.threads;
          engine;
          batch_size = p.Smith.batch_size;
          support_marginal = p.Smith.support_marginal;
          target = (if use_gpu then Options.Gpu else Options.Cpu);
          gpu_fallback;
          kernel_cache_dir = Some cache_dir;
          kernel_cache_mb = 1;
          deadline_ms;
          exec_retries = Rng.choose rng [ 0; 2; 4 ];
        }
      in
      let rate = Rng.range rng 0.02 0.35 in
      let chaos_seed = (seed * 1_000_003) + p.Smith.id in
      let points =
        (* half the cases arm every family; the rest a random subset *)
        if Rng.float rng < 0.5 then chaos_families
        else List.filter (fun _ -> Rng.float rng < 0.5) chaos_families
      in
      let schedule =
        Printf.sprintf
          "chaos-seed=%d rate=%.3f points=%s threads=%d engine=%s target=%s \
           fallback=%b deadline=%s retries=%d"
          chaos_seed rate
          (String.concat ";" points)
          threads
          (Spnc_cpu.Jit.engine_to_string engine)
          (Options.target_to_string options.Options.target)
          gpu_fallback
          (match deadline_ms with None -> "none" | Some ms -> Fmt.str "%gms" ms)
          options.Options.exec_retries
      in
      let data = p.Smith.data in
      (* clean references, faults disarmed; an injected GPU failure with
         fallback on yields a CPU artifact, whose bits must match the CPU
         reference, not the GPU one *)
      Fault.disarm ();
      let clean = chaos_eval options model data in
      let clean_fallback =
        if use_gpu && gpu_fallback then
          chaos_eval { options with Options.target = Options.Cpu } model data
        else clean
      in
      (* reset occurrence counters so the case is self-contained, and
         drop the memory cache so the replay goes through the disk tier:
         read-side corruption then exercises quarantine and recompile *)
      Compiler.reset_kernel_cache ();
      Fault.reset_for_tests ();
      Fault.arm ~points ~seed:chaos_seed ~rate ();
      let chaotic = chaos_eval options model data in
      Fault.disarm ();
      List.iter
        (fun pt -> injected_faults := !injected_faults + Fault.fired_count pt)
        (Fault.points ());
      let fail detail =
        Some
          {
            Harness.case_id = p.Smith.id;
            check = "chaos";
            pipeline = schedule;
            detail;
          }
      in
      match (clean, chaotic) with
      | Ok _, Ok (v, fallback) ->
          let same = function
            | Ok (b, _) -> Harness.exact_eq b v
            | Error _ -> false
          in
          if same clean || (fallback && same clean_fallback) then None
          else
            fail
              "silent corruption: fault-injected run produced different bits \
               with no diagnostic"
      | _, Error e when is_clean_diagnostic e -> None
      | _, Error e ->
          fail
            ("crash: unstructured exception escaped: " ^ Printexc.to_string e)
      | Error e, Ok _ ->
          (* only a clean timeout the replay happened to meet is benign *)
          if is_clean_diagnostic e then None
          else
            fail
              ("clean run crashed without faults armed: "
              ^ Printexc.to_string e)

(* After every schedule ran, the cache directory must still be usable: a
   fresh process (memory cache dropped) is served by the surviving disk
   tier and agrees bit for bit with a cache-free compile. *)
let cache_recovery ~seed ~cache_dir ~rows =
  Fault.disarm ();
  let rng = Rng.create ~seed in
  let model =
    Spnc_spn.Random_spn.generate_sized rng Spnc_spn.Random_spn.speaker_id_config
      ~min_ops:200
  in
  let data =
    Array.init rows (fun _ ->
        Array.init model.Spnc_spn.Model.num_features (fun _ ->
            Rng.range rng (-3.0) 3.0))
  in
  let cached =
    {
      Options.default with
      Options.kernel_cache_dir = Some cache_dir;
      kernel_cache_mb = 1;
    }
  in
  Compiler.reset_kernel_cache ();
  let first = chaos_eval cached model data in
  Compiler.reset_kernel_cache ();
  let second = chaos_eval cached model data in
  let disk_hits = (Compiler.cache_counters ()).Compiler.disk_hits in
  let uncached =
    chaos_eval
      { Options.default with Options.use_kernel_cache = false }
      model data
  in
  match (first, second, uncached) with
  | Ok (a0, _), Ok (a, _), Ok (b, _)
    when Harness.exact_eq a0 a && Harness.exact_eq a b && disk_hits >= 1 ->
      let live, quarantined =
        match Spnc.Kcache.open_ ~dir:cache_dir ~max_mb:1 with
        | Ok t ->
            ( List.length (Spnc.Kcache.entry_keys t),
              Spnc.Kcache.quarantined_count t )
        | Error _ -> (-1, -1)
      in
      Fmt.pr "cache recovery: OK (%d entr(ies) live, %d quarantined)@." live
        quarantined;
      true
  | Ok _, Ok _, Ok _ ->
      Fmt.epr
        "CHAOS FAIL: post-chaos cached compile diverged from a cache-free \
         compile (or the disk tier served no hit)@.";
      false
  | _ ->
      Fmt.epr
        "CHAOS FAIL: post-chaos compile through the surviving cache directory \
         failed@.";
      false

(* -- Failure reporting -------------------------------------------------------- *)

(* Shrink a failing case and write its reproducer bundle.  A failure the
   IR-level checks reproduce with the model dropped shrinks the IR; one
   found through the model shrinks rows only and keeps model.txt. *)
let report ~out_dir ~no_shrink ~repro ~check (p : Smith.program)
    (f : Harness.failure) =
  let source = if p.Smith.model = None then "ir" else "model" in
  Fmt.epr "FAIL [%s] %a@.repro: %s@." source Harness.pp_failure f repro;
  let with_case m d =
    { p with Smith.modul = m; data = d; rows = Array.length d }
  in
  let ir_fails m d =
    check { (with_case m d) with Smith.model = None } <> None
  in
  let rows_only =
    p.Smith.model <> None && not (ir_fails p.Smith.modul p.Smith.data)
  in
  let shrunk, shrunk_data =
    if no_shrink then (p.Smith.modul, p.Smith.data)
    else
      Shrink.shrink ~rows_only
        ~still_fails:
          (if rows_only then fun m d -> check (with_case m d) <> None
           else ir_fails)
        p.Smith.modul p.Smith.data
  in
  if not no_shrink then
    Fmt.epr "shrunk: %d -> %d ops, %d -> %d rows@."
      (Shrink.count_ops p.Smith.modul)
      (Shrink.count_ops shrunk)
      (Array.length p.Smith.data)
      (Array.length shrunk_data);
  let model_txt =
    match p.Smith.model with
    | Some m when rows_only -> [ ("model.txt", Spnc_spn.Text.to_string m) ]
    | _ -> []
  in
  match
    Spnc_resilience.Reproducer.write ?dir:out_dir
      ~extra:
        ([
           ( "program-original.mlir",
             Spnc_mlir.Printer.modul_to_string p.Smith.modul );
           ("data.csv", Smith.data_to_csv shrunk_data);
           ("repro-command.txt", repro ^ "\n");
         ]
        @ model_txt)
      ~ir:(Spnc_mlir.Printer.modul_to_string shrunk)
      ~pipeline:f.Harness.pipeline ~options:repro
      ~diag:(Fmt.str "[%s] %a" source Harness.pp_failure f)
      ()
  with
  | Ok b ->
      Fmt.epr "reproducer written to %s@." b.Spnc_resilience.Reproducer.dir
  | Error e -> Fmt.epr "(reproducer dump failed: %s)@." e

(* -- Driver ------------------------------------------------------------------- *)

let run seed cases rows target_ops max_depth tol no_shrink chaos out_dir
    inject verbose orderings order explore passorder_out budget_s case_only
    corpus_dir =
  try
    if inject then Spnc_cpu.Optimizer.inject_bad_peephole := true;
    (* a forced ordering is legality-gated up front: the CI canary feeds
       an intentionally mis-ordered pass pair here *)
    match Option.map Spnc.Pipelines.validate_pipeline order with
    | Some (Error e) ->
        Fmt.epr "ILLEGAL PIPELINE %S: %s@." (Option.get order) e;
        exit_data
    | _ ->
        let config =
          { Smith.default_config with Smith.rows; target_ops; max_depth }
        in
        let hconfig = { Harness.orderings; tol } in
        let cache_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "spnc-chaos-kcache-%d-%d" seed (Unix.getpid ()))
        in
        let check p =
          match Harness.check_program ~config:hconfig ?order p with
          | None when chaos -> chaos_replay ~seed ~cache_dir p
          | r -> r
        in
        let repro id =
          String.concat ""
            [
              Printf.sprintf
                "spnc_fuzz --seed %d --case %d --rows %d --target-ops %d \
                 --max-depth %d --smith-orderings %d --tol %g"
                seed id rows target_ops max_depth orderings tol;
              (if chaos then " --chaos" else "");
              (if inject then " --inject-bad-peephole" else "");
              (match order with
              | Some o -> Printf.sprintf " --smith-order '%s'" o
              | None -> "");
            ]
        in
        let failures = ref 0 and ran = ref 0 and models = ref 0 in
        let sample = ref [] in
        let t0 = Unix.gettimeofday () in
        (match corpus_dir with
        | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
        | _ -> ());
        let first, last =
          match case_only with Some c -> (c, c) | None -> (0, cases - 1)
        in
        (try
           for id = first to last do
             if budget_s > 0.0 && Unix.gettimeofday () -. t0 > budget_s then
               raise Exit;
             let p = Smith.case ~config ~seed ~id () in
             incr ran;
             if p.Smith.model <> None then incr models;
             if List.length !sample < 32 then sample := p :: !sample;
             (match corpus_dir with
             | Some d when id - first < 1000 ->
                 Out_channel.with_open_text
                   (Filename.concat d
                      (Printf.sprintf "case_s%d_c%d.mlir" seed id))
                   (fun oc ->
                     output_string oc
                       (Spnc_mlir.Printer.modul_to_string p.Smith.modul))
             | _ -> ());
             if verbose then
               Fmt.epr "case %d: %s, %d features, %d rows, %d ops, batch=%d%s@."
                 id
                 (if p.Smith.model = None then "ir" else "model")
                 p.Smith.num_features p.Smith.rows
                 (Shrink.count_ops p.Smith.modul)
                 p.Smith.batch_size
                 (if p.Smith.support_marginal then ", marginal" else "");
             match check p with
             | None -> ()
             | Some f ->
                 incr failures;
                 report ~out_dir ~no_shrink ~repro:(repro id) ~check p f
           done
         with Exit -> ());
        let recovered =
          (not chaos) || cache_recovery ~seed ~cache_dir ~rows:(max rows 8)
        in
        if not recovered then incr failures;
        (* pass-ordering exploration over a sample of the cases *)
        if explore then begin
          let rng = Rng.create ~seed:(seed + 997) in
          let orders = Passorder.candidate_orders ~rng ~extra:4 in
          let scores = Harness.explore ~programs:(List.rev !sample) ~orders in
          Passorder.write_leaderboard ~path:passorder_out ~seed scores;
          Fmt.pr
            "pass-ordering leaderboard (%d orderings over %d programs) -> %s@."
            (List.length orders) (List.length !sample) passorder_out;
          match Passorder.best scores with
          | Some s ->
              Fmt.pr
                "best promotable ordering: %s (%d ops, %.4fs, %.0f cycles)@."
                (Passorder.order_to_string s.Passorder.order)
                s.Passorder.final_ops s.Passorder.compile_s
                s.Passorder.est_cycles
          | None ->
              Fmt.pr "no bit-identical ordering found (nothing promotable)@."
        end;
        let k = Compiler.cache_counters () in
        Fmt.pr
          "spnc_fuzz: %d case(s) (%d ir, %d model), %d failure(s), %s, %.1fs \
           (kernel cache: %d hit(s), %d miss(es), %d full compile(s))@."
          !ran (!ran - !models) !models !failures
          (match order with
          | Some _ -> "forced ordering"
          | None -> Printf.sprintf "%d random legal ordering(s)/case" orderings)
          (Unix.gettimeofday () -. t0)
          k.Compiler.hits k.Compiler.misses k.Compiler.full_compiles;
        if chaos then begin
          let d = Spnc.Kcache.counters () in
          Fmt.pr
            "chaos: %d injected fault(s) (disk cache: %d hit(s), %d miss(es), \
             %d store(s), %d eviction(s), %d corrupt, %d store failure(s))@."
            !injected_faults d.Spnc.Kcache.hits d.Spnc.Kcache.misses
            d.Spnc.Kcache.stores d.Spnc.Kcache.evictions d.Spnc.Kcache.corrupt
            d.Spnc.Kcache.store_failures
        end;
        if !failures > 0 then exit_data else exit_ok
  with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e ->
      (* EX_SOFTWARE: the harness itself crashed — distinct from finding
         failures in the system under test (EX_DATAERR) *)
      Fmt.epr "spnc_fuzz: internal error: %s@.%s@." (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit_internal

let cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base RNG seed.") in
  let cases =
    Arg.(value & opt int 100 & info [ "cases"; "n" ] ~doc:"Number of cases.")
  in
  let rows =
    Arg.(value & opt int 24 & info [ "rows" ] ~doc:"Evidence rows per case.")
  in
  let target_ops =
    Arg.(
      value & opt int 60
      & info [ "target-ops" ] ~doc:"Soft op budget of IR-level programs.")
  in
  let max_depth =
    Arg.(value & opt int 6 & info [ "max-depth" ] ~doc:"Maximum SPN depth.")
  in
  let tol =
    Arg.(
      value
      & opt float Harness.default_config.Harness.tol
      & info [ "tol" ] ~doc:"Comparison tolerance (relative to the reference).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures unshrunk.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Also replay every model-derived case's compiled run under a \
             deterministic randomized fault-injection schedule (cache I/O, \
             pool workers, JIT/GPU builds) across threads, engines and \
             targets; the replay must be bit-identical to its clean run or \
             fail with one clean structured diagnostic, and the persistent \
             kernel cache must stay usable afterwards.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Parent directory for reproducer bundles (default: \
             \\$SPNC_DUMP_DIR or ./spnc-reproducers).")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-bad-peephole" ]
          ~doc:
            "Fault injection: enable a deliberately unsound -O1+ peephole; \
             the run must then report mismatches.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-case log.")
  in
  let orderings =
    Arg.(
      value & opt int 5
      & info [ "smith-orderings" ]
          ~doc:"Random legal pass orderings checked per case.")
  in
  let order =
    Arg.(
      value
      & opt (some string) None
      & info [ "smith-order" ] ~docv:"PIPELINE"
          ~doc:
            "Check every case through this exact textual pipeline instead of \
             random orderings; the pipeline is legality-checked first and an \
             illegal ordering fails loudly (exit 65).")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "smith-explore" ]
          ~doc:
            "Score candidate LoSPN opt-stage pass orderings over the first 32 \
             cases and write a leaderboard (see --passorder-out).")
  in
  let passorder_out =
    Arg.(
      value
      & opt string "PASSORDER_cpu.json"
      & info [ "passorder-out" ] ~docv:"FILE"
          ~doc:"Leaderboard output path for --smith-explore.")
  in
  let budget_s =
    Arg.(
      value & opt float 0.0
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget; stop generating new cases once exceeded (0 = \
             unlimited). Used by the nightly long-fuzz CI tier.")
  in
  let case_only =
    Arg.(
      value
      & opt (some int) None
      & info [ "case" ] ~docv:"ID"
          ~doc:"Replay exactly one case id (reproducer bundles print this).")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Dump generated programs (first 1000) as .mlir files here.")
  in
  Cmd.v
    (Cmd.info "spnc_fuzz" ~version:"1.0.0"
       ~doc:
         "Differential fuzzing of the SPNC pipeline: IR-level and \
          model-derived cases across -O levels, engines, threads, pass \
          orderings, the vectorized lowering, the GPU simulator and the \
          reference evaluator. Exit codes: 0 clean, 65 failures found \
          (EX_DATAERR), 70 internal harness error (EX_SOFTWARE).")
    Term.(
      const run $ seed $ cases $ rows $ target_ops $ max_depth $ tol
      $ no_shrink $ chaos $ out_dir $ inject $ verbose $ orderings $ order
      $ explore $ passorder_out $ budget_s $ case_only $ corpus_dir)

let () =
  Printexc.record_backtrace true;
  exit (Cmd.eval' cmd)
