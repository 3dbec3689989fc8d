(** Tests for the resilience layer (docs/RESILIENCE.md): structured
    diagnostics, the crash-isolated pass manager and its reproducer
    bundles, output guards, GPU→CPU fallback, runtime chunk-failure
    isolation, and the fault registry. *)

open Spnc_resilience
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Pass = Spnc_mlir.Pass
module Ir = Spnc_mlir.Ir
module Exec = Spnc_runtime.Exec
module Model = Spnc_spn.Model

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* A tiny valid model over two features. *)
let small_model () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:1 ~mean:1.0 ~stddev:0.5 in
  let c1 = Model.categorical ~var:1 ~probs:[| 0.25; 0.75 |] in
  let p0 = Model.product [ g0; g1 ] in
  let p1 = Model.product [ g0; c1 ] in
  Model.make ~num_features:2 (Model.sum [ (0.4, p0); (0.6, p1) ])

let small_rows =
  [| [| 0.1; 0.9 |]; [| -0.5; 1.0 |]; [| 1.5; 0.0 |]; [| 0.0; 1.0 |] |]

(* A module in generic form, obtained by running the real front half of
   the pipeline on the small model. *)
let small_module () =
  let c = Compiler.compile (small_model ()) in
  c.Compiler.lospn

(* -- Diag --------------------------------------------------------------------- *)

let test_diag_fail () =
  match Diag.fail ~pass:"my-pass" ~op_path:[ "module"; "func" ] "bad %s" "op"
  with
  | exception Diag.Diag_error d ->
      check tstr "message" "bad op" d.Diag.message;
      check (Alcotest.option tstr) "pass" (Some "my-pass") d.Diag.pass;
      check (Alcotest.list tstr) "op path" [ "module"; "func" ] d.Diag.op_path
  | _ -> Alcotest.fail "Diag.fail must raise"

let test_diag_of_exn () =
  let bt =
    try failwith "boom"
    with _ -> Printexc.get_raw_backtrace ()
  in
  let d = Diag.of_exn ~pass:"p" (Failure "boom") bt in
  check tbool "mentions boom" true
    (Astring_contains.contains d.Diag.message "boom");
  check (Alcotest.option tstr) "pass attributed" (Some "p") d.Diag.pass;
  (* a Diag_error payload passes through unchanged except for the pass *)
  let inner = Diag.error "inner" in
  let d' = Diag.of_exn ~pass:"outer" (Diag.Diag_error inner) bt in
  check tstr "payload preserved" "inner" d'.Diag.message;
  check (Alcotest.option tstr) "pass filled in" (Some "outer") d'.Diag.pass

(* -- Checked pass manager ------------------------------------------------------ *)

(* A "pass" that silently breaks SSA by duplicating every top-level op:
   the duplicate defines the same value ids a second time. *)
let breaking_pass =
  Pass.make "break-ssa" (fun m -> { m with Ir.mops = m.Ir.mops @ m.Ir.mops })

let throwing_pass = Pass.make "throw" (fun _ -> failwith "kaboom from pass")

(* a pass from the table, as a pipeline names it *)
let named name = Result.get_ok (Spnc.Pipelines.pass_of_name name)

let test_checked_verifier_blames_pass () =
  let m = small_module () in
  match
    Pass.run_pipeline_checked ~verify_each:true ~dump_policy:Pass.No_dump
      [ named "canonicalize"; breaking_pass ]
      m
  with
  | Ok _ -> Alcotest.fail "expected a pipeline failure"
  | Error f ->
      check tstr "failing pass" "break-ssa" f.Pass.failed_pass;
      check tstr "diag pass" "break-ssa"
        (Option.value ~default:"?" f.Pass.diag.Diag.pass);
      (* the pre-pass snapshot must re-parse: it is the replay input *)
      (match Spnc_mlir.Parser.modul_of_string f.Pass.ir_before with
      | _ -> ()
      | exception _ -> Alcotest.fail "ir_before does not re-parse");
      check tbool "replay pipeline starts at the failing pass" true
        (String.length f.Pass.replay_pipeline >= 9
        && String.sub f.Pass.replay_pipeline 0 9 = "break-ssa");
      (* canonicalize completed, and break-ssa itself ran to completion —
         only the verifier after it failed — so both are on the ledger *)
      check (Alcotest.list tstr) "passes timed before the failure"
        [ "canonicalize"; "break-ssa" ]
        (List.map (fun t -> t.Pass.timing.Pass.stage) f.Pass.partial_timings)

let test_checked_captures_exception () =
  Printexc.record_backtrace true;
  let m = small_module () in
  match
    Pass.run_pipeline_checked ~dump_policy:Pass.No_dump [ throwing_pass ] m
  with
  | Ok _ -> Alcotest.fail "expected a pipeline failure"
  | Error f ->
      check tstr "failing pass" "throw" f.Pass.failed_pass;
      check tbool "message mentions the exception" true
        (Astring_contains.contains f.Pass.diag.Diag.message "kaboom");
      check tbool "backtrace captured" true
        (f.Pass.diag.Diag.backtrace <> None)

let test_checked_writes_bundle () =
  let dir = Filename.temp_file "spnc-test" "" in
  Sys.remove dir;
  let m = small_module () in
  (match
     Pass.run_pipeline_checked ~verify_each:true
       ~dump_policy:(Pass.Dump_to dir) ~options:"pipeline: break-ssa"
       [ breaking_pass ] m
   with
  | Ok _ -> Alcotest.fail "expected a pipeline failure"
  | Error f -> (
      match f.Pass.bundle with
      | None ->
          Alcotest.failf "no bundle written: %s"
            (Option.value ~default:"?" f.Pass.bundle_error)
      | Some b ->
          List.iter
            (fun file ->
              check tbool (file ^ " exists") true
                (Sys.file_exists (Reproducer.path b file)))
            [ "ir.mlir"; "pipeline.txt"; "options.txt"; "diag.txt"; "README.txt" ];
          (* the dumped IR is the pre-pass snapshot *)
          let ir = Reproducer.read_file b "ir.mlir" in
          check tstr "dumped IR = ir_before" f.Pass.ir_before ir));
  (* cleanup *)
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* A pipeline naming one pass twice fails at the second occurrence: the
   replay starts there, not at the first. *)
let test_replay_from_failing_repeat () =
  let m = small_module () in
  match
    Pass.run_pipeline_checked
      [ named "verify"; named "canonicalize"; breaking_pass; named "verify" ]
      m
  with
  | Ok _ -> Alcotest.fail "expected a pipeline failure"
  | Error f ->
      check tstr "failing pass" "verify" f.Pass.failed_pass;
      check tstr "replay pipeline" "verify" f.Pass.replay_pipeline;
      check (Alcotest.list tstr) "passes timed before the failure"
        [ "verify"; "canonicalize"; "break-ssa" ]
        (List.map (fun t -> t.Pass.timing.Pass.stage) f.Pass.partial_timings)

(* The snapshot is the failing pass's input, printed: byte for byte what
   the printer gives for the module that pass was handed. *)
let test_ir_before_is_the_failing_input () =
  let m = small_module () in
  let seen = ref None in
  let failing =
    Pass.make_fallible "spy-fail" (fun m ->
        seen := Some m;
        Error "refused")
  in
  match
    Pass.run_pipeline_checked
      [ named "canonicalize"; named "cse"; breaking_pass; failing ]
      m
  with
  | Ok _ -> Alcotest.fail "expected a pipeline failure"
  | Error f -> (
      check tstr "failing pass" "spy-fail" f.Pass.failed_pass;
      match !seen with
      | None -> Alcotest.fail "the failing pass never ran"
      | Some input ->
          check tstr "ir_before = printed input"
            (Spnc_mlir.Printer.modul_to_string input)
            f.Pass.ir_before)

(* Compile with the stage's [compile.<stage>] fault point firing every
   time; the kernel cache is off so the pipeline really runs. *)
let compile_failing_at stage (options : Options.t) =
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "compile." ^ stage ] ~seed:1 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      Compiler.compile
        ~options:{ options with Options.use_kernel_cache = false }
        (small_model ()))

let test_stage_fault_isolated () =
  match compile_failing_at "bufferization" Options.default with
  | exception Diag.Diag_error d ->
      check (Alcotest.option tstr) "stage attributed" (Some "bufferization")
        d.Diag.pass
  | _ -> Alcotest.fail "expected an injected stage failure"

(* -- Output guards ------------------------------------------------------------- *)

(* NaN evidence without marginal support propagates NaN through the
   kernel, triggering the guard. *)
let nan_rows = [| [| 0.1; 0.9 |]; [| Float.nan; 1.0 |] |]

let compile_with_guard policy =
  let options =
    { Options.default with Options.output_guard = policy; threads = 1 }
  in
  Compiler.compile ~options (small_model ())

let test_guard_fail () =
  let c = compile_with_guard Guard.Fail in
  match Compiler.execute c nan_rows with
  | exception Guard.Guard_failure d ->
      check tbool "diag mentions invalid outputs" true
        (Astring_contains.contains d.Diag.message "invalid")
  | _ -> Alcotest.fail "expected Guard_failure"

let test_guard_warn_passes_through () =
  let c = compile_with_guard Guard.Warn in
  let out = Compiler.execute c nan_rows in
  check tbool "row 0 finite" true (Float.is_finite out.(0));
  check tbool "row 1 is NaN (passed through)" true (Float.is_nan out.(1))

let test_guard_clamp () =
  let c = compile_with_guard Guard.Clamp in
  let out = Compiler.execute c nan_rows in
  check tbool "row 0 finite" true (Float.is_finite out.(0));
  check (Alcotest.float 0.0) "row 1 clamped to the log floor" Guard.log_floor
    out.(1)

let test_guard_scan_and_clamp_unit () =
  let invalid, underflow, first = Guard.scan [| 0.0; Float.nan; Float.neg_infinity |] in
  check tint "invalid" 1 invalid;
  check tint "underflow" 1 underflow;
  check (Alcotest.option tint) "first bad index" (Some 1) first;
  let clamped =
    Guard.apply ~policy:Guard.Clamp [| Float.nan; Float.neg_infinity; Float.infinity; -1.0 |]
  in
  check (Alcotest.float 0.0) "NaN -> floor" Guard.log_floor clamped.(0);
  check (Alcotest.float 0.0) "-inf -> floor" Guard.log_floor clamped.(1);
  check (Alcotest.float 0.0) "+inf -> ceil" Guard.log_ceil clamped.(2);
  check (Alcotest.float 0.0) "clean value untouched" (-1.0) clamped.(3)

(* -- GPU → CPU fallback --------------------------------------------------------- *)

let test_gpu_fallback () =
  let options =
    {
      Options.default with
      Options.target = Options.Gpu;
      gpu_fallback = true;
      threads = 1;
    }
  in
  let c = compile_failing_at "gpu-lowering" options in
  (match c.Compiler.artifact with
  | Compiler.Cpu_kernel _ -> ()
  | Compiler.Gpu_kernel _ -> Alcotest.fail "expected a CPU fallback artifact");
  check tbool "fallback recorded as a diagnostic" true
    (c.Compiler.diags <> []);
  (* the fallback kernel still computes the right answer *)
  let expected = Spnc_spn.Infer.log_likelihood_batch (small_model ()) small_rows in
  let got = Compiler.execute c small_rows in
  Array.iteri
    (fun i e ->
      if Float.abs (got.(i) -. e) > 1e-9 then
        Alcotest.failf "row %d: expected %.12g got %.12g" i e got.(i))
    expected

let test_gpu_fallback_disabled () =
  let options =
    { Options.default with Options.target = Options.Gpu; gpu_fallback = false }
  in
  match compile_failing_at "gpu-lowering" options with
  | exception Diag.Diag_error _ -> ()
  | _ -> Alcotest.fail "expected the GPU failure to propagate"

(* -- Runtime fault tolerance ---------------------------------------------------- *)

let compiled_cpu ?(threads = 1) () =
  let options = { Options.default with Options.threads; batch_size = 2 } in
  let c = Compiler.compile ~options (small_model ()) in
  match c.Compiler.artifact with
  | Compiler.Cpu_kernel a -> (c, a.Compiler.lir)
  | Compiler.Gpu_kernel _ -> assert false

let test_exec_validation () =
  let c, lir = compiled_cpu () in
  let t = Exec.load ~out_cols:c.Compiler.out_cols lir in
  (* rows = 0 is valid and yields an empty result *)
  check tint "rows=0 -> empty" 0
    (Array.length (Exec.execute t ~flat:[||] ~rows:0 ~num_features:2));
  (match Exec.execute t ~flat:[| 1.0 |] ~rows:(-1) ~num_features:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rows must be rejected");
  (match Exec.execute t ~flat:[| 1.0 |] ~rows:1 ~num_features:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "num_features=0 must be rejected");
  (match Exec.execute t ~flat:[| 1.0; 2.0; 3.0 |] ~rows:1 ~num_features:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flat size mismatch must be rejected");
  match Exec.execute_rows t [| [| 1.0; 2.0 |]; [| 3.0 |] |] with
  | exception Invalid_argument msg ->
      check tbool "ragged message names the row" true
        (Astring_contains.contains msg "row 1")
  | _ -> Alcotest.fail "ragged rows must be rejected"

let test_exec_load_validation () =
  let _, lir = compiled_cpu () in
  (match Exec.load ~batch_size:0 ~out_cols:1 lir with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch_size=0 must be rejected");
  (* threads <= 0 means auto-detect (docs/PERFORMANCE.md §4), not an error *)
  let t = Exec.load ~threads:0 ~out_cols:1 lir in
  check tbool "threads=0 resolves to >= 1 workers" true (Exec.threads t >= 1);
  check tbool "auto matches the advertised resolution" true
    (Exec.threads t = Exec.normalize_threads 0);
  Exec.shutdown t

(* Feeding a 2-feature kernel 1-feature rows makes the kernel index out
   of bounds inside a chunk: exactly one Chunk_error must surface, with
   every worker domain joined first. *)
let test_chunk_error () =
  let c, lir = compiled_cpu () in
  let t = Exec.load ~batch_size:2 ~threads:4 ~out_cols:c.Compiler.out_cols lir in
  let rows = 16 in
  let flat = Array.make rows 0.5 in
  match Exec.execute t ~flat ~rows ~num_features:1 with
  | exception Exec.Chunk_error e ->
      check tbool "failing chunk within range" true
        (e.Exec.chunk_lo >= 0 && e.Exec.chunk_hi <= rows
        && e.Exec.chunk_lo < e.Exec.chunk_hi);
      check tbool "message not empty" true (String.length e.Exec.message > 0)
  | _ -> Alcotest.fail "expected Chunk_error"

let test_multithread_deterministic () =
  let t = small_model () in
  let rng = Spnc_data.Rng.create ~seed:4242 in
  let rows =
    Array.init 64 (fun _ ->
        Array.init 2 (fun _ -> Spnc_data.Rng.range rng (-2.0) 2.0))
  in
  let run threads =
    let options =
      { Options.default with Options.threads; batch_size = 4 }
    in
    Compiler.execute (Compiler.compile ~options t) rows
  in
  let one = run 1 and four = run 4 in
  Array.iteri
    (fun i a ->
      if a <> four.(i) then
        Alcotest.failf "row %d: 1-thread %.17g <> 4-thread %.17g" i a four.(i))
    one

(* -- Reproducer ----------------------------------------------------------------- *)

let test_reproducer_write () =
  let dir = Filename.temp_file "spnc-test" "" in
  Sys.remove dir;
  (match
     Reproducer.write ~dir
       ~extra:[ ("note.txt", "hello") ]
       ~ir:"module @m {\n}\n" ~pipeline:"verify" ~options:"none"
       ~diag:"error: nothing actually" ()
   with
  | Error e -> Alcotest.failf "write failed: %s" e
  | Ok b ->
      check tstr "ir round-trips" "module @m {\n}\n" (Reproducer.read_file b "ir.mlir");
      check tstr "extra file" "hello" (Reproducer.read_file b "note.txt");
      check tbool "README mentions spnc_opt replay" true
        (Astring_contains.contains (Reproducer.read_file b "README.txt") "spnc_opt"));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* -- Deterministic fault injection (docs/RESILIENCE.md §3) --------------------- *)

let test_fault_decide_deterministic () =
  (* the decision stream is a pure function of its coordinates *)
  for occ = 0 to 9 do
    let a = Fault.decide ~seed:7 ~point:"p.x" ~occurrence:occ in
    let b = Fault.decide ~seed:7 ~point:"p.x" ~occurrence:occ in
    check tbool "same coordinates, same draw" true (a = b);
    check tbool "draw in [0,1)" true (a >= 0.0 && a < 1.0)
  done;
  (* distinct coordinates decorrelate *)
  check tbool "seed changes the stream" true
    (Fault.decide ~seed:1 ~point:"p.x" ~occurrence:0
    <> Fault.decide ~seed:2 ~point:"p.x" ~occurrence:0);
  check tbool "point name changes the stream" true
    (Fault.decide ~seed:1 ~point:"p.x" ~occurrence:0
    <> Fault.decide ~seed:1 ~point:"p.y" ~occurrence:0)

let test_fault_replay_identical () =
  let record () =
    Fault.reset_for_tests ();
    Fault.arm ~seed:99 ~rate:0.5 ();
    let fired = List.init 64 (fun _ -> Fault.fire "replay.point") in
    Fault.reset_for_tests ();
    fired
  in
  let a = record () and b = record () in
  check tbool "armed firing sequence replays exactly" true (a = b);
  check tbool "roughly rate-proportional" true
    (let n = List.length (List.filter Fun.id a) in
     n > 10 && n < 54)

let test_fault_point_families () =
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "kcache." ] ~seed:5 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      check tbool "family member fires" true (Fault.fire "kcache.read_bitflip");
      check tbool "other families stay quiet" false (Fault.fire "pool.chunk_fail");
      check tint "suppressed point never counted as fired" 0
        (Fault.fired_count "pool.chunk_fail"))

let test_fault_arm_from_env () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SPNC_CHAOS" "";
      Fault.reset_for_tests ())
    (fun () ->
      Unix.putenv "SPNC_CHAOS" "seed=5,rate=0.25,points=kcache.;jit.build_fail";
      Fault.arm_from_env ();
      (match Fault.armed () with
      | Some s ->
          check tint "seed parsed" 5 s.Fault.seed;
          check tbool "rate parsed" true (s.Fault.rate = 0.25);
          check
            (Alcotest.option (Alcotest.list tstr))
            "points parsed"
            (Some [ "kcache."; "jit.build_fail" ])
            s.Fault.points
      | None -> Alcotest.fail "well-formed SPNC_CHAOS must arm");
      (* malformed values must never crash the host process *)
      Fault.disarm ();
      Unix.putenv "SPNC_CHAOS" "rate=banana";
      Fault.arm_from_env ();
      check tbool "malformed env leaves the registry disarmed" true
        (Fault.armed () = None))

let test_reproducer_write_under_injected_fault () =
  let dir = Filename.temp_file "spnc-test" "" in
  Sys.remove dir;
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "repro.write_fail" ] ~seed:8 ~rate:1.0 ();
  Fun.protect
    ~finally:(fun () ->
      Fault.reset_for_tests ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      (match
         Reproducer.write ~dir ~ir:"module @m {\n}\n" ~pipeline:"verify"
           ~options:"none" ~diag:"d" ()
       with
      | Error _ -> () (* a structured error, not an exception *)
      | Ok _ -> Alcotest.fail "injected write fault must fail the bundle");
      Fault.disarm ();
      (* and the same write succeeds once the fault clears *)
      match
        Reproducer.write ~dir ~ir:"module @m {\n}\n" ~pipeline:"verify"
          ~options:"none" ~diag:"d" ()
      with
      | Ok b ->
          check tstr "bundle usable after recovery" "module @m {\n}\n"
            (Reproducer.read_file b "ir.mlir")
      | Error e -> Alcotest.failf "clean retry failed: %s" e)

(* The jit cell must stay retryable after an injected build failure —
   the Lazy.t it replaced would poison permanently. *)
let test_force_jit_retryable () =
  Compiler.reset_kernel_cache ();
  let options = { Options.default with Options.engine = Spnc_cpu.Jit.Jit } in
  let c = Compiler.compile ~options (small_model ()) in
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "jit.build_fail" ] ~seed:2 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      (match Compiler.execute c small_rows with
      | exception Fault.Transient _ -> ()
      | _ -> Alcotest.fail "expected the injected JIT build failure");
      Fault.disarm ();
      (* same compiled value, same cell: the retry must succeed *)
      let out = Compiler.execute c small_rows in
      let expected =
        Spnc_spn.Infer.log_likelihood_batch (small_model ()) small_rows
      in
      Array.iteri
        (fun i e ->
          if Float.abs (out.(i) -. e) > 1e-9 then
            Alcotest.failf "row %d: expected %.12g got %.12g" i e out.(i))
        expected)

let suite =
  [
    Alcotest.test_case "diag: fail raises structured error" `Quick test_diag_fail;
    Alcotest.test_case "diag: of_exn normalizes" `Quick test_diag_of_exn;
    Alcotest.test_case "pass: verifier blames the breaking pass" `Quick
      test_checked_verifier_blames_pass;
    Alcotest.test_case "pass: exception barrier captures throws" `Quick
      test_checked_captures_exception;
    Alcotest.test_case "pass: failure writes a reproducer bundle" `Quick
      test_checked_writes_bundle;
    Alcotest.test_case "pass: replay starts at the failing repeat" `Quick
      test_replay_from_failing_repeat;
    Alcotest.test_case "pass: ir_before is the failing pass's input" `Quick
      test_ir_before_is_the_failing_input;
    Alcotest.test_case "compiler: stage fault point isolated" `Quick
      test_stage_fault_isolated;
    Alcotest.test_case "guard: Fail policy raises" `Quick test_guard_fail;
    Alcotest.test_case "guard: Warn passes values through" `Quick
      test_guard_warn_passes_through;
    Alcotest.test_case "guard: Clamp replaces bad values" `Quick test_guard_clamp;
    Alcotest.test_case "guard: scan/clamp unit behaviour" `Quick
      test_guard_scan_and_clamp_unit;
    Alcotest.test_case "gpu: fallback to CPU with diagnostic" `Quick
      test_gpu_fallback;
    Alcotest.test_case "gpu: fallback disabled propagates" `Quick
      test_gpu_fallback_disabled;
    Alcotest.test_case "exec: input validation" `Quick test_exec_validation;
    Alcotest.test_case "exec: load validation" `Quick test_exec_load_validation;
    Alcotest.test_case "exec: chunk failure surfaces once" `Quick
      test_chunk_error;
    Alcotest.test_case "exec: multi-thread bit-identical" `Quick
      test_multithread_deterministic;
    Alcotest.test_case "reproducer: bundle layout" `Quick test_reproducer_write;
    Alcotest.test_case "fault: decision stream deterministic" `Quick
      test_fault_decide_deterministic;
    Alcotest.test_case "fault: armed schedule replays exactly" `Quick
      test_fault_replay_identical;
    Alcotest.test_case "fault: point families prefix-match" `Quick
      test_fault_point_families;
    Alcotest.test_case "fault: SPNC_CHAOS env arming" `Quick
      test_fault_arm_from_env;
    Alcotest.test_case "reproducer: structured error under injected I/O fault"
      `Quick test_reproducer_write_under_injected_fault;
    Alcotest.test_case "jit cell: retryable after injected build failure"
      `Quick test_force_jit_retryable;
  ]
