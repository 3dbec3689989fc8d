(** Tests for the fuzzer ([Spnc_smith]): generator determinism,
    verification and printer/parser round-trip of every generated
    program, pass-ordering legality, the differential harness on clean
    and deliberately-broken compilers (IR-level and model-derived
    cases), the shrinker, and the pass-ordering promotion hook
    ([Options.lospn_opt_order]). *)

open Spnc_mlir
module Smith = Spnc_smith.Smith
module Harness = Spnc_smith.Harness
module Shrink = Spnc_smith.Shrink
module Passorder = Spnc_smith.Passorder
module Rng = Spnc_data.Rng

let check = Alcotest.check
let tbool = Alcotest.bool
let tstr = Alcotest.string

let print_m (m : Ir.modul) = Printer.modul_to_string m

(* -- generator ----------------------------------------------------------------- *)

let test_deterministic () =
  let a = Smith.generate ~seed:5 ~id:3 () in
  let b = Smith.generate ~seed:5 ~id:3 () in
  check tstr "same (seed, id) prints identically" (print_m a.Smith.modul)
    (print_m b.Smith.modul);
  (* bitwise, not structural: marginal evidence contains NaN and nan <> nan *)
  check tbool "same (seed, id) draws identical data" true
    (Array.for_all2
       (fun r1 r2 ->
         Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           r1 r2)
       a.Smith.data b.Smith.data);
  let c = Smith.generate ~seed:5 ~id:4 () in
  check tbool "different id differs" true
    (print_m a.Smith.modul <> print_m c.Smith.modul)

let test_generated_verify_and_roundtrip () =
  for id = 0 to 59 do
    let p = Smith.generate ~seed:11 ~id () in
    (match Verifier.verify p.Smith.modul with
    | [] -> ()
    | es ->
        Alcotest.failf "case %d does not verify: %s" id
          (Verifier.errors_to_string es));
    let printed = print_m p.Smith.modul in
    match Parser.modul_of_string printed with
    | exception e ->
        Alcotest.failf "case %d does not re-parse: %s" id (Printexc.to_string e)
    | m' ->
        if print_m m' <> printed then
          Alcotest.failf "case %d round-trip is not byte-identical" id
  done

let test_generated_data_in_support () =
  (* categorical / histogram evidence must stay inside the leaf support,
     and NaNs may only appear when the query supports marginals *)
  for id = 0 to 29 do
    let p = Smith.generate ~seed:13 ~id () in
    Array.iter
      (fun row ->
        Array.iteri
          (fun j v ->
            if Float.is_nan v then
              check tbool "NaN only under support_marginal" true
                p.Smith.support_marginal
            else
              match p.Smith.kinds.(j) with
              | Smith.Continuous -> ()
              | Smith.Categorical n ->
                  check tbool "categorical in range" true (v >= 0.0 && v < float_of_int n)
              | Smith.Histogram n ->
                  check tbool "histogram in range" true (v >= 0.0 && v <= float_of_int n))
          row)
      p.Smith.data
  done

(* -- legality ------------------------------------------------------------------ *)

let test_legality_default_pipelines () =
  (match Spnc.Pipelines.validate_pipeline Harness.baseline_pipeline with
  | Ok () -> ()
  | Error e -> Alcotest.failf "baseline pipeline illegal: %s" e);
  match
    Spnc.Pipelines.validate_pipeline
      "lower-to-lospn,constfold,lospn-partition=4,cse,dce,lospn-bufferize,lospn-buffer-opt"
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "partitioned pipeline illegal: %s" e

let test_legality_rejects_illegal () =
  let illegal =
    [
      (* partitioning after bufferization: consumes lospn, sees lospn-buf *)
      "lower-to-lospn,lospn-bufferize,lospn-partition=4";
      (* buffer-opt before bufferization *)
      "lower-to-lospn,lospn-buffer-opt,lospn-bufferize";
      (* lowering to lospn twice *)
      "lower-to-lospn,lower-to-lospn";
      (* opt pass before lowering: consumes lospn, sees hispn *)
      "cse,lower-to-lospn,lospn-bufferize";
    ]
  in
  List.iter
    (fun spec ->
      match Spnc.Pipelines.validate_pipeline spec with
      | Ok () -> Alcotest.failf "pipeline %S should be illegal" spec
      | Error _ -> ())
    illegal

let test_random_pipelines_legal () =
  let rng = Rng.create ~seed:42 in
  for _ = 1 to 50 do
    let pl = Passorder.random_pipeline rng in
    let spec = Passorder.pipeline_to_string pl in
    match Spnc.Pipelines.validate_pipeline spec with
    | Ok () -> ()
    | Error e -> Alcotest.failf "random pipeline %S illegal: %s" spec e
  done

let test_bad_opt_order_rejected () =
  (match Spnc.Pipelines.lospn_opt_passes [ "bogus" ] with
  | Ok _ -> Alcotest.fail "unknown opt pass accepted"
  | Error _ -> ());
  match Spnc.Pipelines.lospn_opt_passes [] with
  | Ok _ -> Alcotest.fail "empty opt order accepted"
  | Error _ -> ()

(* -- differential harness ------------------------------------------------------ *)

let test_clean_differential () =
  for id = 0 to 29 do
    let p = Smith.generate ~seed:5 ~id () in
    match Harness.check_program p with
    | None -> ()
    | Some f ->
        Alcotest.failf "case %d failed [%s] %s: %s" id f.Harness.check
          f.Harness.pipeline f.Harness.detail
  done

let find_planted_failure ~seed ~max_id =
  let rec go id =
    if id > max_id then None
    else
      let p = Smith.generate ~seed ~id () in
      match Harness.check_program p with
      | Some f -> Some (p, f)
      | None -> go (id + 1)
  in
  go 0

let test_detects_planted_miscompile () =
  Fun.protect
    ~finally:(fun () -> Spnc_cpu.Optimizer.inject_bad_peephole := false)
    (fun () ->
      Spnc_cpu.Optimizer.inject_bad_peephole := true;
      match find_planted_failure ~seed:7 ~max_id:40 with
      | None ->
          Alcotest.fail
            "harness missed the injected unsound peephole over 41 programs"
      | Some (_, f) ->
          check tbool "failure names a check" true
            (List.mem f.Harness.check
               [ "bit-identity"; "reference"; "ordering-divergence" ]))

let test_shrinker_on_planted_miscompile () =
  Fun.protect
    ~finally:(fun () -> Spnc_cpu.Optimizer.inject_bad_peephole := false)
    (fun () ->
      Spnc_cpu.Optimizer.inject_bad_peephole := true;
      match find_planted_failure ~seed:7 ~max_id:40 with
      | None -> Alcotest.fail "no failing program to shrink"
      | Some (p, _) ->
          let still_fails m d =
            Harness.check_program
              { p with Smith.modul = m; data = d; rows = Array.length d }
            <> None
          in
          let shrunk, shrunk_data =
            Shrink.shrink ~still_fails p.Smith.modul p.Smith.data
          in
          check tbool "shrunk module is strictly smaller" true
            (Shrink.count_ops shrunk < Shrink.count_ops p.Smith.modul);
          check tbool "shrunk module still verifies" true
            (Verifier.is_valid shrunk);
          check tbool "shrunk case still fails" true
            (still_fails shrunk shrunk_data))

(* -- promotion hook ------------------------------------------------------------ *)

let test_opt_order_promotion_bit_identical () =
  let rng = Rng.create ~seed:80 in
  let model =
    Spnc_spn.Random_spn.generate_sized rng
      { Spnc_spn.Random_spn.speaker_id_config with num_features = 8 }
      ~min_ops:120
  in
  let base = { (Spnc.Options.best_cpu ()) with use_kernel_cache = false } in
  let permuted =
    { base with lospn_opt_order = Some [ "dce"; "cse"; "constfold" ] }
  in
  let key o = Spnc.Options.(fingerprint (compile_of o)) in
  check tbool "fingerprint keys the ordering" true (key base <> key permuted);
  let run options =
    let c = Spnc.Compiler.compile ~options model in
    Spnc.Compiler.execute c
      (Array.init 16 (fun i ->
           Array.init 8 (fun j -> Rng.range (Rng.create ~seed:(i + (17 * j))) (-3.0) 3.0)))
  in
  let a = run base and b = run permuted in
  check tbool "permuted opt order is bit-identical" true
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b)

let test_bad_opt_order_raises () =
  let model =
    Spnc_spn.Random_spn.generate_sized (Rng.create ~seed:81)
      { Spnc_spn.Random_spn.speaker_id_config with num_features = 4 }
      ~min_ops:30
  in
  let options =
    {
      (Spnc.Options.best_cpu ()) with
      use_kernel_cache = false;
      lospn_opt_order = Some [ "nonsense" ];
    }
  in
  match Spnc.Compiler.compile ~options model with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown lospn_opt_order pass accepted by compile"

(* -- leaderboard --------------------------------------------------------------- *)

let test_leaderboard_roundtrip () =
  let scores =
    [
      {
        Passorder.order = [ "constfold"; "cse"; "dce" ];
        programs = 16;
        final_ops = 1393;
        compile_s = 0.046;
        est_cycles = 22736.4;
        bit_identical = true;
      };
      {
        Passorder.order = [ "canonicalize" ];
        programs = 16;
        final_ops = 1393;
        compile_s = 0.023;
        est_cycles = 22736.4;
        bit_identical = false;
      };
    ]
  in
  let j = Passorder.leaderboard_to_json ~seed:5 scores in
  match Passorder.leaderboard_of_json j with
  | Error e -> Alcotest.failf "leaderboard does not round-trip: %s" e
  | Ok scores' ->
      check tbool "entries survive" true
        (List.length scores' = 2
        && List.exists
             (fun s ->
               s.Passorder.order = [ "canonicalize" ]
               && not s.Passorder.bit_identical)
             scores');
      check tbool "best skips non-bit-identical entries" true
        (match Passorder.best scores' with
        | Some s -> s.Passorder.bit_identical
        | None -> false)

let test_comparisons () =
  check tbool "NaN matches NaN" true
    (Harness.tol_eq ~tol:1e-9 [| Float.nan |] [| Float.nan |]);
  check tbool "-inf matches -inf" true
    (Harness.tol_eq ~tol:1e-9 [| Float.neg_infinity |] [| Float.neg_infinity |]);
  check tbool "inf does not match -inf" false
    (Harness.tol_eq ~tol:1e-9 [| Float.infinity |] [| Float.neg_infinity |]);
  check tbool "relative tolerance" true
    (Harness.tol_eq ~tol:1e-6 [| 1000.0 |] [| 1000.0005 |]);
  check tbool "exact_eq distinguishes -0." false (Harness.exact_eq [| 0.0 |] [| -0.0 |])

(* -- model-derived cases --------------------------------------------------------- *)

let same_bits a b =
  Array.for_all2
    (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y))
    a b

let test_model_cases_deterministic () =
  let a = Smith.of_model ~seed:5 ~id:3 ()
  and b = Smith.of_model ~seed:5 ~id:3 () in
  check tstr "same (seed, id) prints identically" (print_m a.Smith.modul)
    (print_m b.Smith.modul);
  check tbool "same (seed, id) draws identical data" true
    (same_bits a.Smith.data b.Smith.data);
  check tbool "odd case ids are model-derived" true
    ((Smith.case ~seed:5 ~id:3 ()).Smith.model <> None
    && (Smith.case ~seed:5 ~id:4 ()).Smith.model = None)

let test_model_cases_valid () =
  for id = 0 to 19 do
    match (Smith.of_model ~seed:99 ~id ()).Smith.model with
    | None -> Alcotest.failf "case %d has no model" id
    | Some m -> (
        match Spnc_spn.Validate.check m with
        | [] -> ()
        | issues ->
            Alcotest.failf "case %d invalid: %s" id
              (Spnc_spn.Validate.issues_to_string issues))
  done

let test_model_cases_clean () =
  for id = 0 to 5 do
    match Harness.check_program (Smith.of_model ~seed:11 ~id ()) with
    | None -> ()
    | Some f -> Alcotest.failf "case %d: %a" id Harness.pp_failure f
  done

(* The model-derived checks alone (no IR-level sweep) must catch the
   deliberately unsound peephole, and the rows-only shrink must keep the
   module and the failure. *)
let test_model_checks_flag_injected_miscompile () =
  Spnc.Compiler.reset_kernel_cache ();
  Fun.protect
    ~finally:(fun () ->
      Spnc_cpu.Optimizer.inject_bad_peephole := false;
      Spnc.Compiler.reset_kernel_cache ())
    (fun () ->
      Spnc_cpu.Optimizer.inject_bad_peephole := true;
      let rec find id =
        if id >= 20 then Alcotest.fail "injected miscompile never detected"
        else
          let p = Smith.of_model ~seed:13 ~id () in
          match Harness.check_model p with
          | Some f -> (p, f)
          | None -> find (id + 1)
      in
      let p, f = find 0 in
      check tbool "failure names a model check" true
        (String.starts_with ~prefix:"model-" f.Harness.check);
      let still_fails m d =
        Harness.check_model
          { p with Smith.modul = m; data = d; rows = Array.length d }
        <> None
      in
      let shrunk, shrunk_data =
        Shrink.shrink ~rows_only:true ~still_fails p.Smith.modul p.Smith.data
      in
      check tbool "module kept" true (shrunk == p.Smith.modul);
      check tbool "rows shrank or stayed" true
        (Array.length shrunk_data <= Array.length p.Smith.data);
      check tbool "shrunk case still fails" true
        (still_fails shrunk shrunk_data))

let suite =
  [
    Alcotest.test_case "generator is seed-deterministic" `Quick test_deterministic;
    Alcotest.test_case "60 programs verify and round-trip" `Quick
      test_generated_verify_and_roundtrip;
    Alcotest.test_case "generated evidence stays in leaf support" `Quick
      test_generated_data_in_support;
    Alcotest.test_case "legality accepts the stock pipelines" `Quick
      test_legality_default_pipelines;
    Alcotest.test_case "legality rejects known-illegal orderings" `Quick
      test_legality_rejects_illegal;
    Alcotest.test_case "50 random pipelines are legal" `Quick
      test_random_pipelines_legal;
    Alcotest.test_case "bad opt orders are rejected" `Quick
      test_bad_opt_order_rejected;
    Alcotest.test_case "clean differential run over 30 programs" `Slow
      test_clean_differential;
    Alcotest.test_case "harness detects the planted miscompile" `Slow
      test_detects_planted_miscompile;
    Alcotest.test_case "shrinker minimizes the planted miscompile" `Slow
      test_shrinker_on_planted_miscompile;
    Alcotest.test_case "promoted opt order is bit-identical + refingerprinted"
      `Quick test_opt_order_promotion_bit_identical;
    Alcotest.test_case "compile rejects an unknown promoted pass" `Quick
      test_bad_opt_order_raises;
    Alcotest.test_case "leaderboard JSON round-trips" `Quick
      test_leaderboard_roundtrip;
    Alcotest.test_case "tolerant/exact comparison corners" `Quick
      test_comparisons;
    Alcotest.test_case "model cases are deterministic" `Quick
      test_model_cases_deterministic;
    Alcotest.test_case "model cases are valid models" `Quick
      test_model_cases_valid;
    Alcotest.test_case "model cases run clean" `Slow test_model_cases_clean;
    Alcotest.test_case "model checks flag the bad peephole" `Slow
      test_model_checks_flag_injected_miscompile;
  ]
