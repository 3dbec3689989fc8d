(** IR tour — reproduces the paper's running example end-to-end.

    The paper illustrates the compiler with one small SPN (its Fig. 1)
    and shows the IR at each level: HiSPN (Fig. 2), LoSPN after lowering
    and bufferization (Fig. 3), the CPU lowering (Fig. 4) and the GPU
    lowering (Fig. 5).  This example builds that SPN and prints the real
    IR our pipeline produces at each of those stages.

    Run with: [dune exec examples/ir_tour.exe] *)

open Spnc_mlir

let banner title = Fmt.pr "@.=== %s ===@.@." title

let () =
  (* Fig. 1: a weighted mixture of two products over two features. *)
  let model =
    Spnc_spn.Text.of_string
      {|
      spn "example" features 2
      Sum(0.3 * Product(Gaussian(x0; 0.0, 1.0), Gaussian(x1; 1.0, 0.5)),
          0.7 * Product(Gaussian(x0; 2.0, 1.5), Gaussian(x1; -1.0, 1.0)))
      |}
  in
  banner "Fig. 1 — the example SPN (text DSL)";
  Fmt.pr "%s@." (Spnc_spn.Text.to_string model);

  (* Fig. 2: the HiSPN representation of the joint query. *)
  let query =
    { Spnc_hispn.From_model.default_query with batch_size = 96 }
  in
  let hi = Spnc_hispn.From_model.translate ~query model in
  banner "Fig. 2 — HiSPN: query + DAG over !hi_spn.probability";
  Fmt.pr "%s@." (Printer.modul_to_string hi);

  (* Fig. 3: LoSPN after lowering (log-space selected explicitly to match
     the paper's example) and bufferization. *)
  let lo =
    Spnc_lospn.Lower_hispn.run
      ~options:
        {
          Spnc_lospn.Lower_hispn.default_options with
          space = Spnc_lospn.Lower_hispn.Force_log;
        }
      hi
  in
  let lo = Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo) in
  banner "Fig. 3 — LoSPN: kernel / task / body over !lo_spn.log<f32>, bufferized";
  Fmt.pr "%s@." (Printer.modul_to_string lo);

  (* Fig. 4: the CPU lowering (vectorized, as §IV-B describes). *)
  let cir =
    Spnc_cpu.Lower_cpu.run
      ~options:
        { Spnc_cpu.Lower_cpu.scalar_options with vectorize = true; width = 8;
          use_veclib = true; use_shuffle = true }
      lo
  in
  banner "Fig. 4 — CPU target: batch loop, vector ops, veclib calls";
  Fmt.pr "%s@." (Printer.modul_to_string cir);

  (* Fig. 5: the GPU lowering — host function plus thread-per-sample
     kernel; then the pseudo-PTX the backend assembles. *)
  let gm = Spnc_gpu.Copy_opt.run (Spnc_gpu.Lower_gpu.run lo) in
  banner "Fig. 5 — GPU target: host coordination + gpu.func kernel";
  Fmt.pr "%s@." (Printer.modul_to_string gm);

  banner "PTX (excerpt)";
  let ptx = Spnc_gpu.Ptx.emit gm in
  let lines = String.split_on_char '\n' ptx in
  List.iteri (fun i l -> if i < 25 then Fmt.pr "%s@." l) lines;
  Fmt.pr "... (%d lines total)@." (List.length lines);

  (* And the Lir "object code" of the scalar CPU kernel, after -O2. *)
  let lir =
    Spnc_cpu.Optimizer.run Spnc_cpu.Optimizer.O2
      (Spnc_cpu.Isel.finish (Spnc_cpu.Lower_cpu.isel lo) ~entry:"spn_kernel")
  in
  banner "LLVM-like backend: instruction counts after -O2";
  Array.iter
    (fun (f : Spnc_cpu.Lir.func) ->
      Fmt.pr "%-24s %4d instructions@." f.Spnc_cpu.Lir.fname
        (Spnc_cpu.Lir.func_size f))
    lir.Spnc_cpu.Lir.funcs
