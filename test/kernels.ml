(** Kernel golden: compiles a fixed corpus and prints one line per
    compile, the MD5 of the printed final LoSPN and the MD5 of the
    backend artifact ([Marshal.No_sharing] of the Lir and
    [Regalloc.stats] on the CPU, the PTX text on the GPU).  The runtest
    rule diffs the output against [kernels.expected]; a deliberate
    kernel change is accepted with [dune promote].

    Corpus, every model at a fixed seed: speaker-ID-sized random SPNs, a
    RAT-SPN class SPN and generic random SPNs (Gaussian, categorical and
    histogram leaves); each at -O0..-O3 scalar and vectorized (AVX2 +
    veclib + shuffled loads + marginal support), and on the GPU at -O1. *)

open Spnc_spn
module Rng = Spnc_data.Rng
module Options = Spnc.Options
module Compiler = Spnc.Compiler

let models : (string * Model.t) list =
  let speaker seed =
    ( Printf.sprintf "speaker-%d" seed,
      Random_spn.generate ~name:"speaker" (Rng.create ~seed)
        Random_spn.speaker_id_config )
  and generic seed =
    ( Printf.sprintf "random-%d" seed,
      Random_spn.generate ~name:"random" (Rng.create ~seed)
        Random_spn.default_config )
  and rat =
    let cfg =
      {
        Rat_spn.num_features = 32;
        depth = 3;
        repetitions = 2;
        num_sums = 4;
        num_input_distributions = 4;
        num_classes = 1;
      }
    in
    ("rat", (Rat_spn.generate ~name_prefix:"rat" (Rng.create ~seed:11) cfg).(0))
  in
  List.map speaker [ 1; 2 ] @ [ rat ] @ List.map generic (List.init 9 (fun i -> 101 + i))

let levels = Spnc_cpu.Optimizer.[ O0; O1; O2; O3 ]

let configs : (string * Options.t) list =
  let base = { Options.default with threads = 1 } in
  List.concat_map
    (fun level ->
      let l = Spnc_cpu.Optimizer.level_to_string level in
      [
        ("cpu" ^ l, { base with vectorize = false; opt_level = level });
        ( "avx2" ^ l,
          {
            base with
            vectorize = true;
            use_veclib = true;
            use_shuffle = true;
            support_marginal = true;
            opt_level = level;
          } );
      ])
    levels
  @ [ ( "gpu-O1",
      {
        base with
        target = Options.Gpu;
        gpu_fallback = false;
        opt_level = Spnc_cpu.Optimizer.O1;
      } ) ]

let md5 s = Digest.to_hex (Digest.string s)

let () =
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (cname, options) ->
          let c = Compiler.compile ~options model in
          let lospn = md5 (Spnc_mlir.Printer.modul_to_string c.Compiler.lospn) in
          let kernel =
            match c.Compiler.artifact with
            | Compiler.Cpu_kernel { lir; regalloc; _ } ->
                md5 (Marshal.to_string (lir, regalloc) [ Marshal.No_sharing ])
            | Compiler.Gpu_kernel { ptx; _ } -> md5 ptx
          in
          Printf.printf "%s %s %s %s\n" mname cname lospn kernel)
        configs)
    models
