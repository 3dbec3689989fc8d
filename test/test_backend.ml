(** Tests for the LLVM-like CPU backend: instruction selection, the -O0..
    -O3 optimizer, register allocation, the VM, and the cost model.  The
    VM result is compared against the reference evaluator at every
    optimization level and vector configuration. *)

open Spnc_mlir
open Spnc_spn
module Rng = Spnc_data.Rng
module Lower = Spnc_cpu.Lower_cpu
module Opt = Spnc_cpu.Optimizer

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let example_spn () =
  Model.make ~name:"example" ~num_features:2
    (Model.sum
       [
         ( 0.3,
           Model.product
             [
               Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0;
               Model.gaussian ~var:1 ~mean:1.0 ~stddev:0.5;
             ] );
         ( 0.7,
           Model.product
             [
               Model.gaussian ~var:0 ~mean:2.0 ~stddev:1.5;
               Model.gaussian ~var:1 ~mean:(-1.0) ~stddev:1.0;
             ] );
       ])

let mixed_spn () =
  Model.make ~name:"mixed" ~num_features:3
    (Model.sum
       [
         ( 0.5,
           Model.product
             [
               Model.categorical ~var:0 ~probs:[| 0.1; 0.6; 0.3 |];
               Model.histogram ~var:1 ~breaks:[| 0; 1; 3 |] ~densities:[| 0.6; 0.2 |];
               Model.gaussian ~var:2 ~mean:0.5 ~stddev:2.0;
             ] );
         ( 0.5,
           Model.product
             [
               Model.categorical ~var:0 ~probs:[| 0.3; 0.3; 0.4 |];
               Model.histogram ~var:1 ~breaks:[| 0; 2; 3 |] ~densities:[| 0.4; 0.2 |];
               Model.gaussian ~var:2 ~mean:(-1.0) ~stddev:0.5;
             ] );
       ])

let to_lir ?(cpu_options = Lower.scalar_options) ?partition_size
    ?(level = Opt.O1) t =
  let hi = Spnc_hispn.From_model.translate t in
  let lo =
    Spnc_lospn.Lower_hispn.run
      ~options:
        {
          Spnc_lospn.Lower_hispn.default_options with
          space = Spnc_lospn.Lower_hispn.Force_log;
        }
      hi
  in
  let lo = Canonicalize.run lo in
  let lo =
    match partition_size with
    | Some s ->
        Spnc_lospn.Partition_pass.run
          ~options:
            { Spnc_lospn.Partition_pass.default_options with max_partition_size = s }
          lo
    | None -> lo
  in
  let lo = Spnc_lospn.Bufferize.run lo in
  let lo = Spnc_lospn.Buffer_opt.run lo in
  Opt.run level
    (Spnc_cpu.Isel.finish (Lower.isel ~options:cpu_options lo) ~entry:"spn_kernel")

(* The VM through the runtime, which pads a vectorized kernel's last
   partial group of rows. *)
let run_vm lir ~(rows : float array array) =
  (* output cols from entry's last parameter is opaque at Lir level; SPN
     kernels always produce slot 0 per sample, and the partition pass puts
     the root at slot 0, so allocate generously *)
  let t = Spnc_runtime.Exec.load ~engine:Spnc_cpu.Jit.Vm ~out_cols:4 lir in
  Spnc_runtime.Exec.execute_rows t rows

let differential ?cpu_options ?partition_size ?level ~tol t rows =
  let lir = to_lir ?cpu_options ?partition_size ?level t in
  let out = run_vm lir ~rows in
  Array.iteri
    (fun i row ->
      let expected = Infer.log_likelihood t row in
      let got = out.(i) in
      if
        not
          ((Float.is_nan expected && Float.is_nan got)
          || expected = got
          || Float.abs (got -. expected) <= tol)
      then Alcotest.failf "row %d: expected %.12g got %.12g" i expected got)
    rows

let random_rows rng n f =
  Array.init n (fun _ -> Array.init f (fun _ -> Rng.range rng (-3.0) 3.0))

let vec_options =
  { Lower.scalar_options with Lower.vectorize = true; width = 8; use_veclib = true; use_shuffle = true }

(* -- VM correctness across configurations ------------------------------------ *)

let test_vm_scalar_levels () =
  let rng = Rng.create ~seed:50 in
  let rows = random_rows rng 37 2 in
  List.iter
    (fun level -> differential ~level ~tol:1e-9 (example_spn ()) rows)
    [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ]

let test_vm_vector_levels () =
  let rng = Rng.create ~seed:51 in
  let rows = random_rows rng 37 2 in
  List.iter
    (fun level ->
      differential ~cpu_options:vec_options ~level ~tol:1e-9 (example_spn ()) rows)
    [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ]

let test_vm_discrete () =
  let rng = Rng.create ~seed:52 in
  let rows =
    Array.init 30 (fun _ ->
        [|
          float_of_int (Rng.int rng 4);
          float_of_int (Rng.int rng 4);
          Rng.range rng (-2.0) 2.0;
        |])
  in
  List.iter
    (fun level ->
      differential ~level ~tol:1e-9 (mixed_spn ()) rows;
      differential ~cpu_options:vec_options ~level ~tol:1e-9 (mixed_spn ()) rows)
    [ Opt.O0; Opt.O3 ]

let test_vm_partitioned () =
  let rng = Rng.create ~seed:53 in
  let t =
    Random_spn.generate_sized rng
      { Random_spn.default_config with num_features = 10; max_depth = 7 }
      ~min_ops:300
  in
  let rows = random_rows (Rng.create ~seed:54) 23 10 in
  differential ~partition_size:60 ~cpu_options:vec_options ~level:Opt.O2
    ~tol:1e-8 t rows

let test_vm_no_veclib () =
  let rng = Rng.create ~seed:55 in
  differential
    ~cpu_options:{ vec_options with use_veclib = false }
    ~level:Opt.O1 ~tol:1e-9 (example_spn ()) (random_rows rng 19 2)

(* -- Optimizer behaviour -------------------------------------------------------- *)

let test_optimization_reduces_instructions () =
  let t = example_spn () in
  let o0 = to_lir ~level:Opt.O0 t in
  let o1 = to_lir ~level:Opt.O1 t in
  let o2 = to_lir ~level:Opt.O2 t in
  let s0 = Spnc_cpu.Lir.module_size o0
  and s1 = Spnc_cpu.Lir.module_size o1
  and s2 = Spnc_cpu.Lir.module_size o2 in
  check tbool (Printf.sprintf "O1 %d < O0 %d" s1 s0) true (s1 < s0);
  check tbool (Printf.sprintf "O2 %d <= O1 %d" s2 s1) true (s2 <= s1)

let count_in_loops pred (m : Spnc_cpu.Lir.modul) =
  let n = ref 0 in
  let rec go in_loop (body : Spnc_cpu.Lir.instr array) =
    Array.iter
      (fun i ->
        match i with
        | Spnc_cpu.Lir.Loop l -> go true l.Spnc_cpu.Lir.body
        | i -> if in_loop && pred i then incr n)
      body
  in
  Array.iter (fun (f : Spnc_cpu.Lir.func) -> go false f.Spnc_cpu.Lir.body) m.Spnc_cpu.Lir.funcs;
  !n

let test_licm_hoists_constants () =
  let t = example_spn () in
  let o1 = to_lir ~level:Opt.O1 t in
  let o2 = to_lir ~level:Opt.O2 t in
  let consts_in_loop m =
    count_in_loops
      (fun i -> match i with Spnc_cpu.Lir.ConstF _ | Spnc_cpu.Lir.ConstI _ -> true | _ -> false)
      m
  in
  check tbool "O2 hoists constants out of the loop" true
    (consts_in_loop o2 < consts_in_loop o1)

let test_fma_fusion_at_o3 () =
  let t = example_spn () in
  let o3 = to_lir ~level:Opt.O3 t in
  let fmas =
    Array.fold_left
      (fun acc (f : Spnc_cpu.Lir.func) ->
        acc
        + Spnc_cpu.Lir.count_instrs
            ~filter:(fun i ->
              match i with Spnc_cpu.Lir.FBin3 _ | Spnc_cpu.Lir.VBin3 _ -> true | _ -> false)
            f.Spnc_cpu.Lir.body)
      0 o3.Spnc_cpu.Lir.funcs
  in
  check tbool "FMA instructions present at -O3" true (fmas > 0)

let test_optimizer_is_idempotent_on_o1 () =
  let t = example_spn () in
  let o1 = to_lir ~level:Opt.O1 t in
  let o1' = Opt.run Opt.O1 o1 in
  check tint "second run changes nothing" (Spnc_cpu.Lir.module_size o1) (Spnc_cpu.Lir.module_size o1')

(* -- Register allocation ----------------------------------------------------------- *)

let test_regalloc_runs_and_reports () =
  let rng = Rng.create ~seed:56 in
  let t =
    Random_spn.generate_sized rng
      { Random_spn.default_config with num_features = 12; max_depth = 7 }
      ~min_ops:300
  in
  let lir = to_lir ~level:Opt.O1 t in
  let stats = Spnc_cpu.Regalloc.allocate_module lir in
  check tbool "intervals computed" true
    (Array.exists (fun s -> s.Spnc_cpu.Regalloc.intervals > 10) stats);
  (* a 300-op SPN body in one block must exceed 16 registers of pressure *)
  check tbool "spills reported under pressure" true
    (Array.exists (fun s -> Spnc_cpu.Regalloc.total_spills s > 0) stats)

let test_small_function_no_spills () =
  (* one gaussian leaf: tiny body, no pressure *)
  let t = Model.make ~num_features:1 (Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0) in
  let lir = to_lir ~level:Opt.O2 t in
  let stats = Spnc_cpu.Regalloc.allocate_module lir in
  Array.iter
    (fun s ->
      check tbool "few spills for tiny kernels" true
        (Spnc_cpu.Regalloc.total_spills s <= 2))
    stats

(* Exact allocator statistics on hand-built functions: float registers
   0..n-1 are loaded (one interval each), then each is stored. *)
let test_regalloc_exact_stats () =
  let module L = Spnc_cpu.Lir in
  let module R = Spnc_cpu.Regalloc in
  let func ~nf body =
    { L.fname = "f"; params = [ 0 ]; body = Array.of_list (body @ [ L.Ret ]);
      nf; ni = 3; nv = 0; nb = 1; vec_width = 1; prov = L.no_prov }
  in
  let loads ?(idx = 0) first n = List.init n (fun k -> L.Load (first + k, 0, idx)) in
  let stores ?(idx = 0) first n = List.init n (fun k -> L.Store (0, idx, first + k)) in
  let live n = (L.ConstI (0, 0) :: loads 0 n) @ stores 0 n in
  let stats =
    Alcotest.testable
      (fun ppf (s : R.stats) ->
        Fmt.pf ppf "{intervals=%d; spills f/i/v=%d/%d/%d; pressure f/v=%d/%d}"
          s.intervals s.spills_f s.spills_i s.spills_v s.max_pressure_f
          s.max_pressure_v)
      ( = )
  in
  let expect what ~intervals ~spills_f ~max_pressure_f f =
    check stats what
      { R.intervals; spills_f; spills_i = 0; spills_v = 0; max_pressure_f;
        max_pressure_v = 0 }
      (R.allocate f)
  in
  expect "17 live floats: one spill" ~intervals:17 ~spills_f:1
    ~max_pressure_f:16 (func ~nf:17 (live 17));
  expect "16 live floats: no spill" ~intervals:16 ~spills_f:0
    ~max_pressure_f:16 (func ~nf:16 (live 16));
  (* float 0 is defined before the loop; 16 loop-local floats follow *)
  let loop first =
    L.Loop
      { iv = 2; lb = 0; ub = 1; step = 1; vector_width = 1;
        body = Array.of_list (first @ loads ~idx:2 1 16 @ stores ~idx:2 1 16) }
  in
  let pre = [ L.ConstI (0, 0); L.ConstI (1, 8); L.Load (0, 0, 0) ] in
  expect "read by the loop's first instruction: live to the loop's end"
    ~intervals:18 ~spills_f:1 ~max_pressure_f:16
    (func ~nf:17 (pre @ [ loop [ L.Store (0, 2, 0) ] ]));
  expect "read just before the loop: no spill" ~intervals:18 ~spills_f:0
    ~max_pressure_f:16
    (func ~nf:17 (pre @ [ L.Store (0, 0, 0); loop [] ]));
  expect "constants form no interval" ~intervals:0 ~spills_f:0
    ~max_pressure_f:0
    (func ~nf:20
       ((L.ConstI (0, 0) :: List.init 20 (fun k -> L.ConstF (k, float_of_int k)))
       @ stores 0 20))

(* -- Cost model ---------------------------------------------------------------------- *)

let machine = Spnc_machine.Machine.ryzen_3900xt

let test_cost_scales_with_rows () =
  let t = example_spn () in
  let lir = to_lir ~level:Opt.O1 t in
  let e1 = Spnc_cpu.Cost.kernel_estimate machine lir ~rows:1000 () in
  let e2 = Spnc_cpu.Cost.kernel_estimate machine lir ~rows:2000 () in
  check tbool "roughly linear in rows" true
    (e2.Spnc_cpu.Cost.cycles > 1.8 *. e1.Spnc_cpu.Cost.cycles)

let test_cost_vectorization_helps_with_veclib () =
  let t = example_spn () in
  let scalar = to_lir ~level:Opt.O2 t in
  let vec = to_lir ~cpu_options:vec_options ~level:Opt.O2 t in
  let es = Spnc_cpu.Cost.kernel_estimate machine scalar ~rows:4096 () in
  let ev = Spnc_cpu.Cost.kernel_estimate machine vec ~rows:4096 () in
  check tbool
    (Printf.sprintf "vectorized %.0f < scalar %.0f cycles" ev.Spnc_cpu.Cost.cycles
       es.Spnc_cpu.Cost.cycles)
    true
    (ev.Spnc_cpu.Cost.cycles < es.Spnc_cpu.Cost.cycles)

let test_cost_vectorization_without_veclib_hurts () =
  (* the Fig. 6 effect: vectorizing without a vector library is slower
     than scalar code *)
  let t = example_spn () in
  let scalar = to_lir ~level:Opt.O2 t in
  let vec_novl =
    to_lir
      ~cpu_options:{ vec_options with use_veclib = false; use_shuffle = false }
      ~level:Opt.O2 t
  in
  let es = Spnc_cpu.Cost.kernel_estimate machine scalar ~rows:4096 () in
  let ev = Spnc_cpu.Cost.kernel_estimate machine vec_novl ~rows:4096 () in
  check tbool
    (Printf.sprintf "no-veclib vectorized %.0f > scalar %.0f"
       ev.Spnc_cpu.Cost.cycles es.Spnc_cpu.Cost.cycles)
    true
    (ev.Spnc_cpu.Cost.cycles > es.Spnc_cpu.Cost.cycles)

let test_cost_shuffle_beats_gather () =
  let t = example_spn () in
  let gather =
    to_lir ~cpu_options:{ vec_options with use_shuffle = false } ~level:Opt.O2 t
  in
  let shuffle = to_lir ~cpu_options:vec_options ~level:Opt.O2 t in
  let eg = Spnc_cpu.Cost.kernel_estimate machine gather ~rows:4096 () in
  let es = Spnc_cpu.Cost.kernel_estimate machine shuffle ~rows:4096 () in
  check tbool "shuffled loads cheaper than gathers" true
    (es.Spnc_cpu.Cost.cycles < eg.Spnc_cpu.Cost.cycles)

let test_cost_higher_opt_cheaper_execution () =
  let t = example_spn () in
  let o0 = to_lir ~level:Opt.O0 t in
  let o2 = to_lir ~level:Opt.O2 t in
  let e0 = Spnc_cpu.Cost.kernel_estimate machine o0 ~rows:4096 () in
  let e2 = Spnc_cpu.Cost.kernel_estimate machine o2 ~rows:4096 () in
  check tbool "O2 executes faster than O0" true
    (e2.Spnc_cpu.Cost.cycles < e0.Spnc_cpu.Cost.cycles)

(* -- One walk, two sinks ----------------------------------------------------- *)

(* Replay a built cir module through the selector's entry points: the
   same ops, in order, that [Lower_cpu.isel] hands it while it lowers. *)
let replay (m : Ir.modul) ~entry =
  let module Isel = Spnc_cpu.Isel in
  let sel = Isel.create () in
  let rec ops (l : Ir.op list) =
    List.iter
      (fun (o : Ir.op) ->
        if o.Ir.name = "scf.for" then begin
          let blk = Option.get (Ir.entry_block o) in
          Isel.loop_start sel (List.hd blk.Ir.bargs);
          ops blk.Ir.bops;
          Isel.loop_end sel ~lb:(Ir.operand_n o 0) ~ub:(Ir.operand_n o 1)
            ~step:(Ir.operand_n o 2)
        end
        else Isel.op sel o.Ir.loc o)
      l
  in
  List.iter
    (fun (f : Ir.op) ->
      if f.Ir.name = "func.func" then begin
        let blk = Option.get (Ir.entry_block f) in
        let name = Option.get (Ir.string_attr f "sym_name") in
        Isel.func_start sel name blk.Ir.bargs;
        ops blk.Ir.bops;
        Isel.func_end sel
      end)
    m.Ir.mops;
  Isel.finish sel ~entry

(* The kernel golden's models (test/kernels.ml). *)
let golden_models () =
  let generate name cfg seed = Random_spn.generate ~name (Rng.create ~seed) cfg in
  let speaker = generate "speaker" Random_spn.speaker_id_config
  and generic = generate "random" Random_spn.default_config
  and rat =
    (Rat_spn.generate ~name_prefix:"rat" (Rng.create ~seed:11)
       {
         Rat_spn.num_features = 32;
         depth = 3;
         repetitions = 2;
         num_sums = 4;
         num_input_distributions = 4;
         num_classes = 1;
       }).(0)
  in
  List.map speaker [ 1; 2 ] @ [ rat ] @ List.init 9 (fun i -> generic (101 + i))

(* The compile path selects each cir op as [Lower_cpu] emits it; the Lir
   it stores (at -O0, selection's own output) must equal a replay of the
   printed path's cir module, bit for bit, provenance included. *)
let test_replayed_cir_equals_compiled () =
  let module Options = Spnc.Options in
  let base =
    { Options.default with threads = 1; opt_level = Opt.O0 }
  in
  let configs =
    [
      ("scalar", base);
      ( "vectorized+marginal",
        { base with vectorize = true; use_veclib = true; use_shuffle = true;
          support_marginal = true } );
      ( "partitioned",
        { base with support_marginal = true; max_partition_size = Some 40 } );
    ]
  in
  let digest x =
    Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))
  in
  List.iteri
    (fun i model ->
      List.iter
        (fun (cname, options) ->
          let c = Spnc.Compiler.compile ~options model in
          match c.Spnc.Compiler.artifact with
          | Spnc.Compiler.Cpu_kernel { lir; _ } ->
              let cir =
                Lower.run
                  ~options:(Options.cpu_lower_options (Options.compile_of options))
                  c.Spnc.Compiler.lospn
              in
              Alcotest.(check string)
                (Printf.sprintf "model %d %s" i cname)
                (digest lir)
                (digest (replay cir ~entry:"spn_kernel"))
          | Spnc.Compiler.Gpu_kernel _ -> Alcotest.fail "expected a CPU artifact")
        configs)
    (golden_models ())

let suite =
  [
    Alcotest.test_case "vm scalar all levels" `Quick test_vm_scalar_levels;
    Alcotest.test_case "vm vector all levels" `Quick test_vm_vector_levels;
    Alcotest.test_case "vm discrete" `Quick test_vm_discrete;
    Alcotest.test_case "vm partitioned" `Quick test_vm_partitioned;
    Alcotest.test_case "vm no-veclib" `Quick test_vm_no_veclib;
    Alcotest.test_case "opt reduces instructions" `Quick test_optimization_reduces_instructions;
    Alcotest.test_case "licm hoists constants" `Quick test_licm_hoists_constants;
    Alcotest.test_case "fma fusion at O3" `Quick test_fma_fusion_at_o3;
    Alcotest.test_case "optimizer idempotent" `Quick test_optimizer_is_idempotent_on_o1;
    Alcotest.test_case "regalloc reports" `Quick test_regalloc_runs_and_reports;
    Alcotest.test_case "small function no spills" `Quick test_small_function_no_spills;
    Alcotest.test_case "regalloc exact statistics" `Quick test_regalloc_exact_stats;
    Alcotest.test_case "cost scales with rows" `Quick test_cost_scales_with_rows;
    Alcotest.test_case "cost: vectorization helps" `Quick test_cost_vectorization_helps_with_veclib;
    Alcotest.test_case "cost: no-veclib hurts" `Quick test_cost_vectorization_without_veclib_hurts;
    Alcotest.test_case "cost: shuffle beats gather" `Quick test_cost_shuffle_beats_gather;
    Alcotest.test_case "cost: higher opt faster" `Quick test_cost_higher_opt_cheaper_execution;
    Alcotest.test_case "replayed cir equals compiled Lir" `Quick
      test_replayed_cir_equals_compiled;
  ]
