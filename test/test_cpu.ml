(** Tests for the CPU target lowering: scalar and vectorized cir code is
    executed by the cir interpreter and compared against the reference SPN
    evaluator; access-pattern and veclib/shuffle emission is inspected
    structurally. *)

open Spnc_mlir
open Spnc_spn
module Rng = Spnc_data.Rng
module CInterp = Spnc_cir.Interp

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let example_spn () =
  let g00 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g01 = Model.gaussian ~var:1 ~mean:1.0 ~stddev:0.5 in
  let g10 = Model.gaussian ~var:0 ~mean:2.0 ~stddev:1.5 in
  let g11 = Model.gaussian ~var:1 ~mean:(-1.0) ~stddev:1.0 in
  Model.make ~name:"example" ~num_features:2
    (Model.sum
       [ (0.3, Model.product [ g00; g01 ]); (0.7, Model.product [ g10; g11 ]) ])

let mixed_spn () =
  Model.make ~name:"mixed" ~num_features:3
    (Model.sum
       [
         ( 0.4,
           Model.product
             [
               Model.categorical ~var:0 ~probs:[| 0.1; 0.6; 0.3 |];
               Model.histogram ~var:1 ~breaks:[| 0; 1; 3 |] ~densities:[| 0.6; 0.2 |];
               Model.gaussian ~var:2 ~mean:0.5 ~stddev:2.0;
             ] );
         ( 0.6,
           Model.product
             [
               Model.categorical ~var:0 ~probs:[| 0.3; 0.3; 0.4 |];
               Model.histogram ~var:1 ~breaks:[| 0; 2; 3 |] ~densities:[| 0.4; 0.2 |];
               Model.gaussian ~var:2 ~mean:(-1.0) ~stddev:0.5;
             ] );
       ])

(* Full pipeline to bufferized LoSPN. *)
let to_lo ?(space = Spnc_lospn.Lower_hispn.Force_log) ?(support_marginal = false)
    ?partition_size t =
  let query = { Spnc_hispn.From_model.default_query with support_marginal } in
  let hi = Spnc_hispn.From_model.translate ~query t in
  let lo =
    Spnc_lospn.Lower_hispn.run
      ~options:{ Spnc_lospn.Lower_hispn.default_options with space }
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
  Spnc_lospn.Buffer_opt.run lo

(* ... and on to cir. *)
let to_cir ?space ?support_marginal ?partition_size
    ?(cpu_options = Spnc_cpu.Lower_cpu.scalar_options) t =
  Spnc_cpu.Lower_cpu.run ~options:cpu_options
    (to_lo ?space ?support_marginal ?partition_size t)

(* A vectorized kernel has no scalar epilogue: pad the rows to a multiple
   of [width] with copies of the last one, as [Exec] does.  The output is
   transposed, so slot 0 of real row [i] is still entry [i]. *)
let run_cir m ~width ~(rows : float array array) ~num_features ~out_cols =
  let n = Array.length rows in
  let padded = (n + width - 1) / width * width in
  let flat =
    Array.concat
      (List.init padded (fun i -> rows.(min i (n - 1))))
  in
  let input = { CInterp.data = flat; rows = padded; cols = num_features } in
  let output =
    { CInterp.data = Array.make (padded * out_cols) 0.0; rows = padded;
      cols = out_cols }
  in
  CInterp.run_module m ~entry:"spn_kernel"
    ~args:[ CInterp.Buf input; CInterp.Buf output ];
  output.CInterp.data

let out_cols_of m =
  (* number of slots of the kernel output buffer = static dim of the last
     parameter of the entry function *)
  let f =
    List.find
      (fun (o : Ir.op) ->
        o.Ir.name = "func.func" && Ir.string_attr o "sym_name" = Some "spn_kernel")
      m.Ir.mops
  in
  match List.rev (Option.get (Ir.entry_block f)).Ir.bargs with
  | last :: _ -> (
      match last.Ir.vty with
      | Types.MemRef ([ _; Some c ], _) -> c
      | _ -> 1)
  | [] -> 1

let differential ?space ?support_marginal ?partition_size
    ?(cpu_options = Spnc_cpu.Lower_cpu.scalar_options) ~tol t rows =
  let m = to_cir ?space ?support_marginal ?partition_size ~cpu_options t in
  let out_cols = out_cols_of m in
  let width =
    if cpu_options.Spnc_cpu.Lower_cpu.vectorize then cpu_options.width else 1
  in
  let out =
    run_cir m ~width ~rows ~num_features:t.Model.num_features ~out_cols
  in
  Array.iteri
    (fun i row ->
      let expected = Infer.log_likelihood t row in
      (* output is transposed: slot 0 occupies the first [n] entries *)
      let got = out.(i) in
      let got =
        match space with
        | Some Spnc_lospn.Lower_hispn.Force_linear -> log got
        | _ -> got
      in
      if
        not
          ((Float.is_nan expected && Float.is_nan got)
          || expected = got
          || Float.abs (got -. expected) <= tol)
      then Alcotest.failf "row %d: expected %.12g got %.12g" i expected got)
    rows

let random_rows rng n f =
  Array.init n (fun _ -> Array.init f (fun _ -> Rng.range rng (-3.0) 3.0))

let test_scalar_log () =
  let rng = Rng.create ~seed:31 in
  differential ~tol:1e-9 (example_spn ()) (random_rows rng 33 2)

let test_scalar_linear () =
  let rng = Rng.create ~seed:32 in
  differential ~space:Spnc_lospn.Lower_hispn.Force_linear ~tol:1e-9
    (example_spn ()) (random_rows rng 33 2)

let test_scalar_discrete () =
  let rng = Rng.create ~seed:33 in
  let rows =
    Array.init 40 (fun _ ->
        [|
          float_of_int (Rng.int rng 5) -. 1.0;
          float_of_int (Rng.int rng 5) -. 1.0;
          Rng.range rng (-3.0) 3.0;
        |])
  in
  differential ~tol:1e-9 (mixed_spn ()) rows

let vec_options =
  { Spnc_cpu.Lower_cpu.scalar_options with vectorize = true; width = 8; use_veclib = true; use_shuffle = false }

let test_vectorized_log () =
  let rng = Rng.create ~seed:34 in
  (* 33 rows: the last 8-row group is padded (33 = 4*8 + 1) *)
  differential ~cpu_options:vec_options ~tol:1e-9 (example_spn ())
    (random_rows rng 33 2)

let test_vectorized_shuffle () =
  let rng = Rng.create ~seed:35 in
  differential
    ~cpu_options:{ vec_options with use_shuffle = true }
    ~tol:1e-9 (example_spn ()) (random_rows rng 40 2)

let test_vectorized_no_veclib () =
  let rng = Rng.create ~seed:36 in
  differential
    ~cpu_options:{ vec_options with use_veclib = false }
    ~tol:1e-9 (example_spn ()) (random_rows rng 24 2)

let test_vectorized_discrete () =
  let rng = Rng.create ~seed:37 in
  let rows =
    Array.init 26 (fun _ ->
        [|
          float_of_int (Rng.int rng 4);
          float_of_int (Rng.int rng 4);
          Rng.range rng (-2.0) 2.0;
        |])
  in
  differential ~cpu_options:vec_options ~tol:1e-9 (mixed_spn ()) rows

let test_vectorized_marginal () =
  let rng = Rng.create ~seed:38 in
  let rows =
    Array.map
      (fun (row : float array) ->
        Array.map (fun v -> if Rng.float rng < 0.3 then Float.nan else v) row)
      (random_rows rng 29 2)
  in
  differential ~support_marginal:true ~cpu_options:vec_options ~tol:1e-9
    (example_spn ()) rows

let test_partitioned_cpu () =
  let rng = Rng.create ~seed:39 in
  let t =
    Random_spn.generate_sized rng
      { Random_spn.default_config with num_features = 10; max_depth = 7 }
      ~min_ops:300
  in
  let rows = random_rows (Rng.create ~seed:40) 19 10 in
  differential ~partition_size:60 ~cpu_options:vec_options ~tol:1e-8 t rows

let test_vector_widths () =
  let rng = Rng.create ~seed:41 in
  let rows = random_rows rng 21 2 in
  List.iter
    (fun w ->
      differential
        ~cpu_options:{ vec_options with width = w }
        ~tol:1e-9 (example_spn ()) rows)
    [ 2; 4; 8; 16 ]

(* -- Structural checks ------------------------------------------------------- *)

let count_ops m name = Ir.count_ops (fun (o : Ir.op) -> o.Ir.name = name) m

let test_scalar_has_no_vector_ops () =
  let m = to_cir (example_spn ()) in
  check tint "no vload" 0 (count_ops m "vector.load");
  check tint "no gather" 0 (count_ops m "vector.gather");
  check tbool "has loop" true (count_ops m "scf.for" > 0)

let test_vectorized_structure () =
  let m = to_cir ~cpu_options:vec_options (example_spn ()) in
  (* one batch loop per task, stepping by the width *)
  check tint "one loop per task" (count_ops m "func.func" - 1)
    (count_ops m "scf.for");
  check tint "no integer division" 0 (count_ops m "arith.divi");
  check tbool "gathers for input features" true (count_ops m "vector.gather" > 0);
  check tint "no shuffled loads" 0 (count_ops m "vector.shuffled_load")

let test_shuffle_replaces_gather () =
  let m =
    to_cir ~cpu_options:{ vec_options with use_shuffle = true } (example_spn ())
  in
  check tint "no gathers" 0 (count_ops m "vector.gather");
  check tbool "shuffled loads" true (count_ops m "vector.shuffled_load" > 0)

let test_no_veclib_scalarizes () =
  let m =
    to_cir ~cpu_options:{ vec_options with use_veclib = false } (example_spn ())
  in
  check tbool "extract/insert cascades" true (count_ops m "vector.extract" > 0);
  (* veclib-marked vector math must not appear *)
  let veclib_calls =
    Ir.count_ops
      (fun (o : Ir.op) ->
        (o.Ir.name = "math.log" || o.Ir.name = "math.exp" || o.Ir.name = "math.log1p")
        && Ir.bool_attr o "veclib" = Some true)
      m
  in
  check tint "no veclib calls" 0 veclib_calls

let test_veclib_emits_vector_calls () =
  let m = to_cir ~cpu_options:vec_options (example_spn ()) in
  let veclib_calls =
    Ir.count_ops
      (fun (o : Ir.op) -> Ir.bool_attr o "veclib" = Some true)
      m
  in
  check tbool "veclib calls present" true (veclib_calls > 0)

let test_transposed_intermediates_use_vector_load () =
  let rng = Rng.create ~seed:42 in
  let t =
    Random_spn.generate_sized rng
      { Random_spn.default_config with num_features = 10; max_depth = 7 }
      ~min_ops:300
  in
  let m = to_cir ~partition_size:60 ~cpu_options:vec_options t in
  (* partitioned intermediate buffers are transposed -> contiguous vloads *)
  check tbool "vector.load present" true (count_ops m "vector.load" > 0)

let test_task_per_function () =
  let rng = Rng.create ~seed:43 in
  let t =
    Random_spn.generate_sized rng
      { Random_spn.default_config with num_features = 10; max_depth = 7 }
      ~min_ops:300
  in
  let m = to_cir ~partition_size:60 t in
  let funcs = count_ops m "func.func" in
  let calls = count_ops m "func.call" in
  check tbool "multiple task functions" true (funcs > 2);
  check tint "kernel calls every task" (funcs - 1) calls

let suite =
  [
    Alcotest.test_case "scalar log" `Quick test_scalar_log;
    Alcotest.test_case "scalar linear" `Quick test_scalar_linear;
    Alcotest.test_case "scalar discrete" `Quick test_scalar_discrete;
    Alcotest.test_case "vectorized log" `Quick test_vectorized_log;
    Alcotest.test_case "vectorized shuffle" `Quick test_vectorized_shuffle;
    Alcotest.test_case "vectorized no-veclib" `Quick test_vectorized_no_veclib;
    Alcotest.test_case "vectorized discrete" `Quick test_vectorized_discrete;
    Alcotest.test_case "vectorized marginal" `Quick test_vectorized_marginal;
    Alcotest.test_case "partitioned cpu" `Quick test_partitioned_cpu;
    Alcotest.test_case "vector widths" `Quick test_vector_widths;
    Alcotest.test_case "scalar has no vector ops" `Quick test_scalar_has_no_vector_ops;
    Alcotest.test_case "vectorized structure" `Quick test_vectorized_structure;
    Alcotest.test_case "shuffle replaces gather" `Quick test_shuffle_replaces_gather;
    Alcotest.test_case "no-veclib scalarizes" `Quick test_no_veclib_scalarizes;
    Alcotest.test_case "veclib emits vector calls" `Quick test_veclib_emits_vector_calls;
    Alcotest.test_case "transposed intermediates vload" `Quick test_transposed_intermediates_use_vector_load;
    Alcotest.test_case "task per function" `Quick test_task_per_function;
  ]

(* -- gather-table vectorization (extension) ------------------------------------ *)

let gather_options = { vec_options with use_shuffle = true; gather_tables = true }

let test_gather_tables_correct () =
  let rng = Rng.create ~seed:44 in
  let rows =
    Array.init 37 (fun _ ->
        [|
          float_of_int (Rng.int rng 5) -. 1.0;
          float_of_int (Rng.int rng 5) -. 1.0;
          Rng.range rng (-2.0) 2.0;
        |])
  in
  differential ~cpu_options:gather_options ~tol:1e-9 (mixed_spn ()) rows

let test_gather_tables_marginal () =
  let rng = Rng.create ~seed:45 in
  let rows =
    Array.init 29 (fun _ ->
        [|
          (if Rng.float rng < 0.3 then Float.nan else float_of_int (Rng.int rng 3));
          (if Rng.float rng < 0.3 then Float.nan else float_of_int (Rng.int rng 3));
          Rng.range rng (-2.0) 2.0;
        |])
  in
  differential ~support_marginal:true ~cpu_options:gather_options ~tol:1e-9
    (mixed_spn ()) rows

let test_gather_tables_structure () =
  let m = to_cir ~cpu_options:gather_options (mixed_spn ()) in
  check tbool "indexed gathers emitted" true
    (count_ops m "vector.gather_indexed" > 0);
  (* the scalarized path is gone from the vector loop: far fewer extracts *)
  let scalarized = to_cir ~cpu_options:{ gather_options with gather_tables = false } (mixed_spn ()) in
  check tbool "fewer ops than scalarized lookup" true
    (Ir.count_ops (fun _ -> true) m < Ir.count_ops (fun _ -> true) scalarized)

let test_gather_tables_cheaper () =
  (* cost-model ablation: for discrete-heavy models the indexed gather
     beats the scalarized per-lane lookup *)
  let lir opts =
    Spnc_cpu.Optimizer.run Spnc_cpu.Optimizer.O1
      (Spnc_cpu.Isel.finish
         (Spnc_cpu.Lower_cpu.isel ~options:opts (to_lo (mixed_spn ())))
         ~entry:"spn_kernel")
  in
  let machine = Spnc_machine.Machine.ryzen_3900xt in
  let g = Spnc_cpu.Cost.kernel_estimate machine (lir gather_options) ~rows:4096 () in
  let s =
    Spnc_cpu.Cost.kernel_estimate machine
      (lir { gather_options with gather_tables = false })
      ~rows:4096 ()
  in
  check tbool
    (Printf.sprintf "gather %.0f < scalarized %.0f cycles" g.Spnc_cpu.Cost.cycles
       s.Spnc_cpu.Cost.cycles)
    true
    (g.Spnc_cpu.Cost.cycles < s.Spnc_cpu.Cost.cycles)

let suite =
  suite
  @ [
      Alcotest.test_case "gather tables correct" `Quick test_gather_tables_correct;
      Alcotest.test_case "gather tables marginal" `Quick test_gather_tables_marginal;
      Alcotest.test_case "gather tables structure" `Quick test_gather_tables_structure;
      Alcotest.test_case "gather tables cheaper" `Quick test_gather_tables_cheaper;
    ]
