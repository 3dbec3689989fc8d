(** Runtime + engine tests: chunking edge cases of {!Spnc_runtime.Exec}
    (rows not divisible by the batch size, batch size 1, more threads
    than chunks), bit-identical output across batch sizes, thread counts
    and execution engines, the pooled-scratch path for multi-slot
    kernels, buffer-view semantics, the JIT's column execution against
    the VM around chunk boundaries and under frame reuse, the kernel compilation cache counters, and the
    streaming layer (docs/PERFORMANCE.md §4-§5): persistent-pool domain
    reuse, skewed task costs under the shared claim counter, rounds
    restricted to fewer workers, in-place growth of the shared pool, the
    adaptive chunk plan, thread-count bit-identity, thread
    auto-detection, thread-safe compilation/execution, and the GPU
    stream pipeline's output equality and overlap-ledger accounting. *)

module Lir = Spnc_cpu.Lir
module Vm = Spnc_cpu.Vm
module Jit = Spnc_cpu.Jit
module Exec = Spnc_runtime.Exec
module Pool = Spnc_runtime.Pool
module Sim = Spnc_gpu.Sim
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Model = Spnc_spn.Model

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* exact comparison: the whole point of the engine cross-checks *)
let check_bits what (expect : float array) (got : float array) =
  check tint (what ^ ": length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: row %d: expected %h, got %h" what i x got.(i))
    expect

(* -- A hand-assembled two-feature kernel: out[i] = x0 + 2*x1 ----------------- *)

let kernel_2feat : Lir.modul =
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      Lir.Loop
        {
          Lir.iv = 2;
          lb = 1;
          ub = 0;
          step = 1;
          vector_width = 1;
          body =
            [|
              Lir.ConstI (3, 2);
              Lir.IBin (Lir.IMul, 4, 2, 3);
              Lir.Load (0, 0, 4);
              (* x0 = in[2i] *)
              Lir.ConstI (5, 1);
              Lir.IBin (Lir.IAdd, 6, 4, 5);
              Lir.Load (1, 0, 6);
              (* x1 = in[2i+1] *)
              Lir.ConstF (2, 2.0);
              Lir.FBin (Lir.FMul, 3, 1, 2);
              Lir.FBin (Lir.FAdd, 4, 0, 3);
              Lir.Store (1, 2, 4);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    {
      Lir.fname = "k2";
      params = [ 0; 1 ];
      body;
      nf = 5;
      ni = 7;
      nv = 1;
      nb = 2;
      vec_width = 1;
      prov = Lir.no_prov;
    }
  in
  { Lir.funcs = [| f |]; entry = 0 }

let rows_2feat n =
  Array.init n (fun i ->
      [| float_of_int i *. 0.5; float_of_int (n - i) *. 0.25 |])

let expected_2feat data = Array.map (fun r -> r.(0) +. (2.0 *. r.(1))) data

(* -- Chunking edge cases ----------------------------------------------------- *)

(* Every (batch_size, threads, engine) combination must produce the same
   bits: chunk boundaries and worker scheduling are not allowed to be
   observable. *)
let test_chunking_grid () =
  let n = 10 in
  let data = rows_2feat n in
  let expect = expected_2feat data in
  List.iter
    (fun engine ->
      List.iter
        (fun (batch_size, threads) ->
          let t = Exec.load ~batch_size ~threads ~engine ~out_cols:1 kernel_2feat in
          let got = Exec.execute_rows t data in
          check_bits
            (Printf.sprintf "engine=%s batch=%d threads=%d"
               (Jit.engine_to_string engine) batch_size threads)
            expect got)
        [
          (3, 1);  (* rows not divisible by batch: chunks 3+3+3+1 *)
          (3, 2);
          (3, 4);
          (1, 4);  (* batch_size = 1: one chunk per row *)
          (4, 16); (* more threads than chunks *)
          (64, 4); (* one chunk, threads moot *)
        ])
    [ Jit.Vm; Jit.Jit ]

let test_rows_below_threads () =
  (* fewer rows than worker domains: the pool must clamp, not hang *)
  let data = rows_2feat 3 in
  let expect = expected_2feat data in
  List.iter
    (fun engine ->
      let t = Exec.load ~batch_size:1 ~threads:8 ~engine ~out_cols:1 kernel_2feat in
      check_bits "rows < threads" expect (Exec.execute_rows t data))
    [ Jit.Vm; Jit.Jit ]

let test_empty_input () =
  let t = Exec.load ~batch_size:4 ~threads:4 ~out_cols:1 kernel_2feat in
  check tint "0 rows -> 0 results" 0
    (Array.length (Exec.execute t ~flat:[||] ~rows:0 ~num_features:2))

(* -- Multi-slot kernels: the pooled-scratch path ------------------------------ *)

(* out_cols = 2.  The kernel ACCUMULATES into slot 0 (out[i] += 2*x[i])
   and dirties slot 1 — so if a worker's pooled scratch is not re-zeroed
   between chunks, a reused buffer leaks the previous chunk's values
   into the accumulation and the output changes with the batch size. *)
let kernel_accum : Lir.modul =
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      Lir.Loop
        {
          Lir.iv = 2;
          lb = 1;
          ub = 0;
          step = 1;
          vector_width = 1;
          body =
            [|
              Lir.Load (0, 0, 2);
              (* x = in[i] *)
              Lir.ConstF (1, 2.0);
              Lir.FBin (Lir.FMul, 2, 0, 1);
              Lir.Load (3, 1, 2);
              (* prior slot-0 value: must be 0.0 in a fresh buffer *)
              Lir.FBin (Lir.FAdd, 4, 3, 2);
              Lir.Store (1, 2, 4);
              (* dirty slot 1 (entries [rows, 2*rows)) *)
              Lir.Dim (3, 1);
              Lir.IBin (Lir.IAdd, 4, 3, 2);
              Lir.ConstF (5, 999.0);
              Lir.Store (1, 4, 5);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    {
      Lir.fname = "accum";
      params = [ 0; 1 ];
      body;
      nf = 6;
      ni = 5;
      nv = 1;
      nb = 2;
      vec_width = 1;
      prov = Lir.no_prov;
    }
  in
  { Lir.funcs = [| f |]; entry = 0 }

let test_multislot_scratch_reuse () =
  let n = 13 in
  let data = Array.init n (fun i -> [| float_of_int (i + 1) |]) in
  let expect = Array.map (fun r -> 2.0 *. r.(0)) data in
  List.iter
    (fun engine ->
      List.iter
        (fun (batch_size, threads) ->
          let t = Exec.load ~batch_size ~threads ~engine ~out_cols:2 kernel_accum in
          let got = Exec.execute_rows t data in
          check_bits
            (Printf.sprintf "scratch engine=%s batch=%d threads=%d"
               (Jit.engine_to_string engine) batch_size threads)
            expect got)
        (* batch 4: one worker processes several chunks and must re-zero
           its pooled scratch each time; batch 100: single chunk *)
        [ (4, 1); (4, 3); (100, 1) ])
    [ Jit.Vm; Jit.Jit ]

(* -- Buffer views ------------------------------------------------------------- *)

let load_at ix =
  (* a kernel that stores in[ix] to out[0] *)
  let body =
    [| Lir.ConstI (0, ix); Lir.Load (0, 0, 0); Lir.ConstI (1, 0);
       Lir.Store (1, 1, 0); Lir.Ret |]
  in
  let f =
    { Lir.fname = "ld"; params = [ 0; 1 ]; body; nf = 1; ni = 2; nv = 1;
      nb = 2; vec_width = 1; prov = Lir.no_prov }
  in
  { Lir.funcs = [| f |]; entry = 0 }

let test_view_window_semantics () =
  let backing = Array.init 10 float_of_int in
  let input = Vm.view backing ~off:2 ~rows:4 ~cols:1 in
  let out = Vm.buffer ~rows:1 ~cols:1 in
  (* index 3 of the view is backing.(2 + 3) *)
  Vm.run (load_at 3) ~buffers:[ input; out ];
  check (Alcotest.float 0.0) "view indexes relative to off" 5.0 out.Vm.data.(0);
  Jit.run_once (load_at 3) ~buffers:[ input; out ];
  check (Alcotest.float 0.0) "jit agrees" 5.0 out.Vm.data.(0)

let test_view_bounds_trap () =
  (* index 4 is one past the view's len even though the backing array
     extends further — both engines must trap, not read the backing *)
  let backing = Array.init 10 float_of_int in
  let input = Vm.view backing ~off:2 ~rows:4 ~cols:1 in
  let out = Vm.buffer ~rows:1 ~cols:1 in
  (match Vm.run (load_at 4) ~buffers:[ input; out ] with
  | exception Vm.Trap _ -> ()
  | () -> Alcotest.fail "vm: load past view len did not trap");
  match Jit.run_once (load_at 4) ~buffers:[ input; out ] with
  | exception Vm.Trap _ -> ()
  | () -> Alcotest.fail "jit: load past view len did not trap"

(* -- JIT semantics ------------------------------------------------------------ *)

(* Promoted constants are immediates and loop registers live in reused
   column slots; re-running on the SAME state (the runtime's frame-reuse
   pattern) must stay correct, also when the runs' lengths fall on both
   sides of a column chunk. *)
let test_jit_state_reuse () =
  let k = Jit.compile kernel_2feat in
  let st = Jit.make_state k in
  let run data =
    let n = Array.length data in
    let flat = Array.concat (Array.to_list data) in
    let input = Vm.of_flat flat ~rows:n ~cols:2 in
    let out = Vm.buffer ~rows:n ~cols:1 in
    Jit.run k st ~buffers:[ input; out ];
    Array.sub out.Vm.data 0 n
  in
  let d1 = rows_2feat 5 and d2 = Array.map (Array.map (fun x -> x -. 7.0)) (rows_2feat 8) in
  check_bits "first run" (expected_2feat d1) (run d1);
  check_bits "second run, reused frames" (expected_2feat d2) (run d2);
  check_bits "third run, first data again" (expected_2feat d1) (run d1);
  List.iter
    (fun n ->
      let d = rows_2feat n in
      check_bits (Printf.sprintf "%d rows on the same state" n) (expected_2feat d) (run d))
    [ Jit.chunk + 5; 3; (2 * Jit.chunk) + 1; Jit.chunk; 1 ]

(* The column engine against the VM on a compiled speaker-ID-shaped
   kernel (Gaussian mixtures, NaN-marginalized inputs), one runtime call
   per row count, around every chunk boundary: the 8-lane loop's
   ([Jit.chunk] x 8 rows, the last group padded by [Exec]) and the
   scalar loop's ([Jit.chunk] rows). *)
let test_jit_columns_match_vm () =
  let rng = Spnc_data.Rng.create ~seed:41 in
  let model =
    Spnc_spn.Random_spn.generate_sized rng Spnc_spn.Random_spn.speaker_id_config
      ~min_ops:150
  in
  let nf = model.Model.num_features in
  let c = Jit.chunk in
  let rows n =
    let r = Spnc_data.Rng.create ~seed:(n + 1) in
    Array.init (n * nf) (fun _ ->
        if Spnc_data.Rng.float r < 0.2 then Float.nan
        else Spnc_data.Rng.range r (-3.0) 3.0)
  in
  List.iter
    (fun (vectorize, counts) ->
      let options =
        { Options.default with vectorize; use_veclib = vectorize;
          use_shuffle = vectorize; support_marginal = true;
          use_kernel_cache = false }
      in
      let compiled = Compiler.compile ~options model in
      let lir =
        match compiled.Compiler.artifact with
        | Compiler.Cpu_kernel a -> a.Compiler.lir
        | Compiler.Gpu_kernel _ -> Alcotest.fail "expected a CPU kernel"
      in
      let load engine =
        Exec.load ~engine ~out_cols:compiled.Compiler.out_cols lir
      in
      let vm = load Jit.Vm and jit = load Jit.Jit in
      List.iter
        (fun n ->
          let flat = rows n in
          let run t = Exec.execute t ~flat ~rows:n ~num_features:nf in
          check_bits
            (Printf.sprintf "%s, %d rows"
               (if vectorize then "vectorized" else "scalar") n)
            (run vm) (run jit))
        counts)
    [
      (true, [ 1; 7; 8; 9; (c * 8) - 1; c * 8; (c * 8) + 1; (2 * c * 8) + 13 ]);
      (false, [ 1; c - 1; c; c + 1; (3 * c) + 2 ]);
    ]

(* -- Fused idioms -------------------------------------------------------------- *)

(* [Lower_cpu]'s two fused idioms spelled out by hand, so that the test
   picks their operands: a log-sum-exp of columns [a] and [b], a
   marginalized log-space Gaussian leaf of column [x], and the -O3 form
   of an unmarginalized one (its [h + k] an FMA).  One 8-lane vector
   loop covers every row; the test pads the rows to whole vectors. *)
let fused_idioms_kernel : Lir.modul =
  let open Lir in
  let body =
    [|
      VLoad (0, 0, 5);
      VLoad (1, 1, 5);
      (* log-sum-exp *)
      VBin (FMax, 2, 0, 1);
      VBin (FMin, 3, 0, 1);
      VBin (FSub, 4, 3, 2);
      VCall1 (MExp, 5, 4);
      VCall1 (MLog1p, 6, 5);
      VBin (FAdd, 7, 2, 6);
      VConst (8, Float.neg_infinity);
      VCmp (Oeq, 9, 2, 8);
      VSel (10, 9, 2, 7);
      VStore (3, 5, 10);
      (* marginalized Gaussian *)
      VLoad (11, 2, 5);
      VConst (12, 0.75);
      VConst (13, 1.0 /. 1.5);
      VBin (FSub, 14, 11, 12);
      VBin (FMul, 15, 14, 13);
      VBin (FMul, 16, 15, 15);
      VConst (17, -0.5);
      VBin (FMul, 18, 16, 17);
      VConst (19, -1.3);
      VBin (FAdd, 20, 18, 19);
      VCmp (Uno, 21, 11, 11);
      VConst (22, 0.0);
      VSel (23, 21, 22, 20);
      VStore (4, 5, 23);
      (* Gaussian at -O3 *)
      VBin (FSub, 24, 11, 12);
      VBin (FMul, 25, 24, 13);
      VBin (FMul, 26, 25, 25);
      VBin3 (FMA, 27, 26, 17, 19);
      VStore (5, 5, 27);
    |]
  in
  let f =
    {
      fname = "fused";
      params = [ 0; 1; 2; 3; 4; 5 ];
      body =
        [|
          Dim (0, 0);
          ConstI (1, 0);
          Loop { iv = 5; lb = 1; ub = 0; step = 8; vector_width = 8; body };
          Ret;
        |];
      nf = 0;
      ni = 6;
      nv = 28;
      nb = 6;
      vec_width = 8;
      prov = no_prov;
    }
  in
  { funcs = [| f |]; entry = 0 }

(* The fused closures against the VM on the values where a log-sum-exp
   or a Gaussian leaf takes its special paths: -inf, equal and signed
   zero operands, NaN, infinities and overflowing squares, cycled so
   that each meets every lane, around the chunk boundary. *)
let test_jit_fused_idioms_special_values () =
  let inf = Float.infinity and nan = Float.nan in
  let pairs =
    [| (-.inf, -.inf); (-.inf, -2.5); (-2.5, -.inf); (-2.5, -2.5); (0.0, -0.0);
       (-0.0, 0.0); (nan, -2.5); (-2.5, nan); (inf, -2.5); (-2.5, inf);
       (inf, inf); (inf, -.inf); (-1.0, -3.0); (-40.0, -1.0); (-800.0, -1.0) |]
  and xs = [| nan; inf; -.inf; 1e300; -1e300; 0.75; -2.0; 3.5; -0.0 |] in
  let m = fused_idioms_kernel in
  let k = Jit.compile m in
  check (Alcotest.pair tint tint) "Gaussians and log-sum-exps fused" (2, 1)
    (Jit.fused k);
  let st = Jit.make_state k in
  let c = Jit.chunk in
  List.iter
    (fun n ->
      let rows = (n + 7) / 8 * 8 in
      let col f = Vm.of_flat (Array.init rows f) ~rows ~cols:1 in
      let ins =
        [ col (fun r -> fst pairs.(r mod Array.length pairs));
          col (fun r -> snd pairs.(r mod Array.length pairs));
          col (fun r -> xs.(r mod Array.length xs)) ]
      in
      let run f =
        let outs = List.init 3 (fun _ -> Vm.buffer ~rows ~cols:1) in
        f ~buffers:(ins @ outs);
        Array.concat (List.map (fun o -> o.Vm.data) outs)
      in
      check_bits (Printf.sprintf "%d rows" n) (run (Vm.run m)) (run (Jit.run k st)))
    [ 1; (c * 8) - 1; c * 8; (c * 8) + 1 ]

(* A speaker-ID-shaped kernel (AVX2, marginal support) fuses every
   log-sum-exp and every Gaussian leaf of its vector loop, at -O1 and at
   -O3, where the leaves end in an FMA: a lowering change that breaks
   an idiom's shape fails here instead of quietly slowing the kernel. *)
let test_jit_fuses_speaker_kernel () =
  let rng = Spnc_data.Rng.create ~seed:41 in
  let model =
    Spnc_spn.Random_spn.generate_sized rng Spnc_spn.Random_spn.speaker_id_config
      ~min_ops:150
  in
  List.iter
    (fun opt_level ->
      let options =
        { Options.default with vectorize = true; use_veclib = true;
          use_shuffle = true; support_marginal = true; opt_level;
          use_kernel_cache = false }
      in
      let lir =
        match (Compiler.compile ~options model).Compiler.artifact with
        | Compiler.Cpu_kernel a -> a.Compiler.lir
        | Compiler.Gpu_kernel _ -> Alcotest.fail "expected a CPU kernel"
      in
      (* in the vector loop, each log-sum-exp has one log1p, and every
         other select is a Gaussian leaf's *)
      let count p =
        Array.fold_left
          (fun acc (f : Lir.func) ->
            Array.fold_left
              (fun acc -> function
                | Lir.Loop l when l.Lir.vector_width > 1 ->
                    acc + Lir.count_instrs ~filter:p l.Lir.body
                | _ -> acc)
              acc f.Lir.body)
          0 lir.Lir.funcs
      in
      let lses = count (function Lir.VCall1 (Lir.MLog1p, _, _) -> true | _ -> false)
      and sels = count (function Lir.VSel _ -> true | _ -> false) in
      let level = Spnc_cpu.Optimizer.level_to_string opt_level in
      check tbool (level ^ ": both idioms present") true (lses > 0 && sels > lses);
      check (Alcotest.pair tint tint) (level ^ ": all fused") (sels - lses, lses)
        (Jit.fused (Jit.compile lir)))
    Spnc_cpu.Optimizer.[ O1; O3 ]

(* A loop that carries a value from one iteration to the next (a running
   sum) cannot run in columns; it must still compute the VM's prefix
   sums, across what would be chunk boundaries. *)
let test_jit_carried_loop_matches_vm () =
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      (* two defs of f0: not a promotable constant *)
      Lir.ConstF (0, 0.0);
      Lir.Loop
        {
          Lir.iv = 2; lb = 1; ub = 0; step = 1; vector_width = 1;
          body =
            [|
              Lir.Load (1, 0, 2);
              Lir.FBin (Lir.FAdd, 0, 0, 1);
              Lir.Store (1, 2, 0);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "prefix"; params = [ 0; 1 ]; body; nf = 2; ni = 3; nv = 1;
      nb = 2; vec_width = 1; prov = Lir.no_prov }
  in
  let m = { Lir.funcs = [| f |]; entry = 0 } in
  let n = (2 * Jit.chunk) + 5 in
  let input = Vm.of_flat (Array.init n (fun i -> 0.1 *. float_of_int (i + 1))) ~rows:n ~cols:1 in
  let run f =
    let out = Vm.buffer ~rows:n ~cols:1 in
    f ~buffers:[ input; out ];
    out.Vm.data
  in
  let vm = run (Vm.run m) in
  let sum = ref 0.0 in
  check_bits "vm computes prefix sums"
    (Array.map (fun x -> sum := !sum +. x; !sum) input.Vm.data) vm;
  check_bits "jit matches the vm" vm (run (Jit.run_once m))

(* The same array bound to two buffer parameters: a column loop that
   loads from one and stores to the other ([b.(i + 1) <- 2 * b.(i)])
   would read every row before writing any.  The runtime check makes
   such a loop run one iteration at a time, as the VM does. *)
let test_jit_aliased_buffers_match_vm () =
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      Lir.ConstI (2, 1);
      Lir.ConstI (3, -1);
      Lir.IBin (Lir.IAdd, 4, 0, 3);
      Lir.Loop
        {
          Lir.iv = 5; lb = 1; ub = 4; step = 1; vector_width = 1;
          body =
            [|
              Lir.Load (0, 0, 5);
              Lir.ConstF (1, 2.0);
              Lir.FBin (Lir.FMul, 2, 0, 1);
              Lir.IBin (Lir.IAdd, 6, 5, 2);
              Lir.Store (1, 6, 2);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "shift"; params = [ 0; 1 ]; body; nf = 3; ni = 7; nv = 1;
      nb = 2; vec_width = 1; prov = Lir.no_prov }
  in
  let m = { Lir.funcs = [| f |]; entry = 0 } in
  let n = (2 * Jit.chunk) + 5 in
  let run f =
    let b = Vm.of_flat (Array.init n (fun i -> if i = 0 then 1.0 else 0.5)) ~rows:n ~cols:1 in
    f ~buffers:[ b; b ];
    b.Vm.data
  in
  let vm = run (Vm.run m) in
  check (Alcotest.float 0.0) "vm doubles through the stores" 1024.0 vm.(10);
  check_bits "jit matches the vm" vm (run (Jit.run_once m))

let test_binary_fma_traps_both_engines () =
  (* a binary FMA is a malformed instruction (the addend was dropped);
     silently evaluating it as a*b is the historical bug both engines
     must refuse to reproduce *)
  let body =
    [| Lir.ConstF (0, 2.0); Lir.ConstF (1, 3.0);
       Lir.FBin (Lir.FMA, 2, 0, 1); Lir.ConstI (0, 0);
       Lir.Store (0, 0, 2); Lir.Ret |]
  in
  let f =
    { Lir.fname = "bad"; params = [ 0 ]; body; nf = 3; ni = 1; nv = 1;
      nb = 1; vec_width = 1; prov = Lir.no_prov }
  in
  let m = { Lir.funcs = [| f |]; entry = 0 } in
  let out () = Vm.buffer ~rows:1 ~cols:1 in
  (match Vm.run m ~buffers:[ out () ] with
  | exception Vm.Trap _ -> ()
  | () -> Alcotest.fail "vm evaluated a binary FMA");
  match Jit.run_once m ~buffers:[ out () ] with
  | exception Vm.Trap _ -> ()
  | () -> Alcotest.fail "jit evaluated a binary FMA"

(* -- Chunk isolation under threads -------------------------------------------- *)

(* in[i] is used as a load index; the poisoned row makes exactly one
   chunk trap.  Exactly one Chunk_error must surface, all domains must
   be joined, and its bounds must contain the poisoned row. *)
let kernel_indexed_load : Lir.modul =
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      Lir.Loop
        {
          Lir.iv = 2;
          lb = 1;
          ub = 0;
          step = 1;
          vector_width = 1;
          body =
            [|
              Lir.Load (0, 0, 2);
              Lir.FtoI (3, 0);
              Lir.Load (1, 0, 3);
              (* traps when in[i] is out of range *)
              Lir.Store (1, 2, 1);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "ix"; params = [ 0; 1 ]; body; nf = 2; ni = 4; nv = 1;
      nb = 2; vec_width = 1; prov = Lir.no_prov }
  in
  { Lir.funcs = [| f |]; entry = 0 }

let test_chunk_error_bounds () =
  let n = 20 in
  let poisoned = 13 in
  let data =
    Array.init n (fun i -> [| (if i = poisoned then 9999.0 else 0.0) |])
  in
  List.iter
    (fun engine ->
      List.iter
        (fun threads ->
          let t =
            Exec.load ~batch_size:4 ~threads ~engine ~out_cols:1
              kernel_indexed_load
          in
          match Exec.execute_rows t data with
          | _ -> Alcotest.fail "poisoned chunk did not fail"
          | exception Exec.Chunk_error e ->
              check tbool
                (Printf.sprintf "engine=%s threads=%d: bounds [%d,%d) hold %d"
                   (Jit.engine_to_string engine) threads e.Exec.chunk_lo
                   e.Exec.chunk_hi poisoned)
                true
                (e.Exec.chunk_lo <= poisoned && poisoned < e.Exec.chunk_hi))
        [ 1; 4 ])
    [ Jit.Vm; Jit.Jit ]

(* -- Kernel compilation cache -------------------------------------------------- *)

let small_model =
  lazy
    (Model.make ~num_features:2
       (Model.product
          [
            Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0;
            Model.sum
              [
                (0.4, Model.gaussian ~var:1 ~mean:(-1.0) ~stddev:0.5);
                (0.6, Model.gaussian ~var:1 ~mean:2.0 ~stddev:1.5);
              ];
          ]))

let test_cache_hit_skips_pipeline () =
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  let c1 = Compiler.compile m in
  let k1 = Compiler.cache_counters () in
  check tint "first compile misses" 1 k1.Compiler.misses;
  check tint "first compile runs the pipeline" 1 k1.Compiler.full_compiles;
  let c2 = Compiler.compile m in
  let k2 = Compiler.cache_counters () in
  check tint "second compile hits" 1 k2.Compiler.hits;
  check tint "hit skips the pass pipeline" 1 k2.Compiler.full_compiles;
  (* the artifact is shared, not merely equal *)
  check tbool "artifact physically shared" true (c1.Compiler.artifact == c2.Compiler.artifact);
  (* and the cached kernel still executes *)
  let out = Compiler.execute c2 [| [| 0.1; 0.2 |]; [| -1.0; 3.0 |] |] in
  check tint "cached artifact executes" 2 (Array.length out)

let test_cache_key_sensitivity () =
  (* one full compile per compile key: a change the pipeline never reads
     hits the memory tier, and a change it reads misses *)
  let module M = Spnc_machine.Machine in
  let m = Lazy.force small_model in
  let expect ~misses base changes =
    Compiler.reset_kernel_cache ();
    ignore (Compiler.compile ~options:base m);
    List.iteri
      (fun i (name, (o : Options.t)) ->
        let c = Compiler.compile ~options:o m in
        let k = Compiler.cache_counters () in
        check tint (name ^ ": full compiles")
          (if misses then i + 2 else 1)
          k.Compiler.full_compiles;
        check tint (name ^ ": memory hits")
          (if misses then 0 else i + 1)
          k.Compiler.hits;
        check tbool (name ^ ": carries the caller's options") true
          (c.Compiler.options = o))
      changes
  in
  let s = Options.default in
  expect ~misses:false s
    [ ("engine and threads", { s with engine = Jit.Vm; threads = 3 });
      ("batch_size", { s with batch_size = 64 });
      ("gpu preset", { s with gpu = M.radeon_6800 });
      ("machine cost constant",
       { s with machine = { s.machine with M.flop_cost = 0.75 } });
      ("scalar use_veclib", { s with use_veclib = false });
      ("scalar use_shuffle", { s with use_shuffle = false });
      ("cpu block_size", { s with block_size = 256 });
      ("cpu gpu_fallback", { s with gpu_fallback = false });
      ("explicit default pass order",
       { s with lospn_opt_order = Some Spnc.Pipelines.default_lospn_opt_order }) ];
  expect ~misses:true s
    [ ("opt_level", { s with opt_level = Spnc_cpu.Optimizer.O3 });
      ("support_marginal", { s with support_marginal = true });
      ("space", { s with space = Spnc_lospn.Lower_hispn.Force_log });
      ("base_type", { s with base_type = Spnc_mlir.Types.F64 });
      ("max_partition_size", { s with max_partition_size = Some 2 });
      ("non-default pass order",
       { s with lospn_opt_order = Some [ "dce"; "cse"; "constfold" ] }) ];
  let v = { s with vectorize = true } in
  expect ~misses:true v
    [ ("isa", { v with machine = { v.machine with M.isa = M.AVX512 } });
      ("veclib", { v with machine = { v.machine with M.veclib = M.SVML } });
      ("vector use_veclib", { v with use_veclib = false });
      ("vector use_shuffle", { v with use_shuffle = false });
      ("use_gather_tables", { v with use_gather_tables = true }) ]

let test_cache_disabled_counts_full_compiles () =
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  let off = { Options.default with use_kernel_cache = false } in
  ignore (Compiler.compile ~options:off m);
  ignore (Compiler.compile ~options:off m);
  let k = Compiler.cache_counters () in
  check tint "no lookups happened" 0 (k.Compiler.hits + k.Compiler.misses);
  check tint "every compile ran the pipeline" 2 k.Compiler.full_compiles

(* -- Engine parity through the full driver ------------------------------------ *)

let test_driver_engine_parity () =
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  let data =
    Array.init 23 (fun i -> [| float_of_int i *. 0.3 -. 3.0; 1.5 -. float_of_int i *. 0.2 |])
  in
  let run engine threads =
    let options = { Options.default with engine; threads } in
    Compiler.execute (Compiler.compile ~options m) data
  in
  let base = run Jit.Vm 1 in
  List.iter
    (fun (engine, threads) ->
      check_bits
        (Printf.sprintf "driver %s/%d vs vm/1" (Jit.engine_to_string engine) threads)
        base (run engine threads))
    [ (Jit.Vm, 3); (Jit.Jit, 1); (Jit.Jit, 3) ]

(* -- Streaming execution: persistent pool ------------------------------------- *)

(* Loading a kernel spawns the pool's domains once; repeated executes
   must reuse them.  [Pool.total_domains_spawned] is the process-wide
   spawn counter, so any per-call spawning shows up as a delta. *)
let test_pool_persists_across_calls () =
  let data = rows_2feat 64 in
  let expect = expected_2feat data in
  let t = Exec.load ~batch_size:4 ~threads:3 ~out_cols:1 kernel_2feat in
  let spawned = Pool.total_domains_spawned () in
  for _ = 1 to 5 do
    check_bits "pooled execute" expect (Exec.execute_rows t data)
  done;
  check tint "no new domains across repeated executes" spawned
    (Pool.total_domains_spawned ());
  Exec.shutdown t

(* Task 3 blocks until tasks 0..2 are done.  Those are claimed before
   task 3, and the worker that claims task 3 has finished any of them it
   ran, so none waits behind task 3: the round ends at once on every
   pool size.  A scheduler that queued one of them behind task 3 would
   hit the 10 s deadline, and the assertions fail instead of the suite
   hanging. *)
let test_skewed_round_finishes () =
  List.iter
    (fun size ->
      let p = Pool.create ~size in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          let n = 16 in
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          let t0 = Unix.gettimeofday () in
          let deadline = t0 +. 10.0 in
          Pool.run p ~num_tasks:n (fun ~worker:_ i ->
              if i = 3 then
                while
                  (Atomic.get runs.(0) = 0
                  || Atomic.get runs.(1) = 0
                  || Atomic.get runs.(2) = 0)
                  && Unix.gettimeofday () < deadline
                do
                  Domain.cpu_relax ()
                done;
              Atomic.incr runs.(i));
          check tbool
            (Printf.sprintf "size %d: round finished well before its deadline"
               size)
            true
            (Unix.gettimeofday () -. t0 < 5.0);
          Array.iteri
            (fun i r ->
              check tint
                (Printf.sprintf "size %d: task %d ran exactly once" size i)
                1 (Atomic.get r))
            runs))
    [ 2; 3; 4 ]

(* The Obs counters mirror the pool's own bookkeeping: the spawn metric
   moves in lockstep with [Pool.total_domains_spawned] and the round
   metric with the rounds run (the Obs counters are process-wide, so
   deltas — not absolutes — are compared). *)
let test_pool_obs_metrics_parity () =
  let obs name =
    Spnc_obs.Metrics.(counter_value (counter name))
  in
  let spawns0 = obs "runtime.pool.spawns" in
  let spawned0 = Pool.total_domains_spawned () in
  let p = Pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      check tint "pool of 3 spawned 2 domains" 2
        (Pool.total_domains_spawned () - spawned0);
      check tint "spawn metric mirrors total_domains_spawned"
        (Pool.total_domains_spawned () - spawned0)
        (obs "runtime.pool.spawns" - spawns0);
      let rounds0 = obs "runtime.pool.rounds" in
      for _ = 1 to 5 do
        Pool.run p ~num_tasks:12 (fun ~worker:_ _ -> ())
      done;
      Pool.run p ~num_tasks:0 (fun ~worker:_ _ -> ());
      check tint "round metric counts the non-empty rounds" 5
        (obs "runtime.pool.rounds" - rounds0))

(* The bug this pins: growing the shared pool used to shut the old pool
   down and create a bigger one, so every handle [Compiler.load_exec]
   had built on the old pool failed each later call with "pool is shut
   down".  Growth is in place: it spawns exactly the missing workers,
   and the narrow handle keeps returning the same bits. *)
let test_global_pool_grows_in_place () =
  let m = Lazy.force small_model in
  let rows = 2000 in
  let flat = Array.init (rows * 2) (fun i -> float_of_int (i mod 37) /. 9.0) in
  let base = Pool.size (Pool.global ~threads:1) in
  let handle threads =
    Compiler.load_exec
      (Compiler.compile ~options:{ Options.default with threads } m)
  in
  let run t = Exec.execute t ~flat ~rows ~num_features:2 in
  let narrow = handle (base + 1) in
  let expect = run narrow in
  let spawned = Pool.total_domains_spawned () in
  let wide = handle (base + 3) in
  check tint "growth spawned exactly the missing workers" 2
    (Pool.total_domains_spawned () - spawned);
  check tint "the shared pool grew" (base + 3) (Pool.size (Pool.global ~threads:1));
  check_bits "wide handle" expect (run wide);
  check_bits "narrow handle after growth" expect (run narrow)

let test_adaptive_chunk_plan () =
  check tint "single-threaded: the batch size" 64
    (Exec.chunk_plan ~rows:100_000 ~threads:1 ~batch_size:64 ~width:8);
  check tint "parallel: ~4 chunks per worker (63), whole SIMD groups" 56
    (Exec.chunk_plan ~rows:1000 ~threads:4 ~batch_size:64 ~width:8);
  check tint "scalar kernels are not rounded" 63
    (Exec.chunk_plan ~rows:1000 ~threads:4 ~batch_size:64 ~width:1);
  check tint "floored at the SIMD width" 16
    (Exec.chunk_plan ~rows:1000 ~threads:32 ~batch_size:64 ~width:16);
  check tint "capped at the batch size" 64
    (Exec.chunk_plan ~rows:100_000 ~threads:2 ~batch_size:64 ~width:8);
  check tint "a batch size off the width rounds down" 16
    (Exec.chunk_plan ~rows:100_000 ~threads:1 ~batch_size:20 ~width:8);
  check tint "tiny inputs still respect the floor" 8
    (Exec.chunk_plan ~rows:3 ~threads:4 ~batch_size:64 ~width:8);
  check tint "degenerate width clamps to 1" 1
    (Exec.chunk_plan ~rows:10 ~threads:4 ~batch_size:1 ~width:0)

(* Per-sample results do not depend on how many workers ran the round
   or which worker ran which chunk. *)
let test_thread_grid_bit_identical () =
  let data = rows_2feat 37 in
  let expect = expected_2feat data in
  List.iter
    (fun threads ->
      let t = Exec.load ~batch_size:3 ~threads ~out_cols:1 kernel_2feat in
      check_bits
        (Printf.sprintf "threads=%d" threads)
        expect (Exec.execute_rows t data);
      Exec.shutdown t)
    [ 1; 2; 3; 4 ]

let test_threads_auto_normalization () =
  let auto = Exec.normalize_threads 0 in
  check tbool "auto is at least 1" true (auto >= 1);
  check tbool "auto is clamped to 64" true (auto <= 64);
  check tint "negative also means auto" auto (Exec.normalize_threads (-3));
  check tint "positive values pass through" 8 (Exec.normalize_threads 8);
  check tint "hard cap at 256" 256 (Exec.normalize_threads 1000);
  check tint "effective_threads applies the same rule" auto
    (Options.effective_threads { Options.default with threads = -1 })

(* Four domains compile the same model and execute the shared JIT
   artifact concurrently.  This races the kernel-cache lookup and —
   the PR-3 fix — the [Lazy.force] of the cached closure kernel, which
   unsynchronized raises [CamlinternalLazy.Undefined] cross-domain. *)
let test_concurrent_compile_and_execute () =
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  let data =
    Array.init 17 (fun i -> [| (0.4 *. float_of_int i) -. 2.0; 1.0 -. (0.3 *. float_of_int i) |])
  in
  let options = { Options.default with engine = Jit.Jit; threads = 2 } in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = Compiler.compile ~options m in
            Array.init 3 (fun _ -> Compiler.execute c data)))
  in
  let results = Array.map Domain.join workers in
  let expect = Compiler.execute (Compiler.compile ~options m) data in
  Array.iter
    (Array.iter (fun got -> check_bits "concurrent execute" expect got))
    results;
  let k = Compiler.cache_counters () in
  check tint "every compile was a cache lookup" 5 (k.Compiler.hits + k.Compiler.misses);
  check tbool "the artifact was compiled at least once" true
    (k.Compiler.misses >= 1 && k.Compiler.full_compiles >= 1)

(* -- GPU stream pipeline ------------------------------------------------------- *)

let gpu_options streams =
  {
    Options.default with
    Options.target = Options.Gpu;
    batch_size = 16;
    block_size = 8;
    gpu_fallback = false;
    streams;
  }

(* The stream count is a schedule knob, not a semantics knob: splitting
   the batch across in-flight chunks must leave every bit unchanged. *)
let test_gpu_streams_output_equality () =
  let m = Lazy.force small_model in
  let data =
    Array.init 23 (fun i ->
        [| (0.3 *. float_of_int i) -. 3.0; 1.5 -. (0.2 *. float_of_int i) |])
  in
  let base = Compiler.execute (Compiler.compile ~options:(gpu_options 1) m) data in
  List.iter
    (fun streams ->
      check_bits
        (Printf.sprintf "gpu streams=%d vs monolithic" streams)
        base
        (Compiler.execute (Compiler.compile ~options:(gpu_options streams) m) data))
    [ 2; 4 ]

(* The DES bound: one DMA engine + one compute engine means the
   pipelined makespan is at least max(total copies, total compute), so
   the hidden time can never exceed min of the two. *)
let test_pipeline_overlap_bounds () =
  let chunks =
    Array.init 8 (fun i -> (0.003, 0.001 +. (0.0001 *. float_of_int i), 0.002))
  in
  let copies =
    Array.fold_left (fun a (u, _, d) -> a +. u +. d) 0.0 chunks
  in
  let compute = Array.fold_left (fun a (_, k, _) -> a +. k) 0.0 chunks in
  check tbool "streams=1 hides nothing" true
    (Sim.pipeline_overlap ~streams:1 chunks = 0.0);
  check tbool "a single chunk hides nothing" true
    (Sim.pipeline_overlap ~streams:2 [| (1.0, 1.0, 1.0) |] = 0.0);
  check tbool "no chunks, no overlap" true
    (Sim.pipeline_overlap ~streams:4 [||] = 0.0);
  List.iter
    (fun streams ->
      let ov = Sim.pipeline_overlap ~streams chunks in
      check tbool
        (Printf.sprintf "streams=%d: multi-chunk pipeline hides time" streams)
        true (ov > 0.0);
      check tbool
        (Printf.sprintf "streams=%d: overlap <= min(copies, compute)" streams)
        true
        (ov <= Float.min copies compute +. 1e-12))
    [ 2; 4 ]

(* estimate_streamed must keep the monolithic component columns (and so
   the Fig. 9 transfer fraction) and record the hidden time separately,
   with total = serial - overlap. *)
let test_streamed_ledger_accounting () =
  let m = Lazy.force small_model in
  let options = gpu_options 1 in
  let c = Compiler.compile ~options m in
  match c.Compiler.artifact with
  | Compiler.Cpu_kernel _ -> Alcotest.fail "expected a GPU artifact"
  | Compiler.Gpu_kernel g ->
      let gm = g.Compiler.gpu_module in
      let gpu = options.Options.gpu in
      let mono =
        Sim.estimate_chunked gm ~gpu ~entry:"spn_kernel" ~rows:4096 ~chunk:16
      in
      let s4 =
        Sim.estimate_streamed gm ~gpu ~entry:"spn_kernel" ~rows:4096 ~chunk:16
          ~streams:4
      in
      let feq a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
      check tbool "monolithic ledger has no overlap" true
        (mono.Sim.overlap_s = 0.0);
      check tbool "component columns match the monolithic schedule" true
        (feq mono.Sim.h2d_s s4.Sim.h2d_s
        && feq mono.Sim.d2h_s s4.Sim.d2h_s
        && feq mono.Sim.kernel_s s4.Sim.kernel_s
        && feq mono.Sim.launch_s s4.Sim.launch_s
        && feq mono.Sim.alloc_s s4.Sim.alloc_s);
      check tbool "overlap within [0, min(transfers, compute)]" true
        (s4.Sim.overlap_s >= 0.0
        && s4.Sim.overlap_s
           <= Float.min
                (s4.Sim.h2d_s +. s4.Sim.d2h_s)
                (s4.Sim.kernel_s +. s4.Sim.launch_s)
              +. 1e-12);
      check tbool "total = serial - overlap" true
        (feq (Sim.total_seconds s4) (Sim.serial_seconds s4 -. s4.Sim.overlap_s));
      check tbool "transfer fraction unchanged by streaming" true
        (feq (Sim.transfer_fraction mono) (Sim.transfer_fraction s4));
      check tbool "pipelining beats the monolithic schedule" true
        (Sim.total_seconds s4 < Sim.total_seconds mono)

(* -- Deadlines, cancellation and retry (docs/RESILIENCE.md §2) ----------------- *)

module Fault = Spnc_resilience.Fault

let test_backoff_schedule () =
  let feq a b = Float.abs (a -. b) < 1e-12 in
  check tbool "attempt 1 = 1ms" true (feq (Exec.backoff_seconds 1) 0.001);
  check tbool "attempt 2 = 2ms" true (feq (Exec.backoff_seconds 2) 0.002);
  check tbool "attempt 3 = 4ms" true (feq (Exec.backoff_seconds 3) 0.004);
  check tbool "cap at 50ms" true (feq (Exec.backoff_seconds 10) 0.05);
  check tbool "monotone non-decreasing" true
    (Exec.backoff_seconds 1 <= Exec.backoff_seconds 2
    && Exec.backoff_seconds 9 <= Exec.backoff_seconds 10)

let test_deadline_already_past () =
  let data = rows_2feat 16 in
  let flat = Array.concat (Array.to_list data) in
  let t = Exec.load ~batch_size:4 ~out_cols:1 kernel_2feat in
  let deadline = Unix.gettimeofday () -. 1.0 in
  (match Exec.execute t ~deadline ~flat ~rows:16 ~num_features:2 with
  | exception Exec.Deadline_exceeded d ->
      check tbool "deadline echoed" true (d.Exec.deadline = deadline);
      check tbool "now is past the deadline" true (d.Exec.now >= d.Exec.deadline)
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  Exec.shutdown t

let test_generous_deadline_is_transparent () =
  let data = rows_2feat 32 in
  let flat = Array.concat (Array.to_list data) in
  let t = Exec.load ~batch_size:4 ~threads:2 ~out_cols:1 kernel_2feat in
  let clean = Exec.execute t ~flat ~rows:32 ~num_features:2 in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let timed = Exec.execute t ~deadline ~flat ~rows:32 ~num_features:2 in
  check_bits "deadline does not perturb outputs" clean timed;
  Exec.shutdown t

(* An injected per-chunk stall makes in-flight work observe the deadline:
   the call must come back with the structured error instead of running
   every remaining chunk to completion. *)
let test_deadline_cancels_inflight_chunks () =
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "pool.chunk_stall" ] ~seed:1 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      let rows = 512 in
      let data = rows_2feat rows in
      let flat = Array.concat (Array.to_list data) in
      let t = Exec.load ~batch_size:1 ~threads:2 ~out_cols:1 kernel_2feat in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. 0.02 in
      (match Exec.execute t ~deadline ~flat ~rows ~num_features:2 with
      | exception Exec.Deadline_exceeded _ ->
          (* 512 chunks x 2ms stall = >1s if cancellation were ignored *)
          check tbool "cancelled promptly, not run to completion" true
            (Unix.gettimeofday () -. t0 < 0.5)
      | _ -> Alcotest.fail "expected Deadline_exceeded under stall");
      Exec.shutdown t)

(* Deterministically find a seed whose decision stream fails the single
   chunk of attempt 0 and passes it on the retry. *)
let retry_seed ~rate =
  let rec go s =
    if s > 10_000 then Alcotest.fail "no suitable retry seed found"
    else if
      Fault.decide ~seed:s ~point:"pool.chunk_fail" ~occurrence:0 < rate
      && Fault.decide ~seed:s ~point:"pool.chunk_fail" ~occurrence:1 >= rate
    then s
    else go (s + 1)
  in
  go 0

let test_transient_failure_retried () =
  let rate = 0.5 in
  let seed = retry_seed ~rate in
  let data = rows_2feat 4 in
  let flat = Array.concat (Array.to_list data) in
  let t = Exec.load ~batch_size:4 ~out_cols:1 kernel_2feat in
  let clean = Exec.execute t ~flat ~rows:4 ~num_features:2 in
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "pool.chunk_fail" ] ~seed ~rate ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      (* one chunk: attempt 0 draws occurrence 0 (fails), the retry draws
         occurrence 1 (passes) *)
      let out = Exec.execute t ~retries:2 ~flat ~rows:4 ~num_features:2 in
      check_bits "retried run bit-identical" clean out;
      check tint "exactly one injected failure" 1
        (Fault.fired_count "pool.chunk_fail"));
  Exec.shutdown t

let test_no_retries_surfaces_transient_chunk_error () =
  let data = rows_2feat 4 in
  let flat = Array.concat (Array.to_list data) in
  let t = Exec.load ~batch_size:4 ~out_cols:1 kernel_2feat in
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "pool.chunk_fail" ] ~seed:3 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests (fun () ->
      match Exec.execute t ~retries:0 ~flat ~rows:4 ~num_features:2 with
      | exception Exec.Chunk_error e ->
          check tbool "failure marked transient" true e.Exec.transient
      | _ -> Alcotest.fail "expected Chunk_error with retries=0");
  Exec.shutdown t

(* A permanent (non-transient) failure must not burn the retry budget. *)
let test_permanent_failure_not_retried () =
  let t = Exec.load ~batch_size:2 ~out_cols:1 kernel_2feat in
  (* 1-feature rows on a 2-feature kernel: deterministic out-of-bounds *)
  match Exec.execute t ~retries:5 ~flat:(Array.make 8 0.5) ~rows:8 ~num_features:1 with
  | exception Exec.Chunk_error e ->
      check tbool "permanent failure not marked transient" false e.Exec.transient;
      Exec.shutdown t
  | _ -> Alcotest.fail "expected Chunk_error"

(* Straggler-round isolation (the race behind sporadic cold-machine
   bit-identity failures in spnc_fuzz): two kernels with DIFFERENT
   thread counts share one pool; [pool.round_stall] deschedules random
   workers between the round signal and their first task claim, so a
   stalled worker from a 4-worker round routinely wakes up inside the
   next 2-worker round.  Had it claimed that round's tasks under its
   stale (out-of-range) worker id, the swallowed raise would count them
   complete and rows would come back unwritten.  The straggler holds
   its own round's record, whose tasks are all claimed, so every
   interleaving must stay bit-identical. *)
let test_straggler_round_isolation () =
  let rows = 64 in
  let data = rows_2feat rows in
  let flat = Array.concat (Array.to_list data) in
  let expect = expected_2feat data in
  let pool = Pool.create ~size:4 in
  let wide = Exec.load ~batch_size:1 ~threads:4 ~pool ~out_cols:1 kernel_2feat in
  let narrow =
    Exec.load ~batch_size:1 ~threads:2 ~pool ~out_cols:1 kernel_2feat
  in
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "pool.round_stall" ] ~seed:11 ~rate:0.4 ();
  Fun.protect
    ~finally:(fun () ->
      Fault.reset_for_tests ();
      Pool.shutdown pool)
    (fun () ->
      for i = 1 to 40 do
        let t = if i land 1 = 0 then wide else narrow in
        let got = Exec.execute t ~flat ~rows ~num_features:2 in
        check_bits
          (Printf.sprintf "straggler round %d (threads=%d)" i (Exec.threads t))
          expect got
      done;
      check tbool "stall point exercised" true
        (Fault.fired_count "pool.round_stall" > 0))

(* [~workers:k] on a larger pool: the job never sees a worker id >= k,
   even with stalled workers from wider rounds waking inside narrower
   ones, and every task still runs exactly once. *)
let test_workers_bound_the_round () =
  let pool = Pool.create ~size:4 in
  Fault.reset_for_tests ();
  Fault.arm ~points:[ "pool.round_stall" ] ~seed:5 ~rate:0.4 ();
  Fun.protect
    ~finally:(fun () ->
      Fault.reset_for_tests ();
      Pool.shutdown pool)
    (fun () ->
      for i = 1 to 40 do
        let k = 1 + (i mod 4) in
        let n = 32 in
        let runs = Array.init n (fun _ -> Atomic.make 0) in
        let out_of_range = Atomic.make false in
        Pool.run pool ~workers:k ~num_tasks:n (fun ~worker j ->
            if worker >= k then Atomic.set out_of_range true;
            Atomic.incr runs.(j));
        check tbool
          (Printf.sprintf "round %d: no worker id >= %d" i k)
          false (Atomic.get out_of_range);
        check tbool
          (Printf.sprintf "round %d: every task ran once" i)
          true
          (Array.for_all (fun r -> Atomic.get r = 1) runs)
      done;
      check tbool "stall point exercised" true
        (Fault.fired_count "pool.round_stall" > 0))

let test_driver_deadline_option () =
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  let rows = Array.init 8 (fun i -> [| float_of_int i; 0.5 |]) in
  (* a microscopic budget must fail structurally through the driver *)
  let tight = { Options.default with Options.deadline_ms = Some 1e-6 } in
  (match Compiler.execute (Compiler.compile ~options:tight m) rows with
  | exception Exec.Deadline_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded through the driver");
  (* a generous budget is output-transparent *)
  let clean = Compiler.execute (Compiler.compile m) rows in
  let lax = { Options.default with Options.deadline_ms = Some 60_000.0 } in
  let timed = Compiler.execute (Compiler.compile ~options:lax m) rows in
  check_bits "driver deadline transparent" clean timed

let suite =
  [
    Alcotest.test_case "chunking grid bit-identical" `Quick test_chunking_grid;
    Alcotest.test_case "rows below threads" `Quick test_rows_below_threads;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "multi-slot scratch re-zeroed" `Quick test_multislot_scratch_reuse;
    Alcotest.test_case "view window semantics" `Quick test_view_window_semantics;
    Alcotest.test_case "view bounds trap" `Quick test_view_bounds_trap;
    Alcotest.test_case "jit state reuse" `Quick test_jit_state_reuse;
    Alcotest.test_case "jit columns match vm across chunks" `Quick
      test_jit_columns_match_vm;
    Alcotest.test_case "jit fused idioms on special values" `Quick
      test_jit_fused_idioms_special_values;
    Alcotest.test_case "jit fuses a speaker kernel" `Quick
      test_jit_fuses_speaker_kernel;
    Alcotest.test_case "jit carried loop matches vm" `Quick
      test_jit_carried_loop_matches_vm;
    Alcotest.test_case "jit aliased buffers match vm" `Quick
      test_jit_aliased_buffers_match_vm;
    Alcotest.test_case "binary fma traps (both engines)" `Quick test_binary_fma_traps_both_engines;
    Alcotest.test_case "chunk error bounds" `Quick test_chunk_error_bounds;
    Alcotest.test_case "cache hit skips pipeline" `Quick test_cache_hit_skips_pipeline;
    Alcotest.test_case "cache key sensitivity" `Quick test_cache_key_sensitivity;
    Alcotest.test_case "cache disabled counts compiles" `Quick test_cache_disabled_counts_full_compiles;
    Alcotest.test_case "driver engine parity" `Quick test_driver_engine_parity;
    Alcotest.test_case "pool persists across calls" `Quick test_pool_persists_across_calls;
    Alcotest.test_case "skewed round finishes" `Quick
      test_skewed_round_finishes;
    Alcotest.test_case "pool obs metrics parity" `Quick
      test_pool_obs_metrics_parity;
    Alcotest.test_case "global pool grows in place" `Quick
      test_global_pool_grows_in_place;
    Alcotest.test_case "adaptive chunk plan" `Quick test_adaptive_chunk_plan;
    Alcotest.test_case "thread grid bit-identical" `Quick test_thread_grid_bit_identical;
    Alcotest.test_case "threads auto normalization" `Quick test_threads_auto_normalization;
    Alcotest.test_case "concurrent compile and execute" `Quick
      test_concurrent_compile_and_execute;
    Alcotest.test_case "gpu streams output equality" `Quick
      test_gpu_streams_output_equality;
    Alcotest.test_case "pipeline overlap bounds" `Quick test_pipeline_overlap_bounds;
    Alcotest.test_case "streamed ledger accounting" `Quick
      test_streamed_ledger_accounting;
    Alcotest.test_case "backoff schedule capped exponential" `Quick
      test_backoff_schedule;
    Alcotest.test_case "deadline already past" `Quick test_deadline_already_past;
    Alcotest.test_case "generous deadline transparent" `Quick
      test_generous_deadline_is_transparent;
    Alcotest.test_case "deadline cancels in-flight chunks" `Quick
      test_deadline_cancels_inflight_chunks;
    Alcotest.test_case "transient failure retried" `Quick
      test_transient_failure_retried;
    Alcotest.test_case "retries=0 surfaces transient chunk error" `Quick
      test_no_retries_surfaces_transient_chunk_error;
    Alcotest.test_case "permanent failure not retried" `Quick
      test_permanent_failure_not_retried;
    Alcotest.test_case "straggler round isolation" `Quick
      test_straggler_round_isolation;
    Alcotest.test_case "workers bound the round" `Quick
      test_workers_bound_the_round;
    Alcotest.test_case "driver deadline option" `Quick test_driver_deadline_option;
  ]
