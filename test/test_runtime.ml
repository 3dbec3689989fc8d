(** Runtime + engine tests: chunking edge cases of {!Spnc_runtime.Exec}
    (rows not divisible by the batch size, batch size 1, more threads
    than chunks), bit-identical output across batch sizes, thread counts
    and execution engines, the pooled-scratch path for multi-slot
    kernels, buffer-view semantics, the JIT's constant promotion under
    frame reuse, the kernel compilation cache counters, and the
    streaming layer (docs/PERFORMANCE.md §4-§5): persistent-pool domain
    reuse, work stealing under skewed chunk costs, the adaptive chunk
    plan, scheduler bit-identity, thread auto-detection, thread-safe
    compilation/execution, and the GPU stream pipeline's output equality
    and overlap-ledger accounting. *)

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

(* Constant promotion moves single-def consts out of the body into
   frame initialization; re-running on the SAME state (the runtime's
   frame-reuse pattern) must stay correct. *)
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
  check_bits "third run, first data again" (expected_2feat d1) (run d1)

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
  Compiler.reset_kernel_cache ();
  let m = Lazy.force small_model in
  ignore (Compiler.compile m);
  (* a compile-relevant option change is a different kernel *)
  let o3 = { Options.default with opt_level = Spnc_cpu.Optimizer.O3 } in
  ignore (Compiler.compile ~options:o3 m);
  let k = Compiler.cache_counters () in
  check tint "different opt level misses" 2 k.Compiler.misses;
  (* runtime-only knobs (engine, threads) share the artifact *)
  let vm_opts = { Options.default with engine = Jit.Vm; threads = 3 } in
  let c = Compiler.compile ~options:vm_opts m in
  let k = Compiler.cache_counters () in
  check tint "engine/threads change hits" 1 k.Compiler.hits;
  check tbool "hit carries the caller's options" true
    (c.Compiler.options.Options.engine = Jit.Vm)

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

(* -- Streaming execution: persistent pool + work stealing --------------------- *)

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

(* Worker 0 owns tasks 0..3 (16 tasks over 4 workers) and, popping its
   own deque from the bottom, takes task 3 first.  Task 3 then blocks
   until 0..2 complete — which only a thief can make happen, so the
   round terminates iff stealing works, and at least 3 steals are
   guaranteed in every interleaving.  A deadline keeps a broken
   scheduler from hanging the suite (the assertions then fail). *)
let test_stealing_rebalances_skewed_costs () =
  let p = Pool.create ~size:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let n = 16 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let before = Pool.steal_count p in
      let deadline = Unix.gettimeofday () +. 10.0 in
      Pool.run p ~sched:Pool.Stealing ~num_tasks:n (fun ~worker:_ i ->
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
      Array.iteri
        (fun i r ->
          check tint (Printf.sprintf "task %d ran exactly once" i) 1
            (Atomic.get r))
        runs;
      check tbool "skewed round forced steals" true
        (Pool.steal_count p - before >= 3);
      (* static rounds on the same pool never steal *)
      let before_static = Pool.steal_count p in
      let runs2 = Array.init n (fun _ -> Atomic.make 0) in
      Pool.run p ~sched:Pool.Static ~num_tasks:n (fun ~worker:_ i ->
          Atomic.incr runs2.(i));
      Array.iteri
        (fun i r ->
          check tint (Printf.sprintf "static task %d ran exactly once" i) 1
            (Atomic.get r))
        runs2;
      check tint "static round stole nothing" before_static (Pool.steal_count p))

(* The Obs counters mirror the pool's own bookkeeping: process-wide
   spawn and steal totals must move in lockstep with
   [Pool.total_domains_spawned] / [Pool.steal_count] (the Obs counters
   are process-wide, so deltas — not absolutes — are compared). *)
let test_pool_obs_metrics_parity () =
  let obs name =
    Spnc_obs.Metrics.(counter_value (counter name))
  in
  let spawns0 = obs "runtime.pool.spawns" in
  let steals0 = obs "runtime.pool.steals" in
  let spawned0 = Pool.total_domains_spawned () in
  let p = Pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      check tint "spawn metric mirrors total_domains_spawned"
        (Pool.total_domains_spawned () - spawned0)
        (obs "runtime.pool.spawns" - spawns0);
      let stolen0 = Pool.steal_count p in
      (* same skewed round as above: task 3 blocks until a thief runs
         tasks 0..2, so at least 3 steals are forced *)
      let n = 12 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let deadline = Unix.gettimeofday () +. 10.0 in
      Pool.run p ~sched:Pool.Stealing ~num_tasks:n (fun ~worker:_ i ->
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
      let pool_steals = Pool.steal_count p - stolen0 in
      check tbool "round forced steals" true (pool_steals >= 3);
      check tint "steal metric mirrors the pool's own count" pool_steals
        (obs "runtime.pool.steals" - steals0))

let test_adaptive_chunk_plan () =
  check tint "single-threaded: the batch size" 64
    (Exec.chunk_plan ~rows:100_000 ~threads:1 ~batch_size:64 ~min_chunk:8);
  check tint "parallel: ~4 chunks per worker" 63
    (Exec.chunk_plan ~rows:1000 ~threads:4 ~batch_size:64 ~min_chunk:8);
  check tint "floored at the SIMD width" 16
    (Exec.chunk_plan ~rows:1000 ~threads:32 ~batch_size:64 ~min_chunk:16);
  check tint "capped at the batch size" 64
    (Exec.chunk_plan ~rows:100_000 ~threads:2 ~batch_size:64 ~min_chunk:8);
  check tint "tiny inputs still respect the floor" 8
    (Exec.chunk_plan ~rows:3 ~threads:4 ~batch_size:64 ~min_chunk:8);
  check tint "degenerate floor clamps to 1" 1
    (Exec.chunk_plan ~rows:10 ~threads:4 ~batch_size:1 ~min_chunk:0)

(* Static and Stealing must be observationally identical: per-sample
   results do not depend on which worker ran which chunk. *)
let test_sched_grid_bit_identical () =
  let data = rows_2feat 37 in
  let expect = expected_2feat data in
  List.iter
    (fun sched ->
      List.iter
        (fun threads ->
          let t =
            Exec.load ~batch_size:3 ~threads ~sched ~min_chunk:2 ~out_cols:1
              kernel_2feat
          in
          check_bits
            (Printf.sprintf "sched=%s threads=%d" (Pool.sched_to_string sched)
               threads)
            expect (Exec.execute_rows t data);
          Exec.shutdown t)
        [ 1; 2; 4 ])
    [ Pool.Static; Pool.Stealing ]

let test_threads_auto_normalization () =
  let auto = Options.normalize_threads 0 in
  check tbool "auto is at least 1" true (auto >= 1);
  check tbool "auto is clamped to 64" true (auto <= 64);
  check tint "negative also means auto" auto (Options.normalize_threads (-3));
  check tint "auto matches the runtime's resolution" (Exec.auto_threads ()) auto;
  check tint "positive values pass through" 8 (Options.normalize_threads 8);
  check tint "hard cap at 256" 256 (Options.normalize_threads 1000);
  check tint "effective_threads resolves the record" auto
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
   next 2-worker round.  Pre-fix it would steal that round's tasks
   under its stale (out-of-range) worker id, the swallowed raise
   counted them complete, and rows came back unwritten.  Post-fix the
   round-stamped deques refuse the stale claims, so every interleaving
   must stay bit-identical. *)
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
    Alcotest.test_case "binary fma traps (both engines)" `Quick test_binary_fma_traps_both_engines;
    Alcotest.test_case "chunk error bounds" `Quick test_chunk_error_bounds;
    Alcotest.test_case "cache hit skips pipeline" `Quick test_cache_hit_skips_pipeline;
    Alcotest.test_case "cache key sensitivity" `Quick test_cache_key_sensitivity;
    Alcotest.test_case "cache disabled counts compiles" `Quick test_cache_disabled_counts_full_compiles;
    Alcotest.test_case "driver engine parity" `Quick test_driver_engine_parity;
    Alcotest.test_case "pool persists across calls" `Quick test_pool_persists_across_calls;
    Alcotest.test_case "stealing rebalances skewed costs" `Quick
      test_stealing_rebalances_skewed_costs;
    Alcotest.test_case "pool obs metrics parity" `Quick
      test_pool_obs_metrics_parity;
    Alcotest.test_case "adaptive chunk plan" `Quick test_adaptive_chunk_plan;
    Alcotest.test_case "sched grid bit-identical" `Quick test_sched_grid_bit_identical;
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
    Alcotest.test_case "driver deadline option" `Quick test_driver_deadline_option;
  ]
