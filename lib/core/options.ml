(** User-facing compiler options — the knobs the paper's Python interface
    exposes (§IV, §V): target, vectorization configuration, optimization
    level, maximum partition size, batch size, GPU block size, and the
    computation-space override. *)

module M = Spnc_machine.Machine

type target = Cpu | Gpu

let target_to_string = function Cpu -> "cpu" | Gpu -> "gpu"

type sched = Spnc_runtime.Pool.sched = Static | Stealing

let sched_to_string = Spnc_runtime.Pool.sched_to_string
let sched_of_string = Spnc_runtime.Pool.sched_of_string

type t = {
  target : target;
  machine : M.cpu;  (** CPU descriptor: ISA, veclib, frequency, cores *)
  gpu : M.gpu;
  vectorize : bool;
  use_veclib : bool;
  use_shuffle : bool;
  use_gather_tables : bool;
      (** vectorize discrete-leaf lookups with hardware indexed gathers
          (extension; requires AVX2/AVX-512) *)
  opt_level : Spnc_cpu.Optimizer.level;
  lospn_opt_order : string list option;
      (** pass order for the lospn-optimization stage; [None] runs the
          fixed default ([Pipelines.default_lospn_opt_order]).  Promoted
          winners come from the PASSORDER leaderboard (docs/FUZZING.md).
          Compile-relevant: participates in [fingerprint] *)
  max_partition_size : int option;
      (** [None] disables graph partitioning (whole graph in one Task) *)
  batch_size : int;  (** chunk-size hint for the runtime *)
  block_size : int;  (** GPU threads per block *)
  space : Spnc_lospn.Lower_hispn.space_option;
  base_type : Spnc_mlir.Types.t;  (** computation base type: F32 or F64 *)
  support_marginal : bool;
  threads : int;  (** runtime worker domains; [<= 0] means auto *)
  sched : sched;  (** parallel chunk scheduler (docs/PERFORMANCE.md §4) *)
  streams : int;
      (** GPU stream chunks for transfer/compute overlap; 1 = monolithic
          schedule (docs/PERFORMANCE.md §5) *)
  engine : Spnc_cpu.Jit.engine;
      (** CPU execution engine: closure compiler (default) or reference
          interpreter VM (docs/PERFORMANCE.md) *)
  use_kernel_cache : bool;
      (** reuse compiled artifacts for identical (model, options) pairs
          via the content-addressed kernel cache in {!Compiler} *)
  kernel_cache_dir : string option;
      (** persistent on-disk kernel cache directory ({!Kcache});
          [None] keeps the cache memory-only.  Runtime-only knob — the
          same artifact is produced either way *)
  kernel_cache_mb : int;
      (** on-disk cache size budget in megabytes (LRU-evicted) *)
  profile : bool;
      (** per-SPN-node execution profiling: count every executed Lir
          instruction into (node, opcode) cells via register provenance
          (docs/OBSERVABILITY.md).  Runtime-only; the default execution
          path is untouched when off *)
  (* resilience knobs (docs/RESILIENCE.md) *)
  output_guard : Spnc_resilience.Guard.policy;
      (** NaN/±inf/log-underflow policy on kernel outputs *)
  gpu_fallback : bool;
      (** on a GPU lowering/PTX failure, fall back to a CPU artifact
          instead of failing the compile *)
  debug_fail_stage : string option;
      (** fault injection: raise at the named pipeline stage (testing
          the fallback and reporting paths only) *)
  deadline_ms : float option;
      (** wall-clock budget for one [execute] call; exceeding it raises
          a structured [Deadline_exceeded] (docs/RESILIENCE.md).
          Runtime-only *)
  exec_retries : int;
      (** max retries (capped exponential backoff) for transient
          execution failures before surfacing them.  Runtime-only *)
  (* serving knobs (docs/PERFORMANCE.md §"Serving") — all runtime-only:
     they configure the spnc_serve batcher/admission layer and never
     change the compiled artifact, so none participates in
     [fingerprint]. *)
  serve_max_batch : int;
      (** dynamic-batcher flush threshold, in rows: a model queue is
          dispatched as soon as it holds this many rows *)
  serve_max_delay_ms : float;
      (** dynamic-batcher flush timer: the oldest queued request waits
          at most this long before its queue is dispatched anyway *)
  serve_queue_cap : int;
      (** per-model admission bound, in queued requests; requests over
          it are shed with a structured [overloaded] rejection *)
  serve_global_queue_cap : int;
      (** process-wide admission bound across all model queues *)
  serve_engines_cap : int;
      (** bounded LRU of hot engines: at most this many models keep a
          loaded [Exec] handle resident at once *)
  serve_dispatchers : int;
      (** dispatcher domains draining model queues (EDF order) *)
  serve_starvation_ms : float;
      (** starvation guard: a queued request's effective deadline is at
          most [enqueued_at + serve_starvation_ms], so deadline-less
          traffic cannot be starved forever by tight-SLO tenants *)
}

let default =
  {
    target = Cpu;
    machine = M.ryzen_3900xt;
    gpu = M.rtx_2070_super;
    vectorize = false;
    use_veclib = true;
    use_shuffle = true;
    use_gather_tables = false;
    opt_level = Spnc_cpu.Optimizer.O1;
    lospn_opt_order = None;
    max_partition_size = None;
    batch_size = 4096;
    block_size = 64;
    space = Spnc_lospn.Lower_hispn.Auto;
    base_type = Spnc_mlir.Types.F32;
    support_marginal = false;
    threads = 1;
    sched = Stealing;
    streams = 1;
    engine = Spnc_cpu.Jit.Jit;
    use_kernel_cache = true;
    kernel_cache_dir = None;
    kernel_cache_mb = 256;
    profile = false;
    output_guard = Spnc_resilience.Guard.Warn;
    gpu_fallback = true;
    debug_fail_stage = None;
    deadline_ms = None;
    exec_retries = 2;
    serve_max_batch = 256;
    serve_max_delay_ms = 2.0;
    serve_queue_cap = 256;
    serve_global_queue_cap = 4096;
    serve_engines_cap = 64;
    serve_dispatchers = 2;
    serve_starvation_ms = 50.0;
  }

(** The best CPU configuration found by the paper's DSE (Fig. 6):
    vectorization + vector library + shuffled loads. *)
let best_cpu ?(machine = M.ryzen_3900xt) () =
  { default with target = Cpu; machine; vectorize = true; use_veclib = true;
    use_shuffle = true }

(** The best GPU configuration (§V-A.1): batch/block size 64. *)
let best_gpu ?(gpu = M.rtx_2070_super) () =
  { default with target = Gpu; gpu; block_size = 64; batch_size = 64 }

let cpu_lower_options (t : t) : Spnc_cpu.Lower_cpu.options =
  {
    Spnc_cpu.Lower_cpu.vectorize = t.vectorize;
    width =
      (if t.vectorize then M.simd_width t.machine.M.isa ~bits:32 else 1);
    use_veclib = t.use_veclib && t.machine.M.veclib <> M.No_veclib;
    use_shuffle = t.use_shuffle;
    gather_tables =
      t.use_gather_tables && t.vectorize
      && (match t.machine.M.isa with
         | M.AVX2 | M.AVX512 -> true
         | _ -> false);
  }

(* [threads <= 0] means auto-detect; clamp explicit requests to something
   a shared host survives.  The runtime layer applies the same rule, but
   normalizing here keeps CLI output and pool sizing consistent. *)
let normalize_threads n =
  if n <= 0 then max 1 (min 64 (Domain.recommended_domain_count ()))
  else min n 256

let effective_threads (t : t) = normalize_threads t.threads

(* The compile-relevant subset of the options, serialized deterministically.
   Runtime-only knobs — threads, sched, streams, engine, output_guard,
   use_kernel_cache, kernel_cache_dir/mb, profile, deadline_ms,
   exec_retries — are deliberately EXCLUDED: they do not change the
   compiled artifact, so two compiles differing only in them must share
   a cache entry (including an on-disk one across processes). *)
let fingerprint (t : t) : string =
  Marshal.to_string
    ( target_to_string t.target,
      t.machine,
      t.gpu,
      (t.vectorize, t.use_veclib, t.use_shuffle, t.use_gather_tables),
      Spnc_cpu.Optimizer.level_to_string t.opt_level,
      t.lospn_opt_order,
      t.max_partition_size,
      (t.batch_size, t.block_size),
      (t.space, t.base_type, t.support_marginal, t.gpu_fallback,
       t.debug_fail_stage) )
    []

let pp ppf (t : t) =
  Fmt.pf ppf
    "%s %s vec=%b veclib=%b shuffle=%b %s part=%s batch=%d block=%d \
     threads=%d sched=%s streams=%d engine=%s cache=%b profile=%b guard=%s"
    (target_to_string t.target) t.machine.M.cpu_name t.vectorize t.use_veclib
    t.use_shuffle
    (Spnc_cpu.Optimizer.level_to_string t.opt_level)
    (match t.max_partition_size with None -> "off" | Some s -> string_of_int s)
    t.batch_size t.block_size (effective_threads t) (sched_to_string t.sched)
    t.streams
    (Spnc_cpu.Jit.engine_to_string t.engine)
    t.use_kernel_cache t.profile
    (Spnc_resilience.Guard.policy_to_string t.output_guard)
