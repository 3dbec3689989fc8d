(** User-facing compiler options — the knobs the paper's Python interface
    exposes (§IV, §V): target, vectorization configuration, optimization
    level, maximum partition size, batch size, GPU block size, and the
    computation-space/base-type overrides.

    {!t} is the flat record callers build.  {!compile} is the part of it
    the compile pipeline reads, derived by {!compile_of}; its one
    encoding, {!fingerprint}, keys the kernel cache and is the
    tuned-config file. *)

module M = Spnc_machine.Machine

type target = Cpu | Gpu

val target_to_string : target -> string

(** Exactly what {!Compiler} reads to build a kernel: two option sets
    with equal [compile_of] build the same kernel.  Fields mean what the
    same-named fields of {!t} mean. *)
type compile = {
  target : target;
  isa : M.isa;  (** the machine's ISA *)
  veclib : M.veclib;  (** the machine's vector math library *)
  vectorize : bool;
  use_veclib : bool;
  use_shuffle : bool;
  use_gather_tables : bool;
  opt_level : Spnc_cpu.Optimizer.level;
  lospn_opt_order : string list;
  max_partition_size : int option;
  space : Spnc_lospn.Lower_hispn.space_option;
  base_type : Spnc_mlir.Types.t;
  support_marginal : bool;
  block_size : int;
  gpu_fallback : bool;
}

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
      (** pass order for the lospn-optimization stage ([None] = the fixed
          default, [Pipelines.default_lospn_opt_order]).  Names must come
          from [Pipelines.lospn_opt_pool]; promoted winners come from the
          PASSORDER leaderboard (docs/FUZZING.md) *)
  max_partition_size : int option;
      (** [None] disables graph partitioning (whole graph in one Task) *)
  batch_size : int;  (** chunk-size hint for the runtime *)
  block_size : int;  (** GPU threads per block *)
  space : Spnc_lospn.Lower_hispn.space_option;
  base_type : Spnc_mlir.Types.t;  (** computation base type: F32 or F64 *)
  support_marginal : bool;
  threads : int;  (** runtime worker domains; [<= 0] means auto *)
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
          [None] keeps the cache memory-only *)
  kernel_cache_mb : int;
      (** on-disk cache size budget in megabytes (LRU-evicted) *)
  (* resilience knobs (docs/RESILIENCE.md) *)
  output_guard : Spnc_resilience.Guard.policy;
      (** NaN/±inf/log-underflow policy on kernel outputs *)
  gpu_fallback : bool;
      (** on a GPU lowering/PTX failure, fall back to a CPU artifact
          instead of failing the compile *)
  deadline_ms : float option;
      (** wall-clock budget for one [execute] call; exceeding it raises
          a structured [Deadline_exceeded] (docs/RESILIENCE.md) *)
  exec_retries : int;
      (** max retries (capped exponential backoff) for transient
          execution failures before surfacing them *)
  (* serving knobs (docs/PERFORMANCE.md §7): the spnc_serve batcher and
     admission layer *)
  serve_max_batch : int;
      (** dynamic-batcher batch bound, in rows: a free dispatcher takes
          whole queued requests up to this many *)
  serve_queue_cap : int;
      (** per-model admission bound, in queued requests *)
  serve_global_queue_cap : int;
      (** process-wide admission bound across all model queues *)
  serve_engines_cap : int;
      (** bounded LRU of resident [Exec] engine handles *)
  serve_dispatchers : int;
      (** dispatcher domains draining model queues (EDF order) *)
  serve_starvation_ms : float;
      (** starvation guard: cap on how long a deadline-less request can
          be out-prioritized by tight-SLO traffic *)
}

val default : t

(** The best CPU configuration found by the paper's DSE (Fig. 6):
    vectorization + vector library + shuffled loads. *)
val best_cpu : ?machine:M.cpu -> unit -> t

(** The best GPU configuration (§V-A.1): batch/block size 64. *)
val best_gpu : ?gpu:M.gpu -> unit -> t

(** Derives the CPU-lowering options (vector width from the ISA,
    veclib availability, gather-table eligibility). *)
val cpu_lower_options : compile -> Spnc_cpu.Lower_cpu.options

(** [effective_threads t] — [t.threads] resolved by
    {!Spnc_runtime.Exec.normalize_threads}. *)
val effective_threads : t -> int

(** {2 The compile key} *)

(** [compile_of t] — the compile-relevant part of [t], normalized so
    that identical kernels share one key: a scalar build fixes the
    vector-only knobs, a CPU build the GPU-only ones (to their
    {!default} values), and [lospn_opt_order = None] becomes
    [Pipelines.default_lospn_opt_order].  Every other field of [t]
    (batch size, the GPU cost descriptor, the machine's name and cost
    constants, runtime and serve knobs) is left out. *)
val compile_of : t -> compile

(** [with_compile k t] — [t] with [k]'s knobs and the machine's
    [isa]/[veclib] taken from [k]; the machine's cost constants and
    every runtime knob stay [t]'s.  [compile_of (with_compile k t) = k]
    for any normalized [k]. *)
val with_compile : compile -> t -> t

(** The encoding: a JSON object whose first member is the version tag
    ["spnc_compile"], then every field of {!compile} in a fixed order. *)
val compile_to_json : compile -> Spnc_obs.Json.t

(** Inverse of {!compile_to_json}; [Error] (never an exception) on an
    unknown version, a missing field or an unknown field value. *)
val compile_of_json : Spnc_obs.Json.t -> (compile, string) result

(** [fingerprint k] — the compact text of [compile_to_json k]: the
    kernel-cache key (in memory and on disk) and the tuned-config file. *)
val fingerprint : compile -> string

val pp : Format.formatter -> t -> unit
