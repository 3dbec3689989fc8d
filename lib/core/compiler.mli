(** The SPNC driver: end-to-end compilation of a probabilistic query on an
    SPN model, with per-stage wall-clock timing — the OCaml equivalent of
    the paper's single-API-call Python interface.

    {v
    model → HiSPN → canonicalize → LoSPN → optimize → partition →
    bufferize → buffer-opt → (CPU: cir → Lir → -O pipeline → regalloc)
                             (GPU: kernels + host → copy-opt → PTX → CUBIN)
    v} *)

open Spnc_mlir

(** One stage of a compile, measured by the timer every pass shares
    ({!Spnc_mlir.Pass.timed}); print a compile's stages with
    [Spnc_mlir.Pass.pp_timings ppf (`Stages c.timings)]. *)
type timing = Pass.timing = {
  stage : string;
  seconds : float;
  minor_words : float;
  direct_words : float;  (** major-heap words minus promoted words *)
  minor_collections : int;
}

type jit_cell
(** Deferred closure compilation with retryable failure: unlike
    [Lazy.t] — which poisons permanently when its thunk raises — a
    failed build leaves the cell pending, so the next {!force_jit}
    tries again (failures are counted in
    [compiler.jit.build_failures]). *)

val make_jit_cell : Spnc_cpu.Lir.modul -> jit_cell
(** A fresh pending cell that will closure-compile [lir] when forced. *)

val force_jit : jit_cell -> Spnc_cpu.Jit.kernel
(** Build (or return the already-built) JIT kernel.  Serialized
    process-wide: cells live in shared cached artifacts.
    @raise whatever the underlying build raises; the cell stays
    retryable. *)

type cpu_artifact = {
  lir : Spnc_cpu.Lir.modul;  (** the executable kernel (Lir) *)
  regalloc : Spnc_cpu.Regalloc.stats array;  (** per-function allocation *)
  jit : jit_cell;
      (** closure-compiled form of [lir]; built on first JIT execution
          and shared by every later run of this artifact *)
}

type gpu_artifact = {
  gpu_module : Ir.modul;  (** host function + gpu.func kernels *)
  ptx : string;  (** pseudo-PTX text *)
  cubin : Spnc_gpu.Ptx.cubin;  (** assembled device image *)
}

type artifact = Cpu_kernel of cpu_artifact | Gpu_kernel of gpu_artifact

type compiled = {
  options : Options.t;
  timings : timing list;  (** per-stage wall-clock, in pipeline order *)
  lospn : Ir.modul;  (** final bufferized LoSPN (diagnostics) *)
  out_cols : int;  (** slots per sample in the kernel output buffer *)
  num_tasks : int;
  artifact : artifact;
  datatype : Spnc_lospn.Lower_hispn.datatype_choice;
      (** the deferred-datatype decision (log space or linear, f32/f64) *)
  diags : Spnc_resilience.Diag.t list;
      (** non-fatal diagnostics accumulated during compilation (e.g. a
          GPU→CPU fallback notice); empty on a clean compile *)
}

(** [out_cols_of_lospn m] — slots per sample in the output buffer of a
    bufferized LoSPN kernel (the columns of its last memref parameter). *)
val out_cols_of_lospn : Ir.modul -> int

(** [compile_seconds c] — total measured compile time. *)
val compile_seconds : compiled -> float

(** [stage_seconds c stage] — time spent in the named stage. *)
val stage_seconds : compiled -> string -> float

(** [compile ?options model] runs the full pipeline — or, when
    [options.use_kernel_cache] is on (the default), returns a cached
    artifact for an identical (model, {!Options.compile_of} options)
    pair.
    Lookup order: in-memory cache, then — when
    [options.kernel_cache_dir] is set — the crash-safe persistent
    on-disk tier ({!Kcache}; checksummed, LRU-bounded, corruption falls
    back to a recompile), then a full compile published to both tiers.
    A hit reuses the compiled artifact and original timings but carries
    the caller's [options], so the runtime knobs (threads, engine,
    output guard, deadline, batch size) still apply.
    @raise Spnc_spn.Validate.Invalid if the model is structurally invalid. *)
val compile : ?options:Options.t -> Spnc_spn.Model.t -> compiled

(** Kernel-cache observability: [hits]/[misses] count memory-tier
    lookups with the cache enabled; [disk_hits] counts compiles served
    by the persistent tier; [full_compiles] counts actual pass-pipeline
    runs (misses not served by disk, plus cache-disabled compiles). *)
type cache_counters = {
  hits : int;
  misses : int;
  full_compiles : int;
  disk_hits : int;
}

val cache_counters : unit -> cache_counters

(** [reset_kernel_cache ()] empties the cache and zeroes the counters
    (tests, or long-lived processes that mutate global compiler state). *)
val reset_kernel_cache : unit -> unit

(** [load_exec ?pool ?profile c] — the engine-handle reuse point: build
    a runtime {!Spnc_runtime.Exec.t} for a CPU artifact once (JIT
    closures forced through the shared retryable cell, process-wide pool
    wired up, chunking knobs from [c.options]) and execute on it many
    times via {!Spnc_runtime.Exec.execute} / [execute_segments].
    {!execute} pays this load on every call; servers (the {!Spnc_serve}
    registry) hold the handle hot instead.  With [profile], the JIT
    closures are built afresh with that profile's counters baked in (the
    shared cell is left alone) and the VM counts into it too.
    @raise Invalid_argument on a GPU artifact (those run in the
    simulator, not the CPU runtime). *)
val load_exec :
  ?pool:Spnc_runtime.Pool.t ->
  ?profile:Spnc_cpu.Profile.t ->
  compiled ->
  Spnc_runtime.Exec.t

(** [execute c rows] runs the compiled kernel on row-major samples and
    returns one {e log}-likelihood per sample (linear-space kernels have
    their probabilities converted on the way out).  CPU kernels run on
    the register VM through the multi-threaded runtime; GPU kernels run
    in the functional GPU simulator.  Outputs pass through the
    configured NaN/±inf/log-underflow guard ([options.output_guard]).

    When [options.deadline_ms] is set the call gets that wall-clock
    budget (JIT forcing + execution); transient chunk failures retry up
    to [options.exec_retries] times under capped exponential backoff
    (docs/RESILIENCE.md).
    @raise Spnc_resilience.Guard.Guard_failure under the [Fail] policy.
    @raise Spnc_runtime.Exec.Deadline_exceeded when the budget expires
    (partial outputs are discarded). *)
val execute : compiled -> float array array -> float array

(** [execute_profiled c rows] — like {!execute}, but every Lir
    instruction the CPU kernel executes is counted into a fresh
    per-SPN-node profile (docs/OBSERVABILITY.md): render it with
    {!Spnc_cpu.Profile.pp_report} or export with
    {!Spnc_cpu.Profile.write_file}.  The artifact's cached unprofiled
    JIT closures are left alone, so the default {!execute} path pays
    nothing.  GPU artifacts execute normally; their profile is empty. *)
val execute_profiled :
  compiled -> float array array -> float array * Spnc_cpu.Profile.t

(** [finalize_output c raw] — the post-processing {!execute} applies to
    raw kernel outputs (log-space conversion for linear-space kernels,
    then the configured output guard).  For callers that drive the
    runtime directly via {!load_exec}; applying it to raw segment
    outputs keeps them bit-identical to {!execute}.
    @raise Spnc_resilience.Guard.Guard_failure under the [Fail] policy. *)
val finalize_output : compiled -> float array -> float array

(** [gpu_init_seconds c] — modelled one-time CUDA context + module-load
    overhead of a GPU run (grows with CUBIN size); [0] for CPU. *)
val gpu_init_seconds : compiled -> float

(** [estimate_seconds c ~rows] — modelled single-run execution time on
    the configured machine: the quantity plotted in Figs. 6–8 and 10–13
    (see DESIGN.md §1 for the substitution rationale). *)
val estimate_seconds : compiled -> rows:int -> float

(** [gpu_ledger c ~rows] — the GPU time breakdown of Fig. 9 (transfers /
    kernel / launch / alloc); [None] for CPU artifacts. *)
val gpu_ledger : compiled -> rows:int -> Spnc_gpu.Sim.ledger option

(** [compile_and_execute ?options model rows] — the one-call interface. *)
val compile_and_execute :
  ?options:Options.t ->
  Spnc_spn.Model.t ->
  float array array ->
  compiled * float array
