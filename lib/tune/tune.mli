(** Vectorization design-space explorer and profile-guided auto-tuner —
    the closed loop behind the paper's Fig. 6 (docs/PERFORMANCE.md §6).

    The paper's central CPU result is that the vectorization knobs —
    vectorize on/off, vector library, shuffle-vs-gather loads — swing
    inference latency by large factors, and that the best point is found
    by exploring the configuration space per model.  This module runs
    that exploration automatically, in two stages:

    {b Stage 1 (static DSE).}  {!enumerate} builds the configuration
    lattice (optimization level × vectorize × veclib × shuffle/gather ×
    gather-tables × partition-size buckets), every point is compiled
    (through the persistent kernel cache when [options.kernel_cache_dir]
    is set, so repeated tunes are cheap) and scored with the calibrated
    {!Spnc_machine.Machine} cost model applied to the actually-generated
    instruction stream.  The top-[budget] candidates
    by modelled time are then {e wall-clock validated} through the
    ordinary JIT + pool execution path, asserting bit-identical outputs
    against the reference configuration for every measured candidate.

    {b Stage 2 (profile-guided).}  One profiled execution of the
    reference configuration ({!Spnc_cpu.Profile}, exact per-SPN-node
    cycles) attributes dynamic cycles to opcode classes — libm calls
    (Gaussian leaves), strided input loads, discrete-leaf table lookups —
    and (a) dimensions whose opcode class is cold are dropped from the
    lattice before any candidate is compiled, and (b) when the winning
    configuration partitions the graph into multiple tasks, per-task
    cycle shares pick a {e per-task} optimization level: hot tasks are
    re-optimized at -O3, cold tasks keep the base level, and the refined
    artifact is validated bit-identical against the reference.

    Selection is deterministic for a fixed (model, options, budget):
    candidates are ranked by the (deterministic) cost model, wall-clock
    only {e validates} — it never picks the winner — so two tunes of the
    same model agree exactly.  With [options.kernel_cache_dir] set, tuned
    configurations are cached by (model digest, base compile key)
    ({!load_cached}); together with the persistent kernel cache a
    previously-tuned model recompiles for free. *)

module Options = Spnc.Options

(** One dimension of the search lattice. *)
type knob = Opt_level | Vectorize | Veclib | Shuffle | Gather_tables | Partition

val knob_to_string : knob -> string

(** One point of the lattice: its option set, the cost-model score, and —
    when it made the measured top-[budget] — wall-clock and the
    bit-identity verdict against the reference configuration. *)
type candidate = {
  label : string;  (** human-readable knob summary, e.g. "-O2 vec+veclib" *)
  options : Options.t;
  est_seconds : float;  (** cost-model estimate at [est_rows] samples *)
  wall_seconds : float option;  (** best-of-[reps] measured; [None] = unmeasured *)
  identical : bool option;  (** outputs bit-identical to the reference *)
}

(** Opcode-class cycle shares from the stage-2 profile, and the lattice
    dimensions they pruned. *)
type feedback = {
  fb_total_cycles : float;
  fb_call_share : float;  (** scalar/vector libm calls (Gaussian leaves) *)
  fb_mem_share : float;  (** strided input loads / gathers / shuffles *)
  fb_table_share : float;  (** discrete-leaf table lookups *)
  fb_dropped : knob list;  (** dimensions pruned before compilation *)
}

(** Per-task dynamic-cycle attribution and the optimization level picked
    for each task function. *)
type task_stat = {
  ts_fn : string;  (** Lir task function name *)
  ts_cycles : float;
  ts_share : float;
  ts_level : Spnc_cpu.Optimizer.level;
}

type per_task = {
  pt_stats : task_stat list;  (** hottest first *)
  pt_refined : bool;  (** some hot task got a level above the base *)
  pt_wall_seconds : float option;
      (** single-threaded wall of the refined artifact (report-only) *)
  pt_identical : bool option;  (** refined outputs vs the reference *)
}

(** Search budget: [measure] is the number of top-ranked candidates that
    get wall-clock validation (the reference is always measured on top of
    these); [reps] is best-of repetitions per measurement. *)
type budget = { measure : int; reps : int }

val default_budget : budget
(** [{ measure = 5; reps = 3 }]. *)

type result = {
  model_digest : string;  (** MD5 of the model's canonical serialization *)
  space_size : int;  (** full lattice size before profile pruning *)
  searched : int;  (** candidates compiled + cost-model scored *)
  budget : budget;
  feedback : feedback option;  (** [None] when profiling was disabled *)
  candidates : candidate list;  (** ranked by cost model, best first *)
  reference : candidate;
      (** the caller's configuration — measured whenever a search runs *)
  best : candidate;  (** best-ranked candidate that validated bit-identical *)
  per_task : per_task option;
  from_cache : bool;  (** served from the tuned-config cache, no search ran *)
}

val enumerate :
  ?dropped:knob list ->
  stats:Spnc_spn.Stats.t ->
  Options.t ->
  Options.t list
(** The configuration lattice around a base option set, deduplicated by
    compile key ({!Options.compile_of} fixes the vectorization-only knobs
    of scalar points, so they do not multiply).  [dropped]
    dimensions collapse to the base value.  Partition buckets are derived
    from the model's operation count; vector points exist only when the
    machine has SIMD lanes. *)

val tune :
  ?budget:budget ->
  ?use_profile:bool ->
  ?profile_rows:int ->
  ?est_rows:int ->
  options:Options.t ->
  data:float array array ->
  Spnc_spn.Model.t ->
  result
(** Run the explorer.  [data] is the sample set used for wall-clock
    validation (and, first [profile_rows] of it, the stage-2 profile);
    [est_rows] (default 8192) is the sample count the cost model prices —
    the steady-state regime, so fixed overheads amortize as in the
    paper's figures.  With [options.kernel_cache_dir] set, the winner is
    stored in the tuned-config cache, and a later tune of the same model
    is a hit: no search, [from_cache = true].
    @raise Invalid_argument on a GPU-target option set (the DSE is the
    paper's CPU experiment) or empty [data]. *)

val refine_per_task :
  base_level:Spnc_cpu.Optimizer.level ->
  profile:Spnc_cpu.Profile.t ->
  Spnc.Compiler.compiled ->
  float array array ->
  per_task option
(** Stage-2 per-task refinement, exposed for tests: attribute the
    profile's dynamic cycles to the artifact's task functions (via
    register provenance), re-optimize the hot ones (≥ 10% cycle share)
    at [-O3] when [base_level] is lower, and validate the refined
    module's raw outputs bit-identical against the unrefined artifact at
    a single thread.  [None] for GPU or unpartitioned (single-function)
    artifacts. *)

val spearman : result -> float option
(** Spearman rank correlation between the cost-model ranking and the
    measured wall-clock ordering over the validated candidates; [None]
    with fewer than three measurements.  The CI sanity bound asserts this
    stays non-negative — the model must not be anti-correlated with
    reality. *)

(** Per-dimension diagnosis of a bad global {!spearman}: for each lattice
    knob, the tie-aware rank correlation of the knob's ordinal against
    the cost-model estimate ([dc_rho_est]) and against the measured wall
    clock ([dc_rho_wall]) over the validated candidates.  A dimension is
    {e inverted} when the two correlations are clearly opposite in sign
    (both past a 0.25 noise floor): the cost model prices that knob in
    the wrong direction, which is actionable — unlike the bare global
    coefficient. *)
type dimension_corr = {
  dc_knob : knob;
  dc_rho_est : float option;  (** [None]: knob constant among measured *)
  dc_rho_wall : float option;
  dc_inverted : bool;
}

val spearman_by_dimension : result -> dimension_corr list
(** One entry per lattice dimension, in {!knob} order.  Uses fractional
    (tie-averaged) ranks, since knob ordinals are massively tied. *)

val inverted_dimensions : result -> string list
(** Names of the inverted dimensions, for report strings. *)

val result_to_json : result -> Spnc_obs.Json.t
(** The full DSE report (the [DSE_cpu.json] bench artifact): lattice,
    ranking, measurements, profile feedback, per-task refinement and the
    winner's compile key as [best_config] ({!Options.compile_to_json}). *)

val load_cached :
  options:Options.t -> Spnc_spn.Model.t -> Options.compile option
(** Look up this model's tuned compile key, for a tune whose base
    options have [options]' compile key, in the tuned-config cache
    ([<options.kernel_cache_dir>/tuned], a {!Spnc.Kcache} bounded by
    [options.kernel_cache_mb]) without running a search.  An entry that
    is corrupt or does not decode is quarantined and misses. *)

val pp_result : Format.formatter -> result -> unit
(** Human-readable report: ranked table, profile feedback, per-task
    shares, winner vs reference. *)
