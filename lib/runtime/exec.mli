(** Runtime component (paper §IV-B): loads a compiled kernel and executes
    it over input data, multi-threaded.

    The generated kernel is single-threaded; the runtime splits the input
    into chunks and processes them on a persistent {!Pool} of OCaml 5
    domains.  The batch size is an optimization hint and an upper bound
    on the chunk size; in parallel runs {!chunk_plan} targets ~4 chunks
    per worker.  A vectorized kernel has no scalar epilogue, so it only
    ever sees whole multiples of its SIMD width in rows: a segment's
    last, partial chunk runs once, padded in per-worker scratch with
    copies of its last real row, and only the real rows' results are
    copied back.  Run directly ({!Spnc_cpu.Vm.run}, {!Spnc_cpu.Jit.run})
    on a partial group, such a kernel traps at its first input read.

    Streaming execution (docs/PERFORMANCE.md §4): the worker pool and the
    per-worker contexts (JIT register frames + scratch) are created once
    per loaded kernel — or shared, via [?pool] — and reused across every
    [execute] call; nothing is spawned per call.  Chunks are zero-copy:
    kernels receive {!Spnc_cpu.Vm.view}s into the shared flat input (and,
    for single-slot kernels, into the shared output); only a padded
    chunk is copied.

    Fault tolerance: a kernel trap inside one chunk cancels the remaining
    chunks, the round is drained, and exactly one {!Chunk_error} surfaces
    (docs/RESILIENCE.md). *)

type t

(** [load ?batch_size ?threads ?engine ?jit ?pool ~out_cols kernel]
    prepares a kernel whose output buffer has [out_cols] slots per
    sample (slot 0 is the query result).  The SIMD width is the kernel's
    own: the largest [vec_width] of its functions.

    [threads] is resolved by {!normalize_threads}.  [engine] picks the
    execution engine (default {!Spnc_cpu.Jit.Jit}, the closure
    compiler); pass [?jit] to reuse an already-compiled
    {!Spnc_cpu.Jit.kernel} (e.g. the one a compiled artifact holds).
    When [threads > 1] the kernel either uses the caller-provided [?pool]
    (shared; never shut down by {!shutdown}) or creates its own (torn
    down by {!shutdown}).

    [?profile] enables per-SPN-node instruction profiling
    (docs/OBSERVABILITY.md): the VM engine switches to
    {!Spnc_cpu.Vm.run_profiled}, and a self-compiled JIT bakes the
    counters into its closures.  When passing a pre-compiled [?jit]
    alongside [?profile], compile it with the same profile —
    [Jit.compile ~profile] — or the JIT path will not count.
    @raise Invalid_argument on non-positive [batch_size]. *)
val load :
  ?batch_size:int ->
  ?threads:int ->
  ?engine:Spnc_cpu.Jit.engine ->
  ?jit:Spnc_cpu.Jit.kernel ->
  ?profile:Spnc_cpu.Profile.t ->
  ?pool:Pool.t ->
  out_cols:int ->
  Spnc_cpu.Lir.modul ->
  t

val threads : t -> int
(** Effective worker count after auto-resolution and clamping. *)

val shutdown : t -> unit
(** Tear down the worker pool iff this [t] created it ([?pool] was not
    passed).  Safe to call on single-threaded or pool-sharing kernels
    (no-op). *)

val chunk_plan : rows:int -> threads:int -> batch_size:int -> width:int -> int
(** The adaptive chunk size used by [execute]: [batch_size] when
    single-threaded, otherwise [min batch_size (ceil (rows / (threads * 4)))]
    — ~4 chunks per worker, so a slow chunk is absorbed by the others —
    rounded down to a multiple of the SIMD [width] and floored at it
    ([width] is clamped to at least 1).  Only a segment's last chunk can
    then be partial.
    Pure; exposed for tests. *)

val normalize_threads : int -> int
(** The one thread-count rule: [n <= 0] means auto
    ([Domain.recommended_domain_count ()], clamped to [1..64]); positive
    values are clamped to 256. *)

type chunk_error = {
  chunk_lo : int;  (** first sample index of the failing chunk *)
  chunk_hi : int;  (** one past the last sample index *)
  message : string;  (** text of the captured exception *)
  backtrace : string;  (** backtrace captured inside the worker *)
  transient : bool;
      (** the failure was a {!Spnc_resilience.Fault.Transient} — a retry
          may succeed; [execute ~retries] retries exactly these *)
}

(** The single failure surfaced when a kernel fails inside a chunk. *)
exception Chunk_error of chunk_error

type deadline_info = {
  deadline : float;  (** the absolute deadline, epoch seconds *)
  now : float;  (** when the overrun was detected *)
}

(** Structured timeout: the call's wall-clock budget expired.  In-flight
    parallel rounds observe the deadline through the pool's stop poll
    (cancellation latency is one chunk); partial outputs are discarded. *)
exception Deadline_exceeded of deadline_info

val backoff_seconds : int -> float
(** Backoff before retry [attempt] (1-based): capped exponential,
    [min 50ms (1ms * 2^(attempt-1))].  Pure; exposed for tests. *)

(** [execute ?deadline ?retries t ~flat ~rows ~num_features] evaluates
    all samples (row-major flat input); one result per sample.  Calls on
    one [t] are serialized (per-worker contexts are reused across calls).

    [deadline] is an {e absolute} wall-clock instant (epoch seconds, as
    from [Unix.gettimeofday]); when it expires the round is cancelled
    and {!Deadline_exceeded} raised — the successful-call margin to the
    deadline is recorded in the [runtime.exec.deadline_margin_seconds]
    histogram.  [retries] (default 0) re-runs the round under capped
    exponential backoff ({!backoff_seconds}) when the captured failure
    is {e transient}; retries never extend past the deadline.
    @raise Invalid_argument on malformed dimensions or a size mismatch.
    @raise Chunk_error when the kernel fails inside a chunk; the round is
    drained first.
    @raise Deadline_exceeded when the budget expires. *)
val execute :
  ?deadline:float ->
  ?retries:int ->
  t ->
  flat:float array ->
  rows:int ->
  num_features:int ->
  float array

(** [execute_rows t rows] — convenience over row-major samples.
    @raise Invalid_argument when the rows are ragged (unequal widths). *)
val execute_rows :
  ?deadline:float -> ?retries:int -> t -> float array array -> float array

(** One caller's slice of a coalesced batch: [seg_rows] row-major samples
    in [seg_flat]; results are written into
    [seg_out.(seg_out_pos .. seg_out_pos + seg_rows - 1)]. *)
type segment = {
  seg_flat : float array;
  seg_rows : int;
  seg_out : float array;  (** caller-owned output buffer *)
  seg_out_pos : int;  (** write offset within [seg_out] *)
}

(** [execute_segments t ~num_features segs] — the batch-of-segments entry
    point behind the {!Spnc_serve} dynamic batcher: evaluates every
    segment's rows in one runtime call (one chunk plan, one parallel
    round over the shared pool) while each segment's results are written
    {e directly} into that segment's own output window — the scatter back
    to callers is the kernel write itself, zero-copy, no gather-then-blit.
    Chunks never straddle a segment boundary.  Per-row results are
    bit-identical to [execute]-ing each segment separately (rows are
    independent), which the serve tests and bench assert.

    Deadline/retry semantics are those of {!execute}, applied to the
    whole batch; {!chunk_error} bounds are global row indices across the
    batch (segment order, in array order).  Zero-row segments are
    skipped; segments may alias one output array as long as their
    windows are disjoint.
    @raise Invalid_argument on a dimension mismatch in any segment or an
    output window exceeding its buffer. *)
val execute_segments :
  ?deadline:float ->
  ?retries:int ->
  t ->
  num_features:int ->
  segment array ->
  unit
