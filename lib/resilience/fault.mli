(** Deterministic, seed-driven fault injection (the chaos layer;
    docs/RESILIENCE.md).

    Production code declares {e injection points} — named places where
    adversity can be introduced: kernel-cache I/O (short read, torn
    write, bit flip, ENOSPC, lock contention), pool workers (chunk
    failure, slow-chunk stall, round-entry stall), JIT compilation, the
    GPU backend, and [spnc_serve]'s dispatch ([serve.batch_stall], a
    slow batch).
    When the registry is {e disarmed} (the default) every point costs a
    single atomic load and injects nothing; when {e armed} with a seed
    and a rate, each point fires according to a decision that is a pure
    function of [(seed, point name, occurrence index)] — replaying the
    same schedule against the same workload reproduces the same faults,
    which is what lets [spnc_fuzz --chaos] shrink and CI replay chaos
    failures.

    Note on concurrency: occurrence indices are taken from a per-point
    atomic counter, so under multiple domains {e which} worker draws a
    given occurrence is scheduling-dependent, but the fired/not-fired
    decision {e sequence} per point is deterministic. *)

exception Transient of string
(** An injected (or injected-equivalent) transient fault: the operation
    may succeed if retried.  The runtime's capped-exponential-backoff
    retry loop ({!Spnc_runtime.Exec}) retries exactly these. *)

val is_transient : exn -> bool
(** [true] exactly for {!Transient}. *)

type schedule = {
  seed : int;  (** decision-stream seed *)
  rate : float;  (** per-occurrence firing probability, clamped to [0,1] *)
  points : string list option;
      (** [None] arms every point; [Some ps] restricts firing to the
          named points (prefix match: ["kcache."] arms the family) *)
}

val arm : ?points:string list -> seed:int -> rate:float -> unit -> unit
(** Install a schedule.  Re-arming resets nothing: occurrence counters
    keep advancing, so two [arm]s with the same seed mid-process do not
    replay the same decisions — use {!reset_for_tests} for that. *)

val disarm : unit -> unit
(** Back to zero-cost pass-through. *)

val armed : unit -> schedule option

val arm_from_env : unit -> unit
(** Arm from the [SPNC_CHAOS] environment variable
    ("seed=S,rate=R[,points=a;b;c]"), used by the CI chaos canaries to
    inject faults into unmodified binaries.  Malformed values are
    ignored (never crash the host process over a bad env var). *)

val fire : string -> bool
(** [fire point] — should this occurrence of [point] inject?  Always
    [false] when disarmed.  Registers the point on first use and counts
    both occurrences and firings (mirrored as
    [fault.<point>.fired] in the Obs metrics registry). *)

val maybe_transient : string -> unit
(** Raise {!Transient} at [point] if {!fire} says so. *)

val maybe_stall : string -> seconds:float -> unit
(** Sleep [seconds] at [point] if {!fire} says so (slow-chunk stalls,
    lock contention). *)

val occurrence_count : string -> int
(** How many times [point] was consulted (armed or not, since the last
    {!reset_for_tests}). *)

val fired_count : string -> int
(** How many times [point] actually injected. *)

val points : unit -> string list
(** Every point consulted so far, sorted. *)

val decide : seed:int -> point:string -> occurrence:int -> float
(** The raw decision stream: a deterministic uniform draw in [0,1) for
    the given coordinates.  [fire] fires iff [decide < rate].  Exposed
    so tests can assert schedule determinism without arming. *)

val reset_for_tests : unit -> unit
(** Disarm and zero every occurrence/fired counter so a test can replay
    a schedule from occurrence 0. *)
