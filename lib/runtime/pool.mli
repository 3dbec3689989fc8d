(** Persistent worker pool: one shared claim counter per round.

    Created once (per compiled kernel, or per process via {!global}),
    the pool keeps its domains parked between execution rounds instead
    of re-spawning them per call.  See docs/PERFORMANCE.md §4. *)

type t

val create : size:int -> t
(** [create ~size] spawns [size - 1] worker domains; the calling domain
    fills worker slot 0 during {!run}.  Raises [Invalid_argument] if
    [size <= 0]. *)

val run :
  t ->
  ?workers:int ->
  ?stop:(unit -> bool) ->
  num_tasks:int ->
  (worker:int -> int -> unit) ->
  unit
(** [run t ~num_tasks f] executes [f ~worker i] for every
    [i in 0..num_tasks-1] across the pool and returns when all tasks
    have completed.  [worker] is the executing worker slot in
    [0..size-1] (usable as an index into per-worker state).
    [?workers] restricts the round to the first [workers] slots
    (clamped to [1..size]): [f] is only ever called with
    [worker < workers], even when a worker descheduled during an
    earlier round with more participants wakes up mid-round (it still
    holds that earlier round, whose tasks are all claimed).  [?stop] is
    polled before each task body; once it returns [true], remaining
    tasks are skipped (they still count as completed).  [f] should not
    raise — an escaping exception is swallowed, not propagated.  Rounds
    are serialized, so one pool may be shared by many kernels and
    calling domains. *)

val shutdown : t -> unit
(** Wait for the round in flight, if any, then terminate and join the
    worker domains.  Subsequent {!run} calls raise [Invalid_argument].
    Idempotent. *)

val size : t -> int
(** Worker slots, including the caller's slot 0. *)

val total_domains_spawned : unit -> int
(** Process-wide count of domains ever spawned by pools — lets tests
    assert that repeated executes do not re-spawn. *)

val global : threads:int -> t
(** Process-wide shared pool of at least [threads] slots.  Asked for
    more slots than it has, the pool grows in place between rounds: it
    spawns only the missing workers, and every handle already loaded on
    it keeps working.  It never shrinks.  Shutting it down retires its
    domains (the fuzz harness does so between cases, when no handle on
    it is left); it is then shut down for every holder, and the next
    [global] call creates a fresh pool. *)
