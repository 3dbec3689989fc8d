(** Persistent worker pool with a work-stealing deque scheduler.

    Created once (per compiled kernel, or per process via {!global}),
    the pool keeps its domains parked between execution rounds instead
    of re-spawning them per call.  See docs/PERFORMANCE.md §4. *)

type sched =
  | Static  (** contiguous block per worker, no rebalancing *)
  | Stealing
      (** same initial blocks; idle workers steal from the top of other
          workers' deques *)

val sched_to_string : sched -> string
val sched_of_string : string -> sched option

type t

val create : size:int -> t
(** [create ~size] spawns [size - 1] worker domains; the calling domain
    fills worker slot 0 during {!run}.  Raises [Invalid_argument] if
    [size <= 0]. *)

val run :
  t ->
  ?sched:sched ->
  ?workers:int ->
  ?stop:(unit -> bool) ->
  num_tasks:int ->
  (worker:int -> int -> unit) ->
  unit
(** [run t ~num_tasks f] executes [f ~worker i] for every
    [i in 0..num_tasks-1] across the pool and returns when all tasks
    have completed.  [worker] is the executing worker slot in
    [0..size-1] (stable per task, usable as an index into per-worker
    state).  [?workers] restricts the round to the first [workers]
    slots (clamped to [1..size]): [f] is only ever called with
    [worker < workers], even when a worker descheduled during an
    earlier round with more participants wakes up mid-round (task
    claims are round-stamped, so such a straggler claims nothing).  [?stop] is polled before each task
    body; once it returns [true], remaining tasks are skipped (they
    still count as completed).  [f] should not raise — an escaping
    exception is swallowed, not propagated.  Rounds are serialized, so
    one pool may be shared by many kernels and calling domains;
    [sched] defaults to [Stealing]. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Subsequent {!run} calls
    raise [Invalid_argument].  Idempotent. *)

val size : t -> int
(** Worker slots, including the caller's slot 0. *)

val steal_count : t -> int
(** Total successful steals over the pool's lifetime. *)

val total_domains_spawned : unit -> int
(** Process-wide count of domains ever spawned by pool creation — lets
    tests assert that repeated executes do not re-spawn. *)

val global : threads:int -> t
(** Process-wide shared pool of at least [threads] slots.  Reuses the
    existing pool when large enough, otherwise shuts it down and
    creates a bigger one.  Never shut this pool down from user code. *)
