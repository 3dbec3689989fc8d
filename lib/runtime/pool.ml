(** Persistent worker pool with a work-stealing deque scheduler
    (docs/PERFORMANCE.md §4).

    The pre-streaming runtime re-spawned its worker domains on every
    [Exec.execute] call; at serving rates ("heavy traffic from millions
    of users", ROADMAP.md) the spawn/join cost dominates short batches.
    A pool is created {e once} — per compiled kernel, or shared
    per-process via {!global} — and its domains park on a condition
    variable between execution rounds.

    Scheduling: every round distributes its task indices into contiguous
    blocks, one per participating worker, each block in the worker's own
    deque.  Under {!Static} a worker only drains its own deque (the
    classic static partition).  Under {!Stealing} a worker that runs dry
    sweeps the other deques and steals from their top — the owner pops
    from the bottom, so thief and owner only collide on the last item,
    and a pathologically expensive chunk no longer stalls the whole
    batch behind one domain.

    Round protocol: the caller takes [run_lock] (rounds are serialized —
    the pool may be shared by several kernels and several calling
    domains), installs the job, fills the deques, bumps the round
    counter under [lock] and broadcasts.  It then participates as
    worker 0 and finally blocks until the completion count reaches the
    task count — a worker that is still {e executing} a task when every
    deque is empty is waited for, never abandoned.  Tasks are integers;
    all task state lives in the caller's closure.

    Straggler isolation: deques are stamped with the round they were
    filled for and task claims check the stamp, so a worker that was
    signalled for round R but descheduled until after R completed (and
    R+1 was installed) claims nothing from R+1's deques under its stale
    worker id — it re-reads the round under the lock and joins R+1
    properly (or sits it out if R+1 uses fewer workers).  Without the
    stamp such a straggler could steal an R+1 task whose job closure
    rejects the stale worker id, and the swallowed raise would count
    the task complete without computing it.

    The job callback must not raise: {!Exec} runs every chunk under its
    own exception barrier and records failures on the side.  A raise
    that slips through is swallowed (the task still counts as complete)
    so a buggy kernel can never wedge or kill a pool domain. *)

module Fault = Spnc_resilience.Fault

type sched = Static | Stealing

let sched_to_string = function Static -> "static" | Stealing -> "stealing"

let sched_of_string = function
  | "static" -> Some Static
  | "stealing" -> Some Stealing
  | _ -> None

(* A per-worker deque over task indices.  The buffer is (re)filled by the
   caller before each round; [top] is the steal end, [bot] the owner end.
   A plain mutex per deque: contention is at chunk granularity (hundreds
   of microseconds of kernel work per item), so a lock-free Chase-Lev
   structure would buy nothing here. *)
type deque = {
  dq_lock : Mutex.t;
  mutable dq_round : int;  (** round this buffer was filled for *)
  mutable buf : int array;
  mutable top : int;  (** next index a thief would take *)
  mutable bot : int;  (** one past the last index the owner would take *)
}

type t = {
  size : int;  (** worker slots, including the calling domain (slot 0) *)
  lock : Mutex.t;  (** guards [round], [closing] and both conditions *)
  work_ready : Condition.t;
  round_done : Condition.t;
  run_lock : Mutex.t;  (** serializes rounds across calling domains *)
  mutable round : int;
  mutable closing : bool;
  mutable workers_in_round : int;
  mutable stealing : bool;
  mutable job : worker:int -> int -> unit;
  mutable stop : unit -> bool;
  deques : deque array;
  remaining : int Atomic.t;  (** tasks of the current round not yet done *)
  steals : int Atomic.t;
  mutable domains : unit Domain.t list;
}

(* Process-wide observability: how many domains pool creation has ever
   spawned.  The pool-reuse tests assert this does not move between
   executes.  The local atomics stay authoritative (they are per-process
   / per-pool and resettable independently of the metrics registry); the
   Obs counters mirror them so `--metrics` snapshots carry the same
   numbers. *)
let spawn_counter = Atomic.make 0
let total_domains_spawned () = Atomic.get spawn_counter
let obs_spawns = Spnc_obs.Metrics.counter "runtime.pool.spawns"
let obs_steals = Spnc_obs.Metrics.counter "runtime.pool.steals"
let obs_rounds = Spnc_obs.Metrics.counter "runtime.pool.rounds"

(* Per-worker-slot busy time (seconds inside [do_round]), memoized so the
   per-round cost is one array read, not a registry lookup.  A racing
   first-fill writes the same interned gauge twice — benign. *)
let max_busy_slots = 257

let busy_gauges : Spnc_obs.Metrics.gauge option array =
  Array.make max_busy_slots None

let busy_gauge w =
  let i = min w (max_busy_slots - 1) in
  match busy_gauges.(i) with
  | Some g -> g
  | None ->
      let g =
        Spnc_obs.Metrics.gauge
          (Printf.sprintf "runtime.pool.worker%d.busy_seconds" i)
      in
      busy_gauges.(i) <- Some g;
      g

let size t = t.size
let steal_count t = Atomic.get t.steals

(* Task claims are round-guarded: a worker that was signalled for round
   [r] but got descheduled before claiming anything can resume after its
   round already completed and a NEWER round (possibly with a different
   job, task set and worker count) has been installed in the same
   deques.  Without the [dq_round] check such a straggler would claim
   the new round's tasks under its stale worker id — and since the job
   callback's raises are deliberately swallowed by {!exec_task}, an
   out-of-range worker id silently counts a task as complete without
   running it.  With the check the straggler's claims all return [None]
   and it falls back to [worker_main]'s loop, which re-reads the round
   under the lock before re-entering. *)
let take_own (d : deque) ~round : int option =
  Mutex.lock d.dq_lock;
  let r =
    if d.dq_round = round && d.bot > d.top then begin
      d.bot <- d.bot - 1;
      Some d.buf.(d.bot)
    end
    else None
  in
  Mutex.unlock d.dq_lock;
  r

let steal_top (d : deque) ~round : int option =
  Mutex.lock d.dq_lock;
  let r =
    if d.dq_round = round && d.top < d.bot then begin
      let i = d.buf.(d.top) in
      d.top <- d.top + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.dq_lock;
  r

(* Execute one claimed task: skip the body if the round was cancelled,
   then count it as complete either way.  The completion count — not
   deque emptiness — is what the caller blocks on, so an in-flight task
   is always waited for. *)
let exec_task t w i =
  (try if not (t.stop ()) then t.job ~worker:w i with _ -> ());
  if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.round_done;
    Mutex.unlock t.lock
  end

(* Drain work for one round: own deque first, then (stealing only) a
   sweep over the other participants.  Deques are never refilled during
   a round, so a sweep that finds everything empty is a sound exit. *)
let do_round t w ~round =
  (* chaos: a stall here models a worker descheduled between being
     signalled for a round and actually claiming work — the straggler
     scenario the round-stamped deques exist for *)
  Fault.maybe_stall "pool.round_stall" ~seconds:0.002;
  let t_start = Unix.gettimeofday () in
  let n = t.workers_in_round in
  let own = t.deques.(w) in
  let continue_ = ref true in
  while !continue_ do
    match take_own own ~round with
    | Some i -> exec_task t w i
    | None ->
        if not t.stealing then continue_ := false
        else begin
          let found = ref false in
          let v = ref ((w + 1) mod n) in
          let tries = ref 0 in
          while (not !found) && !tries < n - 1 do
            (if !v <> w then
               match steal_top t.deques.(!v) ~round with
               | Some i ->
                   found := true;
                   Atomic.incr t.steals;
                   Spnc_obs.Metrics.counter_incr obs_steals;
                   exec_task t w i
               | None -> ());
            v := (!v + 1) mod n;
            incr tries
          done;
          if not !found then continue_ := false
        end
  done;
  (* busy = time from round entry to running dry; at chunk granularity the
     mutex waits inside are negligible, so this is effectively kernel time *)
  Spnc_obs.Metrics.gauge_add (busy_gauge w) (Unix.gettimeofday () -. t_start)

let worker_main t w =
  let seen = ref 0 in
  let alive = ref true in
  while !alive do
    Mutex.lock t.lock;
    while (not t.closing) && t.round = !seen do
      Condition.wait t.work_ready t.lock
    done;
    if t.closing then begin
      alive := false;
      Mutex.unlock t.lock
    end
    else begin
      seen := t.round;
      Mutex.unlock t.lock;
      if w < t.workers_in_round then do_round t w ~round:!seen
    end
  done

let create ~size =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  let t =
    {
      size;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      round_done = Condition.create ();
      run_lock = Mutex.create ();
      round = 0;
      closing = false;
      workers_in_round = 0;
      stealing = false;
      job = (fun ~worker:_ _ -> ());
      stop = (fun () -> false);
      deques =
        Array.init size (fun _ ->
            {
              dq_lock = Mutex.create ();
              dq_round = 0;
              buf = [||];
              top = 0;
              bot = 0;
            });
      remaining = Atomic.make 0;
      steals = Atomic.make 0;
      domains = [];
    }
  in
  t.domains <-
    List.init (size - 1) (fun k ->
        Atomic.incr spawn_counter;
        Spnc_obs.Metrics.counter_incr obs_spawns;
        Domain.spawn (fun () -> worker_main t (k + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.closing <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let run t ?(sched = Stealing) ?workers ?(stop = fun () -> false) ~num_tasks
    (f : worker:int -> int -> unit) : unit =
  if num_tasks < 0 then invalid_arg "Pool.run: negative num_tasks";
  if num_tasks = 0 then ()
  else begin
    Mutex.lock t.run_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.run_lock)
      (fun () ->
        if t.closing then invalid_arg "Pool.run: pool is shut down";
        let n =
          match workers with
          | None -> t.size
          | Some w -> max 1 (min w t.size)
        in
        t.job <- f;
        t.stop <- stop;
        t.stealing <- sched = Stealing;
        t.workers_in_round <- n;
        Atomic.set t.remaining num_tasks;
        (* only [run] (serialized by [run_lock]) ever writes [t.round],
           so reading it outside [t.lock] here is race-free *)
        let round = t.round + 1 in
        (* contiguous block distribution: worker w owns tasks
           [w*num_tasks/n, (w+1)*num_tasks/n) in its own deque; under
           Stealing the blocks are merely the initial assignment *)
        for w = 0 to t.size - 1 do
          let d = t.deques.(w) in
          Mutex.lock d.dq_lock;
          d.dq_round <- round;
          if w < n then begin
            let lo = w * num_tasks / n and hi = (w + 1) * num_tasks / n in
            let len = hi - lo in
            if Array.length d.buf < len then d.buf <- Array.make len 0;
            for i = 0 to len - 1 do
              d.buf.(i) <- lo + i
            done;
            d.top <- 0;
            d.bot <- len
          end
          else begin
            d.top <- 0;
            d.bot <- 0
          end;
          Mutex.unlock d.dq_lock
        done;
        Spnc_obs.Metrics.counter_incr obs_rounds;
        Mutex.lock t.lock;
        t.round <- round;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.lock;
        (* the calling domain is worker 0 *)
        do_round t 0 ~round;
        Mutex.lock t.lock;
        while Atomic.get t.remaining > 0 do
          Condition.wait t.round_done t.lock
        done;
        Mutex.unlock t.lock)
  end

(* -- Shared per-process pool --------------------------------------------------- *)

let global_lock = Mutex.create ()
let global_pool : t option ref = ref None

let global ~threads =
  let threads = max 1 threads in
  Mutex.lock global_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock global_lock)
    (fun () ->
      match !global_pool with
      | Some p when p.size >= threads && not p.closing -> p
      | prev ->
          Option.iter shutdown prev;
          let p = create ~size:threads in
          global_pool := Some p;
          p)
