(** Persistent worker pool with one shared claim counter per round
    (docs/PERFORMANCE.md §4).

    The pre-streaming runtime re-spawned its worker domains on every
    [Exec.execute] call; at serving rates the spawn/join cost dominates
    short batches.  A pool is created {e once} — per compiled kernel, or
    shared per-process via {!global} — and its domains park on a
    condition variable between execution rounds.

    Scheduling: a round is one record whose atomic [next] counter hands
    out task indices; every participating worker claims
    [fetch_and_add next 1] until the counter passes [num_tasks].  Tasks
    are independent and never spawn tasks, so this one counter is the
    whole load balancer: a worker that drew a slow task simply claims
    fewer, and no task waits behind a busy domain.

    Round protocol: the caller takes [run_lock] (rounds are serialized —
    the pool may be shared by several kernels and several calling
    domains), installs a fresh round record and bumps the round sequence
    number under [lock], and broadcasts.  It then participates as worker
    0 and finally blocks until the record's [remaining] count reaches
    zero — a worker that is still {e executing} a task when the counter
    runs out is waited for, never abandoned.  Tasks are integers; all
    task state lives in the caller's closure.

    Straggler isolation holds by construction: a woken worker reads the
    current record under the lock and from then on touches only that
    record.  A worker signalled for round R but descheduled until after
    R completed still holds R's record, whose counter is already past
    its task count, so it claims nothing from R+1; it then re-reads the
    round under the lock and joins R+1 properly (or sits it out if R+1
    uses fewer workers).

    Growth: {!global} grows the shared pool in place between rounds
    (under [run_lock]), spawning only the missing workers.  A new worker
    starts at the current round number, so it never joins a round sized
    before it.

    The job callback must not raise: {!Exec} runs every chunk under its
    own exception barrier and records failures on the side.  A raise
    that slips through is swallowed (the task still counts as complete)
    so a buggy kernel can never wedge or kill a pool domain. *)

module Fault = Spnc_resilience.Fault

type round = {
  job : worker:int -> int -> unit;
  stop : unit -> bool;
  num_tasks : int;
  workers : int;  (** slots [0..workers-1] take part; the rest sit out *)
  next : int Atomic.t;  (** the next unclaimed task index *)
  remaining : int Atomic.t;  (** tasks not yet done *)
}

type t = {
  lock : Mutex.t;  (** guards [seq], [current], [closing] and both conditions *)
  work_ready : Condition.t;
  round_done : Condition.t;
  run_lock : Mutex.t;  (** serializes rounds, growth and shutdown *)
  mutable size : int;  (** worker slots, including the calling domain (slot 0) *)
  mutable seq : int;  (** rounds installed so far *)
  mutable current : round;
  mutable closing : bool;
  mutable domains : unit Domain.t list;
}

(* Process-wide observability: how many domains pools have ever spawned.
   The pool-reuse tests assert this does not move between executes; the
   Obs counter mirrors it so `--metrics` snapshots carry the same
   number. *)
let spawn_counter = Atomic.make 0
let total_domains_spawned () = Atomic.get spawn_counter
let obs_spawns = Spnc_obs.Metrics.counter "runtime.pool.spawns"
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

(* Claim tasks from round [r] until its counter runs out.  A task whose
   round was cancelled skips its body but still counts as complete: the
   completion count, not the counter, is what the caller blocks on. *)
let do_round t (r : round) w =
  (* chaos: a stall here models a worker descheduled between being
     signalled for a round and actually claiming work — the straggler
     that the per-round record isolates *)
  Fault.maybe_stall "pool.round_stall" ~seconds:0.002;
  let t_start = Unix.gettimeofday () in
  let rec claim () =
    let i = Atomic.fetch_and_add r.next 1 in
    if i < r.num_tasks then begin
      (try if not (r.stop ()) then r.job ~worker:w i with _ -> ());
      if Atomic.fetch_and_add r.remaining (-1) = 1 then
        Mutex.protect t.lock (fun () -> Condition.broadcast t.round_done);
      claim ()
    end
  in
  claim ();
  (* busy = time from round entry to running dry: effectively kernel
     time, since a claim is one atomic add *)
  Spnc_obs.Metrics.gauge_add (busy_gauge w) (Unix.gettimeofday () -. t_start)

(* [seen] is the round sequence number at spawn time: a worker never
   joins a round installed before it existed. *)
let worker_main t w ~seen =
  let seen = ref seen in
  let alive = ref true in
  while !alive do
    Mutex.lock t.lock;
    while (not t.closing) && t.seq = !seen do
      Condition.wait t.work_ready t.lock
    done;
    if t.closing then begin
      alive := false;
      Mutex.unlock t.lock
    end
    else begin
      seen := t.seq;
      let r = t.current in
      Mutex.unlock t.lock;
      if w < r.workers then do_round t r w
    end
  done

let idle =
  {
    job = (fun ~worker:_ _ -> ());
    stop = (fun () -> false);
    num_tasks = 0;
    workers = 0;
    next = Atomic.make 0;
    remaining = Atomic.make 0;
  }

(* Spawn workers for slots [t.size .. size-1].  Callers hold [run_lock]
   (or own [t] exclusively), so no round is in flight and [t.seq] is
   stable. *)
let add_workers t ~size =
  let first = t.size and seen = t.seq in
  let added =
    List.init (size - first) (fun k ->
        Atomic.incr spawn_counter;
        Spnc_obs.Metrics.counter_incr obs_spawns;
        Domain.spawn (fun () -> worker_main t (first + k) ~seen))
  in
  t.domains <- added @ t.domains;
  t.size <- size

let create ~size =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  let t =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      round_done = Condition.create ();
      run_lock = Mutex.create ();
      size = 1;
      seq = 0;
      current = idle;
      closing = false;
      domains = [];
    }
  in
  add_workers t ~size;
  t

(* [t.size] only grows, so the unlocked first check at worst takes the
   lock for nothing; a pool already large enough never waits for the
   round in flight. *)
let grow t ~size =
  if size > t.size then
    Mutex.protect t.run_lock (fun () ->
        if t.closing then invalid_arg "Pool.grow: pool is shut down";
        if size > t.size then add_workers t ~size)

let shutdown t =
  Mutex.protect t.run_lock (fun () ->
      Mutex.protect t.lock (fun () ->
          t.closing <- true;
          Condition.broadcast t.work_ready);
      List.iter Domain.join t.domains;
      t.domains <- [])

let run t ?workers ?(stop = fun () -> false) ~num_tasks
    (job : worker:int -> int -> unit) : unit =
  if num_tasks < 0 then invalid_arg "Pool.run: negative num_tasks";
  if num_tasks > 0 then
    Mutex.protect t.run_lock (fun () ->
        if t.closing then invalid_arg "Pool.run: pool is shut down";
        let workers =
          match workers with None -> t.size | Some w -> max 1 (min w t.size)
        in
        let r =
          {
            job;
            stop;
            num_tasks;
            workers;
            next = Atomic.make 0;
            remaining = Atomic.make num_tasks;
          }
        in
        Spnc_obs.Metrics.counter_incr obs_rounds;
        Mutex.protect t.lock (fun () ->
            t.current <- r;
            t.seq <- t.seq + 1;
            Condition.broadcast t.work_ready);
        (* the calling domain is worker 0 *)
        do_round t r 0;
        Mutex.protect t.lock (fun () ->
            while Atomic.get r.remaining > 0 do
              Condition.wait t.round_done t.lock
            done))

(* -- Shared per-process pool --------------------------------------------------- *)

let global_lock = Mutex.create ()
let global_pool : t option ref = ref None

let global ~threads =
  let threads = max 1 threads in
  Mutex.protect global_lock (fun () ->
      match !global_pool with
      | Some p when not p.closing ->
          grow p ~size:threads;
          p
      | _ ->
          let p = create ~size:threads in
          global_pool := Some p;
          p)
