(** Dynamic per-model batching with bounded admission and EDF dispatch.

    One FIFO queue per model.  {!enqueue} is the admission-control
    point: it rejects when the per-model queue holds [queue_cap]
    requests or the process holds [global_cap] across all queues — the
    caller turns those into structured [overloaded] responses
    (load-shedding) instead of letting latency collapse under an
    unbounded backlog.

    Dispatch is work-conserving: a queue is {e ready} as soon as it
    holds a request, so a free dispatcher never waits on a timer, and
    batches form only from what queued while every dispatcher was busy.
    {!pop_ready} picks among non-empty queues by earliest effective
    deadline ({!Types.priority}: the tightest request deadline in the
    queue, clipped by the starvation guard so deadline-less traffic
    eventually wins) and pops whole head-of-line requests up to
    [max_batch] rows.  Requests whose deadline has already passed are
    swept out on the same call and never reach a dispatch — the "never
    dispatched" guarantee the serve tests pin.

    All state is guarded by one mutex; every operation is O(queued
    requests) worst case, which the admission caps keep small.  Idle
    dispatchers park in {!wait} on a condition variable under that same
    mutex, so the emptiness check and the wait are one critical section
    and no wakeup is lost.  No domains, no clocks — the ordering
    behavior is deterministic under test (the server injects [now]). *)

module T = Types

type mq = {
  mq_name : string;
  mq_q : T.request Queue.t;
  mutable mq_rows : int;  (** queued rows in this queue *)
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;  (** signalled once per admitted request *)
  queues : (string, mq) Hashtbl.t;
  mutable total_reqs : int;
  mutable closed : bool;
  max_batch : int;  (** batch bound, in rows *)
  starvation : float;  (** starvation guard, seconds *)
  queue_cap : int;  (** per-model bound, in requests *)
  global_cap : int;  (** process-wide bound, in requests *)
}

type batch = {
  b_model : string;
  b_reqs : T.request list;  (** FIFO order *)
  b_rows : int;
}

type pick = {
  p_expired : T.request list;
      (** swept this call: deadline passed while queued *)
  p_batch : batch option;
}

let create ~max_batch ~starvation_ms ~queue_cap ~global_cap =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queues = Hashtbl.create 64;
    total_reqs = 0;
    closed = false;
    max_batch = max 1 max_batch;
    starvation = Float.max 0.0 starvation_ms /. 1000.0;
    queue_cap = max 1 queue_cap;
    global_cap = max 1 global_cap;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let enqueue t (r : T.request) : (unit, T.reject_reason) result =
  locked t (fun () ->
      if t.closed then Error T.Closed
      else if t.total_reqs >= t.global_cap then Error T.Overloaded_global
      else begin
        let mq =
          match Hashtbl.find_opt t.queues r.T.req_model with
          | Some mq -> mq
          | None ->
              let mq =
                { mq_name = r.T.req_model; mq_q = Queue.create (); mq_rows = 0 }
              in
              Hashtbl.replace t.queues r.T.req_model mq;
              mq
        in
        if Queue.length mq.mq_q >= t.queue_cap then Error T.Overloaded_model
        else begin
          Queue.add r mq.mq_q;
          mq.mq_rows <- mq.mq_rows + r.T.req_rows;
          t.total_reqs <- t.total_reqs + 1;
          Condition.signal t.nonempty;
          Ok ()
        end
      end)

let depth t model =
  locked t (fun () ->
      match Hashtbl.find_opt t.queues model with
      | None -> 0
      | Some mq -> Queue.length mq.mq_q)

let total_queued t = locked t (fun () -> t.total_reqs)

(* Remove requests whose deadline has passed; FIFO order preserved. *)
let sweep_expired t (mq : mq) ~now acc =
  let expired = ref acc in
  let keep = Queue.create () in
  Queue.iter
    (fun r ->
      match r.T.req_deadline with
      | Some d when d < now ->
          expired := r :: !expired;
          t.total_reqs <- t.total_reqs - 1;
          mq.mq_rows <- mq.mq_rows - r.T.req_rows
      | _ -> Queue.add r keep)
    mq.mq_q;
  Queue.clear mq.mq_q;
  Queue.transfer keep mq.mq_q;
  !expired

(* Tightest effective deadline among the queue's requests — the EDF key. *)
let queue_priority (t : t) (mq : mq) : float =
  Queue.fold
    (fun acc r -> Float.min acc (T.priority ~starvation:t.starvation r))
    Float.infinity mq.mq_q

let pop_batch (t : t) (mq : mq) : batch =
  let reqs = ref [] and rows = ref 0 in
  let continue = ref true in
  while !continue && not (Queue.is_empty mq.mq_q) do
    let head = Queue.peek mq.mq_q in
    (* whole requests only; the first one is taken even when it alone
       exceeds [max_batch] (it could never dispatch otherwise) *)
    if !rows > 0 && !rows + head.T.req_rows > t.max_batch then
      continue := false
    else begin
      ignore (Queue.pop mq.mq_q);
      reqs := head :: !reqs;
      rows := !rows + head.T.req_rows;
      mq.mq_rows <- mq.mq_rows - head.T.req_rows;
      t.total_reqs <- t.total_reqs - 1
    end
  done;
  { b_model = mq.mq_name; b_reqs = List.rev !reqs; b_rows = !rows }

let pop_ready t ~now : pick =
  locked t (fun () ->
      let expired =
        Hashtbl.fold (fun _ mq acc -> sweep_expired t mq ~now acc) t.queues []
      in
      (* EDF across models: among non-empty queues, earliest effective
         deadline wins *)
      let best =
        Hashtbl.fold
          (fun _ mq acc ->
            if Queue.is_empty mq.mq_q then acc
            else
              let p = queue_priority t mq in
              match acc with
              | Some (_, bp) when bp <= p -> acc
              | _ -> Some (mq, p))
          t.queues None
      in
      {
        p_expired = expired;
        p_batch = Option.map (fun (mq, _) -> pop_batch t mq) best;
      })

let wait t =
  locked t (fun () ->
      while t.total_reqs = 0 && not t.closed do
        Condition.wait t.nonempty t.lock
      done;
      not t.closed)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

(** Pop everything (shutdown): the caller fulfills each request with a
    [Closed] rejection. *)
let drain t : T.request list =
  locked t (fun () ->
      let all =
        Hashtbl.fold
          (fun _ mq acc ->
            let l = List.rev (Queue.fold (fun a r -> r :: a) [] mq.mq_q) in
            Queue.clear mq.mq_q;
            mq.mq_rows <- 0;
            acc @ l)
          t.queues []
      in
      t.total_reqs <- 0;
      all)
