(** Dynamic per-model batching with bounded admission and EDF dispatch.

    One FIFO queue per model; {!enqueue} is the admission-control point
    (bounded per-model and process-wide).  Dispatch is work-conserving:
    a non-empty queue is ready at once, so a free dispatcher never
    waits, and a batch holds what queued while every dispatcher was
    busy.  {!pop_ready} picks among non-empty queues by earliest
    effective deadline with a starvation guard ({!Types.priority}).
    Deadline-expired requests are swept out by {!pop_ready} and never
    dispatched.

    No domains and no clock reads — callers inject [now], so ordering
    behavior is deterministic under test.  Dispatchers park in {!wait}
    on a condition variable under the batcher's own lock. *)

type t

type batch = {
  b_model : string;
  b_reqs : Types.request list;  (** FIFO order *)
  b_rows : int;
}

type pick = {
  p_expired : Types.request list;
      (** deadline passed while queued; fulfill with [Expired] *)
  p_batch : batch option;
}

val create :
  max_batch:int -> starvation_ms:float -> queue_cap:int -> global_cap:int -> t
(** Caps and [max_batch] are clamped to at least 1; [starvation_ms] to
    >= 0. *)

val enqueue : t -> Types.request -> (unit, Types.reject_reason) result
(** Admission: [Error Closed] after {!close}, [Error Overloaded_global]
    when [global_cap] requests are queued process-wide,
    [Error Overloaded_model] when the model's queue holds [queue_cap].
    Never blocks.  An admitted request wakes one {!wait}er. *)

val pop_ready : t -> now:float -> pick
(** Sweep expired requests, then pop one batch from the non-empty queue
    with the earliest effective deadline (EDF).  Batches take whole
    head-of-line requests up to [max_batch] rows; the first request is
    taken even if it alone exceeds the bound. *)

val wait : t -> bool
(** Block until a request is queued or the batcher is {!close}d; [false]
    once closed. *)

val close : t -> unit
(** Wake every {!wait}er; later {!wait}s return [false] at once. *)

val drain : t -> Types.request list
(** Pop everything (shutdown); caller fulfills each with [Closed]. *)

val depth : t -> string -> int
(** Queued requests for one model (metrics / tests). *)

val total_queued : t -> int
