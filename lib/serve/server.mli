(** The SPN model server: bounded admission in front of a dynamic
    per-model batcher ({!Batcher}), a bounded LRU of hot engines
    ({!Registry}), and EDF-ordered dispatcher domains that run coalesced
    batches through {!Spnc_runtime.Exec.execute_segments} — each request
    is one segment, so results scatter back into each caller's buffer
    zero-copy.  Dispatch is work-conserving: a free dispatcher takes the
    next request at once, and a batch holds what queued while every
    dispatcher was busy.  Responses are bit-identical to sequential
    per-request {!Spnc.Compiler.execute}.

    Knobs come from {!Spnc.Options}: [serve_max_batch] (batch bound),
    [serve_queue_cap] / [serve_global_queue_cap] (admission),
    [serve_engines_cap] (LRU), [serve_dispatchers],
    [serve_starvation_ms] (EDF starvation guard); see
    docs/PERFORMANCE.md §"Serving". *)

type t

type ticket
(** An in-flight submission; wait for it with {!await}. *)

val create :
  ?clock:(unit -> float) ->
  ?dispatchers:int ->
  options:Spnc.Options.t ->
  unit ->
  t
(** Start a server: [dispatchers] domains (default
    [options.serve_dispatchers]) begin draining queues immediately.
    [~dispatchers:0] plus an injected [~clock] gives a deterministic
    server driven by {!step} — how the tests pin EDF behavior. *)

val register_model : t -> name:string -> Spnc_spn.Model.t -> unit
val register_path : t -> name:string -> string -> unit

val models : t -> string list
(** Registered model names, sorted. *)

val registry : t -> Registry.t

val submit_async :
  t ->
  model:string ->
  ?deadline:float ->
  ?on_settle:(Types.response -> unit) ->
  float array array ->
  ticket
(** Validate, admit and enqueue one request ([deadline] is absolute
    epoch seconds).  Never blocks: over-cap traffic is shed immediately
    with a structured [overloaded] rejection, invalid requests settle
    immediately with their reason.  The returned ticket settles exactly
    once; [on_settle] is then called once with the response that
    {!await} returns, on the settling thread — a dispatcher, or this
    caller before [submit_async] returns when the request is rejected at
    admission.  It must neither block nor raise. *)

val await : ticket -> Types.response
(** Block until the ticket settles (dispatch, rejection or shutdown). *)

val submit :
  t -> model:string -> ?deadline:float -> float array array -> Types.response
(** [await (submit_async ...)]. *)

val step : t -> now:float -> bool
(** Run one dispatcher iteration synchronously: sweep deadline-expired
    requests, dispatch at most one batch (EDF pick).  True when either
    happened.  Test hook — production servers run dispatcher domains. *)

val pending : t -> int
(** Requests currently queued across all models. *)

val queue_depth : t -> string -> int

val shutdown : t -> unit
(** Stop and join the dispatchers, then settle every still-queued
    request with a [Closed] rejection.  Idempotent. *)
