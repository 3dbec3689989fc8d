(** Shared vocabulary of the serving layer: structured rejections, the
    response type, and the in-flight request record with its completion
    cell.

    A request is submitted by one thread (a connection reader, a bench
    client) and fulfilled by another (a dispatcher domain); the
    completion cell is a classic mutex + condition pair, plus an
    optional settle callback for submitters that do not wait.
    [fulfill] is idempotent — the first response wins — so shutdown
    paths may sweep queues without racing a concurrent dispatch. *)

type reject_reason =
  | Overloaded_model  (** per-model queue at [serve_queue_cap] — shed *)
  | Overloaded_global
      (** process-wide queue at [serve_global_queue_cap] — shed *)
  | Unknown_model  (** no model registered under that name *)
  | Expired  (** deadline passed before the request was dispatched *)
  | Bad_request  (** ragged rows, or feature count != model's *)
  | Engine_failure  (** compile / engine load / kernel execution failed *)
  | Closed  (** server shutting down *)

let reject_reason_to_string = function
  | Overloaded_model -> "overloaded_model"
  | Overloaded_global -> "overloaded_global"
  | Unknown_model -> "unknown_model"
  | Expired -> "deadline_expired"
  | Bad_request -> "bad_request"
  | Engine_failure -> "engine_failure"
  | Closed -> "closed"

let reject_reason_of_string = function
  | "overloaded_model" -> Some Overloaded_model
  | "overloaded_global" -> Some Overloaded_global
  | "unknown_model" -> Some Unknown_model
  | "deadline_expired" -> Some Expired
  | "bad_request" -> Some Bad_request
  | "engine_failure" -> Some Engine_failure
  | "closed" -> Some Closed
  | _ -> None

type serve_error = { reason : reject_reason; detail : string }

(** Load-shed rejections — the admission-control "back off and retry"
    class, as opposed to caller errors or server faults. *)
let is_overloaded e =
  match e.reason with
  | Overloaded_model | Overloaded_global -> true
  | _ -> false

type response = (float array, serve_error) result

type request = {
  req_model : string;
  req_flat : float array;  (** row-major input, [req_rows * req_features] *)
  req_rows : int;
  req_features : int;
  req_deadline : float option;  (** absolute epoch seconds *)
  req_enqueued : float;
  req_out : float array;
      (** caller-owned result buffer the batch kernel writes into
          directly (one {!Spnc_runtime.Exec.segment} per request) *)
  req_on_settle : (response -> unit) option;
      (** called once with the first response, outside [cell_lock]; it
          must neither block nor raise (it may run on a dispatcher) *)
  cell_lock : Mutex.t;
  cell_cond : Condition.t;
  mutable cell_resp : response option;
}

let make_request ?on_settle ~model ~flat ~rows ~features ~deadline ~now () =
  {
    req_model = model;
    req_flat = flat;
    req_rows = rows;
    req_features = features;
    req_deadline = deadline;
    req_enqueued = now;
    req_out = Array.make (max 0 rows) 0.0;
    req_on_settle = on_settle;
    cell_lock = Mutex.create ();
    cell_cond = Condition.create ();
    cell_resp = None;
  }

(* First response wins: a request swept by shutdown and fulfilled by a
   racing dispatch must settle exactly once. *)
let fulfill (r : request) (resp : response) : unit =
  Mutex.lock r.cell_lock;
  let first = Option.is_none r.cell_resp in
  if first then begin
    r.cell_resp <- Some resp;
    Condition.broadcast r.cell_cond
  end;
  Mutex.unlock r.cell_lock;
  if first then Option.iter (fun settle -> settle resp) r.req_on_settle

let await (r : request) : response =
  Mutex.lock r.cell_lock;
  let rec wait () =
    match r.cell_resp with
    | Some resp -> resp
    | None ->
        Condition.wait r.cell_cond r.cell_lock;
        wait ()
  in
  let resp = wait () in
  Mutex.unlock r.cell_lock;
  resp

let peek (r : request) : response option =
  Mutex.lock r.cell_lock;
  let resp = r.cell_resp in
  Mutex.unlock r.cell_lock;
  resp

(** EDF priority of a queued request: its deadline, clipped by the
    starvation guard — a deadline-less request behaves as if due
    [starvation] seconds after it was enqueued, so tight-SLO tenants
    cannot starve best-effort traffic forever. *)
let priority ~starvation (r : request) : float =
  let guard = r.req_enqueued +. starvation in
  match r.req_deadline with None -> guard | Some d -> Float.min d guard
