(** The SPN model server: admission control in front of a dynamic
    per-model batcher, drained by dispatcher domains in EDF order.

    Request path: {!submit_async} validates the rows, checks the
    registry, applies admission control ({!Batcher.enqueue}: bounded
    per-model and global queues — over-cap requests are shed with a
    structured [overloaded] rejection), which wakes one dispatcher.  A
    free dispatcher pops the non-empty queue with the earliest effective
    deadline at once ({!Batcher.pop_ready}), coalesces its head-of-line
    requests — whatever queued while every dispatcher was busy — into
    one batch, and runs it through the model's hot engine with
    {!Spnc_runtime.Exec.execute_segments} — each request is one segment,
    so the kernel writes every caller's results straight into that
    caller's buffer (zero-copy scatter).  Per-row results are
    bit-identical to sequential per-request execution; the serve tests
    and bench assert this.

    Deadlines reuse the runtime's machinery: a request whose absolute
    deadline passes while queued is swept and answered [Expired] without
    ever dispatching; an in-flight batch runs under the latest deadline
    of its requests and a {!Spnc_runtime.Exec.Deadline_exceeded} maps
    back to [Expired] responses (exit-75 semantics at the CLI boundary).

    Settling: every request settles exactly once, into its cell (for
    {!await}) and through its optional [on_settle] callback, which runs
    on whichever thread settles it — a dispatcher, or the submitter
    itself when the request is rejected at admission.

    Threading: submitters may be any mix of systhreads and domains;
    dispatchers are domains ([options.serve_dispatchers]) parked in
    {!Batcher.wait} while every queue is empty.  Tests create the server
    with [~dispatchers:0] and an injected [~clock], then drive {!step}
    by hand — every EDF decision is deterministic. *)

module T = Types
module Metrics = Spnc_obs.Metrics
module Exec = Spnc_runtime.Exec

(* -- Metrics ------------------------------------------------------------------- *)

let m_requests = Metrics.counter "serve.requests"
let m_ok = Metrics.counter "serve.responses_ok"
let m_shed = Metrics.counter "serve.shed"
let m_expired = Metrics.counter "serve.expired"
let m_failed = Metrics.counter "serve.failed"
let m_batches = Metrics.counter "serve.batches"
let m_dispatched_rows = Metrics.counter "serve.dispatched_rows"
let m_queued_rows = Metrics.gauge "serve.queued_rows"

(* batch-size distribution in µ-units: one row observes as 1e-6, so the
   1 µs..8.4 s geometric buckets cover 1..8.4M rows; read percentiles
   back as rows via [p * 1e6] (docs/OBSERVABILITY.md) *)
let m_batch_rows = Metrics.histogram "serve.batch_rows"

(* shared vocabulary with plain CLI runs (docs/OBSERVABILITY.md): time a
   request waits before executing, and rows admitted but not finished —
   the same two instruments Exec reports into.  Queued rows are moved
   out of the gauge right before dispatch; Exec adds them back for the
   execution phase, so the gauge never double-counts. *)
let m_queue_wait = Metrics.histogram "runtime.exec.queue_wait_seconds"
let m_rows_in_flight = Metrics.gauge "runtime.exec.rows_in_flight"

let mm_requests model =
  Metrics.counter_l "serve.model.requests" [ ("model", model) ]

let mm_depth model = Metrics.gauge_l "serve.model.queue_depth" [ ("model", model) ]

let mm_time_in_queue model =
  Metrics.histogram_l "serve.model.time_in_queue_seconds" [ ("model", model) ]

let mm_batch_rows model =
  Metrics.histogram_l "serve.model.batch_rows" [ ("model", model) ]

(* -- Server -------------------------------------------------------------------- *)

type t = {
  registry : Registry.t;
  batcher : Batcher.t;
  options : Spnc.Options.t;
  clock : unit -> float;
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
}

type ticket = T.request

let rows_f r = float_of_int r.T.req_rows
let fulfill_error req reason detail = T.fulfill req (Error { T.reason; detail })

(* A batch's wall-clock budget is the {e latest} deadline among its
   requests (the tightest ones were EDF-ordered to the front, and a
   batch completes as a unit); a batch containing any deadline-less
   request runs unbounded, like a plain CLI call. *)
let batch_deadline (reqs : T.request list) : float option =
  let rec go acc = function
    | [] -> acc
    | { T.req_deadline = None; _ } :: _ -> None
    | { T.req_deadline = Some d; _ } :: tl ->
        go (Some (match acc with None -> d | Some a -> Float.max a d)) tl
  in
  go None reqs

(* -- Dispatch ------------------------------------------------------------------ *)

let dispatch_batch t (b : Batcher.batch) ~now =
  Spnc_resilience.Fault.maybe_stall "serve.batch_stall" ~seconds:0.02;
  match Registry.engine t.registry b.Batcher.b_model with
  | Error msg ->
      List.iter
        (fun r ->
          Metrics.counter_incr m_failed;
          fulfill_error r T.Engine_failure msg)
        b.Batcher.b_reqs
  | Ok eng -> (
      (* feature-count mismatches surface per request, not per batch *)
      let good, bad =
        List.partition
          (fun r -> r.T.req_features = eng.Registry.eng_features)
          b.Batcher.b_reqs
      in
      List.iter
        (fun r ->
          Metrics.counter_incr m_failed;
          fulfill_error r T.Bad_request
            (Printf.sprintf "model %s expects %d features, request has %d"
               b.Batcher.b_model eng.Registry.eng_features r.T.req_features))
        bad;
      match good with
      | [] -> ()
      | good -> (
          let rows = List.fold_left (fun a r -> a + r.T.req_rows) 0 good in
          Metrics.counter_incr m_batches;
          Metrics.counter_incr ~by:rows m_dispatched_rows;
          let size_obs = float_of_int rows *. 1e-6 in
          Metrics.histogram_observe m_batch_rows size_obs;
          Metrics.histogram_observe (mm_batch_rows b.Batcher.b_model) size_obs;
          List.iter
            (fun r ->
              let waited = now -. r.T.req_enqueued in
              Metrics.histogram_observe m_queue_wait waited;
              Metrics.histogram_observe
                (mm_time_in_queue b.Batcher.b_model)
                waited)
            good;
          let segs =
            Array.of_list
              (List.map
                 (fun r ->
                   {
                     Exec.seg_flat = r.T.req_flat;
                     seg_rows = r.T.req_rows;
                     seg_out = r.T.req_out;
                     seg_out_pos = 0;
                   })
                 good)
          in
          match
            Exec.execute_segments
              ?deadline:(batch_deadline good)
              ~retries:(max 0 t.options.Spnc.Options.exec_retries)
              eng.Registry.eng_exec ~num_features:eng.Registry.eng_features
              segs
          with
          | () ->
              (* same post-processing as [Compiler.execute]: log-space
                 conversion + output guard, applied per request so one
                 guard failure cannot poison its batchmates *)
              List.iter
                (fun r ->
                  match
                    Spnc.Compiler.finalize_output eng.Registry.eng_compiled
                      r.T.req_out
                  with
                  | final ->
                      Metrics.counter_incr m_ok;
                      T.fulfill r (Ok final)
                  | exception e ->
                      Metrics.counter_incr m_failed;
                      fulfill_error r T.Engine_failure (Printexc.to_string e))
                good
          | exception Exec.Deadline_exceeded d ->
              List.iter
                (fun r ->
                  Metrics.counter_incr m_expired;
                  fulfill_error r T.Expired
                    (Printf.sprintf "batch exceeded deadline by %.3fs"
                       (d.Exec.now -. d.Exec.deadline)))
                good
          | exception e ->
              List.iter
                (fun r ->
                  Metrics.counter_incr m_failed;
                  fulfill_error r T.Engine_failure (Printexc.to_string e))
                good))

(* One dispatcher iteration: sweep expired, dispatch at most one batch.
   Returns whether either happened. *)
let dispatch_once t ~now : bool =
  let pick = Batcher.pop_ready t.batcher ~now in
  List.iter
    (fun r ->
      Metrics.counter_incr m_expired;
      Metrics.gauge_add m_queued_rows (-.rows_f r);
      Metrics.gauge_add m_rows_in_flight (-.rows_f r);
      Metrics.gauge_set (mm_depth r.T.req_model)
        (float_of_int (Batcher.depth t.batcher r.T.req_model));
      fulfill_error r T.Expired "deadline passed while queued")
    pick.Batcher.p_expired;
  (match pick.Batcher.p_batch with
  | None -> ()
  | Some b ->
      let brows = float_of_int b.Batcher.b_rows in
      Metrics.gauge_add m_queued_rows (-.brows);
      (* Exec re-adds these rows for the execution phase *)
      Metrics.gauge_add m_rows_in_flight (-.brows);
      Metrics.gauge_set
        (mm_depth b.Batcher.b_model)
        (float_of_int (Batcher.depth t.batcher b.Batcher.b_model));
      dispatch_batch t b ~now);
  pick.Batcher.p_expired <> [] || pick.Batcher.p_batch <> None

let dispatcher_loop t =
  while Batcher.wait t.batcher do
    ignore (dispatch_once t ~now:(t.clock ()))
  done

let create ?clock ?dispatchers ~(options : Spnc.Options.t) () =
  let batcher =
    Batcher.create ~max_batch:options.Spnc.Options.serve_max_batch
      ~starvation_ms:options.Spnc.Options.serve_starvation_ms
      ~queue_cap:options.Spnc.Options.serve_queue_cap
      ~global_cap:options.Spnc.Options.serve_global_queue_cap
  in
  let registry = Registry.create ~options () in
  let t =
    {
      registry;
      batcher;
      options;
      clock = Option.value clock ~default:Unix.gettimeofday;
      stop = Atomic.make false;
      domains = [];
    }
  in
  let n =
    max 0
      (Option.value dispatchers ~default:options.Spnc.Options.serve_dispatchers)
  in
  t.domains <- List.init n (fun _ -> Domain.spawn (fun () -> dispatcher_loop t));
  t

(* -- Submission ---------------------------------------------------------------- *)

let register_model t ~name model =
  Registry.register_model t.registry ~name model

let register_path t ~name path = Registry.register_path t.registry ~name path
let models t = Registry.names t.registry
let registry t = t.registry

let reject ?on_settle ~model ~now reason detail : ticket =
  let r =
    T.make_request ?on_settle ~model ~flat:[||] ~rows:0 ~features:0
      ~deadline:None ~now ()
  in
  (match reason with
  | T.Overloaded_model | T.Overloaded_global -> Metrics.counter_incr m_shed
  | T.Expired -> Metrics.counter_incr m_expired
  | _ -> Metrics.counter_incr m_failed);
  T.fulfill r (Error { T.reason; detail });
  r

let submit_async t ~model ?deadline ?on_settle (rows_2d : float array array)
    : ticket =
  Metrics.counter_incr m_requests;
  Metrics.counter_incr (mm_requests model);
  let now = t.clock () in
  let reject = reject ?on_settle ~model ~now in
  if Atomic.get t.stop then reject T.Closed "server shutting down"
  else if not (Registry.mem t.registry model) then
    reject T.Unknown_model (Printf.sprintf "no model %S" model)
  else begin
    let rows = Array.length rows_2d in
    if rows = 0 then begin
      let r =
        T.make_request ?on_settle ~model ~flat:[||] ~rows:0 ~features:0
          ~deadline ~now ()
      in
      Metrics.counter_incr m_ok;
      T.fulfill r (Ok [||]);
      r
    end
    else begin
      let features = Array.length rows_2d.(0) in
      let ragged =
        features = 0
        || Array.exists (fun row -> Array.length row <> features) rows_2d
      in
      if ragged then reject T.Bad_request "ragged or zero-width rows"
      else
        match deadline with
        | Some d when d <= now ->
            reject T.Expired "deadline already passed at submit"
        | _ ->
            let flat = Array.concat (Array.to_list rows_2d) in
            let r =
              T.make_request ?on_settle ~model ~flat ~rows ~features ~deadline
                ~now ()
            in
            (match Batcher.enqueue t.batcher r with
            | Error T.Closed ->
                (* shutdown closed the batcher after the [stop] check *)
                Metrics.counter_incr m_failed;
                fulfill_error r T.Closed "server shutting down"
            | Error reason ->
                Metrics.counter_incr m_shed;
                fulfill_error r reason
                  (Printf.sprintf "queue full (%s)"
                     (T.reject_reason_to_string reason))
            | Ok () ->
                Metrics.gauge_add m_queued_rows (rows_f r);
                Metrics.gauge_add m_rows_in_flight (rows_f r);
                Metrics.gauge_set (mm_depth model)
                  (float_of_int (Batcher.depth t.batcher model)));
            r
    end
  end

let await (ticket : ticket) : T.response = T.await ticket

let submit t ~model ?deadline rows_2d : T.response =
  await (submit_async t ~model ?deadline rows_2d)

(* -- Test hook & shutdown ------------------------------------------------------ *)

let step t ~now = dispatch_once t ~now
let pending t = Batcher.total_queued t.batcher
let queue_depth t model = Batcher.depth t.batcher model

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    Batcher.close t.batcher;
    List.iter Domain.join t.domains;
    t.domains <- [];
    let orphans = Batcher.drain t.batcher in
    List.iter
      (fun r ->
        Metrics.gauge_add m_queued_rows (-.rows_f r);
        Metrics.gauge_add m_rows_in_flight (-.rows_f r);
        fulfill_error r T.Closed "server shut down")
      orphans
  end
