(** Serving-layer tests ({!Spnc_serve}): the work-conserving batcher
    policy (a queued request is ready at once, batches are whole
    requests up to [max_batch] rows, driven by an injected clock), EDF
    ordering across model queues, admission control (per-model and
    global queue caps shedding with structured rejections),
    deadline-expired requests being swept and never dispatched, the
    settle callback firing exactly once, scatter bit-identity of
    batched execution against sequential per-request
    {!Spnc.Compiler.execute} under randomized concurrent interleavings
    at 1/2/4 engine threads, connections over socket pairs (half-close,
    descriptor reuse, a slow reader), and the registry's bounded engine
    LRU including reload through the persistent kernel cache's disk
    tier. *)

module Serve = Spnc_serve.Server
module Batcher = Spnc_serve.Batcher
module Connection = Spnc_serve.Connection
module Proto = Spnc_serve.Protocol
module Registry = Spnc_serve.Registry
module T = Spnc_serve.Types
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Model = Spnc_spn.Model
module Rng = Spnc_data.Rng

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let check_bits what (expect : float array) (got : float array) =
  check tint (what ^ ": length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: row %d: expected %h, got %h" what i x got.(i))
    expect

(* tiny-but-real SPNs; Clamp keeps underflowed outputs finite and
   deterministic without stderr noise *)
let base_options =
  {
    Options.default with
    threads = 1;
    output_guard = Spnc_resilience.Guard.Clamp;
  }

let tiny_config =
  {
    Spnc_spn.Random_spn.default_config with
    num_features = 6;
    max_depth = 5;
  }

let models =
  lazy
    (let rng = Rng.create ~seed:4242 in
     Array.init 4 (fun i ->
         Spnc_spn.Random_spn.generate_sized rng
           ~name:(Printf.sprintf "serve-m%d" i)
           tiny_config ~min_ops:60))

let model i = (Lazy.force models).(i)

let rows_for ?(seed = 11) m n =
  let rng = Rng.create ~seed in
  Array.init n (fun _ ->
      Array.init m.Model.num_features (fun _ -> Rng.range rng (-3.0) 3.0))

(* -- batcher policy (pure, injected clock) ----------------------------------- *)

let mk_req ?deadline ~model ~rows ~now () =
  let features = 2 in
  T.make_request ~model
    ~flat:(Array.make (rows * features) 0.0)
    ~rows ~features ~deadline ~now ()

let mk_batcher ?(max_batch = 8) ?(starvation_ms = 1000.0) ?(queue_cap = 16)
    ?(global_cap = 64) () =
  Batcher.create ~max_batch ~starvation_ms ~queue_cap ~global_cap

let admit b r =
  match Batcher.enqueue b r with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue under the caps must admit"

let popped_rows b ~now =
  match (Batcher.pop_ready b ~now).Batcher.p_batch with
  | Some batch -> List.map (fun r -> r.T.req_rows) batch.Batcher.b_reqs
  | None -> []

let test_ready_at_once () =
  let b = mk_batcher ~max_batch:8 () in
  let now = 100.0 in
  (* one request, no time elapsed: ready at once, and a dispatcher
     parked in [wait] would not block *)
  admit b (mk_req ~model:"a" ~rows:1 ~now ());
  check tbool "wait returns at once on a queued request" true (Batcher.wait b);
  check (Alcotest.list tint) "a lone request pops with no time elapsed" [ 1 ]
    (popped_rows b ~now);
  check (Alcotest.list tint) "empty: nothing pops" [] (popped_rows b ~now);
  Batcher.close b;
  check tbool "wait returns false once closed" false (Batcher.wait b);
  match Batcher.enqueue b (mk_req ~model:"a" ~rows:1 ~now ()) with
  | Error T.Closed -> ()
  | _ -> Alcotest.fail "a closed batcher must refuse admission"

(* Size is the only bound on a batch: whole head-of-line requests up to
   max_batch rows, with no time elapsed. *)
let test_flush_on_size () =
  let b = mk_batcher ~max_batch:8 () in
  let now = 100.0 in
  (* 8 rows = max_batch: one batch takes the whole queue *)
  for _ = 1 to 8 do
    admit b (mk_req ~model:"a" ~rows:1 ~now ())
  done;
  (match (Batcher.pop_ready b ~now).Batcher.p_batch with
  | Some batch ->
      check tint "size flush takes the whole queue" 8 batch.Batcher.b_rows;
      check tint "queue drained" 0 (Batcher.depth b "a")
  | None -> Alcotest.fail "size-ready queue must flush without waiting");
  (* queued while no dispatcher polled: they pop together, as whole
     requests up to max_batch rows (3+3 fit, a third 3 would make 9) *)
  List.iter (fun rows -> admit b (mk_req ~model:"a" ~rows ~now ())) [ 3; 3; 3 ];
  check (Alcotest.list tint) "the backlog pops as whole requests" [ 3; 3 ]
    (popped_rows b ~now);
  check (Alcotest.list tint) "the rest pops next" [ 3 ] (popped_rows b ~now);
  (* an oversized first request is still taken, alone *)
  admit b (mk_req ~model:"a" ~rows:10 ~now ());
  admit b (mk_req ~model:"a" ~rows:1 ~now ());
  check (Alcotest.list tint) "an oversized head pops alone" [ 10 ]
    (popped_rows b ~now);
  check (Alcotest.list tint) "then the request behind it" [ 1 ]
    (popped_rows b ~now);
  check (Alcotest.list tint) "empty: nothing pops" [] (popped_rows b ~now)

let test_edf_order () =
  let b = mk_batcher ~max_batch:100 ~starvation_ms:1e7 () in
  let now = 10.0 in
  (* both queued at pop time; "late" enqueued first but has the later
     deadline — EDF must pick "soon" (starvation guard pushed out of the
     way so the deadlines alone order the pick) *)
  (match Batcher.enqueue b (mk_req ~deadline:(now +. 60.0) ~model:"late" ~rows:1 ~now ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue late");
  (match Batcher.enqueue b (mk_req ~deadline:(now +. 1.0) ~model:"soon" ~rows:1 ~now ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue soon");
  (match (Batcher.pop_ready b ~now:(now +. 0.006)).Batcher.p_batch with
  | Some batch ->
      check Alcotest.string "earliest deadline dispatches first" "soon"
        batch.Batcher.b_model
  | None -> Alcotest.fail "non-empty queues must pop");
  match (Batcher.pop_ready b ~now:(now +. 0.006)).Batcher.p_batch with
  | Some batch ->
      check Alcotest.string "then the later deadline" "late"
        batch.Batcher.b_model
  | None -> Alcotest.fail "second queue must pop next"

let test_starvation_guard () =
  let b = mk_batcher ~max_batch:100 ~starvation_ms:50.0 () in
  let now = 10.0 in
  (* deadline-less request enqueued long ago: its effective deadline is
     enqueued+starvation, which beats a fresh tight-deadline tenant *)
  (match Batcher.enqueue b (mk_req ~model:"old" ~rows:1 ~now ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue old");
  let later = now +. 0.2 in
  (match
     Batcher.enqueue b
       (mk_req ~deadline:(later +. 0.5) ~model:"fresh" ~rows:1 ~now:later ())
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue fresh");
  match (Batcher.pop_ready b ~now:(later +. 0.002)).Batcher.p_batch with
  | Some batch ->
      check Alcotest.string "starved best-effort traffic dispatches first"
        "old" batch.Batcher.b_model
  | None -> Alcotest.fail "both queues hold a request"

let test_queue_caps () =
  let b = mk_batcher ~queue_cap:3 ~global_cap:5 () in
  let now = 1.0 in
  for _ = 1 to 3 do
    match Batcher.enqueue b (mk_req ~model:"a" ~rows:1 ~now ()) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "under per-model cap must admit"
  done;
  (match Batcher.enqueue b (mk_req ~model:"a" ~rows:1 ~now ()) with
  | Error T.Overloaded_model -> ()
  | _ -> Alcotest.fail "4th request on a cap-3 queue must shed");
  (* other models still admitted up to the global cap *)
  (match Batcher.enqueue b (mk_req ~model:"b" ~rows:1 ~now ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "other model under caps must admit");
  (match Batcher.enqueue b (mk_req ~model:"c" ~rows:1 ~now ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "5th request reaches the global cap");
  match Batcher.enqueue b (mk_req ~model:"d" ~rows:1 ~now ()) with
  | Error T.Overloaded_global -> ()
  | _ -> Alcotest.fail "6th request past the global cap must shed"

(* -- server (dispatchers:0 + injected clock = deterministic step) ------------- *)

let stepped_server ?(options = base_options) ~clock () =
  Serve.create ~clock:(fun () -> !clock) ~dispatchers:0 ~options ()

let test_server_shed_and_depth () =
  let clock = ref 1000.0 in
  let options = { base_options with serve_queue_cap = 2 } in
  let server = stepped_server ~options ~clock () in
  Serve.register_model server ~name:"m0" (model 0);
  let data = rows_for (model 0) 1 in
  let t1 = Serve.submit_async server ~model:"m0" data in
  let t2 = Serve.submit_async server ~model:"m0" data in
  let t3 = Serve.submit_async server ~model:"m0" data in
  check tint "queue depth at cap" 2 (Serve.queue_depth server "m0");
  (* the third settles immediately with a structured shed *)
  (match Serve.await t3 with
  | Error e ->
      check tbool "overloaded rejection" true (T.is_overloaded e);
      check Alcotest.string "reason" "overloaded_model"
        (T.reject_reason_to_string e.T.reason)
  | Ok _ -> Alcotest.fail "over-cap submit must shed");
  (* unknown model settles immediately too *)
  (match Serve.await (Serve.submit_async server ~model:"nope" data) with
  | Error { T.reason = T.Unknown_model; _ } -> ()
  | _ -> Alcotest.fail "unknown model must reject");
  (* drain: one step pops the queued pair *)
  clock := !clock +. 1.0;
  check tbool "step dispatches" true (Serve.step server ~now:!clock);
  (match (Serve.await t1, Serve.await t2) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "queued requests must dispatch on step");
  Serve.shutdown server

let test_server_expired_never_dispatched () =
  let clock = ref 2000.0 in
  let server = stepped_server ~clock () in
  Serve.register_model server ~name:"m0" (model 0);
  Spnc_obs.Metrics.reset "serve.dispatched_rows";
  let data = rows_for (model 0) 2 in
  let ticket =
    Serve.submit_async server ~model:"m0" ~deadline:(!clock +. 0.5) data
  in
  (* deadline passes while queued; the sweep must fulfill Expired
     without running the kernel *)
  clock := !clock +. 1.0;
  check tbool "step sweeps the expired request" true
    (Serve.step server ~now:!clock);
  (match Serve.await ticket with
  | Error { T.reason = T.Expired; _ } -> ()
  | _ -> Alcotest.fail "expired request must settle as deadline_expired");
  check tint "expired requests never reach the engine" 0
    (Spnc_obs.Metrics.counter_value
       (Spnc_obs.Metrics.counter "serve.dispatched_rows"));
  (* a pre-expired submit settles at admission *)
  (match
     Serve.await
       (Serve.submit_async server ~model:"m0" ~deadline:(!clock -. 1.0) data)
   with
  | Error { T.reason = T.Expired; _ } -> ()
  | _ -> Alcotest.fail "already-expired submit must reject");
  Serve.shutdown server

let test_server_bad_request () =
  let clock = ref 3000.0 in
  let server = stepped_server ~clock () in
  Serve.register_model server ~name:"m0" (model 0);
  let ragged = [| Array.make (model 0).Model.num_features 0.0; [| 1.0 |] |] in
  (match Serve.await (Serve.submit_async server ~model:"m0" ragged) with
  | Error { T.reason = T.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "ragged rows must reject");
  (* feature-count mismatch is admitted (rows are rectangular) and
     surfaces per request at dispatch, against the engine's count *)
  let wrong = [| Array.make ((model 0).Model.num_features + 1) 0.0 |] in
  let ticket = Serve.submit_async server ~model:"m0" wrong in
  clock := !clock +. 1.0;
  ignore (Serve.step server ~now:!clock);
  (match Serve.await ticket with
  | Error { T.reason = T.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "feature mismatch must reject at dispatch");
  (* zero rows: trivially complete *)
  (match Serve.await (Serve.submit_async server ~model:"m0" [||]) with
  | Ok [||] -> ()
  | _ -> Alcotest.fail "empty request must return an empty result");
  Serve.shutdown server

let test_server_shutdown_drains () =
  let clock = ref 4000.0 in
  let server = stepped_server ~clock () in
  Serve.register_model server ~name:"m0" (model 0);
  let data = rows_for (model 0) 1 in
  let t1 = Serve.submit_async server ~model:"m0" data in
  Serve.shutdown server;
  (match Serve.await t1 with
  | Error { T.reason = T.Closed; _ } -> ()
  | _ -> Alcotest.fail "shutdown must settle queued requests as closed");
  match Serve.await (Serve.submit_async server ~model:"m0" data) with
  | Error { T.reason = T.Closed; _ } -> ()
  | _ -> Alcotest.fail "submits after shutdown must reject as closed"

(* Every outcome settles through [on_settle] exactly once, with the
   very response [await] returns: ok, shed and bad request (the last two
   inline, before [submit_async] returns), expired while queued, and
   closed at shutdown. *)
let test_on_settle_once () =
  let clock = ref 5000.0 in
  let options = { base_options with serve_queue_cap = 2 } in
  let server = stepped_server ~options ~clock () in
  Serve.register_model server ~name:"m0" (model 0);
  let data = rows_for (model 0) 1 in
  let submit ?deadline rows =
    let seen = ref [] in
    let ticket =
      Serve.submit_async server ~model:"m0" ?deadline
        ~on_settle:(fun resp -> seen := resp :: !seen)
        rows
    in
    (ticket, seen)
  in
  let settled what (ticket, seen) =
    match !seen with
    | [ resp ] ->
        check tbool (what ^ ": the awaited response") true
          (resp == Serve.await ticket);
        resp
    | l -> Alcotest.failf "%s: on_settle fired %d times" what (List.length l)
  in
  let pending what (_, seen) =
    check tint (what ^ ": not settled yet") 0 (List.length !seen)
  in
  let reason = function Error e -> Some e.T.reason | Ok _ -> None in
  let ok = submit data in
  let expiring = submit ~deadline:(!clock +. 0.5) data in
  let shed = submit data in
  check tbool "shed settles inline" true
    (reason (settled "shed" shed) = Some T.Overloaded_model);
  check tbool "bad request settles inline" true
    (reason (settled "bad request" (submit [| [| 1.0 |]; [||] |]))
    = Some T.Bad_request);
  pending "ok" ok;
  pending "expiring" expiring;
  (* the step sweeps the expired request and dispatches the other *)
  clock := !clock +. 1.0;
  check tbool "step" true (Serve.step server ~now:!clock);
  check tbool "expired while queued" true
    (reason (settled "expired" expiring) = Some T.Expired);
  (match settled "ok" ok with
  | Ok values -> check tint "ok: one row" 1 (Array.length values)
  | Error _ -> Alcotest.fail "ok: must dispatch");
  let closing = submit data in
  pending "closing" closing;
  Serve.shutdown server;
  check tbool "closed at shutdown" true
    (reason (settled "closed" closing) = Some T.Closed);
  (* shutdown's drain settled none of them a second time *)
  List.iter
    (fun (what, sub) -> ignore (settled what sub))
    [ ("ok", ok); ("expired", expiring); ("shed", shed); ("closed", closing) ]

(* -- connections over socket pairs --------------------------------------------- *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let request_line ~id ~model rows =
  Proto.encode_request
    { Proto.wr_id = id; wr_model = model; wr_rows = rows; wr_deadline_ms = None }
  ^ "\n"

(* Serve one end of a fresh socket pair on its own thread; returns the
   client end and the thread, which ends once the server end is closed. *)
let open_connection server =
  let s, c = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (s, c, Thread.create (Connection.serve server) s)

(* Send every line, half-close, and read responses to end of input. *)
let exchange server lines =
  let _, c, th = open_connection server in
  write_all c (String.concat "" lines);
  Unix.shutdown c Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr c in
  let rec read acc =
    match input_line ic with
    | line -> (
        match Proto.decode_response line with
        | Ok (id, resp) -> read ((id, resp) :: acc)
        | Error e -> Alcotest.failf "undecodable response %S: %s" line e)
    | exception End_of_file -> List.rev acc
  in
  let got = read [] in
  close_in ic;
  Thread.join th;
  got

let live_server () =
  let server = Serve.create ~options:base_options () in
  let refs =
    Array.init 2 (fun i ->
        let m = model i in
        Serve.register_model server ~name:m.Model.name m;
        let pool = rows_for ~seed:(700 + i) m 16 in
        let compiled = Compiler.compile ~options:base_options m in
        (m.Model.name, pool, compiled))
  in
  (server, refs)

(* A client that pipelines N requests and half-closes gets exactly its
   N ids back, each bit-identical to [Compiler.execute]. *)
let test_half_close () =
  let server, refs = live_server () in
  let n = 24 in
  let reqs =
    List.init n (fun i ->
        let name, pool, compiled = refs.(i mod 2) in
        let rows = 1 + (i mod 3) in
        let slice = Array.sub pool (i mod 8) rows in
        (100 + i, name, slice, Compiler.execute compiled slice))
  in
  let got =
    exchange server
      (List.map
         (fun (id, model, slice, _) -> request_line ~id ~model slice)
         reqs)
  in
  Serve.shutdown server;
  check (Alcotest.list tint) "exactly the N ids"
    (List.map (fun (id, _, _, _) -> id) reqs)
    (List.sort compare (List.map fst got));
  List.iter
    (fun (id, _, _, expect) ->
      match List.assoc id got with
      | Ok values -> check_bits (Printf.sprintf "id %d" id) expect values
      | Error e ->
          Alcotest.failf "id %d: %s" id (T.reject_reason_to_string e.T.reason))
    reqs

(* Sequential connections reuse descriptor numbers; a response written
   after its connection's descriptor was closed would land on the next
   one. *)
let test_no_foreign_ids () =
  let server, refs = live_server () in
  let name, pool, _ = refs.(0) in
  for k = 0 to 19 do
    let ids = List.init 5 (fun j -> (5 * k) + j) in
    let got =
      exchange server
        (List.map
           (fun id -> request_line ~id ~model:name [| pool.(id mod 16) |])
           ids)
    in
    List.iter
      (fun (id, _) ->
        if not (List.mem id ids) then
          Alcotest.failf "connection %d received foreign id %d" k id)
      got;
    check (Alcotest.list tint)
      (Printf.sprintf "connection %d: its own ids" k)
      ids
      (List.sort compare (List.map fst got))
  done;
  Serve.shutdown server

(* A peer that never reads fills its connection's socket; with one
   dispatcher, another connection must still be answered.  B uses its
   own model, so A's backlog cannot shed B's requests at admission. *)
let test_slow_reader () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let server = Serve.create ~dispatchers:1 ~options:base_options () in
  let pools =
    Array.init 2 (fun i ->
        let m = model i in
        Serve.register_model server ~name:(Printf.sprintf "m%d" i) m;
        rows_for ~seed:77 m 16)
  in
  let lines ~model ~base n =
    String.concat ""
      (List.init n (fun i ->
           request_line ~id:(base + i) ~model:(Printf.sprintf "m%d" model)
             [| pools.(model).(i mod 16) |]))
  in
  let sa, ca, tha = open_connection server in
  Unix.setsockopt_int sa Unix.SO_SNDBUF 4096;
  (* the server reads without pause; the timeout only keeps a regression
     from hanging the suite *)
  Unix.setsockopt_float ca Unix.SO_SNDTIMEO 10.0;
  (try write_all ca (lines ~model:0 ~base:0 3000) with Unix.Unix_error _ -> ());
  let _, cb, thb = open_connection server in
  Unix.setsockopt_float cb Unix.SO_RCVTIMEO 10.0;
  let t0 = Unix.gettimeofday () in
  write_all cb (lines ~model:1 ~base:10_000 20);
  let ic = Unix.in_channel_of_descr cb in
  let answered = ref 0 in
  (try
     while !answered < 20 do
       match Proto.decode_response (input_line ic) with
       | Ok (id, Ok _) when id >= 10_000 && id < 10_020 -> incr answered
       | Ok (id, Error e) ->
           Alcotest.failf "B: id %d: %s" id
             (T.reject_reason_to_string e.T.reason)
       | _ -> Alcotest.fail "B: unexpected response"
     done
   with End_of_file | Sys_blocked_io | Sys_error _ | Unix.Unix_error _ -> ());
  check tint "B: all 20 answered" 20 !answered;
  check tbool "B: within 10 s" true (Unix.gettimeofday () -. t0 < 10.0);
  Unix.shutdown cb Unix.SHUTDOWN_SEND;
  close_in ic;
  Thread.join thb;
  (* hanging up A fails its blocked write; its connection then ends *)
  Unix.close ca;
  Thread.join tha;
  Serve.shutdown server

(* -- scatter bit-identity under concurrency ----------------------------------- *)

(* Real dispatcher domains, several client threads firing randomized
   slices of precomputed pools at randomized models: every response must
   be bit-identical to the sequential whole-pool reference, whatever
   batches the dispatchers happened to coalesce.  With [vectorize], every
   1-4-row segment of a batch is a partial 8-row group the runtime pads. *)
let scatter_identity ~vectorize ~threads () =
  let base_options =
    { base_options with vectorize; use_veclib = vectorize }
  in
  let options = { base_options with threads } in
  let server = Serve.create ~options () in
  let pools =
    Array.init 4 (fun i ->
        let m = model i in
        Serve.register_model server ~name:m.Model.name m;
        let pool = rows_for ~seed:(500 + i) m 64 in
        let reference =
          Compiler.execute (Compiler.compile ~options:base_options m) pool
        in
        (m.Model.name, pool, reference))
  in
  let failures = Atomic.make 0 in
  let client c =
    let rng = Rng.create ~seed:(900 + c) in
    for _ = 1 to 25 do
      let name, pool, reference = pools.(Rng.int rng 4) in
      let rows = 1 + Rng.int rng 4 in
      let off = Rng.int rng (Array.length pool - rows + 1) in
      match Serve.submit server ~model:name (Array.sub pool off rows) with
      | Ok values ->
          let expect = Array.sub reference off rows in
          let same =
            Array.length values = rows
            && (let ok = ref true in
                Array.iteri
                  (fun i v ->
                    if Int64.bits_of_float v <> Int64.bits_of_float expect.(i)
                    then ok := false)
                  values;
                !ok)
          in
          if not same then Atomic.incr failures
      | Error _ -> Atomic.incr failures
    done
  in
  let clients = List.init 6 (fun c -> Thread.create client c) in
  List.iter Thread.join clients;
  Serve.shutdown server;
  check tint
    (Printf.sprintf "threads=%d: all responses bit-identical" threads)
    0 (Atomic.get failures)

(* -- registry: LRU + kcache reload -------------------------------------------- *)

let test_registry_lru () =
  let options = { base_options with serve_engines_cap = 2 } in
  let reg = Registry.create ~options () in
  for i = 0 to 2 do
    Registry.register_model reg ~name:(Printf.sprintf "m%d" i) (model i)
  done;
  let touch name =
    match Registry.engine reg name with
    | Ok e -> check Alcotest.string "engine name" name e.Registry.eng_name
    | Error e -> Alcotest.failf "engine %s: %s" name e
  in
  touch "m0";
  touch "m1";
  check (Alcotest.list Alcotest.string) "two resident" [ "m0"; "m1" ]
    (Registry.loaded reg);
  (* m0 is LRU; loading m2 must evict it *)
  touch "m1";
  touch "m2";
  check (Alcotest.list Alcotest.string) "LRU evicted m0" [ "m1"; "m2" ]
    (Registry.loaded reg);
  (* touching the survivor, then loading m0 again, evicts m2 *)
  touch "m1";
  touch "m0";
  check (Alcotest.list Alcotest.string) "LRU evicted m2" [ "m0"; "m1" ]
    (Registry.loaded reg);
  match Registry.engine reg "unregistered" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unregistered name must error"

let test_registry_kcache_reload () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spnc-serve-kc-%d" (Unix.getpid ()))
  in
  let options =
    {
      base_options with
      use_kernel_cache = true;
      kernel_cache_dir = Some dir;
    }
  in
  let reg = Registry.create ~options () in
  Registry.register_model reg ~name:"m0" (model 0);
  (* earlier tests may have this artifact hot in the in-memory tier; a
     memory hit would skip the disk publish, so start from a cold cache *)
  Compiler.reset_kernel_cache ();
  (match Registry.engine reg "m0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first load: %s" e);
  (* drop the hot engine AND the in-memory compile cache; the reload
     must come back through the persistent disk tier *)
  Registry.flush_engines reg;
  check (Alcotest.list Alcotest.string) "flushed" [] (Registry.loaded reg);
  Compiler.reset_kernel_cache ();
  let before = (Compiler.cache_counters ()).Compiler.disk_hits in
  (match Registry.engine reg "m0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reload: %s" e);
  let after = (Compiler.cache_counters ()).Compiler.disk_hits in
  check tbool "reload served from the kcache disk tier" true (after > before)

let suite =
  [
    ("batcher: work-conserving pop", `Quick, test_ready_at_once);
    ("batcher: flush on size", `Quick, test_flush_on_size);
    ("batcher: EDF ordering", `Quick, test_edf_order);
    ("batcher: starvation guard", `Quick, test_starvation_guard);
    ("batcher: queue caps shed", `Quick, test_queue_caps);
    ("server: shed + depth + unknown model", `Quick, test_server_shed_and_depth);
    ( "server: expired never dispatched",
      `Quick,
      test_server_expired_never_dispatched );
    ("server: bad requests reject", `Quick, test_server_bad_request);
    ("server: shutdown drains as closed", `Quick, test_server_shutdown_drains);
    ("server: on_settle fires once", `Quick, test_on_settle_once);
    ("connection: half-close answers all", `Quick, test_half_close);
    ("connection: no foreign ids after reuse", `Quick, test_no_foreign_ids);
    ("connection: a slow reader delays no one", `Quick, test_slow_reader);
    ( "scatter identity, threads=1",
      `Quick,
      scatter_identity ~vectorize:false ~threads:1 );
    ( "scatter identity, threads=2",
      `Quick,
      scatter_identity ~vectorize:false ~threads:2 );
    ( "scatter identity, threads=4",
      `Quick,
      scatter_identity ~vectorize:false ~threads:4 );
    ( "scatter identity, vectorized, threads=2",
      `Quick,
      scatter_identity ~vectorize:true ~threads:2 );
    ("registry: engine LRU eviction", `Quick, test_registry_lru);
    ("registry: kcache disk reload", `Quick, test_registry_kcache_reload);
  ]
