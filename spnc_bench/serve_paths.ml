(** The wire-to-wire serving path: [spnc_serve serve] as a child
    process hosting 32 tiny tenants, driven open loop over one TCP
    connection by a load generator of two threads (a sender that writes
    each pre-encoded request at its due time, a receiver that reads the
    responses).  Latency is timed from each request's due time, so a
    late sender counts against the server, not in its favour.

    A traced run also replays the schedule against an in-process
    {!Spnc_serve.Server}, with spans around the protocol decode, submit,
    settle and encode calls, to split a request into layers. *)

module C = Spnc.Compiler
module Serve = Spnc_serve.Server
module Proto = Spnc_serve.Protocol
module T = Spnc_serve.Types
module Obs = Spnc_obs.Metrics

(* what [spnc_serve serve] runs with its default flags *)
let server_options = Spnc.Options.default

(* the latency limit (10x the 2 ms flush timer): the goodput counts
   requests answered within it, and a ladder step is within the limits
   when its p99 is, nothing failed and the sender's lag p99 stayed
   within [lag_limit_ms] *)
let latency_limit_ms = 20.0
let lag_limit_ms = 2.0

(* The ladder's rates in requests/s, a quarter of the run each.  At 1000
   a batch holds about one request.  The ladder stops well below the
   server's capacity on a two-core host (about 6000): there, a few
   seconds of host slowdown let the backlog grow until requests were
   shed or the server ran out of threads, so whether a run failed
   depended on the host, not the code. *)
let ladder = [ 1000.0; 2000.0; 3000.0; 4000.0 ]

(* Set-ups per run, the last one starting the server the schedule runs
   on; setup_s is their median.  They are wall-clock times: the server
   compiles in its own process, on either core, and its set-up time
   followed the benchmark process's speed probe (see speed.ml) too
   loosely to be scaled by it (correlation 0.37 over 72 set-ups). *)
let setups = 9

type tenant = {
  name : string;
  model : Spnc_spn.Model.t;
  compiled : C.compiled;
  pool : float array array;
  expected : float array;  (** local [Compiler.execute] over [pool] *)
}

let tenants ~seed =
  Array.mapi
    (fun i model ->
      (* finite in single precision too, so no output guard fires *)
      let pool =
        Gen.tenant_pool ~seed i ~finite:(fun row ->
            Spnc_spn.Infer.log_likelihood model row > -80.0)
      in
      let compiled = C.compile ~options:server_options model in
      {
        name = model.Spnc_spn.Model.name;
        model;
        compiled;
        pool;
        expected = C.execute compiled pool;
      })
    (Gen.tenant_models ~seed)

let slice tn (r : Gen.request) = Array.sub tn.pool r.Gen.offset r.Gen.rows

(** Request lines, newline included; request [i] has id [i]. *)
let encode tenants (reqs : Gen.request array) =
  Array.mapi
    (fun i (r : Gen.request) ->
      let tn = tenants.(r.Gen.tenant) in
      Proto.encode_request
        {
          Proto.wr_id = i;
          wr_model = tn.name;
          wr_rows = slice tn r;
          wr_deadline_ms = None;
        }
      ^ "\n")
    reqs

let correct tenants (r : Gen.request) (resp : T.response option) =
  match resp with
  | Some (Ok values) ->
      Outcome.bits_equal values
        (Array.sub tenants.(r.Gen.tenant).expected r.Gen.offset r.Gen.rows)
  | _ -> false

(* -- the server process ---------------------------------------------------- *)

type server = { pid : int; stdout : in_channel; port : int }

let live : server list ref = ref []

let server_exe () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "spnc_serve.exe")
  in
  if not (Sys.file_exists exe) then failwith ("server binary not built: " ^ exe);
  exe

let stop s =
  live := List.filter (fun l -> l.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 500;
  close_in_noerr s.stdout

let () = at_exit (fun () -> List.iter stop !live)

(* the server announces its port only once it is listening *)
let spawn ~models_dir =
  let exe = server_exe () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--models-dir"; models_dir; "--port"; "0" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let s = { pid; stdout = Unix.in_channel_of_descr r; port = 0 } in
  live := s :: !live;
  match
    Scanf.sscanf (input_line s.stdout) "spnc_serve: listening on %_s@:%d" Fun.id
  with
  | port -> { s with port }
  | exception (End_of_file | Scanf.Scan_failure _ | Failure _) ->
      stop s;
      failwith "spnc_serve did not start"

let connect s =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(** Set-up: spawn, wait for the listening line, then one single-row
    request per tenant until every one has answered (each answer needs
    its model compiled and loaded). *)
let setup ~models_dir tenants tally =
  let t0 = Span.now () in
  let s = spawn ~models_dir in
  let fd = connect s in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  let ic = Unix.in_channel_of_descr fd in
  let reqs =
    Array.mapi (fun i _ -> { Gen.due = 0.0; tenant = i; offset = 0; rows = 1 }) tenants
  in
  Array.iter (fun line -> write_all fd line 0) (encode tenants reqs);
  let answers = Array.make (Array.length reqs) None in
  Array.iter
    (fun _ ->
      match Proto.decode_response (input_line ic) with
      | Ok (id, resp) when id >= 0 && id < Array.length answers ->
          answers.(id) <- Some resp
      | Ok _ | Error _ -> ())
    reqs;
  let dt = Span.now () -. t0 in
  close_in ic;
  Array.iteri
    (fun i r -> Outcome.count_checked tally ~correct:(correct tenants r answers.(i)))
    reqs;
  (s, dt)

(* -- open loop ------------------------------------------------------------- *)

type run = {
  reqs : Gen.request array;
  lag : float array;  (** send time - due time, seconds *)
  latency : float array;  (** completion - due time; infinity if failed *)
  responses : T.response option array;
}

(* sleep until [due]; the lateness of the return is the sender's lag *)
let wait_until due =
  let wait = due -. Span.now () in
  if wait > 0.0 then Unix.sleepf wait

let finish_run tenants reqs ~start ~lag ~completed responses =
  let latency =
    Array.mapi
      (fun i (r : Gen.request) ->
        if correct tenants r responses.(i) then completed.(i) -. (start +. r.Gen.due)
        else infinity)
      reqs
  in
  { reqs; lag; latency; responses }

let run_over_tcp s tenants reqs =
  let lines = encode tenants reqs in
  let n = Array.length reqs in
  let fd = connect s in
  let ic = Unix.in_channel_of_descr fd in
  let received = Array.make n nan and responses = Array.make n None in
  let got = Atomic.make 0 in
  let receiver =
    Domain.spawn (fun () ->
        try
          while Atomic.get got < n do
            let line = input_line ic in
            let t = Span.now () in
            match Proto.decode_response line with
            | Ok (id, resp) when id >= 0 && id < n && Option.is_none responses.(id) ->
                received.(id) <- t;
                responses.(id) <- Some resp;
                Atomic.incr got
            | Ok _ | Error _ -> ()
          done
        with End_of_file | Sys_error _ -> ())
  in
  (* a server that stops reading fails the run instead of hanging it:
     after a send blocked for 5 s the rest of the schedule is not sent *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  let broken = ref false in
  let start = Span.now () +. 0.05 in
  let lag =
    Array.mapi
      (fun i (r : Gen.request) ->
        let due = start +. r.Gen.due in
        if not !broken then wait_until due;
        let t = Span.now () in
        if not !broken then (
          try write_all fd lines.(i) 0 with Unix.Unix_error _ -> broken := true);
        if !broken then infinity else t -. due)
      reqs
  in
  if !broken then prerr_endline "spnc_bench: the server stopped reading requests";
  (* stragglers get 10 s; then the socket is shut so the receiver sees
     end of file and the missing responses count as failed *)
  let give_up = Span.now () +. 10.0 in
  while Atomic.get got < n && Span.now () < give_up do
    Unix.sleepf 0.005
  done;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Domain.join receiver;
  close_in_noerr ic;
  finish_run tenants reqs ~start ~lag ~completed:received responses

(** The same schedule against an in-process server: the sender decodes
    and submits each request line at its due time; the waiter settles
    the tickets in order and encodes the responses.  A request's span
    runs from its due time to its encoded response, with the sender's
    late start, decode and submit (on the sender's domain) and the
    settle and encode (on the waiter's) as children. *)
let run_in_process server tenants reqs =
  let lines = encode tenants reqs in
  let n = Array.length reqs in
  let finished = Array.make n nan and responses = Array.make n None in
  let queue = Queue.create () in
  let m = Mutex.create () and nonempty = Condition.create () in
  let start = Span.now () +. 0.05 in
  let waiter =
    Domain.spawn (fun () ->
        for _ = 1 to n do
          Mutex.lock m;
          while Queue.is_empty queue do
            Condition.wait nonempty m
          done;
          let i, root, ticket, submitted = Queue.pop queue in
          Mutex.unlock m;
          Span.with_id ~id:root
            ~start:(start +. reqs.(i).Gen.due)
            ~parent:0 ~layer:"op" "request"
            (fun root ->
              let resp =
                Span.timed ~start:submitted ~parent:root ~layer:"serve"
                  "serve.settle" (fun () -> Serve.await ticket)
              in
              ignore
                (Span.timed ~parent:root ~layer:"serve" "serve.encode" (fun () ->
                     Proto.encode_response ~id:i resp));
              finished.(i) <- Span.now ();
              responses.(i) <- Some resp)
        done)
  in
  let lag =
    Array.mapi
      (fun i (r : Gen.request) ->
        let due = start +. r.Gen.due in
        wait_until due;
        let t = Span.now () in
        let root = Span.fresh () in
        Span.timed ~start:due ~parent:root ~layer:"loadgen" "loadgen.lag" ignore;
        let wr =
          Span.timed ~parent:root ~layer:"serve" "serve.decode" (fun () ->
              match Proto.decode_request lines.(i) with
              | Ok wr -> wr
              | Error e -> failwith e)
        in
        let ticket =
          Span.timed ~parent:root ~layer:"serve" "serve.submit" (fun () ->
              Serve.submit_async server ~model:wr.Proto.wr_model wr.Proto.wr_rows)
        in
        let submitted = Span.now () in
        Mutex.lock m;
        Queue.push (i, root, ticket, submitted) queue;
        Condition.signal nonempty;
        Mutex.unlock m;
        t -. due)
      reqs
  in
  Domain.join waiter;
  finish_run tenants reqs ~start ~lag ~completed:finished responses

let tally_run tally tenants run =
  Array.iteri
    (fun i r ->
      match run.responses.(i) with
      | Some (Ok _) as resp ->
          Outcome.count_checked tally ~correct:(correct tenants r resp)
      | Some (Error _) | None -> Outcome.count tally ~ok:false)
    run.reqs

(** Requests due within [lo, hi) seconds of the schedule start. *)
let window run lo hi =
  List.filter
    (fun i -> run.reqs.(i).Gen.due >= lo && run.reqs.(i).Gen.due < hi)
    (List.init (Array.length run.reqs) Fun.id)

type step = {
  rate : float;
  p50_ms : float;
  p99_ms : float;
  lag_p99_ms : float;
  failures : int;
  goodput : float;  (** rows/s answered correctly within [latency_limit_ms] *)
}

let step run ~rate ~lo ~hi =
  let idx = window run lo hi in
  let over a = Array.of_list (List.map (fun i -> a.(i)) idx) in
  let rows_within =
    List.fold_left
      (fun a i ->
        if run.latency.(i) <= latency_limit_ms /. 1e3 then a + run.reqs.(i).Gen.rows
        else a)
      0 idx
  in
  {
    rate;
    p50_ms = 1e3 *. Stat.percentile (over run.latency) 0.5;
    p99_ms = 1e3 *. Stat.percentile (over run.latency) 0.99;
    lag_p99_ms = 1e3 *. Stat.percentile (over run.lag) 0.99;
    failures = List.length (List.filter (fun i -> run.latency.(i) = infinity) idx);
    goodput = float_of_int rows_within /. (hi -. lo);
  }

let passes s =
  s.p99_ms <= latency_limit_ms && s.failures = 0 && s.lag_p99_ms <= lag_limit_ms

let print_step s =
  Printf.printf
    "# %5.0f rps: p50 %.3f ms  p99 %.3f ms  lag p99 %.3f ms  failed %d  %.0f \
     rows/s in limit%s\n"
    s.rate s.p50_ms s.p99_ms s.lag_p99_ms s.failures s.goodput
    (if passes s then "" else "  (over the limit)")

(** A run's phases as [(rate, lo, hi)]: the ladder's steps, each an
    equal share of [seconds]. *)
let phases ~seconds =
  let d = seconds /. float_of_int (List.length ladder) in
  List.mapi (fun k r -> (r, float_of_int k *. d, float_of_int (k + 1) *. d)) ladder

(* a step's tail is read from its windows of about this many seconds of
   the schedule; see [e2e] *)
let tail_window_s = 1.0

(** The p90 of the quietest window of [lo, hi): the one whose p90 is
    lowest. *)
let quiet_p90 run ~lo ~hi =
  let k = max 1 (Float.to_int (Float.round ((hi -. lo) /. tail_window_s))) in
  let d = (hi -. lo) /. float_of_int k in
  List.fold_left Float.min infinity
    (List.init k (fun j ->
         let lo = lo +. (float_of_int j *. d) in
         Stat.percentile
           (Array.of_list (List.map (fun i -> run.latency.(i)) (window run lo (lo +. d))))
           0.9))

(** End-to-end metrics, over every request of the run.  The tail is the
    p90 of each step's quietest second, averaged over the steps.  The
    host stalls at times (the sender's own lag p99 then reached 5 ms),
    and every request due meanwhile queues: over 12 seeds, one run's
    stalls covered two whole steps and raised its p90 over the run from
    3.2 to 5.1 ms, and the quartile spread of that p90 was 12%, of the
    median of 2-second window p90s 7%, of this tail 3%.  A slowdown of
    the server shows in every second; a stall that misses one second of
    a step does not show.  [rows_per_s] is the goodput: rows per second
    answered correctly within 20 ms (10x the flush timer) over the whole
    run. *)
let e2e ~setup_times ~peak_rss run ~seconds =
  let phases = phases ~seconds in
  let steps = List.map (fun (rate, lo, hi) -> step run ~rate ~lo ~hi) phases in
  List.iter print_step steps;
  Printf.printf "# highest step within the limits: %.0f rps\n"
    (List.fold_left (fun acc s -> if passes s then s.rate else acc) 0.0 steps);
  let tails = List.map (fun (_, lo, hi) -> quiet_p90 run ~lo ~hi) phases in
  [
    ("setup_s", Stat.percentile setup_times 0.5);
    ("latency_ms_p50", 1e3 *. Stat.percentile run.latency 0.5);
    ("latency_ms_tail", 1e3 *. Stat.mean (Array.of_list tails));
    ("rows_per_s", (step run ~rate:0.0 ~lo:0.0 ~hi:seconds).goodput);
    ("peak_rss_mb", peak_rss);
  ]

(** Kernel and finalize cost at the batch sizes serving sees: each
    request's rows through a hot engine on its own. *)
let tiny_batch_kernel tenants (reqs : Gen.request array) =
  let engines = Array.map (fun tn -> C.load_exec tn.compiled) tenants in
  Array.iter
    (fun (r : Gen.request) ->
      let tn = tenants.(r.Gen.tenant) in
      let raw =
        Call.execute ~parent:0 engines.(r.Gen.tenant)
          ~flat:(Array.concat (Array.to_list (slice tn r)))
          ~rows:r.Gen.rows ~num_features:tn.model.Spnc_spn.Model.num_features
      in
      ignore (Call.finalize ~parent:0 tn.compiled raw))
    reqs;
  Array.iter Spnc_runtime.Exec.shutdown engines

(* the serving layer's own instruments, over the traced phase *)
let server_metrics () =
  let batch_rows = Obs.histogram "serve.batch_rows" in
  let queue_wait = Obs.histogram "runtime.exec.queue_wait_seconds" in
  [
    ("serve.queue_wait_ms_p50", 1e3 *. Obs.histogram_percentile queue_wait 0.5);
    (* batch sizes are observed as rows x 1e-6 *)
    ( "serve.batch_rows_mean",
      1e6 *. Obs.histogram_sum batch_rows
      /. float_of_int (max 1 (Obs.histogram_count batch_rows)) );
    ("serve.shed", float_of_int (Obs.counter_value (Obs.counter "serve.shed")));
  ]

let traced_layers ~tcp ~untraced ~traced ~server tenants =
  let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  let p50_ms a = 1e3 *. Stat.percentile (finite a) 0.5 in
  let l = Span.ledger () in
  let settle = Span.durations l (Span.named "serve.settle") in
  let us name = 1e6 *. Stat.mean (Span.durations l (Span.named name)) in
  server
  @ Metrics.from_spans l
  @ Metrics.from_artifacts (Array.to_list (Array.map (fun tn -> tn.compiled) tenants))
  @ [
      Metrics.spflow
        (Array.to_list (Array.map (fun tn -> (tn.model, tn.pool)) tenants));
      Metrics.overhead ~untraced:(finite untraced.latency)
        ~traced:(finite traced.latency);
      ("serve.decode_us", us "serve.decode");
      ("serve.submit_us", us "serve.submit");
      ("serve.settle_ms_p50", 1e3 *. Stat.percentile settle 0.5);
      ("serve.settle_ms_p99", 1e3 *. Stat.percentile settle 0.99);
      ("serve.encode_us", us "serve.encode");
      ("serve.wire_ms_p50", p50_ms tcp.latency -. p50_ms untraced.latency);
      ("loadgen.lag_ms_p99", 1e3 *. Stat.percentile tcp.lag 0.99);
      ("loadgen.sent", float_of_int (Array.length tcp.reqs));
      ( "loadgen.received",
        float_of_int
          (Array.fold_left
             (fun a r -> if Option.is_none r then a else a + 1)
             0 tcp.responses) );
    ]

let run ~seed ~seconds ~trace ~tmp =
  let tally = Outcome.tally () in
  let tenants = tenants ~seed in
  let models_dir = Filename.concat tmp "models" in
  Fs.mkdir_p models_dir;
  Array.iter
    (fun tn ->
      Spnc_spn.Serialize.write_file
        (Filename.concat models_dir (tn.name ^ ".spn"))
        tn.model)
    tenants;
  let schedule ~stream seconds =
    Gen.schedule ~seed ~stream
      (List.map (fun (rate, lo, hi) -> (rate, hi -. lo)) (phases ~seconds))
  in
  if not trace then begin
    let setup_times = Array.make setups 0.0 in
    for i = 1 to setups - 1 do
      let s, dt = setup ~models_dir tenants tally in
      setup_times.(i) <- dt;
      stop s
    done;
    let s, dt = setup ~models_dir tenants tally in
    setup_times.(0) <- dt;
    let run = run_over_tcp s tenants (schedule ~stream:10 seconds) in
    let peak_rss = Outcome.peak_rss_mb (string_of_int s.pid) in
    stop s;
    tally_run tally tenants run;
    { Outcome.tally; e2e = e2e ~setup_times ~peak_rss run ~seconds; layer = [] }
  end
  else begin
    let third = seconds /. 3.0 in
    (* 1: over TCP, untraced: the load generator's guards and the wire
       latency *)
    Spnc_obs.Trace.set_enabled false;
    let s, _ = setup ~models_dir tenants tally in
    let tcp = run_over_tcp s tenants (schedule ~stream:11 third) in
    stop s;
    (* 2, 3: in process, untraced then traced *)
    let server = Serve.create ~options:server_options () in
    Array.iter (fun tn -> Serve.register_model server ~name:tn.name tn.model) tenants;
    Array.iter
      (fun tn -> ignore (Serve.submit server ~model:tn.name [| tn.pool.(0) |]))
      tenants;
    let untraced = run_in_process server tenants (schedule ~stream:12 third) in
    Obs.reset_all ();
    Spnc_obs.Trace.set_enabled true;
    let traced = run_in_process server tenants (schedule ~stream:13 third) in
    Serve.shutdown server;
    List.iter (tally_run tally tenants) [ tcp; untraced; traced ];
    (* read before [tiny_batch_kernel]: its executes also report into
       the runtime's queue-wait histogram *)
    let server = server_metrics () in
    tiny_batch_kernel tenants traced.reqs;
    {
      Outcome.tally;
      e2e = [];
      layer = traced_layers ~tcp ~untraced ~traced ~server tenants;
    }
  end
