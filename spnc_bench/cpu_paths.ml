(** The two in-process CPU paths: warm CSV to log-likelihood
    (speaker-batch) and a cold model file to its first result
    (rat-cold). *)

module C = Spnc.Compiler
module Exec = Spnc_runtime.Exec
module Infer = Spnc_spn.Infer

(* The paper's best CPU configuration (Fig. 6: vectorized, vector
   library, shuffled loads) on one worker, so that a result does not
   depend on a second core of a shared two-core host being free. *)
let options =
  {
    Spnc.Options.default with
    vectorize = true;
    use_veclib = true;
    use_shuffle = true;
    (* the noisy speaker rows have missing values *)
    support_marginal = true;
    threads = 1;
    batch_size = 4096;
  }

(* rounds per run, each a set-up and then operations; setup_s is the
   median of their set-ups *)
let rounds = 5

(** Times of one kind of timed step, in seconds. *)
type times = {
  wall : float array;  (** as measured *)
  scaled : float array;  (** at the reference speed of {!Speed} *)
}

type measured = {
  setups : times;
  untraced : times;
  traced : times;  (** empty unless the run is traced *)
  probes : float array;
}

(** [rounds] rounds, each [setup ()] and then [op 0], [op 1], ... for
    an equal share of [seconds]; [setup] and [op] return the seconds
    they timed.  The set-ups are spread over the run, so their median
    does not hang on the host's speed in its first seconds.  A traced
    run spends half of each round's operations untraced and half traced
    and returns both halves, so the tracing overhead is measured on the
    same process and inputs. *)
let measure ~seconds ~trace ~setup op =
  let speed = Speed.start () in
  let timed acc dt = acc := (dt, Speed.scale speed dt) :: !acc in
  let i = ref 0 in
  let loop seconds acc =
    let stop = Span.now () +. seconds in
    while Span.now () < stop do
      timed acc (op !i);
      incr i
    done
  in
  let share = seconds /. float_of_int rounds in
  let setups = ref [] and untraced = ref [] and traced = ref [] in
  for _ = 1 to rounds do
    timed setups (setup ());
    if not trace then loop share untraced
    else begin
      Spnc_obs.Trace.set_enabled false;
      loop (share /. 2.0) untraced;
      Spnc_obs.Trace.set_enabled true;
      loop (share /. 2.0) traced
    end
  done;
  let times l =
    let l = Array.of_list (List.rev !l) in
    { wall = Array.map fst l; scaled = Array.map snd l }
  in
  {
    setups = times setups;
    untraced = times untraced;
    traced = times traced;
    probes = Speed.probes speed;
  }

(** End-to-end metrics of a closed loop whose operations each evaluate
    [rows] rows and all do the same work, from the times at the
    reference speed: the median of the set-ups, the p50 and p90 of the
    operations over the whole run, and rows per second of operation
    time.  Scaled, the p50 of a run spread by 1-9% over the 10 seeds of
    a set, where wall-clock statistics spread by 11-31% (README.md).
    The wall-clock values are printed beside them. *)
let e2e m ~rows =
  let ms q a = 1e3 *. Stat.percentile a q in
  let ops = m.untraced in
  let n = Array.length ops.wall in
  Printf.printf
    "# %d operations; wall clock: set-up %.4f s, p50 %.3f ms, p90 %.3f ms; \
     probe p10/p50/p90 %.3f/%.3f/%.3f ms (reference %.3f ms)\n"
    n
    (Stat.percentile m.setups.wall 0.5)
    (ms 0.5 ops.wall) (ms 0.9 ops.wall) (ms 0.1 m.probes) (ms 0.5 m.probes)
    (ms 0.9 m.probes) (1e3 *. Speed.reference_s);
  [
    ("setup_s", Stat.percentile m.setups.scaled 0.5);
    ("latency_ms_p50", ms 0.5 ops.scaled);
    ("latency_ms_tail", ms 0.9 ops.scaled);
    ("rows_per_s", float_of_int (rows * n) /. Stat.sum ops.scaled);
    ("peak_rss_mb", Outcome.peak_rss_mb "self");
  ]

let layer_metrics m ~compiled ~spflow_inputs =
  Metrics.from_spans (Span.ledger ())
  @ Metrics.from_artifacts compiled
  @ [
      Metrics.spflow spflow_inputs;
      Metrics.overhead ~untraced:m.untraced.scaled ~traced:m.traced.scaled;
    ]

let finish ~tally ~trace ~rows m layer =
  {
    Outcome.tally;
    e2e = (if trace then [] else e2e m ~rows);
    layer = (if trace then layer m else []);
  }

let write_models ~tmp prefix models =
  Array.mapi
    (fun i m ->
      let path = Filename.concat tmp (Printf.sprintf "%s-%d.spn" prefix i) in
      Spnc_spn.Serialize.write_file path m;
      path)
    models

let reference m rows = Array.map (Infer.log_likelihood m) rows

(* -- speaker-batch --------------------------------------------------------- *)

let speaker_batch ~seed ~seconds ~trace ~tmp =
  let tally = Outcome.tally () in
  let models = Gen.speaker_models ~seed in
  let paths = write_models ~tmp "speaker" models in
  let csvs = Gen.speaker_csvs ~seed in
  let probe = Gen.speech_rows (Gen.rng ~seed ~stream:6) Spnc_data.Speech.Noisy ~rows:64 in
  let probe_ref = Array.map (fun m -> reference m probe) models in
  (* set-up: model files to every engine's first result, caches and
     heap emptied, as in a fresh process *)
  let engines = ref [||] in
  let setup () =
    Array.iter (fun e -> Exec.shutdown e.Call.exec) !engines;
    engines := [||];
    C.reset_kernel_cache ();
    Gc.full_major ();
    let t0 = Span.now () in
    let firsts =
      Array.map
        (fun path ->
          Span.with_id ~parent:0 ~layer:"setup" "setup" (fun parent ->
              let _, e, out = Call.first_result ~parent ~options path probe in
              (e, out)))
        paths
    in
    let dt = Span.now () -. t0 in
    Array.iteri
      (fun k (_, out) ->
        Outcome.count_checked tally
          ~correct:(Outcome.close ~expected:probe_ref.(k) out))
      firsts;
    engines := Array.map fst firsts;
    dt
  in
  (* first output of each (model, csv) pair: checked against the
     reference interpreter on 64 rows; every later call, on the engines
     of any set-up, must repeat it bit for bit *)
  let firsts = Hashtbl.create 32 in
  let check ~k ~j (d : Spnc_data.Synth.dataset) out =
    match Hashtbl.find_opt firsts (k, j) with
    | Some first -> Outcome.bits_equal first out
    | None ->
        Hashtbl.add firsts (k, j) out;
        let sample = Array.init 64 (fun r -> r * (Gen.speaker_rows / 64)) in
        let rows = Array.map (fun r -> d.Spnc_data.Synth.samples.(r)) sample in
        Outcome.close ~expected:(reference models.(k) rows)
          (Array.map (fun r -> out.(r)) sample)
  in
  (* one operation identifies the speakers of one CSV text: parse it
     once, then score every row on every speaker's model *)
  let op i =
    let j = i mod Array.length csvs in
    let t0 = Span.now () in
    let d, outs =
      Span.with_id ~parent:0 ~layer:"op" "call" (fun parent ->
          let d = Call.csv_parse ~parent ~rows:Gen.speaker_rows csvs.(j) in
          let flat = Call.to_flat ~parent d in
          ( d,
            Array.map
              (fun e ->
                let raw =
                  Call.execute ~parent e.Call.exec ~flat
                    ~rows:(Spnc_data.Synth.num_rows d)
                    ~num_features:d.Spnc_data.Synth.num_features
                in
                Call.finalize ~parent e.Call.compiled raw)
              !engines ))
    in
    let dt = Span.now () -. t0 in
    Array.iteri (fun k out -> Outcome.count_checked tally ~correct:(check ~k ~j d out)) outs;
    dt
  in
  let measured = measure ~seconds ~trace ~setup op in
  finish ~tally ~trace ~rows:Gen.speaker_rows measured (fun m ->
      let rows =
        Array.concat
          (Array.to_list
             (Array.map
                (fun csv ->
                  match Spnc_data.Csv.parse csv with
                  | Ok d -> d.Spnc_data.Synth.samples
                  | Error e -> failwith e)
                csvs))
      in
      layer_metrics m
        ~compiled:(Array.to_list (Array.map (fun e -> e.Call.compiled) !engines))
        ~spflow_inputs:(Array.to_list (Array.map (fun m -> (m, rows)) models)))

(* -- rat-cold -------------------------------------------------------------- *)

let rat_cold ~seed ~seconds ~trace ~tmp =
  let tally = Outcome.tally () in
  let next_model = Gen.rat_model_stream ~seed in
  let rows = Gen.rat_inputs ~seed in
  let path = Filename.concat tmp "rat.spn" in
  (* the first model and its artifact, for the per-layer metrics; no
     more are kept, so that the heap stays small *)
  let sampled = ref [] in
  (* a model no compile has seen, with the memory tier and the heap
     emptied, as in a fresh process: without the collection, the
     garbage of one compile was collected during the next, and every
     other cold start took 20% longer *)
  let cold ~layer =
    let m = next_model () in
    Spnc_spn.Serialize.write_file path m;
    let expected = reference m rows in
    C.reset_kernel_cache ();
    Gc.full_major ();
    let t0 = Span.now () in
    let _, e, out =
      Span.with_id ~parent:0 ~layer "first_result" (fun parent ->
          Call.first_result ~parent ~options path rows)
    in
    let dt = Span.now () -. t0 in
    Exec.shutdown e.Call.exec;
    Outcome.count_checked tally ~correct:(Outcome.close ~expected out);
    if !sampled = [] then sampled := [ (m, e.Call.compiled) ];
    dt
  in
  (* the operation is itself a cold start, so each round's set-up is
     one more *)
  let measured =
    measure ~seconds ~trace ~setup:(fun () -> cold ~layer:"setup") (fun _ ->
        cold ~layer:"op")
  in
  finish ~tally ~trace ~rows:Gen.rat_rows measured (fun m ->
      layer_metrics m ~compiled:(List.map snd !sampled)
        ~spflow_inputs:(List.map (fun (m, _) -> (m, rows)) !sampled))
