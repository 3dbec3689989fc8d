(** spnc_bench — the measured benchmark of the three user paths: batch
    inference from CSV, a cold model file to its first result, and
    wire-level serving.  See README.md in this directory for the metrics.

    {v
    spnc_bench --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is its result
    spnc_bench [--seed N] [--seconds S] [--trace 0|1]
        every workload, each in a fresh child process; with --trace 1,
        each is re-run traced at a quarter of the duration
    spnc_bench --repeat N [--seed N] [--seconds S]
        N runs of each workload (seeds N, N+1, ...): median, quartiles
        and spread of each end-to-end metric, against its bound
    spnc_bench --smoke
        about 1 s per workload, traced and untraced; fails unless every
        metric named in BENCHMARK.json is reported and nothing failed
    v}

    Scratch files, traces and result files go to [_spnc_bench_out/] in
    the working directory. *)

module Json = Spnc_obs.Json

let workloads =
  [
    ("speaker-batch", Cpu_paths.speaker_batch);
    ("rat-cold", Cpu_paths.rat_cold);
    ("serve", Serve_paths.run);
  ]

let out_dir = "_spnc_bench_out"
let workload = ref ""
let seed = ref 1
let seconds = ref 0.0
let trace = ref 0
let repeat = ref 0
let smoke = ref false
let benchmark_file = ref "BENCHMARK.json"
let out_file = ref (Filename.concat out_dir "result.json")

let spec =
  [
    ("--workload", Arg.Set_string workload, "W Run one workload in this process");
    ("--seed", Arg.Set_int seed, "N Seed for weights, rows and arrivals (default 1)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S Measured seconds per run (default: run_seconds of BENCHMARK.json)" );
    ("--trace", Arg.Set_int trace, "0|1 Traced run: per-layer metrics and ledger");
    ("--repeat", Arg.Set_int repeat, "N Runs per workload; report spreads");
    ("--smoke", Arg.Set smoke, " Short runs; check every metric is reported");
    ("--benchmark", Arg.Set_string benchmark_file, "FILE BENCHMARK.json to read");
    ("--out", Arg.Set_string out_file, "FILE Result JSON of a multi-run mode");
  ]

let usage =
  "spnc_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat \
   N] [--smoke]"

(* -- one run ---------------------------------------------------------------- *)

(* a layer the workload does not exercise has no value: report 0 *)
let value name metrics =
  match List.assoc_opt name metrics with
  | Some v when not (Float.is_nan v) -> v
  | _ -> 0.0

let result_json (t : Outcome.tally) metrics =
  Json.Obj
    [
      ("correct", Json.Bool (t.wrong = 0));
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, v, unit) ->
               (m, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             metrics) );
    ]

let run_workload name run =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Fs.mkdir_p tmp;
  let traced = !trace = 1 in
  if traced then Span.enable ();
  let o =
    Fun.protect
      ~finally:(fun () -> Fs.rm_rf tmp)
      (fun () -> run ~seed:!seed ~seconds:!seconds ~trace:traced ~tmp)
  in
  let catalogue, measured =
    if traced then (Metrics.per_layer, o.Outcome.layer)
    else (Metrics.end_to_end, o.Outcome.e2e)
  in
  let metrics = List.map (fun (m, unit) -> (m, value m measured, unit)) catalogue in
  List.iter (fun (m, v, unit) -> Printf.printf "%s %.6g %s\n" m v unit) metrics;
  if traced then begin
    Format.printf "%a%!" Span.pp_ledger (Span.ledger ());
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" name !seed) in
    if Spnc_obs.Trace.dropped () > 0 then
      Printf.printf "# the trace ring dropped %d spans: the ledger is incomplete\n"
        (Spnc_obs.Trace.dropped ());
    Spnc_obs.Trace.write_file path;
    Printf.printf "# chrome trace: %s\n" path
  end;
  print_endline (Json.to_string (result_json o.Outcome.tally metrics));
  if o.Outcome.tally.Outcome.wrong > 0 then exit 1

(* -- several runs, each in a child process ---------------------------------- *)

type bench_file = {
  run_seconds : float;
  e2e_bounds : (string * float) list;
  layer_names : string list;
}

let read_benchmark () =
  let fail e = failwith (Printf.sprintf "%s: %s" !benchmark_file e) in
  let j =
    match Json.parse_file !benchmark_file with Ok j -> j | Error e -> fail e
  in
  let field k j = match Json.member k j with Some v -> v | None -> fail ("no " ^ k) in
  let list k = Option.value ~default:[] (Json.list (field k j)) in
  let name m = Option.get (Json.str (field "name" m)) in
  let bound m = Option.get (Json.num (field "bound" m)) in
  {
    run_seconds = Option.value ~default:15.0 (Json.num (field "run_seconds" j));
    e2e_bounds = List.map (fun m -> (name m, bound m)) (list "end_to_end");
    layer_names = List.map name (list "per_layer");
  }

type child = {
  lines : string list;  (** human-readable output, result line excluded *)
  result : Json.t;
  exited_ok : bool;
}

let run_child ~workload ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--seconds";
      Printf.sprintf "%g" seconds;
      "--trace";
      string_of_int trace;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read acc =
    match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc
  in
  let lines = read [] in
  let exited_ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  match lines with
  | last :: rest -> (
      match Json.parse last with
      | Ok result -> { lines = List.rev rest; result; exited_ok }
      | Error _ -> { lines = List.rev lines; result = Json.Null; exited_ok = false })
  | [] -> { lines = []; result = Json.Null; exited_ok = false }

(* metric names contain dots, so no dotted-path lookup *)
let metric c name =
  Option.bind (Json.member "metrics" c.result) (fun ms ->
      Option.bind (Json.member name ms) (fun m ->
          Option.bind (Json.member "value" m) Json.num))

let num c k =
  Option.value ~default:(-1.0) (Option.bind (Json.member k c.result) Json.num)

let ok c =
  c.exited_ok
  && Json.member "correct" c.result = Some (Json.Bool true)
  && num c "failed" = 0.0

let write_result json =
  Fs.mkdir_p (Filename.dirname !out_file);
  let oc = open_out !out_file in
  output_string oc (Json.to_string_pretty json);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file

let run_all (b : bench_file) =
  let all_ok = ref true in
  let one w ~trace ~seconds =
    Printf.printf "== %s (seed %d, %g s%s)\n%!" w !seed seconds
      (if trace = 1 then ", traced" else "");
    let c = run_child ~workload:w ~seed:!seed ~seconds ~trace in
    List.iter (fun l -> Printf.printf "%s %s\n" w l) c.lines;
    Printf.printf "%s attempted %.0f failed %.0f%s\n%!" w (num c "attempted")
      (num c "failed")
      (if ok c then "" else "  FAILED");
    if not (ok c) then all_ok := false;
    ((if trace = 1 then "traced" else "untraced"), c.result)
  in
  let results =
    List.map
      (fun (w, _) ->
        let untraced = one w ~trace:0 ~seconds:b.run_seconds in
        let traced =
          if !trace = 1 then [ one w ~trace:1 ~seconds:(b.run_seconds /. 4.0) ]
          else []
        in
        (w, Json.Obj (untraced :: traced)))
      workloads
  in
  write_result
    (Json.Obj
       [
         ("seed", Json.Num (float_of_int !seed));
         ("seconds", Json.Num b.run_seconds);
         ("workloads", Json.Obj results);
       ]);
  if not !all_ok then exit 1

(* median, quartiles and relative spread of one metric over the runs;
   the spread of setup_s is not held to its bound, only its median *)
let spread_row runs (m, bound) =
  let vs = Array.of_list (List.filter_map (fun c -> metric c m) runs) in
  let q1, med, q3 =
    if Array.length vs >= 2 then Stat.quartiles vs else (nan, nan, nan)
  in
  let spread = (q3 -. q1) /. med in
  Printf.printf "%-16s %-16s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n" "" m med q1
    q3 (100.0 *. spread) (100.0 *. bound)
    (if m = "setup_s" then ""
     else if spread > bound then "  EXCEEDS BOUND"
     else if spread > bound /. 3.0 then "  above a third of the bound"
     else "");
  ( m,
    Json.Obj
      [
        ("values", Json.List (Array.to_list (Array.map (fun v -> Json.Num v) vs)));
        ("median", Json.Num med);
        ("spread", Json.Num spread);
        ("bound", Json.Num bound);
      ] )

let run_repeat (b : bench_file) =
  let results =
    List.map
      (fun (w, _) ->
        let runs =
          List.init !repeat (fun i ->
              let seed = !seed + i in
              let c = run_child ~workload:w ~seed ~seconds:b.run_seconds ~trace:0 in
              Printf.printf "%s seed %d: %s\n%!" w seed
                (if ok c then "ok" else "FAILED");
              c)
        in
        Printf.printf "%-16s %-16s %12s %12s %12s %8s %8s\n" w "metric" "median" "q1"
          "q3" "spread" "bound";
        (w, Json.Obj (List.map (spread_row runs) b.e2e_bounds)))
      workloads
  in
  write_result
    (Json.Obj
       [
         ("first_seed", Json.Num (float_of_int !seed));
         ("runs", Json.Num (float_of_int !repeat));
         ("seconds", Json.Num b.run_seconds);
         ("workloads", Json.Obj results);
       ])

let run_smoke (b : bench_file) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun p -> problems := p :: !problems) fmt in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (trace, names) ->
          let c = run_child ~workload:w ~seed:!seed ~seconds:1.0 ~trace in
          if not (ok c) then problem "%s (trace %d): failed" w trace;
          List.iter
            (fun m ->
              if metric c m = None then problem "%s (trace %d): no %s" w trace m)
            names;
          Printf.printf "%s trace %d: attempted %.0f failed %.0f\n%!" w trace
            (num c "attempted") (num c "failed"))
        [ (0, List.map fst b.e2e_bounds); (1, b.layer_names) ])
    workloads;
  List.iter print_endline (List.rev !problems);
  if !problems <> [] then exit 1

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload <> "" then begin
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
    | Some run ->
        if !seconds <= 0.0 then seconds := (read_benchmark ()).run_seconds;
        (* a run that cannot finish in time, or is stopped, still exits
           through [at_exit], which stops any server it started *)
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               prerr_endline "spnc_bench: run timed out";
               exit 3));
        List.iter
          (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
          [ Sys.sigterm; Sys.sigint ];
        ignore (Unix.alarm (int_of_float !seconds + 100));
        run_workload !workload run
  end
  else begin
    let b = read_benchmark () in
    let b = if !seconds > 0.0 then { b with run_seconds = !seconds } else b in
    if !smoke then run_smoke b else if !repeat > 0 then run_repeat b else run_all b
  end
