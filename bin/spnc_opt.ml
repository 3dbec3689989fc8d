(** spnc_opt — the [mlir-opt]-style pass driver.

    Reads a module in the generic textual IR form (from a file or stdin),
    runs a comma-separated pass pipeline, and prints the resulting module,
    e.g.:

    {v
    spnc_opt --pipeline 'canonicalize,lospn-partition=500,lospn-bufferize,verify' in.mlir
    spnc_cli inspect model.spn --hispn | spnc_opt --pipeline lower-to-lospn -
    v}

    Failures are never uncaught exceptions: a failing pass is reported to
    stderr as a structured diagnostic (pass of origin, message,
    backtrace for escaped exceptions), a reproducer bundle is written
    (disable with [--no-reproducer]), and the exit code is nonzero. *)

open Cmdliner
module Pass = Spnc_mlir.Pass

let read_input = function
  | "-" ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf stdin 4096
         done
       with End_of_file -> ());
      Buffer.contents buf
  | path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* Trace/metrics/remark artifacts are emitted even on a failing pipeline:
   a crashing pass is exactly when they are most wanted.  Pass spans come
   from the pass manager itself (lib/mlir/pass.ml). *)
let finish_obs ~trace ~metrics ~remarks code =
  (match trace with
  | Some path ->
      let n = List.length (Spnc_obs.Trace.events ()) in
      Spnc_obs.Trace.set_enabled false;
      Spnc_obs.Trace.write_file path;
      Fmt.epr "trace: %d event(s) written to %s@." n path
  | None -> ());
  (match remarks with
  | Some "-" -> Fmt.epr "%a" Spnc_obs.Remark.pp ()
  | Some path ->
      Spnc_obs.Remark.write_file path;
      Fmt.epr "remarks: %d remark(s) written to %s@."
        (List.length (Spnc_obs.Remark.all ()))
        path
  | None -> ());
  if metrics then
    Fmt.epr "%a" Spnc_obs.Snapshot.pp (Spnc_obs.Snapshot.take ());
  code

let run pipeline input verify_each timings list_passes print_ir no_reproducer
    reproducer_dir =
  let dump_policy =
    if no_reproducer then Pass.No_dump
    else
      match reproducer_dir with
      | Some d -> Pass.Dump_to d
      | None -> Pass.Dump_default
  in
  if list_passes then begin
    List.iter print_endline (Spnc.Pipelines.available ());
    0
  end
  else begin
    let src = read_input input in
    (* IR dumping is the pass manager's instrument (mlir-opt's
       --print-ir-after-all / --print-ir-after-change): dumps and diffs
       go to stderr, the final module to stdout *)
    let instr = Pass.instrument print_ir in
    match
      Spnc.Pipelines.run_on_source_checked ~verify_each ~dump_policy ~instr
        ~pipeline src
    with
    | Error e ->
        Fmt.epr "spnc_opt: %s@." (Spnc.Pipelines.run_error_to_string e);
        1
    | Ok result ->
        if timings then Fmt.epr "%a" Pass.pp_timings (`Passes result.Pass.timings);
        print_string (Spnc_mlir.Printer.modul_to_string result.Pass.modul);
        0
  end

(* Belt and braces: nothing below main should throw, but a stray
   exception must still come out as a diagnostic, not a backtrace. *)
let run pipeline input verify_each timings list_passes print_after_all
    print_after_change no_reproducer reproducer_dir trace metrics remarks =
  if trace <> None then Spnc_obs.Trace.set_enabled true;
  if remarks <> None then Spnc_obs.Remark.set_enabled true;
  let print_ir =
    if print_after_change then Pass.Print_after_change
    else if print_after_all then Pass.Print_after_all
    else Pass.Print_never
  in
  let code =
    try
      run pipeline input verify_each timings list_passes print_ir
        no_reproducer reproducer_dir
    with
    | Sys_error e ->
        Fmt.epr "spnc_opt: %s@." e;
        1
    | Spnc_resilience.Diag.Diag_error d ->
        Fmt.epr "spnc_opt: %a@." Spnc_resilience.Diag.pp d;
        1
  in
  finish_obs ~trace ~metrics ~remarks code

let cmd =
  let pipeline =
    Arg.(
      value & opt string "verify"
      & info [ "pipeline"; "p" ] ~doc:"Comma-separated pass pipeline.")
  in
  let input =
    Arg.(value & pos 0 string "-" & info [] ~docv:"INPUT" ~doc:"Input file or '-' for stdin.")
  in
  let verify_each =
    Arg.(value & flag & info [ "verify-each" ] ~doc:"Run the verifier after every pass.")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings"; "timing" ]
          ~doc:
            "Print the per-pass timing table (seconds, share, minor words, \
             minor collections, direct major words, op-count delta, change \
             marker) to stderr.")
  in
  let list_passes =
    Arg.(value & flag & info [ "list-passes" ] ~doc:"List available passes and exit.")
  in
  let print_after_all =
    Arg.(
      value & flag
      & info
          [ "print-ir-after-all"; "print-after-all" ]
          ~doc:"Print the IR to stderr after every pass (mlir-opt style).")
  in
  let print_after_change =
    Arg.(
      value & flag
      & info
          [ "print-ir-after-change"; "print-after-change" ]
          ~doc:
            "Print a textual IR diff to stderr after each pass that \
             actually changed the module; passes that left the IR alone \
             print nothing.")
  in
  let no_reproducer =
    Arg.(
      value & flag
      & info [ "no-reproducer" ]
          ~doc:"Do not write reproducer bundles on pass failure.")
  in
  let reproducer_dir =
    Arg.(
      value & opt (some string) None
      & info [ "reproducer-dir" ] ~docv:"DIR"
          ~doc:
            "Parent directory for reproducer bundles (default: \
             \\$SPNC_DUMP_DIR or ./spnc-reproducers).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON with one span per pass to \
             $(docv) (docs/OBSERVABILITY.md).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics-registry snapshot to stderr before exiting.")
  in
  let remarks =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "remarks" ] ~docv:"FILE"
          ~doc:
            "Collect optimization remarks (the -Rpass analogue: which \
             rewrite fired, at which spn.node location).  Without a value \
             the remark stream is printed to stderr; with $(docv) it is \
             written as JSON (docs/OBSERVABILITY.md).")
  in
  Cmd.v
    (Cmd.info "spnc_opt" ~version:"1.0.0"
       ~doc:"Run pass pipelines over textual SPNC IR modules.")
    Term.(
      const run $ pipeline $ input $ verify_each $ timings $ list_passes
      $ print_after_all $ print_after_change $ no_reproducer $ reproducer_dir
      $ trace $ metrics $ remarks)

let () = exit (Cmd.eval' cmd)
