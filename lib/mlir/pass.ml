(** Pass manager with per-pass wall-clock timing and crash isolation.

    The timing ledger is load-bearing for the reproduction: the paper's
    Figs. 10–13 plot compilation time against partition size and -O level,
    and §V-B.1 breaks compilation time down per stage (instruction
    selection 27%, register allocation 25%, ...).  Textual pipelines
    ([spnc_opt], [Pipelines.run_on_source_checked]) run through this pass
    manager.  Two callers do not: [Compiler.compile_full] times its own
    stages, one [Trace] span each, and the fuzz harness runs its passes
    in a loop of its own.

    Crash isolation (resilience layer, docs/RESILIENCE.md): each pass
    runs under an exception barrier with a pre-pass snapshot of the
    generic-form IR.  On failure — a pass returning [Error], verifier
    diagnostics under [verify_each], or an escaped exception — the
    checked entry point {!run_pipeline_checked} returns a typed
    {!failure} naming the offending pass, carrying a structured
    {!Spnc_resilience.Diag.t}, and (unless dumping is disabled) writes a
    self-contained reproducer bundle that replays the failure through
    [spnc_opt]. *)

module Diag = Spnc_resilience.Diag
module Reproducer = Spnc_resilience.Reproducer

type timing = {
  pass_name : string;
  seconds : float;
  ops_before : int;  (** op count when the pass started *)
  ops_after : int;  (** op count when the pass finished *)
  changed : bool;  (** whether the pass modified the printed IR *)
}

type result = {
  modul : Ir.modul;
  timings : timing list;  (** in execution order *)
}

(* -- Instrumentation (MLIR's --print-ir-after-* in miniature) ---------------- *)

type print_ir =
  | Print_never
  | Print_after_all  (** dump the full IR after every pass *)
  | Print_after_change  (** dump a textual diff, only when the IR changed *)

type instrument = {
  print_ir : print_ir;
  out : Format.formatter;  (** where IR dumps and diffs go *)
}

let no_instrument = { print_ir = Print_never; out = Fmt.stderr }
let instrument ?(out = Fmt.stderr) print_ir = { print_ir; out }

(* -- Pass-ordering legality -------------------------------------------------- *)

type legality = {
  consumes : string option;
      (** IR stage the pass requires on entry; [None] accepts any stage *)
  produces : string option;
      (** IR stage the pass leaves behind; [None] preserves the input stage *)
}

let any_stage = { consumes = None; produces = None }
let preserves stage = { consumes = Some stage; produces = None }
let lowers ~from_ ~to_ = { consumes = Some from_; produces = Some to_ }

type pass = {
  name : string;
  run : Ir.modul -> (Ir.modul, string) Result.t;
  legality : legality;
}

(** [make ?legality name f] wraps a total transformation as a pass. *)
let make ?(legality = any_stage) name f =
  { name; run = (fun m -> Ok (f m)); legality }

(** [make_fallible ?legality name f] wraps a transformation that can fail. *)
let make_fallible ?(legality = any_stage) name f = { name; run = f; legality }

(** [validate_ordering ~start passes] threads the IR stage through the
    pipeline: each pass must find the stage its [legality.consumes]
    declares (or accept any), and advances the stage per
    [legality.produces].  The first violation is reported with both the
    expected and the actual stage so CI canaries fail loudly. *)
let validate_ordering ~(start : string) (passes : pass list) :
    (unit, string) Stdlib.result =
  let step stage (p : pass) =
    match stage with
    | Error _ as e -> e
    | Ok current -> (
        match p.legality.consumes with
        | Some want when not (String.equal want current) ->
            Error
              (Fmt.str
                 "illegal pass ordering: pass '%s' consumes %s IR but would \
                  run on %s IR"
                 p.name want current)
        | _ ->
            Ok (match p.legality.produces with Some s -> s | None -> current))
  in
  match List.fold_left step (Ok start) passes with
  | Ok _ -> Ok ()
  | Error _ as e -> e

(** [verify_pass] runs the verifier and fails the pipeline on diagnostics. *)
let verify_pass =
  {
    name = "verify";
    run =
      (fun m ->
        match Verifier.verify m with
        | [] -> Ok m
        | errs -> Error (Verifier.errors_to_string errs));
    legality = any_stage;
  }

let canonicalize_pass = make "canonicalize" Canonicalize.run
let cse_pass = make "cse" Cse.run
let dce_pass = make "dce" Rewrite.dce

exception Pipeline_error of string * string  (** pass name, message *)

(** Where the exception barrier dumps reproducer bundles. *)
type dump_policy =
  | No_dump  (** return the failure only (unit tests, library callers) *)
  | Dump_default  (** {!Spnc_resilience.Reproducer.default_dir} *)
  | Dump_to of string  (** explicit parent directory *)

type failure = {
  failed_pass : string;
  diag : Diag.t;
  ir_before : string;  (** generic-form IR snapshot before the failing pass *)
  replay_pipeline : string;  (** pipeline string that replays the failure *)
  bundle : Reproducer.bundle option;  (** written reproducer, if dumping *)
  bundle_error : string option;  (** why the dump itself failed, if it did *)
  partial_timings : timing list;  (** passes completed before the failure *)
}

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "pass %s failed: %a" f.failed_pass Diag.pp f.diag;
  (match f.bundle with
  | Some b -> Fmt.pf ppf "@.reproducer written to %s" b.Reproducer.dir
  | None -> ());
  match f.bundle_error with
  | Some e -> Fmt.pf ppf "@.(reproducer dump failed: %s)" e
  | None -> ()

(* Names of the failing pass and everything after it: replaying this
   pipeline on the pre-pass snapshot reproduces the failure at its head. *)
let replay_pipeline_of (passes : pass list) (failed : pass) : string =
  let rec from = function
    | [] -> [ failed.name ]
    | p :: rest -> if p == failed then p.name :: List.map (fun p -> p.name) rest
                   else from rest
  in
  String.concat "," (from passes)

let dump ~(policy : dump_policy) ~(options : string) (f : failure) : failure =
  match policy with
  | No_dump -> f
  | Dump_default | Dump_to _ -> (
      let dir = match policy with Dump_to d -> Some d | _ -> None in
      match
        Reproducer.write ?dir ~ir:f.ir_before ~pipeline:f.replay_pipeline
          ~options ~diag:(Diag.to_string f.diag) ()
      with
      | Ok b -> { f with bundle = Some b }
      | Error e -> { f with bundle_error = Some e })

(** [run_pipeline_checked ?verify_each ?dump_policy ?options ?instr passes m]
    executes [passes] in order, each under an exception barrier, recording
    wall-clock time, op-count deltas and did-the-IR-change per pass.  With
    [verify_each] (default [false]) the verifier runs after every pass,
    attributing IR breakage to the pass that introduced it.  [instr]
    controls IR dumping: {!Print_after_all} dumps the full IR after every
    pass, {!Print_after_change} emits a textual diff only for passes that
    modified the IR.  On failure the result is a typed {!failure} (a
    reproducer bundle is written according to [dump_policy], default
    {!No_dump}); this function never raises on pass misbehavior. *)
let run_pipeline_checked ?(verify_each = false) ?(dump_policy = No_dump)
    ?(options = "") ?(instr = no_instrument) (passes : pass list)
    (m : Ir.modul) : (result, failure) Stdlib.result =
  let timings = ref [] in
  let count_all m = Ir.count_ops (fun _ -> true) m in
  let fail (p : pass) ~ir_before diag =
    Error
      (dump ~policy:dump_policy ~options
         {
           failed_pass = p.name;
           diag = Diag.with_pass p.name diag;
           ir_before;
           replay_pipeline = replay_pipeline_of passes p;
           bundle = None;
           bundle_error = None;
           partial_timings = List.rev !timings;
         })
  in
  (* The accumulator threads the printed IR along with the module: the
     snapshot before pass N+1 is the same text as the snapshot after pass
     N, so exact change detection costs one print per pass — which the
     reproducer machinery was already paying. *)
  let run_one acc (p : pass) =
    match acc with
    | Error _ as e -> e
    | Ok (m, ir_before) ->
        (* the snapshot is taken before the pass so the bundle replays the
           failure, not its aftermath *)
        let ops_before = count_all m in
        (* one clock pair serves both the timing ledger and the tracer:
           the span also covers failing passes, so a crash still shows
           up in the trace with its true duration *)
        let outcome, seconds =
          Spnc_obs.Trace.timed ~cat:"pass" p.name (fun () ->
              try
                match p.run m with
                | Ok _ as ok -> ok
                | Error msg -> Error (Diag.error ~pass:p.name msg)
              with
              | (Stack_overflow | Out_of_memory) as e -> raise e
              | e ->
                  let bt = Printexc.get_raw_backtrace () in
                  Error (Diag.of_exn ~pass:p.name e bt))
        in
        (match outcome with
        | Ok m' ->
            let ir_after = Printer.modul_to_string m' in
            let changed = not (String.equal ir_before ir_after) in
            timings :=
              {
                pass_name = p.name;
                seconds;
                ops_before;
                ops_after = count_all m';
                changed;
              }
              :: !timings;
            (match instr.print_ir with
            | Print_never -> ()
            | Print_after_all ->
                Fmt.pf instr.out "// -----// IR Dump After %s%s //----- //@.%s@?"
                  p.name
                  (if changed then "" else " (no change)")
                  ir_after
            | Print_after_change ->
                if changed then
                  Fmt.pf instr.out "// -----// IR Diff After %s //----- //@.%s@?"
                    p.name
                    (Spnc_obs.Textdiff.diff ~before:ir_before ~after:ir_after));
            if not verify_each then Ok (m', ir_after)
            else begin
              (* the verifier itself runs under the barrier too: a
                 dialect-registered check that throws must not take down
                 the pipeline without a reproducer *)
              let verdict =
                try Ok (Verifier.verify m') with
                | (Stack_overflow | Out_of_memory) as e -> raise e
                | e ->
                    let bt = Printexc.get_raw_backtrace () in
                    Error (Diag.of_exn ~pass:p.name e bt)
              in
              match verdict with
              | Ok [] -> Ok (m', ir_after)
              | Ok errs ->
                  fail p ~ir_before
                    (Diag.error ~pass:p.name
                       ~op_path:
                         (List.map (fun (e : Verifier.error) -> e.op_name) errs
                         |> List.sort_uniq compare)
                       ("verifier failed after pass:\n"
                      ^ Verifier.errors_to_string errs))
              | Error d -> fail p ~ir_before d
            end
        | Error d ->
            Spnc_obs.Metrics.(counter_incr (counter "mlir.pass.failures"));
            fail p ~ir_before d)
  in
  match List.fold_left run_one (Ok (m, Printer.modul_to_string m)) passes with
  | Ok (final, _) -> Ok { modul = final; timings = List.rev !timings }
  | Error f -> Error f

(** [run_pipeline ?verify_each passes m] — the legacy raising interface,
    now a wrapper over {!run_pipeline_checked} (no reproducer dumping).
    @raise Pipeline_error if a pass fails. *)
let run_pipeline ?(verify_each = false) (passes : pass list) (m : Ir.modul) :
    result =
  match run_pipeline_checked ~verify_each ~dump_policy:No_dump passes m with
  | Ok r -> r
  | Error f -> raise (Pipeline_error (f.failed_pass, f.diag.Diag.message))

let total_seconds (r : result) =
  List.fold_left (fun acc t -> acc +. t.seconds) 0.0 r.timings

let pp_timings ppf (r : result) =
  let total = total_seconds r in
  List.iter
    (fun t ->
      Fmt.pf ppf "%-28s %8.4fs (%5.1f%%)  %6d -> %-6d ops%s@." t.pass_name
        t.seconds
        (if total > 0.0 then 100.0 *. t.seconds /. total else 0.0)
        t.ops_before t.ops_after
        (if t.changed then "" else "  (no change)"))
    r.timings;
  Fmt.pf ppf "%-28s %8.4fs@." "TOTAL" total
