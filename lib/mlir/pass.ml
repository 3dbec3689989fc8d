(** Pass manager: one runner for every pass pipeline, and one timer for
    every pass and compile stage.

    The timing ledger is load-bearing for the reproduction: the paper's
    Figs. 10–13 plot compilation time against partition size and -O level,
    and §V-B.1 breaks compilation time down per stage (instruction
    selection 27%, register allocation 25%, ...).  Every pipeline of
    passes — [spnc_opt], [Pipelines.run_on_source_checked], the fuzz
    harness — runs through {!run_pipeline_checked}.
    [Compiler.compile_full] is a chain of differently typed stages, not
    a pass pipeline: it calls {!timed} once per stage, one [Trace] span
    each, and once per pass of its lospn-optimization stage.

    Crash isolation (resilience layer, docs/RESILIENCE.md): each pass
    runs under an exception barrier.  On failure — a pass returning
    [Error], verifier diagnostics under [verify_each], or an escaped
    exception — {!run_pipeline_checked} returns a typed {!failure}
    naming the offending pass, carrying a structured
    {!Spnc_resilience.Diag.t} and the generic-form IR the pass was
    given, and (unless dumping is disabled) writes a self-contained
    reproducer bundle that replays the failure through [spnc_opt].
    The IR is an immutable tree, so the runner holds each pass's input
    and prints it only for a failure or an instrument. *)

module Diag = Spnc_resilience.Diag
module Reproducer = Spnc_resilience.Reproducer

(* -- The timer --------------------------------------------------------------- *)

type timing = {
  stage : string;
  seconds : float;
  minor_words : float;
  direct_words : float;
  minor_collections : int;
}

(* One clock pair feeds both the record and the trace span.  The
   allocation counters are this domain's, which runs [f].  Minor words
   come from [Gc.minor_words], which is exact at any point: on OCaml 5.1
   [Gc.counters] counts the words of the current minor heap one eighth,
   and [Gc.quick_stat]'s word counts move only at collections (so only
   its collection count is read). *)
let timed ~cat stage f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let collections0 = (Gc.quick_stat ()).Gc.minor_collections in
  let r, seconds = Spnc_obs.Trace.timed ~cat stage f in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ( r,
    {
      stage;
      seconds;
      minor_words = minor1 -. minor0;
      direct_words = major1 -. major0 -. (promoted1 -. promoted0);
      minor_collections = (Gc.quick_stat ()).Gc.minor_collections - collections0;
    } )

type pass_timing = {
  timing : timing;
  ops_before : int;
  ops_after : int;
  changed : bool;  (** the pass returned a different module from its input *)
}

type result = {
  modul : Ir.modul;
  timings : pass_timing list;  (** in execution order *)
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

(** Where the exception barrier dumps reproducer bundles. *)
type dump_policy =
  | No_dump  (** return the failure only (unit tests, library callers) *)
  | Dump_default  (** {!Spnc_resilience.Reproducer.default_dir} *)
  | Dump_to of string  (** explicit parent directory *)

type failure = {
  failed_pass : string;
  diag : Diag.t;
  ir_before : string;  (** generic-form IR of the failing pass's input *)
  replay_pipeline : string;  (** pipeline string that replays the failure *)
  bundle : Reproducer.bundle option;  (** written reproducer, if dumping *)
  bundle_error : string option;  (** why the dump itself failed, if it did *)
  partial_timings : pass_timing list;  (** passes completed before the failure *)
}

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "pass %s failed: %a" f.failed_pass Diag.pp f.diag;
  (match f.bundle with
  | Some b -> Fmt.pf ppf "@.reproducer written to %s" b.Reproducer.dir
  | None -> ());
  match f.bundle_error with
  | Some e -> Fmt.pf ppf "@.(reproducer dump failed: %s)" e
  | None -> ()

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

(* The barrier: whatever a pass or the verifier throws comes back as a
   diagnostic attributed to the pass. *)
let barrier name f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e -> Error (Diag.of_exn ~pass:name e (Printexc.get_raw_backtrace ()))

(* [before] and [after] print the pass's input and output on demand; an
   unchanged pass shares one text, so it is printed at most once. *)
let print_ir (instr : instrument) name ~changed before after =
  let differs () =
    changed && not (String.equal (Lazy.force before) (Lazy.force after))
  in
  match instr.print_ir with
  | Print_never -> ()
  | Print_after_all ->
      Fmt.pf instr.out "// -----// IR Dump After %s%s //----- //@.%s@?" name
        (if differs () then "" else " (no change)")
        (Lazy.force after)
  | Print_after_change ->
      if differs () then
        Fmt.pf instr.out "// -----// IR Diff After %s //----- //@.%s@?" name
          (Spnc_obs.Textdiff.diff ~before:(Lazy.force before)
             ~after:(Lazy.force after))

(** [run_pipeline_checked ?verify_each ?dump_policy ?options ?instr passes m]
    executes [passes] in order, each under an exception barrier and
    {!timed}, recording op counts and whether the pass returned a new
    module.  With [verify_each] (default [false]) the verifier runs after
    every pass, attributing IR breakage to the pass that introduced it.
    [instr] controls IR dumping: {!Print_after_all} dumps the full IR
    after every pass, {!Print_after_change} emits a textual diff only for
    passes whose printed IR changed.  On failure the result is a typed
    {!failure} (a reproducer bundle is written according to
    [dump_policy], default {!No_dump}); this function never raises on
    pass misbehavior. *)
let run_pipeline_checked ?(verify_each = false) ?(dump_policy = No_dump)
    ?(options = "") ?(instr = no_instrument) (passes : pass list)
    (m : Ir.modul) : (result, failure) Stdlib.result =
  let count_all m = Ir.count_ops (fun _ -> true) m in
  (* [todo] starts at the pass to run, so on a failure it is the replay
     pipeline; [text] prints [m], the module that pass is given *)
  let rec go todo m ~ops text timings =
    match todo with
    | [] -> Ok { modul = m; timings = List.rev timings }
    | (p : pass) :: rest -> (
        let fail timings diag =
          Error
            (dump ~policy:dump_policy ~options
               {
                 failed_pass = p.name;
                 diag = Diag.with_pass p.name diag;
                 ir_before = Lazy.force text;
                 replay_pipeline =
                   String.concat "," (List.map (fun (p : pass) -> p.name) todo);
                 bundle = None;
                 bundle_error = None;
                 partial_timings = List.rev timings;
               })
        in
        (* the span also covers failing passes, so a crash still shows
           up in the trace with its true duration *)
        let outcome, timing =
          timed ~cat:"pass" p.name (fun () ->
              barrier p.name (fun () ->
                  Result.map_error (Diag.error ~pass:p.name) (p.run m)))
        in
        match outcome with
        | Error d ->
            Spnc_obs.Metrics.(counter_incr (counter "mlir.pass.failures"));
            fail timings d
        | Ok m' -> (
            let changed = m' != m in
            let ops_after = if changed then count_all m' else ops in
            let text' =
              if changed then lazy (Printer.modul_to_string m') else text
            in
            print_ir instr p.name ~changed text text';
            let timings =
              { timing; ops_before = ops; ops_after; changed } :: timings
            in
            let verdict =
              if not verify_each then Ok []
              else barrier p.name (fun () -> Ok (Verifier.verify m'))
            in
            match verdict with
            | Ok [] -> go rest m' ~ops:ops_after text' timings
            | Ok errs ->
                fail timings
                  (Diag.error ~pass:p.name
                     ~op_path:
                       (List.map (fun (e : Verifier.error) -> e.op_name) errs
                       |> List.sort_uniq compare)
                     ("verifier failed after pass:\n"
                    ^ Verifier.errors_to_string errs))
            | Error d -> fail timings d))
  in
  go passes m ~ops:(count_all m) (lazy (Printer.modul_to_string m)) []

let pp_timings ppf table =
  let first, rows =
    match table with
    | `Stages ts -> ("stage", List.map (fun t -> (t, "")) ts)
    | `Passes ps ->
        ( "pass",
          List.map
            (fun p ->
              ( p.timing,
                Fmt.str "  %6d -> %-6d ops%s" p.ops_before p.ops_after
                  (if p.changed then "" else "  (no change)") ))
            ps )
  in
  let sum f = List.fold_left (fun acc (t, _) -> acc +. f t) 0.0 rows in
  let total = sum (fun t -> t.seconds) in
  Fmt.pf ppf "%-22s %9s %8s %11s %9s %11s@." first "seconds" "share"
    "minor words" "minor GCs" "major words";
  List.iter
    (fun (t, note) ->
      Fmt.pf ppf "%-22s %8.4fs (%5.1f%%) %11.0f %9d %11.0f%s@." t.stage
        t.seconds
        (if total > 0.0 then 100.0 *. t.seconds /. total else 0.0)
        t.minor_words t.minor_collections t.direct_words note)
    rows;
  Fmt.pf ppf "%-22s %8.4fs          %11.0f %9.0f %11.0f@." "TOTAL" total
    (sum (fun t -> t.minor_words))
    (sum (fun t -> float_of_int t.minor_collections))
    (sum (fun t -> t.direct_words))
