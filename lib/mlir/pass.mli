(** Pass manager: one runner for every pass pipeline, and one timer for
    every pass and compile stage.

    The timing ledger is load-bearing for the reproduction: the paper's
    Figs. 10–13 plot compilation time against partition size and -O
    level, and §V-B.1 breaks compile time down per stage.  Every
    pipeline of {!pass}es in this code base runs through
    {!run_pipeline_checked} ([spnc_opt], [Pipelines.run_on_source_checked],
    the fuzz harness); [Spnc.Compiler.compile_full] is a chain of
    differently typed stages, not a pass pipeline, and times each stage
    with the same {!timed}.  So those numbers are real measured times of
    one instrument.

    The runner runs each pass under an exception barrier; failures come
    back as a typed {!failure} with a structured diagnostic, the IR the
    failing pass was given and an optional on-disk reproducer bundle
    (docs/RESILIENCE.md).  It prints IR only when an {!instrument} asks
    for it or a failure needs its snapshot. *)

module Diag = Spnc_resilience.Diag
module Reproducer = Spnc_resilience.Reproducer

(** One timed stage or pass: its wall-clock time, the words it allocated
    on the minor heap ([Gc.minor_words]) and straight into the major heap
    ([Gc.counters]), both on the domain that runs it, and the minor
    collections that ran meanwhile ([Gc.quick_stat]; on several domains
    these include collections another domain requested). *)
type timing = {
  stage : string;
  seconds : float;
  minor_words : float;
  direct_words : float;  (** major-heap words minus promoted words *)
  minor_collections : int;
}

(** [timed ~cat name f] runs [f] under one [Trace] span of category
    [cat] and measures it. *)
val timed : cat:string -> string -> (unit -> 'a) -> 'a * timing

(** One pass of a pipeline run.  [changed] means the pass returned a
    different module from the one it was given: a pass that rebuilds an
    identical module counts as changed, one that returns its input does
    not. *)
type pass_timing = {
  timing : timing;
  ops_before : int;  (** op count when the pass started *)
  ops_after : int;  (** op count when the pass finished *)
  changed : bool;
}

type result = {
  modul : Ir.modul;
  timings : pass_timing list;  (** in execution order *)
}

(** IR dumping between passes (MLIR's [--print-ir-after-*]).  Both
    compare the printed IR: a pass whose output prints the same as its
    input is labelled [(no change)] by {!Print_after_all} and skipped by
    {!Print_after_change}. *)
type print_ir =
  | Print_never
  | Print_after_all  (** dump the full IR after every pass *)
  | Print_after_change  (** dump a textual diff, only when the IR changed *)

type instrument = {
  print_ir : print_ir;
  out : Format.formatter;  (** where IR dumps and diffs go *)
}

val no_instrument : instrument

(** [instrument ?out print_ir] — dump policy writing to [out] (default
    stderr). *)
val instrument : ?out:Format.formatter -> print_ir -> instrument

(** Pass-ordering legality: the IR stage a pass consumes and the stage it
    leaves behind.  Stages are lowercase dialect-level names threaded by
    {!validate_ordering} ("hispn", "lospn", "lospn-buf", "cir", "gpu");
    [consumes = None] accepts any stage, [produces = None] preserves the
    input stage (the shape of every cleanup pass). *)
type legality = {
  consumes : string option;  (** required entry stage; [None] = any *)
  produces : string option;  (** resulting stage; [None] = unchanged *)
}

(** Accepts any stage and preserves it (canonicalize, cse, dce, ...). *)
val any_stage : legality

(** [preserves s] — requires stage [s], leaves the IR at stage [s]. *)
val preserves : string -> legality

(** [lowers ~from_ ~to_] — a dialect-conversion pass. *)
val lowers : from_:string -> to_:string -> legality

type pass = {
  name : string;
  run : Ir.modul -> (Ir.modul, string) Result.t;
  legality : legality;
}

(** [make ?legality name f] wraps a total transformation as a pass
    (default legality {!any_stage}). *)
val make : ?legality:legality -> string -> (Ir.modul -> Ir.modul) -> pass

(** [make_fallible ?legality name f] wraps a transformation that can fail. *)
val make_fallible :
  ?legality:legality ->
  string ->
  (Ir.modul -> (Ir.modul, string) Result.t) ->
  pass

(** [validate_ordering ~start passes] checks the pipeline's stage chain
    starting from IR stage [start], returning a loud error naming the
    first pass whose [consumes] stage does not match the stage the
    preceding passes left behind. *)
val validate_ordering :
  start:string -> pass list -> (unit, string) Stdlib.result

(** Where the exception barrier dumps reproducer bundles. *)
type dump_policy =
  | No_dump  (** return the failure only (unit tests, library callers) *)
  | Dump_default  (** {!Spnc_resilience.Reproducer.default_dir} *)
  | Dump_to of string  (** explicit parent directory *)

(** Everything known about a pipeline failure: the offending pass, the
    structured diagnostic, the generic-form IR of the module the pass
    was given, the pipeline suffix that replays the failure, and the
    written reproducer bundle (or the reason the dump itself failed). *)
type failure = {
  failed_pass : string;
  diag : Diag.t;
  ir_before : string;
  replay_pipeline : string;
  bundle : Reproducer.bundle option;
  bundle_error : string option;
  partial_timings : pass_timing list;  (** passes completed before the failure *)
}

val pp_failure : Format.formatter -> failure -> unit

(** [run_pipeline_checked ?verify_each ?dump_policy ?options ?instr passes m]
    executes [passes] in order, each under an exception barrier and
    {!timed}, with op counts and change tracking.  With [verify_each]
    the verifier runs after every pass, attributing IR breakage to the
    pass that introduced it.  [instr] controls IR dumping between passes
    ({!Print_after_all} / {!Print_after_change}).  A pass error, verifier
    diagnostic, or escaped exception yields [Error f] (never raises); a
    reproducer bundle is written per [dump_policy] (default {!No_dump}),
    with [options] recorded alongside it. *)
val run_pipeline_checked :
  ?verify_each:bool ->
  ?dump_policy:dump_policy ->
  ?options:string ->
  ?instr:instrument ->
  pass list ->
  Ir.modul ->
  (result, failure) Stdlib.result

(** [pp_timings ppf table] prints a timing table: one row per compile
    stage or pass with its seconds, share of the total, minor words,
    minor collections and direct major words, then a [TOTAL] row.  The
    rows of a pipeline run also show the op counts before and after each
    pass and mark the passes that returned their input [(no change)]. *)
val pp_timings :
  Format.formatter ->
  [ `Stages of timing list | `Passes of pass_timing list ] ->
  unit
