(** The pass table and textual pipeline parsing — the machinery behind
    the [spnc_opt] tool (the analogue of MLIR's [mlir-opt]).  One table
    names every pass: {!pass_of_name}, {!available} and
    {!lospn_opt_passes} all read it.

    Pipelines are comma-separated pass names; parameterized passes use
    [name=value], e.g.
    ["canonicalize,lospn-partition=5000,lospn-bufferize,verify"]. *)

open Spnc_mlir

(** Registers every dialect (HiSPN, LoSPN, cir, gpu) in the global
    registry; idempotent. *)
val register_dialects : unit -> unit

(** [pass_of_name spec] resolves a single pass from the table. *)
val pass_of_name : string -> (Pass.pass, string) result

(** [parse_pipeline spec] resolves a comma-separated pipeline. *)
val parse_pipeline : string -> (Pass.pass list, string) result

(** [validate_pipeline ?start spec] resolves the pipeline and checks its
    pass-ordering legality via {!Pass.validate_ordering}, threading the
    IR stage from [start] (default ["hispn"]).  An illegal ordering —
    e.g. ["lospn-bufferize,lospn-partition"] — is a loud [Error]. *)
val validate_pipeline : ?start:string -> string -> (unit, string) result

(** Stage-preserving passes eligible for the compiler's
    lospn-optimization stage. *)
val lospn_opt_pool : string list

(** The fixed ordering the compiler runs when no override is promoted:
    [constfold; cse; dce]. *)
val default_lospn_opt_order : string list

(** [lospn_opt_passes order] resolves an ordering of
    lospn-optimization-stage passes from the pass table; rejects names
    outside {!lospn_opt_pool} and empty orders. *)
val lospn_opt_passes : string list -> (Pass.pass list, string) result

(** [available ()] lists the pass table's names (with argument
    placeholders). *)
val available : unit -> string list

(** What can go wrong when driving a pipeline from text. *)
type run_error =
  | Invalid_pipeline of string  (** unknown pass / bad argument *)
  | Parse_error of string  (** the input module does not parse *)
  | Pass_failure of Pass.failure
      (** a pass failed; carries the typed diagnostic and the reproducer
          bundle, when dumping was enabled *)

val run_error_to_string : run_error -> string

(** [run_on_source_checked ?verify_each ?dump_policy ?instr ~pipeline src]
    parses a textual module and runs the pipeline under the
    crash-isolated pass manager; a failing pass yields {!Pass_failure}
    with a typed diagnostic and (per [dump_policy], default
    [Pass.Dump_default]) a reproducer bundle on disk.  [instr] controls
    between-pass IR dumping ({!Pass.Print_after_all} /
    {!Pass.Print_after_change}). *)
val run_on_source_checked :
  ?verify_each:bool ->
  ?dump_policy:Pass.dump_policy ->
  ?instr:Pass.instrument ->
  pipeline:string ->
  string ->
  (Pass.result, run_error) result
