(** Structured compiler diagnostics (resilience layer).

    Normalizes every failure that crosses a component boundary — pass
    errors, verifier reports, escaped exceptions — into one record with
    severity, pass of origin, enclosing-op path, message, and an optional
    [Printexc] backtrace.  Replaces bare [failwith] strings thrown
    across the pipeline. *)

type severity = Error | Warning | Note

val severity_to_string : severity -> string

type t = {
  severity : severity;
  pass : string option;  (** pass of origin, when known *)
  op_path : string list;  (** enclosing op names, outermost first *)
  message : string;
  backtrace : string option;  (** raw backtrace of an escaped exception *)
}

(** Structured counterpart of [Failure]: raised by {!fail} inside pass
    bodies and caught by the pass manager's exception barrier. *)
exception Diag_error of t

val make :
  ?severity:severity ->
  ?pass:string ->
  ?op_path:string list ->
  ?backtrace:string ->
  string ->
  t

val error :
  ?pass:string -> ?op_path:string list -> ?backtrace:string -> string -> t

val warning : ?pass:string -> ?op_path:string list -> string -> t
val note : ?pass:string -> ?op_path:string list -> string -> t

(** [fail ?pass ?op_path fmt ...] raises {!Diag_error} with a formatted
    error message — the structured replacement for [failwith]. *)
val fail :
  ?pass:string ->
  ?op_path:string list ->
  ('a, unit, string, 'b) format4 ->
  'a

(** [with_pass name d] attributes [d] to pass [name] unless it already
    carries a pass of origin. *)
val with_pass : string -> t -> t

(** [of_exn ?pass e bt] normalizes an escaped exception into a
    diagnostic; a {!Diag_error} payload passes through unchanged (except
    for pass attribution). *)
val of_exn : ?pass:string -> exn -> Printexc.raw_backtrace -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
