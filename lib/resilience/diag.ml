(** Structured compiler diagnostics (resilience layer).

    Every failure that crosses a component boundary — a pass returning
    [Error], a verifier report, an exception escaping a lowering — is
    normalized into a {!t}: severity, the pass it originated in, the path
    of operations enclosing the fault, the human-readable message, and
    (for escaped exceptions) a [Printexc] backtrace.  This replaces the
    bare [failwith] strings the pipeline used to throw:
    callers can render, log, or bundle a diagnostic without string
    parsing, and a crash inside a pass is indistinguishable in shape from
    a clean pass error. *)

type severity = Error | Warning | Note

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type t = {
  severity : severity;
  pass : string option;  (** pass of origin, when known *)
  op_path : string list;  (** enclosing op names, outermost first *)
  message : string;
  backtrace : string option;  (** raw backtrace of an escaped exception *)
}

exception Diag_error of t

let make ?(severity = Error) ?pass ?(op_path = []) ?backtrace message =
  { severity; pass; op_path; message; backtrace }

let error ?pass ?op_path ?backtrace message =
  make ~severity:Error ?pass ?op_path ?backtrace message

let warning ?pass ?op_path message = make ~severity:Warning ?pass ?op_path message
let note ?pass ?op_path message = make ~severity:Note ?pass ?op_path message

(** [fail ?pass ?op_path fmt ...] raises {!Diag_error} with a formatted
    error — the structured replacement for [failwith] in pass bodies. *)
let fail ?pass ?op_path fmt =
  Printf.ksprintf (fun msg -> raise (Diag_error (error ?pass ?op_path msg))) fmt

(** [with_pass name d] attributes [d] to [name] unless it already names a
    pass of origin. *)
let with_pass name d =
  match d.pass with Some _ -> d | None -> { d with pass = Some name }

(** [of_exn ?pass e bt] normalizes an escaped exception: a {!Diag_error}
    payload passes through (gaining the pass attribution); anything else
    becomes an error diagnostic carrying the exception text and the raw
    backtrace captured at the handler. *)
let of_exn ?pass (e : exn) (bt : Printexc.raw_backtrace) : t =
  match e with
  | Diag_error d -> ( match pass with Some p -> with_pass p d | None -> d)
  | e ->
      let backtrace =
        let s = Printexc.raw_backtrace_to_string bt in
        if String.trim s = "" then None else Some s
      in
      error ?pass ?backtrace
        (Printf.sprintf "unexpected exception: %s" (Printexc.to_string e))

let pp ppf (d : t) =
  Fmt.pf ppf "%s" (severity_to_string d.severity);
  (match d.pass with Some p -> Fmt.pf ppf " [pass %s]" p | None -> ());
  (match d.op_path with
  | [] -> ()
  | path -> Fmt.pf ppf " [at %s]" (String.concat " > " path));
  Fmt.pf ppf ": %s" d.message;
  match d.backtrace with
  | Some bt -> Fmt.pf ppf "@.backtrace:@.%s" bt
  | None -> ()

let to_string (d : t) = Fmt.str "%a" pp d
