(** Named pass registry and textual pipeline parsing — the machinery
    behind the [spnc_opt] tool (the equivalent of MLIR's [mlir-opt]
    driver): passes are addressed by name, composed into pipelines, and
    run over modules parsed from the textual IR format. *)

open Spnc_mlir

let ( let* ) = Result.bind

(* Ensure all dialects are registered before running any pass. *)
let register_dialects () =
  Spnc_hispn.Ops.register ();
  Spnc_lospn.Ops.register ();
  Spnc_cir.Ops.register ();
  Spnc_gpu.Lower_gpu.register ()

(* The pass table: every pass a pipeline can name, in [--list-passes]
   order.  A parameterized pass takes one integer, [name=value]; its
   entry carries the placeholder [available] shows and the default. *)
let table : (string * (string * int) option * (int -> Pass.pass)) list =
  let fixed (p : Pass.pass) = (p.Pass.name, None, fun _ -> p) in
  (* The scalar-opt trio only ever runs in the LoSPN opt slot (between
     lowering and bufferization), so legality pins them there;
     [canonicalize] stays stage-agnostic — it also runs on HiSPN. *)
  let lospn = Pass.preserves "lospn" in
  let vectorized width =
    {
      Spnc_cpu.Lower_cpu.scalar_options with
      Spnc_cpu.Lower_cpu.vectorize = true;
      width;
      use_veclib = true;
      use_shuffle = true;
    }
  in
  [
    fixed
      (Pass.make_fallible "verify" (fun m ->
           match Verifier.verify m with
           | [] -> Ok m
           | errs -> Error (Verifier.errors_to_string errs)));
    fixed (Pass.make "canonicalize" Canonicalize.run);
    fixed (Pass.make ~legality:lospn "cse" Cse.run);
    fixed (Pass.make ~legality:lospn "dce" Rewrite.dce);
    fixed
      (Pass.make ~legality:lospn "constfold" (fun m ->
           Constfold.run (Builder.seed_from m) m));
    fixed
      (Pass.make
         ~legality:(Pass.lowers ~from_:"hispn" ~to_:"lospn")
         "lower-to-lospn"
         (fun m -> Spnc_lospn.Lower_hispn.run m));
    ( "lospn-partition",
      Some ("N", 10_000),
      fun size ->
        Pass.make ~legality:lospn "lospn-partition" (fun m ->
            Spnc_lospn.Partition_pass.run
              ~options:
                {
                  Spnc_lospn.Partition_pass.default_options with
                  max_partition_size = size;
                }
              m) );
    fixed
      (Pass.make
         ~legality:(Pass.lowers ~from_:"lospn" ~to_:"lospn-buf")
         "lospn-bufferize" Spnc_lospn.Bufferize.run);
    fixed
      (Pass.make
         ~legality:(Pass.preserves "lospn-buf")
         "lospn-buffer-opt" Spnc_lospn.Buffer_opt.run);
    fixed
      (Pass.make
         ~legality:(Pass.lowers ~from_:"lospn-buf" ~to_:"cir")
         "cpu-lower"
         (fun m -> Spnc_cpu.Lower_cpu.run m));
    ( "cpu-lower-vectorized",
      Some ("W", 8),
      fun width ->
        Pass.make
          ~legality:(Pass.lowers ~from_:"lospn-buf" ~to_:"cir")
          "cpu-lower-vectorized"
          (fun m -> Spnc_cpu.Lower_cpu.run ~options:(vectorized width) m) );
    ( "gpu-lower",
      Some ("BLOCK", 64),
      fun block_size ->
        Pass.make
          ~legality:(Pass.lowers ~from_:"lospn-buf" ~to_:"gpu")
          "gpu-lower"
          (fun m ->
            Spnc_gpu.Lower_gpu.run ~options:{ Spnc_gpu.Lower_gpu.block_size } m)
    );
    fixed
      (Pass.make ~legality:(Pass.preserves "gpu") "gpu-copy-opt"
         Spnc_gpu.Copy_opt.run);
  ]

(* The table entry [spec] names, built with its argument. *)
let find (spec : string) : (Pass.pass, string) result =
  let name, arg =
    match String.index_opt spec '=' with
    | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | None -> (spec, None)
  in
  match List.find_opt (fun (n, _, _) -> String.equal n name) table with
  | None -> Error (Printf.sprintf "unknown pass %S" name)
  | Some (_, param, build) -> (
      match (param, arg) with
      | None, _ -> Ok (build 0)
      | Some (_, default), None -> Ok (build default)
      | Some _, Some a -> (
          match int_of_string_opt a with
          | Some v -> Ok (build v)
          | None ->
              Error (Printf.sprintf "pass %s: bad integer argument %S" name a)))

(** [pass_of_name spec] resolves a pass by its textual name.  Parameterized
    passes use [name=value], e.g. ["lospn-partition=5000"]. *)
let pass_of_name (spec : string) : (Pass.pass, string) result =
  register_dialects ();
  find spec

(* Resolve every name, or the first error. *)
let resolve_all resolve names =
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      let* p = resolve name in
      Ok (p :: acc))
    (Ok []) names
  |> Result.map List.rev

(** [parse_pipeline spec] parses a comma-separated pipeline such as
    ["canonicalize,lospn-partition=500,lospn-bufferize,verify"]. *)
let parse_pipeline (spec : string) : (Pass.pass list, string) result =
  register_dialects ();
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> resolve_all find

(** [validate_pipeline ?start spec] resolves the pipeline and checks its
    pass-ordering legality, threading the IR stage from [start] (default
    ["hispn"], the stage every frontend emits). *)
let validate_pipeline ?(start = "hispn") (spec : string) :
    (unit, string) result =
  let* passes = parse_pipeline spec in
  Pass.validate_ordering ~start passes

(* -- LoSPN optimization stage ordering --------------------------------------- *)

(* The compiler's "lospn-optimization" stage is the one pipeline region
   where pass *order* is an open tuning question (the dialect-conversion
   skeleton around it is fixed by legality).  The stage runs a sequence
   drawn from this pool; [Spnc_smith] explores random orders and the
   leaderboard can promote a winner via [Options.lospn_opt_order]. *)

let lospn_opt_pool = [ "constfold"; "cse"; "dce"; "canonicalize" ]
let default_lospn_opt_order = [ "constfold"; "cse"; "dce" ]

(** [lospn_opt_passes order] resolves each name in [order] against the
    stage-preserving optimization pool.  Names outside {!lospn_opt_pool}
    are rejected: dialect conversions must not sneak into the stage. *)
let lospn_opt_passes (order : string list) : (Pass.pass list, string) result =
  register_dialects ();
  let resolve name =
    if List.mem name lospn_opt_pool then find name
    else
      Error
        (Printf.sprintf
           "pass %S is not a legal lospn-optimization stage pass (pool: %s)"
           name
           (String.concat ", " lospn_opt_pool))
  in
  if order = [] then Error "lospn-optimization order must not be empty"
  else resolve_all resolve order

(** [available ()] lists the registered pass names. *)
let available () =
  List.map
    (fun (name, param, _) ->
      match param with
      | None -> name
      | Some (placeholder, _) -> Printf.sprintf "%s[=%s]" name placeholder)
    table

(** What can go wrong when driving a pipeline from text. *)
type run_error =
  | Invalid_pipeline of string  (** unknown pass / bad argument *)
  | Parse_error of string  (** the input module does not parse *)
  | Pass_failure of Pass.failure
      (** a pass failed; carries the typed diagnostic and the reproducer
          bundle, when dumping was enabled *)

let run_error_to_string = function
  | Invalid_pipeline e -> e
  | Parse_error e -> "parse error: " ^ e
  | Pass_failure f -> Fmt.str "%a" Pass.pp_failure f

(** [run_on_source_checked ?verify_each ?dump_policy ~pipeline src]
    parses a textual module and runs the pipeline under the crash-isolated
    pass manager: a failing pass comes back as {!Pass_failure} with a
    typed diagnostic and (per [dump_policy], default
    [Pass.Dump_default]) an on-disk reproducer bundle. *)
let run_on_source_checked ?(verify_each = false)
    ?(dump_policy = Pass.Dump_default) ?(instr = Pass.no_instrument)
    ~(pipeline : string) (src : string) : (Pass.result, run_error) result =
  register_dialects ();
  match parse_pipeline pipeline with
  | Error e -> Error (Invalid_pipeline e)
  | Ok passes -> (
      match Parser.modul_of_string src with
      | exception Parser.Error e -> Error (Parse_error e)
      | exception Lexer.Error e -> Error (Parse_error ("lex error: " ^ e))
      | m -> (
          match
            Pass.run_pipeline_checked ~verify_each ~dump_policy ~instr
              ~options:("pipeline: " ^ pipeline) passes m
          with
          | Ok r -> Ok r
          | Error f -> Error (Pass_failure f)))
