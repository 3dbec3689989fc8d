(** Differential harness over fuzz cases (docs/FUZZING.md).

    For each {!Smith.program} the harness asserts, with the verifier
    running after {e every} pass:

    - the module verifies and round-trips the printer/parser exactly;
    - the baseline pipeline lowers it to bufferized LoSPN, whose
      {!Spnc_lospn.Interp} evaluation is the semantic reference;
    - across -O0..-O3 × VM/JIT × threads 1/2/4 the CPU backend is
      bit-identical to the level's VM single-thread run and within
      tolerance of the reference (trap classes must match: if one
      engine fails, all must fail);
    - across randomized legal pass orderings ({!Passorder}) the interp
      result stays within tolerance of the reference and one
      seed-chosen (level, VM-vs-JIT) pair stays bit-identical;
    - the paper's best CPU lowering (AVX2, 8 lanes, veclib, shuffled
      loads) at one seed-chosen level is VM/JIT bit-identical, within
      tolerance of the reference, and bit-identical to the scalar
      lowering at the same level, over enough rows that a full column
      chunk, a partial one and the runtime's padded last group run.

    A model-derived case is further checked end to end against
    {!Spnc_spn.Infer} ({!check_model}).  Any violation is a structured
    {!failure} carrying the pipeline string and detail text;
    [bin/spnc_fuzz] shrinks the case ({!Shrink}) and writes a
    reproducer bundle. *)

open Spnc_mlir
module Rng = Spnc_data.Rng
module Pipelines = Spnc.Pipelines
module Options = Spnc.Options
module Compiler = Spnc.Compiler
module Interp = Spnc_lospn.Interp
module Optimizer = Spnc_cpu.Optimizer
module Jit = Spnc_cpu.Jit
module Exec = Spnc_runtime.Exec
module Pool = Spnc_runtime.Pool

type failure = {
  case_id : int;
  check : string;  (** which invariant broke (see docs/FUZZING.md) *)
  pipeline : string;  (** pipeline / configuration under test *)
  detail : string;
}

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "case %d [%s] pipeline=%s: %s" f.case_id f.check f.pipeline
    f.detail

type config = {
  orderings : int;  (** random legal pipelines checked per program *)
  tol : float;  (** relative tolerance against the reference *)
}

let default_config = { orderings = 5; tol = 1e-6 }

(* Every check raises this on the first violation; [check_program] and
   [check_model] turn it back into an option. *)
exception Check_failed of failure

(* -- Output comparison ------------------------------------------------------- *)

let exact_eq (a : float array) (b : float array) =
  Array.length a = Array.length b
  && (let eq = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
            eq := false)
        a;
      !eq)

(* Tolerant compare for cross-pipeline checks: NaN matches NaN, ±inf
   matches the same infinity, finite values within relative [tol].
   Log-space outputs reach magnitudes like -5e11 (a far-off-data
   near-singular Gaussian), so the comparison must be relative. *)
let tol_eq ~tol (a : float array) (b : float array) =
  Array.length a = Array.length b
  && (let eq = ref true in
      Array.iteri
        (fun i x ->
          let y = b.(i) in
          let ok =
            if Float.is_nan x then Float.is_nan y
            else if Float.is_nan y then false
            else if x = y then true (* covers equal infinities *)
            else if not (Float.is_finite x) || not (Float.is_finite y) then
              false (* opposite infinities: |x - y| = inf <= tol * inf holds *)
            else
              Float.abs (x -. y)
              <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
          in
          if not ok then eq := false)
        a;
      !eq)

(* Two outcomes agree when both trap or both succeed with [eq] outputs. *)
let agree eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error _, Error _ -> true
  | _ -> false

let pp_outcome ppf = function
  | Ok out ->
      Fmt.pf ppf "ok [%s]"
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%h") out)))
  | Error e -> Fmt.pf ppf "error: %s" e

(* -- Pipeline execution ------------------------------------------------------ *)

(* Parse, legality-check from [start] and run a textual pipeline with the
   verifier after every pass.  The shrinker only asks whether a case
   still fails, so a failure is its "pass X: msg" line. *)
let run_from ~start ~(pipeline : string) (m : Ir.modul) :
    (Ir.modul, string) result =
  let ( let* ) = Result.bind in
  let* passes =
    Result.map_error (( ^ ) "invalid pipeline: ")
      (Pipelines.parse_pipeline pipeline)
  in
  let* () = Pass.validate_ordering ~start passes in
  match
    Pass.run_pipeline_checked ~verify_each:true ~dump_policy:Pass.No_dump
      passes m
  with
  | Ok r -> Ok r.Pass.modul
  | Error f ->
      Error (Fmt.str "pass %s: %s" f.Pass.failed_pass f.Pass.diag.Pass.Diag.message)

(* A post-lowering pipeline suffix, starting at the "lospn" stage. *)
let run_suffix = run_from ~start:"lospn"

(** Slot-0 reference evaluation of a bufferized LoSPN module. *)
let eval_interp (lb : Ir.modul) (p : Smith.program) :
    (float array, string) result =
  match
    Interp.run_kernel lb ~inputs:[ Smith.flat_data p ] ~rows:p.Smith.rows
  with
  | out -> Ok (Array.sub out 0 p.Smith.rows)
  | exception Interp.Runtime_error e -> Error ("interp: " ^ e)
  | exception Invalid_argument e -> Error ("interp invalid_argument: " ^ e)

let lowering f =
  try Ok (f ()) with
  | Spnc_cpu.Isel.Unsupported e -> Error ("isel unsupported: " ^ e)
  | Invalid_argument e -> Error ("lowering invalid_argument: " ^ e)
  | Failure e -> Error ("lowering failure: " ^ e)

(* Lower a bufferized LoSPN module to unoptimized Lir, then optimize it
   at one -O level (the optimizer is pure, so one lowering serves every
   level). *)
let lower_lir ?(cpu_options = Spnc_cpu.Lower_cpu.scalar_options) lb =
  lowering (fun () ->
      Spnc_cpu.Isel.finish
        (Spnc_cpu.Lower_cpu.isel ~options:cpu_options lb)
        ~entry:"spn_kernel")

let optimize level lir = lowering (fun () -> Optimizer.run level lir)

(* One engine execution: slot-0 results, or a trap class.  [jit] is the
   closure compilation of [lir], shared across thread counts. *)
let eval_cpu ?pool ~batch_size ~engine ~jit ~threads ~out_cols
    (lir : Spnc_cpu.Lir.modul) (data : float array array) :
    (float array, string) result =
  try
    let jit = if engine = Jit.Jit then Some (Lazy.force jit) else None in
    let ex =
      Exec.load ~batch_size ~threads ~engine ?jit ?pool ~out_cols lir
    in
    Ok
      (Fun.protect
         ~finally:(fun () -> Exec.shutdown ex)
         (fun () -> Exec.execute_rows ex data))
  with
  | Spnc_cpu.Vm.Trap e -> Error ("trap: " ^ e)
  | Exec.Chunk_error ce -> Error ("chunk: " ^ ce.Exec.message)
  | Invalid_argument e -> Error ("exec invalid_argument: " ^ e)

(* -- The differential check -------------------------------------------------- *)

let opt_suffix =
  String.concat "," Pipelines.default_lospn_opt_order
  ^ ",lospn-bufferize,lospn-buffer-opt"

let baseline_pipeline = "lower-to-lospn," ^ opt_suffix
let levels = Optimizer.[ O0; O1; O2; O3 ]

(* The paper's best CPU lowering (Fig. 6): AVX2 at 8 f32 lanes, vector
   library, shuffled loads. *)
let vector_options = Options.(cpu_lower_options (compile_of (best_cpu ())))

(* The textual "lower-to-lospn" pass uses default options, so the harness
   lowers with the program's space draw itself and runs everything after
   it as a textual suffix. *)
let lower_with_space (p : Smith.program) (m : Ir.modul) :
    (Ir.modul, string) result =
  try
    Ok
      (Spnc_lospn.Lower_hispn.run
         ~options:
           {
             Spnc_lospn.Lower_hispn.space = p.Smith.space;
             base_type = Types.F32;
             kernel_name = "spn_kernel";
           }
         m)
  with
  | Invalid_argument e -> Error ("lower-to-lospn invalid_argument: " ^ e)
  | Failure e -> Error ("lower-to-lospn failure: " ^ e)

let failure (p : Smith.program) check pipeline detail =
  Check_failed { case_id = p.Smith.id; check; pipeline; detail }

let catch_failure f = try f (); None with Check_failed f -> Some f

(* The model-derived checks; raises [Check_failed]. *)
let model_checks ~config ~rng (p : Smith.program) (model : Spnc_spn.Model.t) =
  let fail check pipeline detail = raise (failure p check pipeline detail) in
  let tol = config.tol in
  let expected = Spnc_spn.Infer.log_likelihood_batch model p.Smith.data in
  let base =
    {
      Options.default with
      Options.batch_size = p.Smith.batch_size;
      support_marginal = p.Smith.support_marginal;
      engine = Jit.Vm;
    }
  in
  let guard what f =
    try f () with
    | (Stack_overflow | Out_of_memory | Check_failed _) as e -> raise e
    | e -> fail "model-crash" what (Printexc.to_string e)
  in
  let compile what options =
    guard what (fun () -> Compiler.compile ~options model)
  in
  (* one compile per kernel: the variants below rerun these artifacts
     under other runtime knobs *)
  let run what c = guard what (fun () -> Compiler.execute c p.Smith.data) in
  let within what got =
    if not (tol_eq ~tol expected got) then
      fail "model-reference" what
        (Fmt.str "Infer %a but %a" pp_outcome (Ok expected) pp_outcome (Ok got))
  in
  (* the LoSPN interpreter on the compiler's bufferized module *)
  let base_c = compile "lospn-interp" base in
  within "lospn-interp"
    (guard "lospn-interp" (fun () ->
         let raw =
           Array.sub
             (Interp.run_kernel base_c.Compiler.lospn
                ~inputs:[ Smith.flat_data p ] ~rows:p.Smith.rows)
             0 p.Smith.rows
         in
         if base_c.Compiler.datatype.Spnc_lospn.Lower_hispn.use_log_space then raw
         else Array.map log raw));
  (* Compiler.compile/execute at every level, one thread *)
  let at_level =
    List.map
      (fun level ->
        let what = "compiler vm-t1 " ^ Optimizer.level_to_string level in
        let c =
          if level = base.Options.opt_level then base_c
          else compile what { base with Options.opt_level = level }
        in
        let out = run what c in
        within what out;
        (level, (c, out)))
      levels
  in
  (* random engine x threads x batch, bit-identical to the same
     level's one-thread run *)
  for _ = 1 to 4 do
    let level = Rng.choose rng levels in
    let engine = Rng.choose rng Jit.[ Vm; Jit ] in
    let threads = Rng.choose rng [ 2; 3; 4; 8 ] in
    let batch_size = Rng.choose rng [ 1; 3; 5; 8; 16; 32 ] in
    let what =
      Printf.sprintf "compiler %s-t%d %s batch=%d"
        (Jit.engine_to_string engine) threads
        (Optimizer.level_to_string level)
        batch_size
    in
    let c, at_t1 = List.assoc level at_level in
    let out =
      run what
        (Compiler.with_options c
           {
             base with
             Options.opt_level = level;
             engine;
             threads;
             batch_size;
           })
    in
    if not (exact_eq at_t1 out) then
      fail "model-bit-identity" what "differs from the same level's vm-t1 run"
  done;
  (* a variant may have grown the process-wide pool to 8 domains; retire
     it so later cases do not pay for idle domains at every
     stop-the-world collection.  No handle on it outlives this case, and
     the next [Pool.global] creates a fresh pool. *)
  Pool.shutdown (Pool.global ~threads:1);
  (* the GPU simulator: streams 1 against Infer, 2 and 4 bit-identical *)
  let gpu_what streams = Printf.sprintf "gpu streams=%d" streams in
  let gpu_options streams =
    {
      base with
      Options.target = Options.Gpu;
      batch_size = 16;
      block_size = 8;
      gpu_fallback = false;
      streams;
    }
  in
  let gpu_c = compile (gpu_what 1) (gpu_options 1) in
  let gpu streams =
    run (gpu_what streams) (Compiler.with_options gpu_c (gpu_options streams))
  in
  let g1 = gpu 1 in
  within (gpu_what 1) g1;
  List.iter
    (fun streams ->
      if not (exact_eq g1 (gpu streams)) then
        fail "model-bit-identity" (gpu_what streams)
          "differs from gpu streams=1")
    [ 2; 4 ]

(* A fresh stream per check family, independent of the generator's. *)
let check_rng ~salt (p : Smith.program) =
  Rng.create ~seed:((p.Smith.seed * 7_368_787) + p.Smith.id + salt)

(** [check_model ?config p] — only the model-derived checks; [None] for
    IR-level programs or when every invariant holds. *)
let check_model ?(config = default_config) (p : Smith.program) :
    failure option =
  catch_failure (fun () ->
      Option.iter
        (model_checks ~config ~rng:(check_rng ~salt:2 p) p)
        p.Smith.model)

(** [check_program ?config ?order p] — the full differential check;
    [None] when every invariant holds.  Deterministic: the ordering
    draws derive from the program's own (seed, id). *)
let check_program ?(config = default_config) ?order (p : Smith.program) :
    failure option =
  let fail check pipeline detail = raise (failure p check pipeline detail) in
  let tol = config.tol in
  let ok_or check pipeline = function
    | Ok x -> x
    | Error e -> fail check pipeline e
  in
  let rng = check_rng ~salt:1 p in
  catch_failure @@ fun () ->
  (* 1. verifier *)
  (match Verifier.verify p.Smith.modul with
  | [] -> ()
  | errs -> fail "verify" "-" (Verifier.errors_to_string errs));
  (* 2. printer/parser round-trip: print, parse, print again — the two
     texts must be byte-identical *)
  let printed = Printer.modul_to_string p.Smith.modul in
  (match Parser.modul_of_string printed with
  | m ->
      if not (String.equal printed (Printer.modul_to_string m)) then
        fail "roundtrip" "-" "reprinted IR differs from first print"
  | exception Parser.Error e -> fail "roundtrip" "-" ("parse: " ^ e)
  | exception Lexer.Error e -> fail "roundtrip" "-" ("lex: " ^ e));
  (* 3. baseline lowering (honouring the program's space draw) and
     reference evaluation *)
  let lo =
    ok_or "pipeline"
      ("lower-to-lospn space="
      ^ Spnc_lospn.Lower_hispn.space_to_string p.Smith.space)
      (lower_with_space p p.Smith.modul)
  in
  let lb0 = ok_or "pipeline" opt_suffix (run_suffix ~pipeline:opt_suffix lo) in
  let reference = eval_interp lb0 p in
  let pool = Pool.global ~threads:4 in
  (* runs of one optimized lowering of [lb] *)
  let eval ?(data = p.Smith.data) ?(batch_size = p.Smith.batch_size) lb lir
      engines =
    let out_cols = Compiler.out_cols_of_lospn lb in
    let jit = lazy (Jit.compile lir) in
    List.map
      (fun (engine, threads) ->
        ( Printf.sprintf "%s-t%d" (Jit.engine_to_string engine) threads,
          eval_cpu ~pool ~batch_size ~engine ~jit ~threads ~out_cols lir data
        ))
      engines
  in
  let lower ?cpu_options ~pipeline ~level lb =
    ok_or "pipeline"
      (Printf.sprintf "%s,%s" pipeline (Optimizer.level_to_string level))
      (Result.bind (lower_lir ?cpu_options lb) (optimize level))
  in
  (* the first run is the reference of the rest, bit for bit *)
  let identical ~what = function
    | [] -> ()
    | (bname, base) :: rest ->
        List.iter
          (fun (name, out) ->
            if not (agree exact_eq base out) then
              fail "bit-identity"
                (Printf.sprintf "%s %s-vs-%s" what bname name)
                (Fmt.str "%s %a but %s %a" bname pp_outcome base name
                   pp_outcome out))
          rest
  in
  let within ~what reference = function
    | [] -> ()
    | (name, out) :: _ ->
        if not (agree (tol_eq ~tol) reference out) then
          fail "reference" (what ^ " " ^ name)
            (Fmt.str "interp %a but %s %a" pp_outcome reference name
               pp_outcome out)
  in
  (* 4. -O0..-O3 × VM/JIT × threads 1/2/4 on the baseline *)
  let lir0 = ok_or "pipeline" baseline_pipeline (lower_lir lb0) in
  List.iter
    (fun level ->
      let lstr = Optimizer.level_to_string level in
      let what = Printf.sprintf "%s %s" baseline_pipeline lstr in
      let lir =
        ok_or "pipeline"
          (Printf.sprintf "%s,%s" baseline_pipeline lstr)
          (optimize level lir0)
      in
      let runs =
        eval lb0 lir
          Jit.[ (Vm, 1); (Jit, 1); (Vm, 2); (Jit, 2); (Vm, 4); (Jit, 4) ]
      in
      identical ~what runs;
      within ~what reference runs)
    levels;
  (* 5. randomized legal pass orderings, or the one forced [order] *)
  for _ = 1 to if order = None then config.orderings else 1 do
    let pl =
      match order with
      | Some spec -> String.split_on_char ',' spec
      | None -> Passorder.random_pipeline rng
    in
    let pstr = Passorder.pipeline_to_string pl in
    (* a pipeline starting at lower-to-lospn runs its suffix on the
       space-honouring lowering, so the ordering varies while the
       datatype decision stays the program's own *)
    let lbk =
      ok_or "pipeline" pstr
        (match pl with
        | "lower-to-lospn" :: suffix ->
            run_suffix ~pipeline:(String.concat "," suffix) lo
        | _ -> run_from ~start:"hispn" ~pipeline:pstr p.Smith.modul)
    in
    let outk = eval_interp lbk p in
    if not (agree (tol_eq ~tol) reference outk) then
      fail "ordering-divergence" pstr
        (Fmt.str "baseline interp %a but %a" pp_outcome reference pp_outcome
           outk);
    (* one seed-chosen level, both engines *)
    let level = Rng.choose rng levels in
    identical
      ~what:(pstr ^ " " ^ Optimizer.level_to_string level)
      (eval lbk (lower ~pipeline:pstr ~level lbk) Jit.[ (Vm, 1); (Jit, 1) ])
  done;
  (* 6. the vectorized lowering at one seed-chosen level, on the case's
     rows tiled to [Jit.chunk] 8-lane iterations plus 9 rows in one
     kernel call: a full column chunk, a partial one and a last group
     the runtime pads all run *)
  let tiled n =
    let tile a = Array.init n (fun i -> a.(i mod p.Smith.rows)) in
    (tile, tile p.Smith.data)
  in
  let level = Rng.choose rng levels in
  let n = (Jit.chunk * 8) + 9 in
  let tile, data = tiled n in
  let what = "vectorized avx2x8+veclib+shuffle" in
  let runs =
    eval ~data ~batch_size:n lb0
      (lower ~cpu_options:vector_options ~pipeline:what ~level lb0)
      Jit.[ (Vm, 1); (Jit, 1) ]
  in
  identical ~what runs;
  within ~what (Result.map tile reference) runs;
  (* ... bit for bit the scalar lowering's rows at the same level: a
     row's bits never depend on which lowering scored it *)
  let scalar =
    eval ~data ~batch_size:n lb0
      (optimize level lir0 |> ok_or "pipeline" what)
      Jit.[ (Vm, 1) ]
  in
  identical ~what:(what ^ " vs scalar")
    (runs @ List.map (fun (name, out) -> ("scalar-" ^ name, out)) scalar);
  (* ... and the scalar lowering at another, across one scalar chunk *)
  let level = Rng.choose rng levels in
  let n = Jit.chunk + 3 in
  let tile, data = tiled n in
  let what = Printf.sprintf "scalar %d rows %s" n (Optimizer.level_to_string level) in
  let runs =
    eval ~data ~batch_size:n lb0 (optimize level lir0 |> ok_or "pipeline" what)
      Jit.[ (Vm, 1); (Jit, 1) ]
  in
  identical ~what runs;
  within ~what (Result.map tile reference) runs;
  (* 7. model-derived cases, end to end against the reference evaluator *)
  Option.iter (model_checks ~config ~rng:(check_rng ~salt:2 p) p) p.Smith.model

(* -- Pass-ordering explorer -------------------------------------------------- *)

let est_cycles (profile : Spnc_cpu.Profile.t) : float =
  List.fold_left
    (fun acc (c : Spnc_cpu.Profile.cell) ->
      acc +. (float_of_int (Atomic.get c.Spnc_cpu.Profile.count) *. c.Spnc_cpu.Profile.cycles))
    0.0
    (Spnc_cpu.Profile.cells profile)

(* Score one opt-stage ordering over one program: opt-stage seconds and
   surviving ops, then exact profiled cycles of an -O3 VM run; outputs
   are compared (bit-exactly) against the supplied baseline outputs. *)
let score_one ~(order : string list) ~(baseline_out : float array option)
    (p : Smith.program) :
    (float * int * float * float array option * bool, string) result =
  let ( let* ) = Result.bind in
  let* lo = lower_with_space p p.Smith.modul in
  let t0 = Unix.gettimeofday () in
  let* lo =
    run_suffix ~pipeline:(Passorder.order_to_string order) lo
  in
  let dt = Unix.gettimeofday () -. t0 in
  let ops = Ir.count_ops (fun _ -> true) lo in
  let* lb = run_suffix ~pipeline:"lospn-bufferize,lospn-buffer-opt" lo in
  let out_cols = Compiler.out_cols_of_lospn lb in
  let* lir = Result.bind (lower_lir lb) (optimize Optimizer.O3) in
  let profile = Spnc_cpu.Profile.create () in
  let n = p.Smith.rows in
  let input =
    Spnc_cpu.Vm.of_flat (Smith.flat_data p) ~rows:n ~cols:p.Smith.num_features
  in
  let out = Spnc_cpu.Vm.buffer ~rows:n ~cols:out_cols in
  match Spnc_cpu.Vm.run_profiled lir profile ~buffers:[ input; out ] with
  | exception Spnc_cpu.Vm.Trap e -> Error ("trap: " ^ e)
  | () ->
      let slot0 = Array.sub out.Spnc_cpu.Vm.data 0 n in
      let bit_ok =
        match baseline_out with
        | None -> true
        | Some b -> exact_eq slot0 b
      in
      Ok (dt, ops, est_cycles profile, Some slot0, bit_ok)

(** [explore ~programs ~orders] — score each ordering over the corpus
    (skipping programs whose baseline run itself fails); the first
    ordering in [orders] is the bit-identity baseline. *)
let explore ~(programs : Smith.program list)
    ~(orders : string list list) : Passorder.score list =
  match orders with
  | [] -> []
  | base_order :: _ ->
      (* per-program baseline outputs, under the first (default) order *)
      let baselines =
        List.map
          (fun p ->
            match score_one ~order:base_order ~baseline_out:None p with
            | Ok (_, _, _, out, _) -> (p, out)
            | Error _ -> (p, None))
          programs
      in
      List.map
        (fun order ->
          let programs_scored = ref 0 in
          let total_s = ref 0.0 in
          let total_ops = ref 0 in
          let total_cycles = ref 0.0 in
          let bit_identical = ref true in
          List.iter
            (fun (p, baseline_out) ->
              match baseline_out with
              | None -> () (* baseline itself failed; skip this program *)
              | Some _ -> (
                  match score_one ~order ~baseline_out p with
                  | Ok (dt, ops, cycles, _, bit_ok) ->
                      incr programs_scored;
                      total_s := !total_s +. dt;
                      total_ops := !total_ops + ops;
                      total_cycles := !total_cycles +. cycles;
                      if not bit_ok then bit_identical := false
                  | Error _ -> bit_identical := false))
            baselines;
          {
            Passorder.order;
            programs = !programs_scored;
            final_ops = !total_ops;
            compile_s = !total_s;
            est_cycles = !total_cycles;
            bit_identical = !bit_identical;
          })
        orders
