(** The benchmark's calls into each layer's public functions, each
    wrapped in a span named after the layer (recorded only when tracing
    is on).  Untraced and traced runs make exactly the same calls. *)

module C = Spnc.Compiler

let read_model ~parent path =
  Span.timed ~parent ~layer:"spn" "spn.read" (fun () ->
      match Spnc_spn.Serialize.read_file path with
      | Ok m -> m
      | Error e -> failwith (path ^ ": " ^ e))

(** [Compiler.compile].  The span's [cache] argument says how the kernel
    cache answered: [full] (the pipeline ran, and recorded a span per
    stage) or [memory]. *)
let compile ~parent ~options m =
  let before = (C.cache_counters ()).C.full_compiles in
  let args () =
    let full = (C.cache_counters ()).C.full_compiles > before in
    [ ("cache", Spnc_obs.Trace.S (if full then "full" else "memory")) ]
  in
  Span.timed ~args ~parent ~layer:"core.compiler" "compile" (fun () ->
      C.compile ~options m)

let cpu_artifact (c : C.compiled) =
  match c.C.artifact with
  | C.Cpu_kernel a -> a
  | C.Gpu_kernel _ -> invalid_arg "spnc_bench measures CPU artifacts only"

let force_jit ~parent c =
  Span.timed ~parent ~layer:"cpu.jit" "jit.build" (fun () ->
      ignore (C.force_jit (cpu_artifact c).C.jit))

let load_exec ~parent c =
  Span.timed ~parent ~layer:"runtime" "exec.load" (fun () -> C.load_exec c)

let execute ~parent e ~flat ~rows ~num_features =
  Span.timed ~rows ~parent ~layer:"runtime" "exec.execute" (fun () ->
      Spnc_runtime.Exec.execute e ~flat ~rows ~num_features)

let finalize ~parent c raw =
  Span.timed ~rows:(Array.length raw) ~parent ~layer:"core" "core.finalize"
    (fun () -> C.finalize_output c raw)

let csv_parse ~parent ~rows text =
  Span.timed ~rows ~parent ~layer:"data" "data.csv_parse" (fun () ->
      match Spnc_data.Csv.parse text with Ok d -> d | Error e -> failwith e)

let to_flat ~parent d =
  Span.timed ~parent ~layer:"data" "data.to_flat" (fun () ->
      Spnc_data.Synth.to_flat d)

type engine = { compiled : C.compiled; exec : Spnc_runtime.Exec.t }

(** Model file to first result: read, compile, build the JIT closures,
    load the engine, execute [rows], finalize. *)
let first_result ~parent ~options path rows =
  let m = read_model ~parent path in
  let compiled = compile ~parent ~options m in
  force_jit ~parent compiled;
  let exec = load_exec ~parent compiled in
  let flat = Array.concat (Array.to_list rows) in
  let raw =
    execute ~parent exec ~flat ~rows:(Array.length rows)
      ~num_features:m.Spnc_spn.Model.num_features
  in
  (m, { compiled; exec }, finalize ~parent compiled raw)
