(** The SPNC driver: end-to-end compilation of a probabilistic query on an
    SPN model, with per-stage wall-clock timing.

    This is the OCaml equivalent of the paper's "single API call" Python
    interface: {!compile} runs the full pipeline

    {v
    model → HiSPN → canonicalize → LoSPN → partition → bufferize →
    buffer-opt → (CPU: cir → Lir → -O pipeline → regalloc → kernel)
                 (GPU: kernels + host → copy-opt → PTX → CUBIN)
    v}

    and {!execute} runs the compiled artifact over data.  The timing
    ledger drives the compile-time experiments (Figs. 10–13, §V-B.1). *)

open Spnc_mlir
module Diag = Spnc_resilience.Diag
module Guard = Spnc_resilience.Guard
module Fault = Spnc_resilience.Fault

type timing = Pass.timing = {
  stage : string;
  seconds : float;
  minor_words : float;
  direct_words : float;
  minor_collections : int;
}

(* A lazy-like cell for the deferred closure compilation that is safe to
   share across domains AND retryable after a failed build: [Lazy.t]
   poisons permanently when the thunk raises (every later force re-raises
   [Lazy.Undefined]), which turned one transient JIT failure into a
   permanently dead cached artifact.  Failure here leaves the cell
   [Jit_pending], so the next force simply tries again. *)
type jit_state =
  | Jit_pending of (unit -> Spnc_cpu.Jit.kernel)
  | Jit_ready of Spnc_cpu.Jit.kernel

type jit_cell = { mutable jit_state : jit_state }

type cpu_artifact = {
  lir : Spnc_cpu.Lir.modul;
  regalloc : Spnc_cpu.Regalloc.stats array;
  jit : jit_cell;
      (** closure-compiled form of [lir]; built on first JIT execution
          (on the calling domain, before workers spawn) and shared by
          every later run of this artifact *)
}

type gpu_artifact = {
  gpu_module : Ir.modul;  (** host function + gpu.func kernels *)
  ptx : string;
  cubin : Spnc_gpu.Ptx.cubin;
}

type artifact = Cpu_kernel of cpu_artifact | Gpu_kernel of gpu_artifact

type compiled = {
  options : Options.t;
  timings : timing list;
  lospn : Ir.modul;  (** final bufferized LoSPN (diagnostics) *)
  out_cols : int;  (** slots per sample in the kernel output buffer *)
  num_tasks : int;
  artifact : artifact;
  datatype : Spnc_lospn.Lower_hispn.datatype_choice;
  diags : Diag.t list;
      (** non-fatal diagnostics accumulated during compilation (e.g. a
          GPU→CPU fallback notice); empty on a clean compile *)
}

let compile_seconds (c : compiled) =
  List.fold_left (fun acc t -> acc +. t.seconds) 0.0 c.timings

let stage_seconds (c : compiled) stage =
  List.fold_left
    (fun acc t -> if t.stage = stage then acc +. t.seconds else acc)
    0.0 c.timings

(* Determine the output-slot count from the bufferized kernel signature. *)
let out_cols_of_lospn (m : Ir.modul) =
  match
    List.find_opt (fun (o : Ir.op) -> o.Ir.name = Spnc_lospn.Ops.kernel_name) m.Ir.mops
  with
  | Some kernel -> (
      match List.rev (Option.get (Ir.entry_block kernel)).Ir.bargs with
      | last :: _ -> (
          match last.Ir.vty with
          | Types.MemRef ([ _; Some c ], _) -> c
          | _ -> 1)
      | [] -> 1)
  | None -> 1

(* The closure compilation is deferred, so it cannot ride on the [timed]
   stage ledger — it gets its own span at force time ([force_jit]).  The
   chaos point sits inside the thunk: an injected build failure must leave
   the cell retryable, exactly like a real one. *)
let make_jit_cell (lir : Spnc_cpu.Lir.modul) : jit_cell =
  {
    jit_state =
      Jit_pending
        (fun () ->
          Fault.maybe_transient "jit.build_fail";
          Spnc_obs.Trace.with_span ~cat:"compile" "jit-build" (fun () ->
              Spnc_cpu.Jit.compile lir));
  }

(* What the pipeline produces: the compiled record minus its process-bound
   parts — [options] and [diags] belong to the calling context, and the
   JIT closure cell is rebuilt from [lir].  Everything below is pure
   immutable data, so the disk tier [Marshal]s it as is. *)
type stored_artifact =
  | Stored_cpu of {
      s_lir : Spnc_cpu.Lir.modul;
      s_regalloc : Spnc_cpu.Regalloc.stats array;
    }
  | Stored_gpu of gpu_artifact

type stored = {
  s_timings : timing list;
  s_lospn : Ir.modul;
  s_out_cols : int;
  s_num_tasks : int;
  s_artifact : stored_artifact;
  s_datatype : Spnc_lospn.Lower_hispn.datatype_choice;
}

let compiled_of_stored ~(options : Options.t) ?(diags = []) (s : stored) :
    compiled =
  {
    options;
    timings = s.s_timings;
    lospn = s.s_lospn;
    out_cols = s.s_out_cols;
    num_tasks = s.s_num_tasks;
    artifact =
      (match s.s_artifact with
      | Stored_cpu { s_lir; s_regalloc } ->
          Cpu_kernel
            { lir = s_lir; regalloc = s_regalloc; jit = make_jit_cell s_lir }
      | Stored_gpu g -> Gpu_kernel g);
    datatype = s.s_datatype;
    diags;
  }

(* The full pipeline, unconditionally (the cache wrapper is below), on a
   model [compile] has validated.  It reads only the compile key, so two
   option sets with one key build one kernel; [compile] attaches the
   caller's options to the result. *)
let compile_full ~(options : Options.compile) (model : Spnc_spn.Model.t) :
    stored * Diag.t list =
  let timings = ref [] in
  let timed stage f =
    (* one fault point per stage: an injected failure takes the same
       path a real bug in that stage would *)
    if Fault.fire ("compile." ^ stage) then
      Diag.fail ~pass:stage "injected failure at stage %s" stage;
    let r, t = Pass.timed ~cat:"compile" stage f in
    timings := t :: !timings;
    r
  in
  (* the query's batch size only names the IR's [batchSize] attribute,
     which no lowering reads: the runtime chunks by the caller's own *)
  let query =
    {
      Spnc_hispn.From_model.default_query with
      support_marginal = options.Options.support_marginal;
    }
  in
  let hi =
    timed "hispn-translation" (fun () ->
        Spnc_hispn.From_model.translate ~query model)
  in
  let hi = timed "canonicalize" (fun () -> Canonicalize.run hi) in
  let lowering =
    {
      Spnc_lospn.Lower_hispn.default_options with
      space = options.Options.space;
      base_type = options.Options.base_type;
    }
  in
  (* datatype decision, recorded for reporting *)
  let datatype =
    let graph_ops =
      match Ir.find_ops (fun o -> o.Ir.name = "hi_spn.graph") hi with
      | g :: _ -> Ir.single_region_ops g
      | [] -> []
    in
    Spnc_lospn.Lower_hispn.choose_datatype ~options:lowering graph_ops
  in
  let lo =
    timed "lower-to-lospn" (fun () ->
        Spnc_lospn.Lower_hispn.run ~options:lowering hi)
  in
  (* LoSPN-level optimization (§IV-A5): constant folding through the
     canonicalization framework plus dialect-agnostic CSE/DCE.  Running it
     before partitioning lets the partitioner see the deduplicated DAG. *)
  (* the stage runs the pass table's passes without the runner's
     barrier, op counts or verifier, but each under the shared timer: its
     pass-category span gives [spnc_cli compile] traces the same per-pass
     breakdown as [spnc_opt] pipelines *)
  let lo =
    timed "lospn-optimization" (fun () ->
        match Pipelines.lospn_opt_passes options.Options.lospn_opt_order with
        | Error e -> invalid_arg ("lospn_opt_order: " ^ e)
        | Ok passes ->
            List.fold_left
              (fun lo (p : Pass.pass) ->
                fst
                  (Pass.timed ~cat:"pass" p.Pass.name (fun () ->
                       match p.Pass.run lo with
                       | Ok lo -> lo
                       | Error e -> Diag.fail ~pass:p.Pass.name "%s" e)))
              lo passes)
  in
  let lo =
    match options.Options.max_partition_size with
    | Some size ->
        timed "graph-partitioning" (fun () ->
            Spnc_lospn.Partition_pass.run
              ~options:
                {
                  Spnc_lospn.Partition_pass.default_options with
                  max_partition_size = size;
                }
              lo)
    | None -> lo
  in
  let lo = timed "bufferization" (fun () -> Spnc_lospn.Bufferize.run lo) in
  let lo = timed "buffer-optimization" (fun () -> Spnc_lospn.Buffer_opt.run lo) in
  let out_cols = out_cols_of_lospn lo in
  let num_tasks = Ir.count_ops (fun o -> o.Ir.name = Spnc_lospn.Ops.task_name) lo in
  let build_cpu () =
    (* one walk lowers and selects: no cir module is built; what
       selection does after it (closing the functions, the entry lookup)
       is timed as its own stage *)
    let sel =
      timed "cpu-lowering" (fun () ->
          Spnc_cpu.Lower_cpu.isel ~options:(Options.cpu_lower_options options) lo)
    in
    let lir =
      timed "instruction-selection" (fun () ->
          Spnc_cpu.Isel.finish sel ~entry:"spn_kernel")
    in
    let lir =
      timed "llvm-optimization" (fun () ->
          Spnc_cpu.Optimizer.run options.Options.opt_level lir)
    in
    let regalloc =
      timed "register-allocation" (fun () ->
          Spnc_cpu.Regalloc.allocate_module lir)
    in
    Stored_cpu { s_lir = lir; s_regalloc = regalloc }
  in
  let build_gpu () =
    (* chaos: an injected GPU build failure takes the same graceful-
       degradation path as a real lowering/PTX bug — warning + CPU
       artifact when [gpu_fallback] is on *)
    Fault.maybe_transient "gpu.build_fail";
    let g =
      timed "gpu-lowering" (fun () ->
          Spnc_gpu.Lower_gpu.run
            ~options:{ Spnc_gpu.Lower_gpu.block_size = options.Options.block_size }
            lo)
    in
    let g = timed "gpu-copy-optimization" (fun () -> Spnc_gpu.Copy_opt.run g) in
    (* kernel-level optimization (CSE/DCE on the device code) at -O1+;
       -O0 keeps the naive kernels, which execute more instructions *)
    let g =
      if options.Options.opt_level = Spnc_cpu.Optimizer.O0 then g
      else
        timed "gpu-kernel-optimization" (fun () ->
            Rewrite.dce (Cse.run g))
    in
    let ptx = timed "ptx-generation" (fun () -> Spnc_gpu.Ptx.emit g) in
    let cubin = timed "cubin-assembly" (fun () -> Spnc_gpu.Ptx.assemble ptx) in
    Stored_gpu { gpu_module = g; ptx; cubin }
  in
  let artifact, diags =
    match options.Options.target with
    | Options.Cpu -> (build_cpu (), [])
    | Options.Gpu -> (
        (* graceful degradation: a GPU lowering / PTX / assembly failure
           becomes a warning and a CPU artifact for the same query, so
           callers still get a runnable kernel that matches the reference *)
        match build_gpu () with
        | g -> (g, [])
        | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
        | exception e when options.Options.gpu_fallback ->
            let bt = Printexc.get_raw_backtrace () in
            let cause = Diag.of_exn ~pass:"gpu-backend" e bt in
            let warn =
              Diag.warning ?pass:cause.Diag.pass
                ("GPU backend failed, falling back to the CPU target: "
               ^ cause.Diag.message)
            in
            Fmt.epr "spnc: warning: %a@." Diag.pp warn;
            (build_cpu (), [ warn ]))
  in
  ( {
      s_timings = List.rev !timings;
      s_lospn = lo;
      s_out_cols = out_cols;
      s_num_tasks = num_tasks;
      s_artifact = artifact;
      s_datatype = datatype;
    },
    diags )

(* -- Kernel compilation cache -------------------------------------------------- *)

(* Content-addressed cache over (model, compile key): bench sweeps and the
   fuzzer compile the same speaker/RAT-SPN models over and over; a hit
   returns the previously compiled artifact and skips the whole pass
   pipeline (docs/PERFORMANCE.md).  Keyed by an MD5 digest of the
   deterministic model serialization plus [Options.fingerprint], so any
   change to either — including the fuzzer's [inject_bad_peephole] fault
   switch, which silently alters what the -O1+ pipeline produces —
   yields a different key. *)

type cache_counters = {
  hits : int;
  misses : int;
  full_compiles : int;
  disk_hits : int;
}

let cache : (string, compiled) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()
let cache_capacity = 128

(* Counters live in the process-wide Obs registry as atomics: the old
   plain [int ref]s were also bumped outside [with_lock] from concurrent
   compiles, which was a data race under multiple domains.  Atomic
   counters make every bump safe regardless of the lock, and the same
   numbers now show up in `--metrics` snapshots for free. *)
let n_hits = Spnc_obs.Metrics.counter "compiler.cache.hits"
let n_misses = Spnc_obs.Metrics.counter "compiler.cache.misses"
let n_full = Spnc_obs.Metrics.counter "compiler.cache.full_compiles"
let n_disk_hits = Spnc_obs.Metrics.counter "compiler.cache.disk_hits"

let with_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let cache_counters () =
  let open Spnc_obs.Metrics in
  {
    hits = counter_value n_hits;
    misses = counter_value n_misses;
    full_compiles = counter_value n_full;
    disk_hits = counter_value n_disk_hits;
  }

let reset_kernel_cache () =
  with_lock (fun () -> Hashtbl.reset cache);
  let open Spnc_obs.Metrics in
  reset (counter_name n_hits);
  reset (counter_name n_misses);
  reset (counter_name n_full);
  reset (counter_name n_disk_hits)

let cache_key ~(options : Options.compile) (model : Spnc_spn.Model.t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Options.fingerprint options;
            Spnc_spn.Serialize.to_string model;
            (if !Spnc_cpu.Optimizer.inject_bad_peephole then "fault" else "");
          ]))

(* -- Persistent (on-disk) tier ------------------------------------------------- *)

(* The format tag keeps old entries from being unmarshalled into the
   wrong layout: [Marshal] decodes a stale layout without raising.  The
   layout of [stored] can change only with a source under lib/, so the
   tag carries their digest, taken at build time; the OCaml version
   rides along because Marshal output is not stable across compiler
   versions. *)
let disk_fmt =
  "spnc-compiled/" ^ Spnc_source_digest.hex ^ "/" ^ Sys.ocaml_version

(* one warning per process for an unusable cache dir, not one per compile *)
let disk_warned = Atomic.make false

let disk_cache (options : Options.t) : Kcache.t option =
  match options.Options.kernel_cache_dir with
  | None -> None
  | Some dir -> (
      match Kcache.open_ ~dir ~max_mb:options.Options.kernel_cache_mb with
      | Ok t -> Some t
      | Error e ->
          if not (Atomic.exchange disk_warned true) then
            Fmt.epr
              "spnc: warning: kernel cache dir %s unusable (%s), running \
               without the persistent cache@."
              dir e;
          None)

let disk_find (kc : Kcache.t) ~options key : compiled option =
  match Kcache.find kc ~fmt:disk_fmt ~key with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : stored) with
      | s -> Some (compiled_of_stored ~options s)
      | exception _ ->
          (* checksum-valid bytes that still fail to decode (a stale
             layout that kept the tag): quarantine like corruption and
             fall through to a recompile *)
          Kcache.quarantine kc ~key;
          None)

let disk_store (kc : Kcache.t) ~key (s : stored) : unit =
  match Marshal.to_string s [] with
  | payload -> Kcache.store kc ~fmt:disk_fmt ~key payload
  | exception _ -> ()

(** [compile ?options model] — the full pipeline, or a cache hit for an
    identical (model, compile key) pair: memory first, then — when
    [options.kernel_cache_dir] is set — the persistent on-disk tier
    ({!Kcache}), then a full compile (published to both tiers).  Every
    result, hit or not, carries the caller's [options], so the runtime
    knobs (threads, engine, output guard, deadline, batch size) apply.
    @raise Spnc_spn.Validate.Invalid if the model is structurally invalid. *)
let compile ?(options = Options.default) (model : Spnc_spn.Model.t) : compiled =
  (* validate before anything else: the pipeline and the cache key must
     only ever see well-formed models *)
  Spnc_spn.Validate.validate_exn model;
  let k = Options.compile_of options in
  let build () =
    let s, diags = compile_full ~options:k model in
    (s, compiled_of_stored ~options ~diags s)
  in
  if not options.Options.use_kernel_cache then begin
    Spnc_obs.Metrics.counter_incr n_full;
    snd (build ())
  end
  else begin
    let key = cache_key ~options:k model in
    match with_lock (fun () -> Hashtbl.find_opt cache key) with
    | Some c ->
        Spnc_obs.Metrics.counter_incr n_hits;
        { c with options }
    | None -> (
        let publish_memory c =
          with_lock (fun () ->
              if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
              Hashtbl.replace cache key c)
        in
        let kc = disk_cache options in
        match Option.bind kc (fun kc -> disk_find kc ~options key) with
        | Some c ->
            (* a memory miss either way; the disk tier saved the compile *)
            Spnc_obs.Metrics.counter_incr n_misses;
            Spnc_obs.Metrics.counter_incr n_disk_hits;
            publish_memory c;
            c
        | None ->
            let s, c = build () in
            (* counted after the compile so a raising pipeline (injected
               faults, invalid stages) doesn't inflate the miss count —
               same semantics as the old ref-based counters *)
            Spnc_obs.Metrics.counter_incr n_misses;
            Spnc_obs.Metrics.counter_incr n_full;
            publish_memory c;
            Option.iter (fun kc -> disk_store kc ~key s) kc;
            c)
  end

(* -- Execution ---------------------------------------------------------------- *)

let jit_lock = Mutex.create ()
let jit_build_failures = Spnc_obs.Metrics.counter "compiler.jit.build_failures"

(* Building the closures is serialized process-wide: cached artifacts
   (and their [jit] cell) are shared by every caller of [compile], and a
   mutable cell is not safe under concurrent mutation in OCaml 5.  A
   build that raises leaves the cell [Jit_pending] — the next force
   retries — where the previous [Lazy.t] representation poisoned the
   cell permanently (every later force re-raised), turning one transient
   JIT failure into a permanently dead cached artifact. *)
let force_jit (cell : jit_cell) =
  Mutex.lock jit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock jit_lock)
    (fun () ->
      match cell.jit_state with
      | Jit_ready k -> k
      | Jit_pending build -> (
          match build () with
          | k ->
              cell.jit_state <- Jit_ready k;
              k
          | exception e ->
              Spnc_obs.Metrics.counter_incr jit_build_failures;
              raise e))

(** [load_exec ?pool ?profile c] — build the reusable runtime engine
    handle for a CPU artifact: JIT closures forced (once, through the
    retryable cell shared by every caller of this cached artifact),
    worker pool wired up (the process-wide {!Spnc_runtime.Pool.global}
    unless [?pool] is given; it grows in place when [c.options] asks
    for more threads than it has), chunking knobs taken from
    [c.options].  Loading is the per-call cost {!execute} used to pay on
    every invocation; a server holds the returned handle hot and
    amortizes it across the artifact's lifetime (the {!Spnc_serve}
    registry LRU does exactly this).  Calls on one handle are serialized
    by the runtime. *)
let load_exec ?pool ?profile (c : compiled) : Spnc_runtime.Exec.t =
  match c.artifact with
  | Gpu_kernel _ ->
      invalid_arg
        "Compiler.load_exec: GPU artifacts run in the simulator, not the CPU \
         runtime"
  | Cpu_kernel { lir; jit; _ } ->
      let engine = c.options.Options.engine in
      (* force the closure compilation here, on the calling domain, so the
         worker domains only ever see the completed kernel.  Profiled
         closures capture the profile's cells, so they are built per run
         and bypass the artifact's shared cell. *)
      let jk =
        match (engine, profile) with
        | Spnc_cpu.Jit.Vm, _ -> None
        | Spnc_cpu.Jit.Jit, None -> Some (force_jit jit)
        | Spnc_cpu.Jit.Jit, Some p ->
            Some
              (Spnc_obs.Trace.with_span ~cat:"compile" "jit-build-profiled"
                 (fun () -> Spnc_cpu.Jit.compile ~profile:p lir))
      in
      let threads = Options.effective_threads c.options in
      (* engine handles share the process-wide pool: domains are spawned
         once, not per loaded model (docs/PERFORMANCE.md §4) *)
      let pool =
        match pool with
        | Some p -> Some p
        | None ->
            if threads > 1 then Some (Spnc_runtime.Pool.global ~threads)
            else None
      in
      Spnc_runtime.Exec.load ~batch_size:c.options.Options.batch_size ~threads
        ~engine ?jit:jk ?profile ?pool
        ~out_cols:c.out_cols lir

(** [execute c rows] — run the compiled kernel on row-major samples and
    return one {e log}-likelihood per sample (kernels compiled for linear
    space have their probabilities converted on the way out, so the API is
    uniform).  CPU kernels run on the VM through the multi-threaded
    runtime; GPU kernels run in the functional GPU simulator.  Outputs
    pass through the configured NaN/±inf/log-underflow guard
    ([options.output_guard]; docs/RESILIENCE.md).
    @raise Spnc_resilience.Guard.Guard_failure under the [Fail] policy. *)
let rec execute (c : compiled) (rows : float array array) : float array =
  finish c (execute_raw c rows)

(** [execute_profiled c rows] — like {!execute}, but every Lir instruction
    the CPU kernel executes is counted into a fresh per-SPN-node profile
    (docs/OBSERVABILITY.md).  The JIT is re-compiled with the counters
    baked in (the cached unprofiled closures are left alone), so the
    default {!execute} path pays nothing.  GPU artifacts execute normally
    and the returned profile is empty. *)
and execute_profiled (c : compiled) (rows : float array array) :
    float array * Spnc_cpu.Profile.t =
  let profile = Spnc_cpu.Profile.create ~cpu:c.options.Options.machine () in
  (finish c (execute_raw ~profile c rows), profile)

and finish (c : compiled) (raw : float array) : float array =
  let out =
    if c.datatype.Spnc_lospn.Lower_hispn.use_log_space then raw
    else Array.map log raw
  in
  Guard.apply ~policy:c.options.Options.output_guard ~what:"kernel output" out

and execute_raw ?profile (c : compiled) (rows : float array array) :
    float array =
  (* the deadline clock starts when the call enters the runtime — it
     covers JIT forcing, chunked execution, and the GPU simulation, but
     not the compile (which happened in [compile]) *)
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0))
      c.options.Options.deadline_ms
  in
  match c.artifact with
  | Cpu_kernel _ ->
      let exec = load_exec ?profile c in
      Spnc_runtime.Exec.execute_rows ?deadline
        ~retries:(max 0 c.options.Options.exec_retries)
        exec rows
  | Gpu_kernel { gpu_module; _ } ->
      let n = Array.length rows in
      if n = 0 then [||]
      else begin
        (* chaos: a device failure at launch takes the transient path so
           chaos runs exercise retry-or-diagnose on the GPU engine too *)
        Fault.maybe_transient "gpu.launch_fail";
        let flat = Array.concat (Array.to_list rows) in
        let res =
          Spnc_gpu.Sim.run_streamed gpu_module ~gpu:c.options.Options.gpu
            ~entry:"spn_kernel" ~inputs:[ flat ] ~rows:n ~out_cols:c.out_cols
            ~streams:c.options.Options.streams ()
        in
        (* the simulator is a pure function and cannot be cancelled
           mid-run; the deadline is enforced at the boundary, with the
           same structured error and discarded-output semantics *)
        (match deadline with
        | Some d ->
            let now = Unix.gettimeofday () in
            if now > d then
              raise
                (Spnc_runtime.Exec.Deadline_exceeded { deadline = d; now })
        | None -> ());
        Array.sub res.Spnc_gpu.Sim.output 0 n
      end

(** [finalize_output c raw] — the post-processing step {!execute} applies
    to raw kernel outputs: log-space conversion for linear-space kernels
    and the configured output guard.  Exposed for callers that drive the
    runtime through {!load_exec} +
    {!Spnc_runtime.Exec.execute_segments} (the serving batcher) and must
    stay bit-identical to {!execute}. *)
let finalize_output (c : compiled) (raw : float array) : float array =
  finish c raw

(** [estimate_seconds c ~rows] — modelled single-run execution time on the
    configured machine (the quantity plotted in Figs. 6–8 and 10–13). *)
let rec estimate_seconds (c : compiled) ~rows : float =
  match c.artifact with
  | Cpu_kernel { lir; regalloc; _ } ->
      let est =
        Spnc_cpu.Cost.kernel_estimate c.options.Options.machine lir ~regalloc
          ~rows ()
      in
      Spnc_cpu.Cost.threaded_seconds est
        ~threads:(Options.effective_threads c.options)
  | Gpu_kernel { gpu_module; _ } ->
      (* GPU execution is chunked by the user batch size: each chunk is a
         full upload / launch / download schedule (§V-A.1: the batch size
         becomes the block size of the launches).  A one-time CUDA
         context / module-load overhead is paid per run; it amortizes
         with the sample count, which is why the GPU overtakes scalar CPU
         only on the larger noisy workload (Figs. 7/8), and it grows with
         the CUBIN size, which is part of why the huge RAT-SPN kernels
         are slower on GPU than CPU (§V-B.2). *)
      gpu_init_seconds c
      +. Spnc_gpu.Sim.total_seconds
           (Spnc_gpu.Sim.estimate_streamed gpu_module ~gpu:c.options.Options.gpu
              ~entry:"spn_kernel" ~rows ~chunk:c.options.Options.batch_size
              ~streams:c.options.Options.streams)

(** One-time CUDA context + module-load overhead of a run: a fixed
    context cost plus a per-megabyte CUBIN upload/JIT cost. *)
and gpu_init_seconds (c : compiled) : float =
  match c.artifact with
  | Gpu_kernel { cubin; _ } ->
      (c.options.Options.gpu.Spnc_machine.Machine.module_load_ms *. 1e-3)
      +. (float_of_int (Bytes.length cubin.Spnc_gpu.Ptx.bytes) /. 1e6 *. 0.030)
  | Cpu_kernel _ -> 0.0

(** [gpu_ledger c ~rows] — the GPU time breakdown (Fig. 9). *)
let gpu_ledger (c : compiled) ~rows : Spnc_gpu.Sim.ledger option =
  match c.artifact with
  | Gpu_kernel { gpu_module; _ } ->
      Some
        (Spnc_gpu.Sim.estimate_streamed gpu_module ~gpu:c.options.Options.gpu
           ~entry:"spn_kernel" ~rows ~chunk:c.options.Options.batch_size
           ~streams:c.options.Options.streams)
  | Cpu_kernel _ -> None

(** [compile_and_execute ?options model rows] — the paper's one-call
    Python-style interface. *)
let compile_and_execute ?options model rows =
  let c = compile ?options model in
  (c, execute c rows)
