(** User-facing compiler options — the knobs the paper's Python interface
    exposes (§IV, §V): target, vectorization configuration, optimization
    level, maximum partition size, batch size, GPU block size, and the
    computation-space override. *)

module M = Spnc_machine.Machine
module Json = Spnc_obs.Json

type target = Cpu | Gpu

let target_to_string = function Cpu -> "cpu" | Gpu -> "gpu"

(* Declared before [t]: an unannotated label shared by both records
   resolves to [t], as it did before [compile] existed. *)
type compile = {
  target : target;
  isa : M.isa;
  veclib : M.veclib;
  vectorize : bool;
  use_veclib : bool;
  use_shuffle : bool;
  use_gather_tables : bool;
  opt_level : Spnc_cpu.Optimizer.level;
  lospn_opt_order : string list;
  max_partition_size : int option;
  space : Spnc_lospn.Lower_hispn.space_option;
  base_type : Spnc_mlir.Types.t;
  support_marginal : bool;
  block_size : int;
  gpu_fallback : bool;
}

(* Field documentation lives in options.mli. *)
type t = {
  target : target;
  machine : M.cpu;
  gpu : M.gpu;
  vectorize : bool;
  use_veclib : bool;
  use_shuffle : bool;
  use_gather_tables : bool;
  opt_level : Spnc_cpu.Optimizer.level;
  lospn_opt_order : string list option;
  max_partition_size : int option;
  batch_size : int;
  block_size : int;
  space : Spnc_lospn.Lower_hispn.space_option;
  base_type : Spnc_mlir.Types.t;
  support_marginal : bool;
  threads : int;
  streams : int;
  engine : Spnc_cpu.Jit.engine;
  use_kernel_cache : bool;
  kernel_cache_dir : string option;
  kernel_cache_mb : int;
  output_guard : Spnc_resilience.Guard.policy;
  gpu_fallback : bool;
  deadline_ms : float option;
  exec_retries : int;
  serve_max_batch : int;
  serve_queue_cap : int;
  serve_global_queue_cap : int;
  serve_engines_cap : int;
  serve_dispatchers : int;
  serve_starvation_ms : float;
}

let default =
  {
    target = Cpu;
    machine = M.ryzen_3900xt;
    gpu = M.rtx_2070_super;
    vectorize = false;
    use_veclib = true;
    use_shuffle = true;
    use_gather_tables = false;
    opt_level = Spnc_cpu.Optimizer.O1;
    lospn_opt_order = None;
    max_partition_size = None;
    batch_size = 4096;
    block_size = 64;
    space = Spnc_lospn.Lower_hispn.Auto;
    base_type = Spnc_mlir.Types.F32;
    support_marginal = false;
    threads = 1;
    streams = 1;
    engine = Spnc_cpu.Jit.Jit;
    use_kernel_cache = true;
    kernel_cache_dir = None;
    kernel_cache_mb = 256;
    output_guard = Spnc_resilience.Guard.Warn;
    gpu_fallback = true;
    deadline_ms = None;
    exec_retries = 2;
    serve_max_batch = 256;
    serve_queue_cap = 256;
    serve_global_queue_cap = 4096;
    serve_engines_cap = 64;
    serve_dispatchers = 2;
    serve_starvation_ms = 50.0;
  }

(** The best CPU configuration found by the paper's DSE (Fig. 6):
    vectorization + vector library + shuffled loads. *)
let best_cpu ?(machine = M.ryzen_3900xt) () =
  { default with target = Cpu; machine; vectorize = true; use_veclib = true;
    use_shuffle = true }

(** The best GPU configuration (§V-A.1): batch/block size 64. *)
let best_gpu ?(gpu = M.rtx_2070_super) () =
  { default with target = Gpu; gpu; block_size = 64; batch_size = 64 }

let cpu_lower_options (k : compile) : Spnc_cpu.Lower_cpu.options =
  {
    Spnc_cpu.Lower_cpu.vectorize = k.vectorize;
    width = (if k.vectorize then M.simd_width k.isa ~bits:32 else 1);
    use_veclib = k.use_veclib && k.veclib <> M.No_veclib;
    use_shuffle = k.use_shuffle;
    gather_tables =
      k.use_gather_tables && k.vectorize
      && (match k.isa with M.AVX2 | M.AVX512 -> true | _ -> false);
  }

let effective_threads (t : t) = Spnc_runtime.Exec.normalize_threads t.threads

(* -- The compile key --------------------------------------------------------- *)

(* Every field of [t] is bound by name, with no [; _]: a new field is a
   build error (warning 9) until it is classified here, either read by
   the pipeline or bound to [_]. *)
let compile_of (t : t) : compile =
  let { target; machine; vectorize; use_veclib; use_shuffle; use_gather_tables;
        opt_level; lospn_opt_order; max_partition_size; block_size; space;
        base_type; support_marginal; gpu_fallback;
        (* the runtime reads these from the caller's options *)
        gpu = _; batch_size = _; threads = _; streams = _; engine = _;
        use_kernel_cache = _; kernel_cache_dir = _; kernel_cache_mb = _;
        output_guard = _; deadline_ms = _;
        exec_retries = _; serve_max_batch = _; serve_queue_cap = _;
        serve_global_queue_cap = _; serve_engines_cap = _;
        serve_dispatchers = _; serve_starvation_ms = _ } =
    t
  in
  (* a scalar build ignores the vector-only knobs and a CPU build the
     GPU-only ones: fixing them lets identical kernels share one key *)
  let vector x ~scalar = if vectorize then x else scalar in
  let gpu_only x ~cpu = if target = Gpu then x else cpu in
  { target; isa = machine.M.isa; veclib = machine.M.veclib; vectorize;
    use_veclib = vector use_veclib ~scalar:default.use_veclib;
    use_shuffle = vector use_shuffle ~scalar:default.use_shuffle;
    use_gather_tables =
      vector use_gather_tables ~scalar:default.use_gather_tables;
    opt_level;
    lospn_opt_order =
      Option.value lospn_opt_order ~default:Pipelines.default_lospn_opt_order;
    max_partition_size; space; base_type; support_marginal;
    block_size = gpu_only block_size ~cpu:default.block_size;
    gpu_fallback = gpu_only gpu_fallback ~cpu:default.gpu_fallback }

let with_compile (k : compile) (t : t) : t =
  let { target; isa; veclib; vectorize; use_veclib; use_shuffle;
        use_gather_tables; opt_level; lospn_opt_order; max_partition_size;
        space; base_type; support_marginal; block_size; gpu_fallback } =
    k
  in
  { t with target; machine = { t.machine with M.isa; veclib }; vectorize;
    use_veclib; use_shuffle; use_gather_tables; opt_level;
    lospn_opt_order = Some lospn_opt_order; max_partition_size; space;
    base_type; support_marginal; block_size; gpu_fallback }

(* Bump when [compile] or its encoding changes: old keys then miss. *)
let key_version = 1

(* Every field of [compile] is bound by name, so a field added to the
   record cannot be left out of the key. *)
let compile_to_json (k : compile) : Json.t =
  let { target; isa; veclib; vectorize; use_veclib; use_shuffle;
        use_gather_tables; opt_level; lospn_opt_order; max_partition_size;
        space; base_type; support_marginal; block_size; gpu_fallback } =
    k
  in
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("spnc_compile", int key_version);
      ("target", Json.Str (target_to_string target));
      ("isa", Json.Str (M.isa_to_string isa));
      ("veclib", Json.Str (M.veclib_to_string veclib));
      ("vectorize", Json.Bool vectorize);
      ("use_veclib", Json.Bool use_veclib);
      ("use_shuffle", Json.Bool use_shuffle);
      ("use_gather_tables", Json.Bool use_gather_tables);
      ("opt_level", Json.Str (Spnc_cpu.Optimizer.level_to_string opt_level));
      ( "lospn_opt_order",
        Json.List (List.map (fun p -> Json.Str p) lospn_opt_order) );
      ( "max_partition_size",
        Option.fold ~none:Json.Null ~some:int max_partition_size );
      ("space", Json.Str (Spnc_lospn.Lower_hispn.space_to_string space));
      ("base_type", Json.Str (Spnc_mlir.Types.to_string base_type));
      ("support_marginal", Json.Bool support_marginal);
      ("block_size", int block_size);
      ("gpu_fallback", Json.Bool gpu_fallback);
    ]

exception Bad_field of string

let compile_of_json (j : Json.t) : (compile, string) result =
  let field name decode =
    match Option.bind (Json.member name j) decode with
    | Some v -> v
    | None -> raise_notrace (Bad_field name)
  in
  (* an enumeration decodes by inverting its printer over its values *)
  let enum to_string values v =
    Option.bind (Json.str v) (fun s ->
        List.find_opt (fun x -> to_string x = s) values)
  in
  (* integers [Json] prints exactly; [int_of_float] is unspecified
     beyond [int]'s range *)
  let int v =
    Option.bind (Json.num v) (fun n ->
        if Float.is_integer n && Float.abs n < 1e15 then Some (int_of_float n)
        else None)
  in
  let order v =
    Option.bind (Json.list v) (fun vs ->
        let names = List.filter_map Json.str vs in
        if List.compare_lengths names vs = 0
           && Result.is_ok (Pipelines.lospn_opt_passes names)
        then Some names
        else None)
  in
  match
    let version = field "spnc_compile" int in
    if version <> key_version then
      Error
        (Printf.sprintf "compile key: unsupported version %d (want %d)"
           version key_version)
    else
      Ok
        { target = field "target" (enum target_to_string [ Cpu; Gpu ]);
          isa =
            field "isa" (enum M.isa_to_string M.[ Scalar; AVX2; AVX512; Neon ]);
          veclib =
            field "veclib" (fun v -> Option.bind (Json.str v) M.veclib_of_string);
          vectorize = field "vectorize" Json.bool;
          use_veclib = field "use_veclib" Json.bool;
          use_shuffle = field "use_shuffle" Json.bool;
          use_gather_tables = field "use_gather_tables" Json.bool;
          opt_level =
            field "opt_level" (fun v ->
                Option.bind (Json.str v) Spnc_cpu.Optimizer.level_of_string);
          lospn_opt_order = field "lospn_opt_order" order;
          max_partition_size =
            field "max_partition_size" (function
              | Json.Null -> Some None
              | v -> Option.map Option.some (int v));
          space =
            field "space"
              Spnc_lospn.Lower_hispn.(
                enum space_to_string [ Auto; Force_linear; Force_log ]);
          base_type =
            field "base_type"
              (enum Spnc_mlir.Types.to_string Spnc_mlir.Types.[ F32; F64 ]);
          support_marginal = field "support_marginal" Json.bool;
          block_size = field "block_size" int;
          gpu_fallback = field "gpu_fallback" Json.bool }
  with
  | r -> r
  | exception Bad_field name ->
      Error (Printf.sprintf "compile key: missing or bad field %S" name)

let fingerprint (k : compile) = Json.to_string (compile_to_json k)

(* The compile key, then every runtime knob.  Every field is bound by
   name, as in [compile_of]: a new field is a build error here too. *)
let pp ppf (t : t) =
  let { (* the compile key prints these, and [machine]'s isa and veclib *)
        target = _; vectorize = _; use_veclib = _; use_shuffle = _;
        use_gather_tables = _; opt_level = _; lospn_opt_order = _;
        max_partition_size = _; block_size = _; space = _; base_type = _;
        support_marginal = _; gpu_fallback = _;
        machine; gpu; batch_size; threads; streams; engine;
        use_kernel_cache; kernel_cache_dir; kernel_cache_mb; output_guard;
        deadline_ms; exec_retries; serve_max_batch; serve_queue_cap;
        serve_global_queue_cap; serve_engines_cap; serve_dispatchers;
        serve_starvation_ms } =
    t
  in
  let opt f = function None -> "none" | Some x -> f x in
  Fmt.pf ppf
    "%s machine=%S gpu=%S batch=%d threads=%d streams=%d engine=%s \
     cache=%b cache_dir=%s cache_mb=%d guard=%s deadline_ms=%s \
     retries=%d serve_batch=%d serve_queue=%d serve_global_queue=%d \
     serve_engines=%d serve_dispatchers=%d serve_starvation_ms=%g"
    (fingerprint (compile_of t))
    machine.M.cpu_name gpu.M.gpu_name batch_size
    (Spnc_runtime.Exec.normalize_threads threads) streams
    (Spnc_cpu.Jit.engine_to_string engine)
    use_kernel_cache (opt Fun.id kernel_cache_dir) kernel_cache_mb
    (Spnc_resilience.Guard.policy_to_string output_guard)
    (opt (Printf.sprintf "%g") deadline_ms)
    exec_retries serve_max_batch serve_queue_cap serve_global_queue_cap
    serve_engines_cap serve_dispatchers serve_starvation_ms
