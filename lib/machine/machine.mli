(** Machine descriptions and calibrated instruction costs.

    OCaml cannot emit AVX2/AVX-512/PTX, so ISA- and device-specific
    execution times are produced by applying these calibrated per-
    instruction costs to the actually-generated instruction streams
    (DESIGN.md §1).  Constants are order-of-magnitude calibrations
    against the paper's numbers; EXPERIMENTS.md records the resulting
    paper-vs-measured ratios. *)

type isa = Scalar | AVX2 | AVX512 | Neon

val isa_to_string : isa -> string

(** [simd_width isa ~bits] — vector lanes for an element of [bits] width
    (AVX2 256-bit, AVX-512 512-bit, Neon 128-bit). *)
val simd_width : isa -> bits:int -> int

type veclib = No_veclib | SVML | Libmvec

val veclib_to_string : veclib -> string

(** Inverse of {!veclib_to_string} ("none" / "svml" / "libmvec"); [None]
    on anything else.  The CLI's [--veclib] and the compile-key decoder
    ([Spnc.Options.compile_of_json]) both parse through this. *)
val veclib_of_string : string -> veclib option

type cpu = {
  cpu_name : string;
  isa : isa;
  freq_ghz : float;
  cores : int;
  veclib : veclib;
  flop_cost : float;  (** add/mul/fma, cycles (throughput-adjusted) *)
  div_cost : float;
  scalar_call_cost : float;  (** scalar libm call (log/exp) *)
  veclib_call_cost : float;  (** one vectorized log/exp over a vector *)
  load_cost : float;
  store_cost : float;
  gather_cost_per_lane : float;
  shuffle_cost : float;
  vec_insert_extract_cost : float;  (** scalar <-> vector lane move *)
  branch_cost : float;
  loop_overhead : float;  (** per-iteration loop bookkeeping *)
}

type gpu = {
  gpu_name : string;
  sm_count : int;
  gpu_freq_ghz : float;
  warp_size : int;
  max_threads_per_sm : int;
  pcie_gb_per_s : float;  (** host<->device bandwidth *)
  kernel_launch_us : float;  (** fixed launch overhead per kernel *)
  transfer_latency_us : float;  (** fixed per-copy latency *)
  module_load_ms : float;
      (** one-time CUDA context + CUBIN module-load overhead per run *)
  gpu_flop_cost : float;  (** cycles per fp op per thread *)
  gpu_special_cost : float;  (** log/exp via SFU/libdevice *)
  gpu_load_cost : float;
  gpu_store_cost : float;
  gpu_select_cost : float;
}

(** The evaluation machines of the paper, plus two extension presets. *)

(** AMD Ryzen 9 3900XT: AVX2 + GLIBC libmvec. *)
val ryzen_3900xt : cpu

(** Intel Xeon Platinum 9242: AVX-512 + SVML. *)
val xeon_9242 : cpu

(** ARM Neoverse N1: 128-bit Neon (extension preset). *)
val neoverse_n1 : cpu

(** NVIDIA RTX 2070 Super. *)
val rtx_2070_super : gpu

(** AMD Radeon RX 6800 (extension preset). *)
val radeon_6800 : gpu

(** Python/numpy dispatch model for the SPFlow baseline. *)
type python_model = { per_node_dispatch_us : float; per_element_ns : float }

val spflow_python : python_model

(** TensorFlow graph-executor model (CPU and GPU dispatch/work). *)
type tf_model = {
  per_op_dispatch_us : float;
  tf_per_element_ns : float;
  tf_gpu_per_op_dispatch_us : float;
  tf_gpu_per_element_ns : float;
}

val tensorflow : tf_model

val cycles_to_seconds : cpu -> float -> float
val gpu_cycles_to_seconds : gpu -> float -> float
