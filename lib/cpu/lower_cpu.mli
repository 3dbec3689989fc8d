(** CPU target lowering (paper §IV-B): bufferized LoSPN → cir.

    Each [lo_spn.task] becomes a function with a loop over the batch; the
    kernel becomes a function that allocates intermediates and calls the
    tasks in order.  With [vectorize], the one batch loop is vectorized
    data-parallel over [width] samples, with no scalar epilogue: callers
    pass a multiple of [width] rows ([Spnc_runtime.Exec] pads); access
    patterns exploit the LoSPN semantics (contiguous vector loads from
    transposed intermediate buffers; gathers or shuffled loads for
    strided input features); without [use_veclib], vector elementary
    functions are scalarized into extract/call/insert cascades — the
    Fig. 6 penalty.

    One walk, two sinks: {!isel}, the compile path, hands each cir op
    to {!Isel} as it emits it, so a compile builds no cir module; {!run}
    builds the module for spnc_opt's [cpu-lower] passes and the tests. *)

open Spnc_mlir

type options = {
  vectorize : bool;
  width : int;
  use_veclib : bool;
  use_shuffle : bool;
  gather_tables : bool;
      (** vectorize discrete-leaf table lookups with hardware indexed
          gathers instead of scalarizing (extension; AVX2/AVX-512) *)
}

val scalar_options : options

(** Vectorization mode of an emission site. *)
type mode = Scalar | Vec of int

(** Where the walk's ops go: each cir op as it is emitted, with the
    location it is to carry, between four structural points — a function
    starts (its name and block arguments), a loop starts (its induction
    variable), the loop ends (its bounds and step), the function ends.
    {!run}'s sink builds the cir functions; {!isel}'s hands each op to
    {!Isel}. *)
type sink

(** The emitter: hands ops to its sink in order (exposed so the GPU
    lowering can reuse the scalar emission helpers). *)
type emitter = {
  b : Builder.t;
  opts : options;
  sink : sink;
  mutable cur_loc : Loc.t;
      (** provenance of the op currently being expanded; [emit] gives it
          to emitted ops that carry no location of their own *)
}

(** [collect b opts f] runs [f] on an emitter that collects what it
    emits, and returns those ops in order (with their locations given);
    its sink has no functions or loops. *)
val collect : Builder.t -> options -> (emitter -> unit) -> Ir.op list

val emit : emitter -> Ir.op -> Ir.value
val emit_ : emitter -> Ir.op -> unit
val bool_ty : mode -> Types.t
val const_f : emitter -> mode -> float -> base:Types.t -> Ir.value
val const_i : emitter -> int -> Ir.value
val bin : emitter -> mode -> string -> Ir.value -> Ir.value -> base:Types.t -> Ir.value
val cmp : emitter -> mode -> string -> Ir.value -> Ir.value -> Ir.value

val select :
  emitter -> mode -> Ir.value -> Ir.value -> Ir.value -> base:Types.t -> Ir.value

(** -inf-safe two-operand log-sum-exp emission. *)
val log_sum_exp :
  emitter -> mode -> Ir.value -> Ir.value -> base:Types.t -> Ir.value

(** Gaussian (log-)PDF emission with optional NaN marginalization. *)
val gaussian :
  emitter ->
  mode ->
  x:Ir.value ->
  mean:float ->
  stddev:float ->
  is_log:bool ->
  marginal:bool ->
  base:Types.t ->
  Ir.value

(** Linear index of (sample, slot) under the row-major or transposed
    (slot-major) layout. *)
val linear_index :
  emitter ->
  transposed:bool ->
  iv:Ir.value ->
  slot:int ->
  cols:int ->
  rows_v:Ir.value ->
  Ir.value

val buffer_cols : Ir.value -> int

(** [run ?options m] lowers every bufferized LoSPN kernel to a cir module
    with one function per task plus the kernel entry function. *)
val run : ?options:options -> Ir.modul -> Ir.modul

(** [isel ?options m] — {!run}'s walk with each cir op handed to
    {!Isel} as soon as it is emitted, so no cir module is built: the
    compile path.  Tasks are lowered before the kernel entry that calls
    them.  {!Isel.finish} closes the selection. *)
val isel : ?options:options -> Ir.modul -> Isel.t
