(** Lowering from HiSPN to LoSPN (paper §IV-A3).

    The HiSPN query becomes a [lo_spn.kernel] holding a single
    [lo_spn.task]; the SPN DAG becomes the task's [lo_spn.body].  Two
    SPN-specific decisions happen here: the {e deferred datatype}
    decision resolving [!hi_spn.probability] to a concrete computation
    type (log space when an f32 linear computation could underflow), and
    the {e binary decomposition} of variadic sums/products, with weighted
    sums split into constant multiplications plus additions. *)

open Spnc_mlir

type datatype_choice = {
  use_log_space : bool;
  base : Types.t;  (** F32 or F64 *)
  worst_log2_magnitude : float;
      (** conservative estimate of the smallest intermediate value *)
}

(** Computation-space override. *)
type space_option = Auto | Force_linear | Force_log

(** ["auto"], ["linear"] or ["log"]. *)
val space_to_string : space_option -> string

type options = {
  space : space_option;
  base_type : Types.t;
  kernel_name : string;
}

val default_options : options

(** [analyze_magnitude graph_ops] — conservative log2 lower bound of the
    values a HiSPN graph can produce (drives the [Auto] decision). *)
val analyze_magnitude : Ir.op list -> float

(** [choose_datatype ~options graph_ops] — the deferred-datatype decision
    (§III-A): [Auto] picks log space when the estimate under-runs f32
    (resp. f64) range with a safety margin. *)
val choose_datatype : options:options -> Ir.op list -> datatype_choice

(** [run ?options m] lowers a HiSPN module to tensor-stage LoSPN.
    @raise Invalid_argument if [m] contains no [hi_spn.joint_query]. *)
val run : ?options:options -> Ir.modul -> Ir.modul
