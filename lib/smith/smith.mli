(** Case generator of the fuzzer — the SPNC analogue of MLIR-Smith
    (docs/FUZZING.md).

    IR-level programs ({!generate}) are emitted directly through
    {!Spnc_mlir.Builder}, so they reach attribute/type corners no model
    produces: degenerate single-operand sums/products, exactly-zero
    mixture weights (log-space [-inf] constants), near-singular and
    far-off-data Gaussians, single-bucket categoricals/histograms,
    zero-density buckets, shared non-SPN subgraph structure, and batch
    sizes from 1 to 4096.  Model-derived programs ({!of_model}) translate
    a {!Spnc_spn.Random_spn} model and keep it for the reference
    evaluator.  Every program verifies, round-trips the printer/parser,
    and carries provenance locations.

    Generation is deterministic: the same (seed, id) always yields the
    same printed IR and input data. *)

open Spnc_mlir

(** Evidence kind of one feature column. *)
type var_kind =
  | Continuous  (** Gaussian leaves *)
  | Categorical of int  (** arity; 1 is a legal degenerate corner *)
  | Histogram of int  (** bucket count; breaks are [0..n] *)

type config = {
  min_features : int;
  max_features : int;
  max_depth : int;  (** nesting depth of the generated DAG *)
  target_ops : int;  (** soft budget on generated graph ops *)
  rows : int;  (** input rows generated per program *)
  extreme : bool;  (** draw extreme attribute/data corners *)
}

val default_config : config

type program = {
  seed : int;
  id : int;
  modul : Ir.modul;  (** a single [hi_spn.joint_query]; verified *)
  num_features : int;
  kinds : var_kind array;
  rows : int;
  data : float array array;  (** [rows] × [num_features] evidence *)
  support_marginal : bool;
  space : Spnc_lospn.Lower_hispn.space_option;
  batch_size : int;
  model : Spnc_spn.Model.t option;
      (** the source model of a model-derived case; [None] for IR-level
          programs *)
}

(** The per-case generator stream: [--case id] replays one program. *)
val case_rng : seed:int -> id:int -> Spnc_data.Rng.t

(** [generate ?config ~seed ~id ()] — the IR-level program for case [id]
    of seed [seed]; deterministic. *)
val generate : ?config:config -> seed:int -> id:int -> unit -> program

(** [of_model ?config ~seed ~id ()] — a model-derived case: a
    [Random_spn] model with 3–8 features (depth [config.max_depth]; one
    case in four in the speaker-ID shape at >= 200 ops), its HiSPN
    translation, and [config.rows] in-support evidence rows, NaN-marked
    when the case draws [support_marginal]; deterministic. *)
val of_model : ?config:config -> seed:int -> id:int -> unit -> program

(** [case ?config ~seed ~id ()] — the fuzzer's case [id]: {!generate} for
    even ids, {!of_model} for odd ones. *)
val case : ?config:config -> seed:int -> id:int -> unit -> program

(** Row-major flattened evidence. *)
val flat_data : program -> float array

(** Hex-float CSV rendering of evidence rows (bit-exact round-trip) for
    reproducer bundles. *)
val data_to_csv : float array array -> string
