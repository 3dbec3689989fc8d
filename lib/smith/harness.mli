(** Differential harness over fuzz cases: -O0..-O3 × VM/JIT × threads
    1/2/4, randomized legal pass orderings and the vectorized lowering,
    against the bufferized-LoSPN interpreter as semantic reference, with
    the verifier after every pass; model-derived cases also run end to
    end through {!Spnc.Compiler} (CPU and GPU) against
    {!Spnc_spn.Infer} (docs/FUZZING.md). *)

type failure = {
  case_id : int;
  check : string;
      (** which invariant broke: [verify], [roundtrip], [pipeline],
          [bit-identity], [reference], [ordering-divergence], or on
          model-derived cases [model-reference], [model-bit-identity],
          [model-crash] *)
  pipeline : string;  (** pipeline / configuration under test *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

type config = {
  orderings : int;  (** random legal pipelines checked per program *)
  tol : float;  (** relative tolerance against the reference *)
}

val default_config : config

(** Bit-exact float-array comparison ([Int64.bits_of_float]). *)
val exact_eq : float array -> float array -> bool

(** Tolerant comparison: NaN matches NaN, same-signed infinities match,
    finite values within relative [tol]. *)
val tol_eq : tol:float -> float array -> float array -> bool

(** The fixed baseline pipeline (HiSPN → bufferized LoSPN). *)
val baseline_pipeline : string

(** [check_program ?config ?order p] — the full differential check;
    [None] when every invariant holds.  [order] (a textual pipeline from
    HiSPN to bufferized LoSPN) replaces the random orderings.
    Deterministic given the program. *)
val check_program :
  ?config:config -> ?order:string -> Smith.program -> failure option

(** [check_model ?config p] — only the model-derived checks of
    {!check_program}: [Infer] against the LoSPN interpreter,
    [Compiler.compile]/[execute] at -O0..-O3 within tolerance of [Infer],
    four random engine × threads × batch variants bit-identical
    to the same level's one-thread run, and the GPU simulator (streams
    1 within tolerance, 2 and 4 bit-identical).  [None] for IR-level
    programs. *)
val check_model : ?config:config -> Smith.program -> failure option

(** [explore ~programs ~orders] — score opt-stage orderings over the
    corpus (opt seconds, surviving ops, exact profiled -O3 cycles,
    bit-identity against the first ordering, which must be the
    default). *)
val explore :
  programs:Smith.program list ->
  orders:string list list ->
  Passorder.score list
