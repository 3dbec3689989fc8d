(** Lir optimization pipeline — the "LLVM IR optimized further" stage of
    §IV-B, with the compiler optimization levels investigated in the
    paper's Figs. 11/13:

    - [-O0]: the naive isel output;
    - [-O1]: constant folding, local CSE, dead-code elimination;
    - [-O2]: -O1 plus loop-invariant code motion;
    - [-O3]: -O2 plus FMA fusion and a second clean-up round.

    All passes preserve semantics; the test suite runs the VM on every
    level against the reference evaluator. *)

type level = O0 | O1 | O2 | O3

val level_of_int : int -> level
val level_to_string : level -> string

(** Inverse of {!level_to_string}; accepts "-O2" and "O2" forms. *)
val level_of_string : string -> level option

(** Register class of an operand/result: float / int / vector /
    buffer. *)
type rc = F | I | V | B

(** [iter_regs ~use ~def i] calls [use c r] on each register [i] reads,
    in operand order, then [def c r] on the register it defines, if any
    (no instruction defines two; a [Loop] defines its induction variable
    and reads its bounds, not its body).  It allocates nothing, so
    callers that build [use] and [def] once per pass read a whole
    function without allocating. *)
val iter_regs :
  use:(rc -> Lir.reg -> unit) -> def:(rc -> Lir.reg -> unit) -> Lir.instr -> unit

(** [pure i] — no side effects; eligible for CSE/DCE/hoisting.  Loads are
    deliberately not pure (a preceding store may alias). *)
val pure : Lir.instr -> bool

(* Individual passes (exposed for testing). *)

val constfold : Lir.func -> Lir.func
val cse : Lir.func -> Lir.func
val dce : Lir.func -> Lir.func
val licm : Lir.func -> Lir.func
val fma : Lir.func -> Lir.func

(** Fault injection for the differential fuzzing harness: when set, every
    [-O1]+ optimization run applies a deliberately unsound peephole (the
    first floating add of each function becomes a subtract), so the
    harness can prove it detects and shrinks a real miscompile.  Never
    enabled by default. *)
val inject_bad_peephole : bool ref

(** [run level m] optimizes every function of the module at [level],
    one pass at a time over all of them, each pass under its own
    [pass]-category trace span ([lir-constfold], [lir-cse], [lir-dce],
    [lir-licm], [lir-fma]).  Every pass is local to one function, so the
    result equals {!run_func} on each function. *)
val run : level -> Lir.modul -> Lir.modul

(** [run_func level f] — the same pipeline on a single function.  Used by
    the auto-tuner's profile-guided per-task refinement: task functions
    that dominate dynamic cycles get extra [-O3] effort, cold ones keep
    the module's base level (docs/PERFORMANCE.md §6). *)
val run_func : level -> Lir.func -> Lir.func
