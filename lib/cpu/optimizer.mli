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

(** Register class of an operand/result (used by regalloc and isel's
    hazard scan): float / int / vector / buffer. *)
type rc = F | I | V | B

(** [defs i] — the registers instruction [i] defines, with classes.  A
    [Loop] defines its induction variable. *)
val defs : Lir.instr -> (rc * Lir.reg) list

(** [uses i] — the registers instruction [i] reads, with classes. *)
val uses : Lir.instr -> (rc * Lir.reg) list

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

(** [run level m] optimizes every function of the module at [level]. *)
val run : level -> Lir.modul -> Lir.modul

(** [run_func level f] — the same pipeline on a single function.  Used by
    the auto-tuner's profile-guided per-task refinement: task functions
    that dominate dynamic cycles get extra [-O3] effort, cold ones keep
    the module's base level (docs/PERFORMANCE.md §6). *)
val run_func : level -> Lir.func -> Lir.func
