(** The closure-compiled execution engine: threaded code over Lir, run
    a column of loop iterations at a time.

    Where {!Vm} dispatches a [match] per executed instruction, this
    engine compiles a [Lir.modul] {e once} into closures — one per
    instruction, specialized on opcode and on constant operands, with
    every register resolved to a frame offset at compile time.  Each
    closure runs its instruction for [n] consecutive iterations of its
    loop over register columns, so an eligible loop (straight-line, no
    value carried across iterations — see jit.ml) dispatches each
    instruction once per {!chunk} iterations; other code runs the same
    closures with [n = 1] (docs/PERFORMANCE.md §1).  In such a loop, a
    log-space Gaussian leaf and a binary log-sum-exp, as [Lower_cpu]
    emits them, compile to one closure each ({!fused}), computing the
    same bits as the VM's instruction-by-instruction run.

    A compiled {!kernel} is immutable and shareable across domains; all
    mutable register state lives in a per-domain {!state}, allocated once
    per worker and reused across batch chunks.  The engine is
    differentially checked against {!Vm} for bit-identical output by the
    test suite and [bin/spnc_fuzz]. *)

(** Which CPU execution engine the runtime should use: the reference
    interpreter {!module:Vm} or this closure compiler. *)
type engine = Vm | Jit

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

val chunk : int
(** Iterations an eligible loop runs per dispatch of each instruction
    (exported so tests can cross a chunk boundary). *)

type kernel
(** A [Lir.modul] compiled into closures.  Immutable; safe to share
    across domains. *)

type state
(** Per-domain register frames (one per function), reused across runs.
    Never share a [state] between concurrently executing domains. *)

(** [compile ?profile m] compiles the module once.  With [profile],
    every compiled instruction closure first bumps its pre-resolved
    per-SPN-node {!Profile} cell by its iteration count, so the counts
    equal {!Vm.run_profiled}'s; without it the generated code has no
    profiling in it.  Raises {!Vm.Trap} only at run time, never during
    compilation. *)
val compile : ?profile:Profile.t -> Lir.modul -> kernel

(** [fused k] — how many log-space Gaussian leaves and binary
    log-sum-exps [compile] folded into one closure each (also added to
    the [cpu.jit.fused_gaussian] and [cpu.jit.fused_lse] counters). *)
val fused : kernel -> int * int

val make_state : kernel -> state

(** [run k st ~buffers] executes the compiled entry function, binding
    [buffers] to its parameters in order.  Outputs are visible through
    the shared buffers, exactly as with {!Vm.run}.
    @raise Vm.Trap on runtime errors (bounds, arity, malformed FMA). *)
val run : kernel -> state -> buffers:Vm.buffer list -> unit

(** [run_once m ~buffers] — compile + run in one shot (tests, one-off
    executions).  Production callers should {!compile} once and reuse. *)
val run_once : Lir.modul -> buffers:Vm.buffer list -> unit
