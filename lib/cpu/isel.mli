(** Instruction selection: cir ops → Lir (the paper's "translated to LLVM
    IR" step, §IV-B).  The translation is deliberately naive — this is
    the -O0 code; {!Optimizer} cleans it up at higher levels.

    A selection is driven one op at a time, in emission order, between
    four structural points.  {!Lower_cpu.isel} drives it while it
    lowers (the compile path builds no cir module); a built cir module is
    replayed through the same points: for each [func.func], {!func_start}
    with its block arguments, {!op} for each op, and for each [scf.for]
    {!loop_start}, its body, {!loop_end}; then {!func_end}.  Callees must
    end before their calls are selected.  Linear in the number of ops. *)

open Spnc_mlir

exception Unsupported of string

(** A selection in progress. *)
type t

val create : unit -> t

(** [func_start t name args] opens function [name]; [args] are its block
    arguments, the Lir parameters. *)
val func_start : t -> string -> Ir.value list -> unit

(** [op t loc o] selects [o], minting its result's register with
    provenance [loc]; [scf.yield] selects to nothing.
    @raise Unsupported on ops outside the cir subset. *)
val op : t -> Loc.t -> Ir.op -> unit

(** [loop_start t iv] opens an [scf.for] body with induction variable
    [iv]. *)
val loop_start : t -> Ir.value -> unit

(** [loop_end t ~lb ~ub ~step] closes the innermost loop into one
    [Lir.Loop]; [step] must be an integer constant.  The loop's
    [vector_width] is the widest vector result selected in its body. *)
val loop_end : t -> lb:Ir.value -> ub:Ir.value -> step:Ir.value -> unit

val func_end : t -> unit

(** [finish t ~entry] closes every ended function (body and provenance
    arrays, register counts) into a Lir module whose entry is the
    function named [entry]. *)
val finish : t -> entry:string -> Lir.modul
