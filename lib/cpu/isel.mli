(** Instruction selection: cir functions → Lir (the paper's "translated
    to LLVM IR" step, §IV-B).  The translation is deliberately naive —
    this is the -O0 code; {!Optimizer} cleans it up at higher levels.
    One walk over the cir ops, linear in their number. *)

open Spnc_mlir

exception Unsupported of string

(** [run m ~entry] selects instructions for every [func.func] of a cir
    module; [entry] names the kernel entry function.
    @raise Unsupported on ops outside the cir subset. *)
val run : Ir.modul -> entry:string -> Lir.modul
