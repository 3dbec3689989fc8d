(** IR-level delta debugger for failing generated programs: op removal
    (forward / narrow) with DCE and re-verify, plus evidence-row
    reduction (docs/FUZZING.md). *)

open Spnc_mlir

(** Total op count of a module (shrink progress metric). *)
val count_ops : Ir.modul -> int

(** All valid one-step op-level reductions of a HiSPN module (already
    DCE'd; callers filter with the verifier / failure predicate). *)
val op_candidates : Ir.modul -> Ir.modul list

(** One-step row-level reductions of the evidence. *)
val row_candidates : float array array -> float array array list

(** [shrink ?max_steps ?rows_only ~still_fails m data] — greedy
    delta-debug: repeatedly take the first verifying one-step reduction
    on which [still_fails] holds; returns a locally-minimal failing
    (module, data) pair.  [rows_only] keeps the module and reduces only
    the evidence rows (failures found through a model). *)
val shrink :
  ?max_steps:int ->
  ?rows_only:bool ->
  still_fails:(Ir.modul -> float array array -> bool) ->
  Ir.modul ->
  float array array ->
  Ir.modul * float array array
