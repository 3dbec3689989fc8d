(** Linear-scan register allocation.

    Live intervals are computed over the linearized instruction order
    (values live across a loop extend to the loop end); constants are
    treated as rematerializable and form no intervals.  The allocation is
    recorded as statistics: the VM and the JIT execute virtual-register
    code, but spill traffic feeds the execution cost model ({!Cost}). *)

type stats = {
  intervals : int;
  spills_f : int;
  spills_i : int;
  spills_v : int;
  max_pressure_f : int;
  max_pressure_v : int;
}

(** Physical register budget per class (x86-64-flavoured). *)
val phys_regs : int

(** [allocate f] runs linear scan on all register classes of [f]. *)
val allocate : Lir.func -> stats

val total_spills : stats -> int

(** [allocate_module m] — per-function stats, in function order. *)
val allocate_module : Lir.modul -> stats array
