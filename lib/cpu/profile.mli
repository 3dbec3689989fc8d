(** Sampling-free per-SPN-node execution profiler.

    Executed Lir instructions are attributed through the per-register
    provenance recorded by {!Isel} to the SPN node they implement, and
    counted in pre-resolved cells keyed (node, opcode): the hot-path
    cost is one [Atomic.incr] per instruction, and the sum of all cell
    counts equals the number of instructions executed exactly.

    Opt-in per run via {!Jit.compile}[ ?profile] and {!Vm.run_profiled};
    the default execution paths are untouched.  See
    docs/OBSERVABILITY.md. *)

type cell = {
  node : int;  (** SPN node id; [-1] when unattributed *)
  opcode : string;  (** Lir mnemonic *)
  count : int Atomic.t;  (** executions *)
  cycles : float;  (** estimated cycles per execution *)
}

type t

val create : ?cpu:Spnc_machine.Machine.cpu -> unit -> t
(** A fresh profile; [cpu] prices the per-opcode cost estimates. *)

val opcode : Lir.instr -> string
(** Mnemonic used as the cell key. *)

val node_of : Lir.func -> Lir.instr -> int
(** SPN node of an instruction via register provenance; [-1] when
    unattributed. *)

val cell_for : t -> Lir.func -> Lir.instr -> cell
(** Get-or-create the cell an instruction bumps.  Thread-safe; resolve
    ahead of the hot path. *)

val bump : cell -> unit
(** One executed instruction: a single [Atomic.incr]. *)

val bump_n : cell -> int -> unit
(** [n] executions of one instruction at once (a column closure of
    {!Jit} runs its instruction for [n] loop iterations): a single
    atomic fetch-and-add. *)

val cells : t -> cell list

val total : t -> int
(** Total instructions executed under this profile — exact, since every
    execution bumps exactly one cell. *)

type node_stat = {
  ns_node : int;
  ns_hits : int;
  ns_cycles : float;
  ns_opcodes : (string * int) list;
}

val by_node : t -> node_stat list
(** Per-node aggregation, hottest (by estimated cycles) first. *)

val node_label : int -> string

val pp_report : ?k:int -> Format.formatter -> t -> unit
(** Top-[k] hottest SPN nodes as a table (default 10). *)

val to_json : t -> Spnc_obs.Json.t
val write_file : t -> string -> unit

val to_trace : t -> unit
(** Emit per-node instant events (category "profile") into the Chrome
    trace ring. *)
