(** Pseudo-PTX emission and CUBIN assembly (paper §IV-C).

    {!emit} prints every [gpu.func] as PTX-like text; {!assemble} parses
    it, sizes each kernel's register file from its live intervals and
    encodes a placeholder image of 16 bytes per instruction (only its
    length is read: it prices the module load). *)

open Spnc_mlir

(** [emit m] — pseudo-PTX for all [gpu.func] kernels of [m]. *)
val emit : Ir.modul -> string

type cubin = {
  bytes : bytes;  (** 16 bytes per SASS instruction *)
  instructions : int;
  regs_allocated : int;  (** maximum live registers over all kernels *)
}

(** [assemble ptx] assembles each kernel separately (like ptxas) and
    concatenates the images. *)
val assemble : string -> cubin
