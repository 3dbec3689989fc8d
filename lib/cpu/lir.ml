(** Lir — the LLVM-like low-level IR of the CPU backend.

    Linear instruction sequences over typed virtual registers, with
    structured loops retained (a simplification over LLVM's flat CFG,
    recorded in DESIGN.md §4; SPN kernels have no other control flow).

    Register classes: [F] scalar floats, [I] integers/indices/predicates
    (predicates hold 0/1), [V] SIMD vectors (predicate masks are 0/1 float
    lanes), [B] buffers.  Each class has its own register space; register
    allocation runs per class. *)

type reg = int

type fbin = FAdd | FSub | FMul | FDiv | FMax | FMin | FMA
(** [FMA dst a b] in our encoding is fused multiply-add created by the -O3
    peephole; see {!Optimizer}. *)

type ibin = IAdd | IMul | IAnd | IOr

type pred = Olt | Ole | Ogt | Oge | Oeq | One | Uno

type mathfn = MLog | MExp | MLog1p

type instr =
  | ConstF of reg * float
  | ConstI of reg * int
  | FBin of fbin * reg * reg * reg  (** dst, a, b *)
  | FBin3 of fbin * reg * reg * reg * reg  (** FMA: dst, a, b, c = a*b+c *)
  | IBin of ibin * reg * reg * reg
  | FCmp of pred * reg * reg * reg  (** int dst (0/1), a, b *)
  | SelF of reg * reg * reg * reg  (** float dst, int cond, t, f *)
  | SelI of reg * reg * reg * reg  (** int dst, int cond, t, f *)
  | FtoI of reg * reg
  | ItoF of reg * reg
  | Call1 of mathfn * reg * reg  (** scalar libm call: dst, src *)
  | Load of reg * reg * reg  (** float dst, buf, int idx *)
  | Store of reg * reg * reg  (** buf, int idx, float src *)
  (* vector instructions; vector registers are the V class *)
  | VConst of reg * float
  | VBin of fbin * reg * reg * reg
  | VBin3 of fbin * reg * reg * reg * reg
  | VCmp of pred * reg * reg * reg  (** vec mask dst *)
  | VSel of reg * reg * reg * reg  (** vec dst, vec mask, t, f *)
  | VCall1 of mathfn * reg * reg  (** veclib vectorized call *)
  | VLoad of reg * reg * reg  (** vec dst, buf, int base *)
  | VStore of reg * reg * reg
  | VGather of reg * reg * reg * int  (** vec dst, buf, base, stride *)
  | VShufLoad of reg * reg * reg * int * float * float
      (** vec dst, buf, base, stride, amortized loads, amortized shuffles *)
  | VFloor of reg * reg
      (** vec dst = lane-wise floor of vec src (vector fptosi producing
          float-encoded indices) *)
  | VGatherIdx of reg * reg * reg
      (** vec dst, table buf, index vector (floored floats): per-lane
          indexed gather for vectorized discrete-leaf lookups *)
  | VExtract of reg * reg * int  (** float dst, vec, lane *)
  | VInsert of reg * reg * reg * int  (** vec dst, float src, vec in, lane *)
  | VBroadcast of reg * reg  (** vec dst, float src *)
  (* memory/runtime *)
  | Dim of reg * reg  (** int dst = rows of buffer *)
  | AllocBuf of reg * reg * int  (** buf dst, int rows, static cols *)
  | DeallocBuf of reg
  | CopyBuf of reg * reg  (** src, dst *)
  | TableConst of reg * float array  (** buf dst = constant table *)
  | CallFn of int * reg list  (** function index, buffer arguments *)
  | Loop of loop
  | Ret

and loop = {
  iv : reg;  (** int induction variable *)
  lb : reg;
  ub : reg;
  step : int;
  body : instr array;
  vector_width : int;  (** 1 for scalar loops; >1 for the vectorized loop *)
}

(** Per-register provenance: the SPN-node location of the op that minted
    each virtual register, one array per register class (indexed by
    register number).  Registers are SSA-like — minted once by {!Isel} and
    preserved by the optimizer (which only rewrites instruction bodies via
    [{f with body}]) — so a (class, reg) pair identifies its defining
    instruction's provenance for the whole pipeline, including inside the
    JIT/VM where the MLIR op is long gone. *)
type prov = {
  pf : Spnc_mlir.Loc.t array;
  pi : Spnc_mlir.Loc.t array;
  pv : Spnc_mlir.Loc.t array;
  pb : Spnc_mlir.Loc.t array;
}

(** Empty provenance, for hand-built funcs (tests, fixtures). *)
let no_prov = { pf = [||]; pi = [||]; pv = [||]; pb = [||] }

(** [prov_reg a r] — location of register [r], Unknown when out of bounds
    (hand-built funcs carry empty arrays). *)
let prov_reg (a : Spnc_mlir.Loc.t array) (r : reg) : Spnc_mlir.Loc.t =
  if r >= 0 && r < Array.length a then a.(r) else Spnc_mlir.Loc.Unknown

type func = {
  fname : string;
  params : reg list;  (** buffer registers, in order *)
  body : instr array;
  nf : int;  (** register counts per class *)
  ni : int;
  nv : int;
  nb : int;
  vec_width : int;  (** SIMD width used by vector instrs of this function *)
  prov : prov;  (** per-register SPN-node provenance *)
}

type modul = { funcs : func array; entry : int }

let find_func (m : modul) name =
  let found = ref None in
  Array.iteri (fun i f -> if f.fname = name then found := Some i) m.funcs;
  !found

(* -- Statistics (used by tests and reports) -------------------------------- *)

let rec count_instrs ?(filter = fun _ -> true) (body : instr array) =
  Array.fold_left
    (fun acc i ->
      let self = if filter i then 1 else 0 in
      match i with
      | Loop l -> acc + self + count_instrs ~filter l.body
      | _ -> acc + self)
    0 body

let func_size f = count_instrs f.body

let module_size (m : modul) =
  Array.fold_left (fun acc f -> acc + func_size f) 0 m.funcs

let pp_fbin ppf (op : fbin) =
  Fmt.string ppf
    (match op with
    | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
    | FMax -> "fmax" | FMin -> "fmin" | FMA -> "fma")

let pp_mathfn ppf (f : mathfn) =
  Fmt.string ppf (match f with MLog -> "log" | MExp -> "exp" | MLog1p -> "log1p")
