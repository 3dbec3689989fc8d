(** Jit — the closure-compiled execution engine over Lir, run a column
    of loop iterations at a time.

    The paper's central claim is that compiling SPNs to native kernels
    beats per-node dispatch (§V); {!Vm} is still a per-instruction
    [match] interpreter.  This module compiles a [Lir.modul] {e once}
    into closures — one per instruction, specialized on opcode and on
    which operands are compile-time constants, with every register
    resolved to a fixed frame offset — and runs them over register
    {e columns}: a closure [c fr n] executes its instruction for [n]
    consecutive loop iterations, whose values of each register lie side
    by side in the frame ([n × w] floats for a [w]-lane vector register).
    An eligible loop dispatches each instruction once per chunk of
    {!chunk} iterations (the paper's batch loop: ONNX-MLIR-style loop
    nests apply each operation to many rows at once), not once per
    iteration; each closure's own loop over the chunk's flat lanes is
    unrolled.

    {b Eligibility}, read from the Lir alone.  A loop runs in columns
    when its step is positive and its body
    - is straight-line: no nested [Loop], no [CallFn], no buffer
      alloc/dealloc/copy/table;
    - reads no register before the body defines it (no value is carried
      from one iteration to the next);
    - defines no register, and has no induction variable, that is read
      anywhere outside the body;
    - does not both load from and store to one buffer register.
    Every value then flows within its own iteration, so running the
    body instruction by instruction over a chunk computes what the
    iteration-by-iteration order computes.  Memory is the one place the
    order shows: each store instruction still writes its iterations in
    order, but all of them before the next instruction runs.  The
    compiler's loops store each (row, slot) address once, so no two
    stores of one chunk meet; a loop whose distinct buffer registers
    share one backing array at run time falls back to one iteration at
    a time.  Code outside loops, and ineligible loops, call the same
    closures with [n = 1]: the VM's order exactly.

    {b Fused idioms.}  In an eligible loop, the two SPN idioms
    [Lower_cpu] spells out as chains of vector instructions — a
    log-space Gaussian leaf (with its marginal select) and a binary
    log-sum-exp — compile to one closure each, at the idiom's last
    instruction, when every intermediate is read only inside the idiom.
    The intermediates get no closure and no slot; the closure runs the
    same IEEE operations in the same order, so the VM, which runs each
    instruction on its own, stays the reference bit for bit.

    {b Frames.}  F and V registers live in one float array, I registers
    in an int array, buffers in their own.  A register whose defs and
    uses all lie inside one eligible loop body shares a column slot with
    others, assigned by linear scan over the straight-line body; every
    other register keeps its own slot, a full column when an eligible
    loop defines it.  A promoted constant (a [ConstF]/[ConstI]/[VConst]
    whose value every read sees — see [promoted]) has no slot: its value
    is an immediate in the closures that read it, or, in operand
    positions with no immediate form, a constant column filled once per
    state (a one-float slot for a select, which picks by index).  An
    outer non-constant operand of an eligible loop (a bound, a value
    LICM hoisted) is broadcast into a column once at loop entry.

    Compiled kernels are immutable and shareable across domains; all
    mutable execution state lives in a per-domain {!state} (one frame
    per function), so the multi-threaded runtime allocates frames once
    per worker instead of once per chunk.

    Semantics are differentially checked against {!Vm} (bit-identical
    output) by the test suite and [bin/spnc_fuzz].  A trap (bounds
    checks, the binary-[FMA] trap) may name a different iteration of the
    failing chunk than the VM's; the runtime discards a failed chunk. *)

open Lir

(** Which CPU execution engine the runtime should use for a compiled
    kernel: the reference interpreter {!Vm} or this closure compiler. *)
type engine = Vm | Jit

let engine_to_string = function Vm -> "vm" | Jit -> "jit"

let engine_of_string = function
  | "vm" -> Some Vm
  | "jit" -> Some Jit
  | _ -> None

let trap fmt = Fmt.kstr (fun s -> raise (Vm.Trap s)) fmt

(** Iterations per chunk of a column loop: 256 rows of an 8-wide
    vectorized loop.  16, 32 and 64 measure the same on speaker-ID
    kernels; smaller chunks pay more dispatches, larger ones spill the
    column slots out of L2. *)
let chunk = 32

(** Per-domain execution frame.  [frames] points back at the owning
    state's pool so [CallFn] can fetch the callee's frame without
    threading the state through every closure. *)
type frame = {
  fl : float array;  (** F and V registers: slots, columns, constants *)
  it : int array;  (** I registers *)
  b : Vm.buffer array;
  frames : frame array;
}

(* [code fr n] runs one instruction for [n] consecutive iterations *)
type code = frame -> int -> unit

type cfunc = {
  src : func;
  cparams : int array;  (** parameter buffer registers, by position *)
  code : code;  (** the whole body, run with [n = 1] *)
  init : frame -> unit;  (** fills the constant columns, once per state *)
  fl_size : int;
  it_size : int;
  b_size : int;
}

type kernel = {
  cfuncs : cfunc array;
  centry : int;
  gaussians : int;  (** fused idioms, over all functions *)
  lses : int;
}

type state = frame array

(* -- Analysis ----------------------------------------------------------------- *)

(* One scan over a function's flattened body records each position's def
   and uses in flat [int] arrays, and fills per-class register arrays
   (F, I, V, B = 0..3): where each register is defined and read, how
   often it is read, its last position, whether it is a promotable
   constant.  Eligibility, idiom matching and slot assignment then read
   those arrays, so compile time stays linear in the instruction count
   and [Optimizer.iter_regs] runs once per instruction. *)

let cls = function
  | Optimizer.F -> 0
  | Optimizer.I -> 1
  | Optimizer.V -> 2
  | Optimizer.B -> 3

(* a (class, register) pair as one [int] of the flat arrays *)
let[@inline] enc c r = (r lsl 2) lor c
let[@inline] ecls e = e land 3
let[@inline] ereg e = e asr 2

(* where all of a register's defs (or uses) lie: one innermost loop id,
   [top] outside loops, [nowhere] before the first, [mixed] once two
   places differ *)
let top = -1
let mixed = -2
let nowhere = -3
let merge cur l = if cur = nowhere || cur = l then l else mixed

(* [base] of a register with no slot: not placed (yet), or an
   intermediate of a fused idiom, which no closure writes *)
let unplaced = -1
let fused_away = -2

type regs = {
  ndefs : int array;
  nuses : int array;  (** operand positions that read it *)
  dpos : int array;  (** flat position of its last def *)
  def_in : int array;
  use_in : int array;
  last : int array;  (** last flat position that defines or reads it *)
  early : bool array;
      (** read before its first def, or outside that def's loop nest *)
  konst : bool array;  (** defined by a [ConstF]/[ConstI]/[VConst] *)
  fval : float array;
  ival : int array;
  base : int array;  (** frame offset of its slot, or [unplaced]/[fused_away] *)
}

type lp = {
  l : loop;
  pos : int;  (** flat position of the [Loop]; its body follows it *)
  parent : int;
  mutable straight : bool;
  mutable eligible : bool;
  mutable bcast : (int * int * int) list;
      (** outer operands: class, register, broadcast column *)
  mutable stored : int list;  (** buffer registers stored to *)
  mutable touched : int list;  (** buffer registers loaded or stored *)
}

(* What the closure compiler does at a position of an eligible vector
   loop (see "Fused idioms" below). *)
type role =
  | Plain  (** its own closure *)
  | Member  (** an intermediate of a later root's idiom: no closure *)
  | Gauss of { x : int; mean : float; inv : float; mhalf : float; k : float }
      (** root of a log-space Gaussian leaf over V register [x] *)
  | Lse of { a : int; b : int }
      (** root of a binary log-sum-exp of V registers [a] and [b] *)

type an = {
  w : int;
  rs : regs array;
  loops : lp array;
  flat : instr array;  (** the body in pre-order, by position *)
  dreg : int array;  (** the register each position defines, or -1 *)
  ustart : int array;  (** position [p] reads [ureg.(ustart.(p) ..)] *)
  ureg : int array;
  roles : role array;
  negative : bool;  (** some register index is negative *)
  mutable pool_fl : int;  (** float words of the shared column slots *)
  mutable pool_it : int;
  mutable fl_words : int;  (** frame sizes, growing as slots are laid out *)
  mutable it_words : int;
  b_size : int;
  mutable gaussians : int;  (** fused idioms *)
  mutable lses : int;
}

(* A [ConstF]/[ConstI]/[VConst] whose destination has exactly one
   definition holds the same value from its first execution on, so it
   is promoted out of the body into an immediate.  Promotion must not
   let a read see the value earlier than the interpreter would (fresh
   registers read as zero until first written): a candidate is rejected
   when a read comes before its definition in program order, or outside
   the loop nest holding it — a zero-trip loop would leave the register
   unwritten for such a read. *)
let promoted (x : regs) r = x.konst.(r) && x.ndefs.(r) = 1 && not x.early.(r)

let lanes an c = if c = 2 then an.w else 1

let analyse (fn : func) : an =
  (* flatten in pre-order; a loop body follows its [Loop] contiguously *)
  let n = count_instrs fn.body in
  let flat = Array.make n Ret and parent = Array.make n top in
  let loop_id = Array.make n top in
  let loops = ref [] and nloops = ref 0 and next = ref 0 in
  let rec go par body =
    Array.iter
      (fun ins ->
        let pos = !next in
        incr next;
        flat.(pos) <- ins;
        parent.(pos) <- par;
        match ins with
        | Loop l ->
            let id = !nloops in
            incr nloops;
            loop_id.(pos) <- id;
            loops :=
              { l; pos; parent = par; straight = l.step >= 1; eligible = false;
                bcast = []; stored = []; touched = [] }
              :: !loops;
            go id l.body
        | _ -> ())
      body
  in
  go top fn.body;
  let loops = Array.of_list (List.rev !loops) in
  let bound = [| fn.nf; fn.ni; fn.nv; fn.nb |] in
  let negative = ref false in
  let see c r =
    let c = cls c in
    if r < 0 then negative := true else if r >= bound.(c) then bound.(c) <- r + 1;
    enc c r
  in
  List.iter (fun r -> ignore (see Optimizer.B r)) fn.params;
  (* a Lir instruction defines at most one register *)
  let dreg = Array.make n (-1) and ustart = Array.make (n + 1) 0 in
  let ureg = ref (Array.make ((3 * n) + 4) 0) and nu = ref 0 and at = ref 0 in
  let def c r = dreg.(!at) <- see c r
  and use c r =
    if !nu = Array.length !ureg then
      ureg := Array.append !ureg (Array.make (!nu + 4) 0);
    !ureg.(!nu) <- see c r;
    incr nu
  in
  Array.iteri
    (fun p ins ->
      at := p;
      Optimizer.iter_regs ~use ~def ins;
      ustart.(p + 1) <- !nu)
    flat;
  let ureg = !ureg in
  let mk c =
    let n = bound.(c) in
    {
      ndefs = Array.make n 0;
      nuses = Array.make n 0;
      dpos = Array.make n (-1);
      def_in = Array.make n nowhere;
      use_in = Array.make n nowhere;
      last = Array.make n (-1);
      early = Array.make n false;
      konst = Array.make n false;
      fval = Array.make (if c = 0 || c = 2 then n else 0) 0.0;
      ival = Array.make (if c = 1 then n else 0) 0;
      base = Array.make n unplaced;
    }
  in
  let rs = Array.init 4 mk in
  let rec within l d = l = d || (l >= 0 && within loops.(l).parent d) in
  if not !negative then
    for p = 0 to n - 1 do
      let l = parent.(p) in
      for u = ustart.(p) to ustart.(p + 1) - 1 do
        let e = ureg.(u) in
        let x = rs.(ecls e) and r = ereg e in
        x.use_in.(r) <- merge x.use_in.(r) l;
        x.nuses.(r) <- x.nuses.(r) + 1;
        x.last.(r) <- p;
        if x.ndefs.(r) = 0 || not (within l x.def_in.(r)) then x.early.(r) <- true
      done;
      let e = dreg.(p) in
      if e >= 0 then begin
        (* a loop's induction variable lives inside the loop *)
        let dl = if loop_id.(p) >= 0 then loop_id.(p) else l in
        let x = rs.(ecls e) and r = ereg e in
        x.ndefs.(r) <- x.ndefs.(r) + 1;
        x.dpos.(r) <- p;
        x.def_in.(r) <- merge x.def_in.(r) dl;
        x.last.(r) <- p
      end;
      match flat.(p) with
      | ConstF (d, v) -> rs.(0).konst.(d) <- true; rs.(0).fval.(d) <- v
      | ConstI (d, v) -> rs.(1).konst.(d) <- true; rs.(1).ival.(d) <- v
      | VConst (d, v) -> rs.(2).konst.(d) <- true; rs.(2).fval.(d) <- v
      | Loop _ | CallFn _ | AllocBuf _ | DeallocBuf _ | CopyBuf _ | TableConst _ ->
          if l >= 0 then loops.(l).straight <- false
      | _ -> ()
    done;
  {
    w = max 1 fn.vec_width;
    rs;
    loops;
    flat;
    dreg;
    ustart;
    ureg;
    roles = Array.make n Plain;
    negative = !negative;
    pool_fl = 0;
    pool_it = 0;
    fl_words = 0;
    it_words = 0;
    b_size = max 1 bound.(3);
    gaussians = 0;
    lses = 0;
  }

(* -- Fused idioms ------------------------------------------------------------- *)

(* [Lower_cpu] spells two SPN idioms out as chains of vector
   instructions, which the closure compiler folds into one closure each
   (docs/PERFORMANCE.md §1, "Fused idioms"):
   - a log-space Gaussian leaf: [z0 = x - mean], [z = z0 * inv],
     [z2 = z * z], [h = z2 * mhalf], [g = h + k] (at -O3 the last two
     are one [FMA g z2 mhalf k]), and with marginal support a select
     [sel c t g];
   - a binary log-sum-exp: [m = max a b], [mn = min a b], [d = mn - m],
     [e = exp d], [l = log1p e], [s = m + l], [c = (m = -inf)] and
     [sel c m s].
   The root is the select, or [g] for a Gaussian without one.  Every
   intermediate must have one definition in the loop body before the
   root and no read outside the idiom (its read count is exactly the
   idiom's), and an input read by a member must not be redefined before
   the root; the constants must be promoted.  The fused closure computes
   the same IEEE operations in the same order, so the output is the
   VM's bit for bit. *)

exception No_match

let plain = function Plain -> true | _ -> false

(* Match the idioms rooted in the body of eligible vector loop [id],
   last root first, so that a Gaussian's [g] is claimed by its select
   before it can root a Gaussian of its own. *)
let match_idioms an (defd : int array) id =
  let lp = an.loops.(id) in
  let lo = lp.pos + 1 and hi = lp.pos + Array.length lp.l.body in
  let x = an.rs.(2) in
  let members = ref [] in
  (* the instruction defining intermediate [r] of the idiom rooted at [q],
     which reads it [reads] times *)
  let def q r reads =
    let p = x.dpos.(r) in
    if x.ndefs.(r) <> 1 || x.nuses.(r) <> reads || p < lo || p >= q
       || not (plain an.roles.(p))
    then raise_notrace No_match;
    members := p :: !members;
    an.flat.(p)
  in
  let imm r = if promoted x r then x.fval.(r) else raise_notrace No_match in
  (* an input keeps its value from the members' reads to the root *)
  let input r =
    if x.ndefs.(r) > 1 && defd.(r) = id then raise_notrace No_match;
    r
  in
  let gauss q g =
    let z2, mhalf, k =
      match g with
      | VBin (FAdd, _, h, k) -> (
          match def q h 1 with
          | VBin (FMul, _, z2, mh) -> (z2, imm mh, imm k)
          | _ -> raise_notrace No_match)
      | VBin3 (_, _, z2, mh, k) -> (z2, imm mh, imm k)
      | _ -> raise_notrace No_match
    in
    match def q z2 1 with
    | VBin (FMul, _, z, z') when z = z' -> (
        match def q z 2 with
        | VBin (FMul, _, z0, inv) -> (
            let inv = imm inv in
            match def q z0 1 with
            | VBin (FSub, _, xr, mean) ->
                Gauss { x = input xr; mean = imm mean; inv; mhalf; k }
            | _ -> raise_notrace No_match)
        | _ -> raise_notrace No_match)
    | _ -> raise_notrace No_match
  in
  let lse q c t e =
    match def q c 1 with
    | VCmp (Oeq, _, m, ninf) when m = t && imm ninf = Float.neg_infinity -> (
        match def q e 1 with
        | VBin (FAdd, _, m', l) when m' = m -> (
            match def q l 1 with
            | VCall1 (MLog1p, _, ex) -> (
                match def q ex 1 with
                | VCall1 (MExp, _, d) -> (
                    match def q d 1 with
                    | VBin (FSub, _, mn, m') when m' = m -> (
                        match (def q mn 1, def q m 4) with
                        | VBin (FMin, _, a, b), VBin (FMax, _, a', b')
                          when a = a' && b = b' ->
                            Lse { a = input a; b = input b }
                        | _ -> raise_notrace No_match)
                    | _ -> raise_notrace No_match)
                | _ -> raise_notrace No_match)
            | _ -> raise_notrace No_match)
        | _ -> raise_notrace No_match)
    | _ -> raise_notrace No_match
  in
  let attempt q f =
    members := [];
    match f () with
    | role ->
        an.roles.(q) <- role;
        List.iter
          (fun p ->
            an.roles.(p) <- Member;
            x.base.(ereg an.dreg.(p)) <- fused_away)
          !members;
        (* the inputs are read at the root now *)
        let keep r = if x.last.(r) < q then x.last.(r) <- q in
        (match role with
        | Gauss g -> keep g.x; an.gaussians <- an.gaussians + 1
        | Lse l -> keep l.a; keep l.b; an.lses <- an.lses + 1
        | Plain | Member -> ());
        true
    | exception No_match -> false
  in
  for q = hi downto lo do
    if plain an.roles.(q) then
      match an.flat.(q) with
      | VSel (r, c, t, e) ->
          (* the fused select writes the leaf before it reads [c] and [t] *)
          if (not (attempt q (fun () -> lse q c t e))) && r <> c && r <> t then
            ignore (attempt q (fun () -> gauss q (def q e 1)))
      | (VBin (FAdd, _, _, _) | VBin3 _) as g ->
          ignore (attempt q (fun () -> gauss q g))
      | _ -> ()
  done

(* Scratch marks of the per-loop scans, stamped with the loop id so they
   never need clearing. *)
type scratch = {
  defd : int array array;  (** defined in the body *)
  first : int array array;  (** position of that first def *)
  outer : int array array;  (** recorded as an outer operand *)
  live : int array array;  (** holds a pool slot *)
  loaded : int array;  (** buffer registers *)
  stored : int array;
}

let scratch an =
  let per_class v = Array.map (fun x -> Array.make (Array.length x.base) v) an.rs in
  {
    defd = per_class nowhere;
    first = per_class 0;
    outer = per_class nowhere;
    live = per_class nowhere;
    loaded = Array.make an.b_size nowhere;
    stored = Array.make an.b_size nowhere;
  }

(* Decide whether loop [id] runs in columns, and if so fuse its idioms
   and give its local registers, its induction variable and its
   broadcast columns slots in the function's shared column pool
   (offsets from 0; the loops of one function never run at the same
   time, so they share the pool). *)
let plan_loop an sc id =
  let lp = an.loops.(id) in
  let lo = lp.pos + 1 and hi = lp.pos + Array.length lp.l.body in
  let iv = lp.l.iv in
  let ok = ref lp.straight in
  (* nothing the body defines may be read outside it *)
  let inside c r =
    let u = an.rs.(c).use_in.(r) in
    promoted an.rs.(c) r || u = id || u = nowhere
  in
  if !ok then begin
    for p = lo to hi do
      let e = an.dreg.(p) in
      if e >= 0 then begin
        let c = ecls e and r = ereg e in
        if sc.defd.(c).(r) <> id then begin
          sc.defd.(c).(r) <- id;
          sc.first.(c).(r) <- p
        end;
        if not (inside c r) then ok := false
      end
    done;
    sc.defd.(1).(iv) <- id;
    sc.first.(1).(iv) <- lp.pos;
    if not (inside 1 iv) then ok := false;
    let outer = ref [] in
    let touch b =
      if sc.loaded.(b) <> id && sc.stored.(b) <> id then
        lp.touched <- b :: lp.touched
    in
    for p = lo to hi do
      (match an.flat.(p) with
      | Store (b, _, _) | VStore (b, _, _) ->
          touch b;
          if sc.loaded.(b) = id then ok := false;
          if sc.stored.(b) <> id then begin
            sc.stored.(b) <- id;
            lp.stored <- b :: lp.stored
          end
      | Load (_, b, _) | VLoad (_, b, _) | VGather (_, b, _, _)
      | VShufLoad (_, b, _, _, _, _) | VGatherIdx (_, b, _) ->
          touch b;
          if sc.stored.(b) = id then ok := false;
          sc.loaded.(b) <- id
      | _ -> ());
      (* a value read before the body defines it is carried over from
         the previous iteration *)
      for u = an.ustart.(p) to an.ustart.(p + 1) - 1 do
        let e = an.ureg.(u) in
        let c = ecls e and r = ereg e in
        if c = 3 || promoted an.rs.(c) r then ()
        else if sc.defd.(c).(r) = id then begin
          if sc.first.(c).(r) >= p then ok := false
        end
        else if sc.outer.(c).(r) <> id then begin
          sc.outer.(c).(r) <- id;
          outer := (c, r) :: !outer
        end
      done
    done;
    if !ok then begin
      lp.eligible <- true;
      match_idioms an sc.defd.(2) id;
      (* linear scan per class over the straight-line body; a slot is
         freed after the instruction of its register's last use has
         taken its own slots, so no instruction writes an operand.  A
         fused member takes no slot, and its root reads the idiom's
         inputs, so they expire there *)
      let nslots = [| 0; 0; 0 |] and free = [| []; []; [] |] in
      let take c =
        match free.(c) with
        | s :: tl -> free.(c) <- tl; s
        | [] -> let s = nslots.(c) in nslots.(c) <- s + 1; s
      in
      let local c r =
        let x = an.rs.(c) in
        c < 3 && (not (promoted x r)) && x.def_in.(r) = id
        && (x.use_in.(r) = id || x.use_in.(r) = nowhere)
      in
      let bc = List.map (fun (c, r) -> (c, r, take c)) !outer in
      let assigned = ref [] in
      let start c r =
        an.rs.(c).base.(r) <- take c;
        sc.live.(c).(r) <- id;
        assigned := (c, r) :: !assigned
      in
      let expire p c r =
        if c < 3 && sc.live.(c).(r) = id && an.rs.(c).last.(r) = p then begin
          sc.live.(c).(r) <- nowhere;
          free.(c) <- an.rs.(c).base.(r) :: free.(c)
        end
      in
      if local 1 iv then begin
        start 1 iv;
        expire lp.pos 1 iv
      end;
      for p = lo to hi do
        match an.roles.(p) with
        | Member -> ()
        | role ->
            let e = an.dreg.(p) in
            if e >= 0 then begin
              let c = ecls e and r = ereg e in
              if local c r && an.rs.(c).base.(r) = unplaced then start c r
            end;
            for u = an.ustart.(p) to an.ustart.(p + 1) - 1 do
              let e = an.ureg.(u) in
              expire p (ecls e) (ereg e)
            done;
            (match role with
            | Gauss g -> expire p 2 g.x
            | Lse l -> expire p 2 l.a; expire p 2 l.b
            | Plain | Member -> ());
            if e >= 0 then expire p (ecls e) (ereg e)
      done;
      (* slot numbers -> offsets: F columns, then V columns, in [fl] *)
      let off c s =
        if c = 2 then (nslots.(0) * chunk) + (s * chunk * an.w) else s * chunk
      in
      List.iter
        (fun (c, r) -> an.rs.(c).base.(r) <- off c an.rs.(c).base.(r))
        !assigned;
      lp.bcast <- List.map (fun (c, r, s) -> (c, r, off c s)) bc;
      an.pool_fl <-
        max an.pool_fl ((nslots.(0) * chunk) + (nslots.(2) * chunk * an.w));
      an.pool_it <- max an.pool_it (nslots.(1) * chunk)
    end
  end

(* Eligibility and slots for every register of the function. *)
let plan (an : an) : unit =
  if not an.negative then begin
    let sc = scratch an in
    Array.iteri (fun id _ -> plan_loop an sc id) an.loops;
    (* every other register: its own slot after the shared pool, a
       whole column when an eligible loop defines it *)
    an.fl_words <- an.pool_fl;
    an.it_words <- an.pool_it;
    for c = 0 to 2 do
      let x = an.rs.(c) in
      for r = 0 to Array.length x.base - 1 do
        let used = x.ndefs.(r) > 0 || x.use_in.(r) <> nowhere in
        if x.base.(r) = unplaced && used && not (promoted x r) then begin
          let d = x.def_in.(r) in
          let column = d = mixed || (d >= 0 && an.loops.(d).eligible) in
          let size = lanes an c * if column then chunk else 1 in
          if c = 1 then begin
            x.base.(r) <- an.it_words;
            an.it_words <- an.it_words + size
          end
          else begin
            x.base.(r) <- an.fl_words;
            an.fl_words <- an.fl_words + size
          end
        end
      done
    done
  end

(* -- Column closures ---------------------------------------------------------- *)

(* Unchecked accesses: every offset was laid out by [plan] inside the
   frame, and a column holds [chunk × lanes] values, so [i < n × lanes]
   stays in bounds. *)
let[@inline] fget (x : float array) i = Array.unsafe_get x i
let[@inline] fset (x : float array) i (v : float) = Array.unsafe_set x i v
let[@inline] iget (x : int array) i = Array.unsafe_get x i
let[@inline] iset (x : int array) i (v : int) = Array.unsafe_set x i v
let[@inline] bget fr r = Array.unsafe_get fr.b r

let[@inline] b2i (b : bool) = Bool.to_int b

(* A predicate as 0/1, computed without branching on the data (a NaN
   test that branches mispredicts on marginalized rows). *)
let[@inline] holds p (x : float) y =
  match p with
  | Olt -> b2i (x < y)
  | Ole -> b2i (x <= y)
  | Ogt -> b2i (x > y)
  | Oge -> b2i (x >= y)
  | Oeq -> b2i (x = y)
  | One -> b2i (x < y) lor b2i (x > y)
  | Uno -> b2i (x <> x) lor b2i (y <> y)

let onezero = [| 0.0; 1.0 |]

let[@inline] ibin_eval op (x : int) y =
  match op with
  | IAdd -> x + y
  | IMul -> x * y
  | IAnd -> if x <> 0 && y <> 0 then 1 else 0
  | IOr -> if x <> 0 || y <> 0 then 1 else 0

(* One lane of the hot element-wise ops; [c] = column operand, [i] =
   immediate.  The loops below run them unrolled by 8. *)
let[@inline] add_cc x d a b i = fset x (d + i) (fget x (a + i) +. fget x (b + i))
let[@inline] add_ci x d a (b : float) i = fset x (d + i) (fget x (a + i) +. b)
let[@inline] add_ic x d (a : float) b i = fset x (d + i) (a +. fget x (b + i))
let[@inline] sub_cc x d a b i = fset x (d + i) (fget x (a + i) -. fget x (b + i))
let[@inline] sub_ci x d a (b : float) i = fset x (d + i) (fget x (a + i) -. b)
let[@inline] mul_cc x d a b i = fset x (d + i) (fget x (a + i) *. fget x (b + i))
let[@inline] mul_ci x d a (b : float) i = fset x (d + i) (fget x (a + i) *. b)
let[@inline] fma_cii x d a (b : float) (c : float) i =
  fset x (d + i) ((fget x (a + i) *. b) +. c)

(* [Float.max]/[Float.min] exactly: when the operands are ordered and
   unequal, the result is read back through an index picked without a
   branch (which operand is larger is data, and mispredicts); equal or
   unordered operands (±0, NaN) take the library's path. *)
let[@inline] max_cc x d a b i =
  let u = fget x (a + i) and v = fget x (b + i) in
  let lt = b2i (u < v) in
  if lt lor b2i (v < u) = 0 then Array.unsafe_set x (d + i) (Float.max u v)
  else fset x (d + i) (fget x (a + i + (-lt land (b - a))))

let[@inline] min_cc x d a b i =
  let u = fget x (a + i) and v = fget x (b + i) in
  let lt = b2i (u < v) in
  if lt lor b2i (v < u) = 0 then Array.unsafe_set x (d + i) (Float.min u v)
  else fset x (d + i) (fget x (b + i + (-lt land (a - b))))

(* A select picks its operand's index, not its value, so it does not
   branch on the mask.  An operand is a column ([m = -1]) or a
   one-float constant slot ([m = 0]): lane [i] reads [o + (i land m)].
   [sel_cc] and [sel_sc] are its two common shapes, spelled out. *)
let[@inline] pick x d ~k t mt e me i =
  let ei = e + (i land me) in
  fset x (d + i) (fget x (ei + (-k land (t + (i land mt) - ei))))

let[@inline] sel_cc x d c t e i =
  let k = b2i (fget x (c + i) <> 0.0) in
  fset x (d + i) (fget x (e + i + (-k land (t - e))))

let[@inline] sel_sc x d c ts e i =
  let k = b2i (fget x (c + i) <> 0.0) and ei = e + i in
  fset x (d + i) (fget x (ei + (-k land (ts - ei))))

(* The fused idioms' lanes (see "Fused idioms" above).  A Gaussian leaf:
   [((x - mean) * inv)^2 * mhalf + k], which is what both its -O1 chain
   and its -O3 [FMA] compute. *)
let[@inline] gauss_cii x d a mean inv mhalf k i =
  let z = (fget x (a + i) -. mean) *. inv in
  fset x (d + i) ((z *. z *. mhalf) +. k)

(* ... and its marginal select: the leaf's value is stored, then read
   back or replaced by the select's other operand by index, as in
   [pick] (a NaN test that branches mispredicts on marginalized rows) *)
let[@inline] gauss_sel x d a mean inv mhalf k c t mt i =
  gauss_cii x d a mean inv mhalf k i;
  pick x d ~k:(b2i (fget x (c + i) <> 0.0)) t mt d (-1) i

(* A log-sum-exp's first phase: [d = min a b - max a b], each operand
   picked as [max_cc]/[min_cc] pick it *)
let[@inline] lse_diff x d a b i =
  let u = fget x (a + i) and v = fget x (b + i) in
  let lt = b2i (u < v) in
  if lt lor b2i (v < u) = 0 then fset x (d + i) (Float.min u v -. Float.max u v)
  else
    fset x (d + i)
      (fget x (b + i + (-lt land (a - b))) -. fget x (a + i + (-lt land (b - a))))

(* ... and its last: [m + log1p (exp d)], or [m] when [m = -inf] *)
let[@inline] lse_add x d a b i =
  let u = fget x (a + i) and v = fget x (b + i) in
  let lt = b2i (u < v) in
  let m =
    if lt lor b2i (v < u) = 0 then Float.max u v
    else fget x (a + i + (-lt land (b - a)))
  in
  fset x (d + i) (if m = Float.neg_infinity then m else m +. fget x (d + i))

(* Fuse a straight-line sequence of closures into one: a flat loop over
   the array, so executing a body is one indirect call per instruction
   and no dispatch on opcodes. *)
let fuse (codes : code array) : code =
  match codes with
  | [| c |] -> c
  | _ ->
      fun fr n ->
        for k = 0 to Array.length codes - 1 do
          (Array.unsafe_get codes k) fr n
        done

let no_prof (_ : instr) = None

(* Compile-time context of one function. *)
type cx = {
  k : kernel;
  an : an;
  prof : instr -> Profile.cell option;
  mutable cur : int;  (** the eligible loop being compiled, or [top] *)
  bc_loop : int array array;  (** outer operands of loop [cur] ... *)
  bc_off : int array array;  (** ... and their broadcast columns *)
  konst : (bool * int64 * int, int) Hashtbl.t;
      (** (int class?, value bits, words) -> constant column or slot *)
  mutable inits : (frame -> unit) list;
  mutable next_loop : int;
}

(* An operand: a column (or slot) offset, or a compile-time constant. *)
type src = Col of int | Imm of float
type isrc = ICol of int | IImm of int

let dst cx c r = cx.an.rs.(c).base.(r)

let col_of cx c r =
  if cx.cur >= 0 && cx.bc_loop.(c).(r) = cx.cur then cx.bc_off.(c).(r)
  else dst cx c r

let fsrc cx c r =
  let x = cx.an.rs.(c) in
  if promoted x r then Imm x.fval.(r) else Col (col_of cx c r)

let isrc cx r =
  let x = cx.an.rs.(1) in
  if promoted x r then IImm x.ival.(r) else ICol (col_of cx 1 r)

(* A constant column for an immediate in an operand position that has
   no immediate form, or a one-float slot for a select to index: filled
   once per state, never written after, shared by equal values. *)
let konst cx ~int bits words fill =
  match Hashtbl.find_opt cx.konst (int, bits, words) with
  | Some o -> o
  | None ->
      let an = cx.an in
      let o = if int then an.it_words else an.fl_words in
      if int then an.it_words <- o + words else an.fl_words <- o + words;
      cx.inits <- (fun fr -> fill fr o words) :: cx.inits;
      Hashtbl.replace cx.konst (int, bits, words) o;
      o

let fcol cx c r =
  match fsrc cx c r with
  | Col o -> o
  | Imm v ->
      konst cx ~int:false (Int64.bits_of_float v) (chunk * lanes cx.an c)
        (fun fr o len -> Array.fill fr.fl o len v)

let icol cx r =
  match isrc cx r with
  | ICol o -> o
  | IImm v ->
      konst cx ~int:true (Int64.of_int v) chunk (fun fr o len ->
          Array.fill fr.it o len v)

(* a select operand: (offset, lane mask), see [pick] *)
let fpick cx c r =
  match fsrc cx c r with
  | Col o -> (o, -1)
  | Imm v ->
      ( konst cx ~int:false (Int64.bits_of_float v) 1 (fun fr o len ->
            Array.fill fr.fl o len v),
        0 )

let ireader cx r : frame -> int =
  match isrc cx r with IImm v -> fun _ -> v | ICol o -> fun fr -> iget fr.it o

let ffill d lanes v : code = fun fr n -> Array.fill fr.fl d (n * lanes) v

let rec compile_instr cx (ins : instr) : code =
  let w = cx.an.w in
  match ins with
  | ConstF (d, v) -> ffill (dst cx 0 d) 1 v
  | VConst (d, v) -> ffill (dst cx 2 d) w v
  | ConstI (d, v) ->
      let d = dst cx 1 d in
      fun fr n -> Array.fill fr.it d n v
  | FBin (op, d, a, b) -> fbin cx 0 op d a b
  | VBin (op, d, a, b) -> fbin cx 2 op d a b
  | FBin3 (_, d, a, b, c) -> fma cx 0 d a b c
  | VBin3 (_, d, a, b, c) -> fma cx 2 d a b c
  | IBin (op, d, a, b) -> ibin cx op d a b
  | FCmp (p, d, a, b) -> fcmp cx p d a b
  | VCmp (p, d, a, b) -> vcmp cx p d a b
  | SelF (d, c, t, e) -> self cx d c t e
  | VSel (d, c, t, e) -> vsel cx d c t e
  | SelI (d, c, t, e) ->
      let d = dst cx 1 d and c = icol cx c and t = icol cx t and e = icol cx e in
      fun fr n ->
        let y = fr.it in
        for i = 0 to n - 1 do
          iset y (d + i) (if iget y (c + i) <> 0 then iget y (t + i) else iget y (e + i))
        done
  | FtoI (d, a) ->
      let d = dst cx 1 d and a = fcol cx 0 a in
      fun fr n ->
        let x = fr.fl and y = fr.it in
        for i = 0 to n - 1 do
          iset y (d + i) (int_of_float (Float.floor (fget x (a + i))))
        done
  | ItoF (d, a) ->
      let d = dst cx 0 d and a = icol cx a in
      fun fr n ->
        let x = fr.fl and y = fr.it in
        for i = 0 to n - 1 do
          fset x (d + i) (float_of_int (iget y (a + i)))
        done
  | Call1 (fn, d, a) -> fcall cx 0 fn d a
  | VCall1 (fn, d, a) -> fcall cx 2 fn d a
  | VFloor (d, a) ->
      let d = dst cx 2 d and a = fcol cx 2 a in
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * w) - 1 do
          fset x (d + i) (Float.of_int (int_of_float (Float.floor (fget x (a + i)))))
        done
  | Load (d, bb, idx) ->
      let d = dst cx 0 d and idx = icol cx idx in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl and y = fr.it in
        let data = buf.Vm.data and off = buf.Vm.off and len = buf.Vm.len in
        for k = 0 to n - 1 do
          let ix = iget y (idx + k) in
          if ix < 0 || ix >= len then trap "load out of bounds: %d/%d" ix len;
          fset x (d + k) (fget data (off + ix))
        done
  | Store (bb, idx, s) ->
      let idx = icol cx idx and s = fcol cx 0 s in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl and y = fr.it in
        let data = buf.Vm.data and off = buf.Vm.off and len = buf.Vm.len in
        for k = 0 to n - 1 do
          let ix = iget y (idx + k) in
          if ix < 0 || ix >= len then trap "store out of bounds: %d/%d" ix len;
          fset data (off + ix) (fget x (s + k))
        done
  | VLoad (d, bb, idx) ->
      let d = dst cx 2 d and idx = icol cx idx in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl and y = fr.it in
        let data = buf.Vm.data and off = buf.Vm.off in
        for k = 0 to n - 1 do
          let base = iget y (idx + k) in
          if base < 0 || base + w > buf.Vm.len then trap "vload out of bounds";
          let o = d + (k * w) and src = off + base in
          for l = 0 to w - 1 do fset x (o + l) (fget data (src + l)) done
        done
  | VStore (bb, idx, s) ->
      let idx = icol cx idx and s = fcol cx 2 s in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl and y = fr.it in
        let data = buf.Vm.data and off = buf.Vm.off in
        for k = 0 to n - 1 do
          let base = iget y (idx + k) in
          if base < 0 || base + w > buf.Vm.len then trap "vstore out of bounds";
          let o = s + (k * w) and dst = off + base in
          for l = 0 to w - 1 do fset data (dst + l) (fget x (o + l)) done
        done
  | VGather (d, bb, idx, stride) | VShufLoad (d, bb, idx, stride, _, _) ->
      let d = dst cx 2 d and idx = icol cx idx in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl and y = fr.it in
        let data = buf.Vm.data and off = buf.Vm.off and len = buf.Vm.len in
        for k = 0 to n - 1 do
          let base = iget y (idx + k) in
          (* one range check for the whole strided access pattern *)
          let last = base + ((w - 1) * stride) in
          if base < 0 || last < 0 || base >= len || last >= len then
            trap "gather out of bounds";
          let o = d + (k * w) and src = off + base in
          for l = 0 to w - 1 do fset x (o + l) (fget data (src + (l * stride))) done
        done
  | VGatherIdx (d, bb, idx) ->
      let d = dst cx 2 d and idx = fcol cx 2 idx in
      fun fr n ->
        let buf = bget fr bb and x = fr.fl in
        let data = buf.Vm.data and off = buf.Vm.off and len = buf.Vm.len in
        for i = 0 to (n * w) - 1 do
          let ix = int_of_float (fget x (idx + i)) in
          if ix < 0 || ix >= len then trap "gather_indexed out of bounds: %d" ix;
          fset x (d + i) (fget data (off + ix))
        done
  | VExtract (_, _, lane) | VInsert (_, _, _, lane) when lane < 0 || lane >= w ->
      fun _ _ -> invalid_arg "index out of bounds"
  | VExtract (d, a, lane) ->
      let d = dst cx 0 d and a = fcol cx 2 a + lane in
      fun fr n ->
        let x = fr.fl in
        for k = 0 to n - 1 do fset x (d + k) (fget x (a + (k * w))) done
  | VInsert (d, s, a, lane) ->
      let d = dst cx 2 d and s = fcol cx 0 s and a = fcol cx 2 a in
      fun fr n ->
        let x = fr.fl in
        if d <> a then Array.blit x a x d (n * w);
        for k = 0 to n - 1 do fset x (d + (k * w) + lane) (fget x (s + k)) done
  | VBroadcast (d, s) ->
      let d = dst cx 2 d and s = fcol cx 0 s in
      fun fr n ->
        let x = fr.fl in
        for k = 0 to n - 1 do
          let v = fget x (s + k) and o = d + (k * w) in
          for l = 0 to w - 1 do fset x (o + l) v done
        done
  | Dim (d, bb) ->
      let d = dst cx 1 d in
      fun fr n -> Array.fill fr.it d n (bget fr bb).Vm.rows
  (* the rest never sits in an eligible loop, so [n = 1] *)
  | AllocBuf (d, rows, cols) ->
      let rows = ireader cx rows in
      fun fr _ -> Array.unsafe_set fr.b d (Vm.buffer ~rows:(rows fr) ~cols)
  | DeallocBuf _ | Ret -> fun _ _ -> ()
  | CopyBuf (src, dst) ->
      fun fr _ ->
        let s = bget fr src and d = bget fr dst in
        Array.blit s.Vm.data s.Vm.off d.Vm.data d.Vm.off s.Vm.len
  | TableConst (d, values) ->
      let n = Array.length values in
      let table = { Vm.data = values; off = 0; len = n; rows = n; cols = 1 } in
      fun fr _ -> Array.unsafe_set fr.b d table
  | CallFn (idx, args) ->
      let args = Array.of_list args in
      let nargs = Array.length args in
      let k = cx.k in
      fun fr _ ->
        (* [k.cfuncs] is filled after all functions compile, so the
           lookup happens at call time — one array load *)
        let callee = Array.unsafe_get k.cfuncs idx in
        let cfr = fr.frames.(idx) in
        let cparams = callee.cparams in
        if nargs > Array.length cparams then
          trap "call to %s: %d arguments for %d parameters" callee.src.fname
            nargs (Array.length cparams);
        for pi = 0 to nargs - 1 do
          cfr.b.(Array.unsafe_get cparams pi) <- bget fr (Array.unsafe_get args pi)
        done;
        callee.code cfr 1
  | Loop l -> compile_loop cx l

and fbin cx c op d a b : code =
  let lanes = lanes cx.an c and d = dst cx c d in
  match (op, fsrc cx c a, fsrc cx c b) with
  | FMA, _, _ ->
      fun _ _ -> trap "binary FMA (addend dropped by a malformed instruction)"
  | FAdd, Col a, Imm b ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          add_ci x d a b j; add_ci x d a b (j + 1); add_ci x d a b (j + 2);
          add_ci x d a b (j + 3); add_ci x d a b (j + 4); add_ci x d a b (j + 5);
          add_ci x d a b (j + 6); add_ci x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do add_ci x d a b j done
  | FAdd, Imm a, Col b ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          add_ic x d a b j; add_ic x d a b (j + 1); add_ic x d a b (j + 2);
          add_ic x d a b (j + 3); add_ic x d a b (j + 4); add_ic x d a b (j + 5);
          add_ic x d a b (j + 6); add_ic x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do add_ic x d a b j done
  | FSub, Col a, Imm b ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          sub_ci x d a b j; sub_ci x d a b (j + 1); sub_ci x d a b (j + 2);
          sub_ci x d a b (j + 3); sub_ci x d a b (j + 4); sub_ci x d a b (j + 5);
          sub_ci x d a b (j + 6); sub_ci x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do sub_ci x d a b j done
  | FMul, Col a, Imm b ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          mul_ci x d a b j; mul_ci x d a b (j + 1); mul_ci x d a b (j + 2);
          mul_ci x d a b (j + 3); mul_ci x d a b (j + 4); mul_ci x d a b (j + 5);
          mul_ci x d a b (j + 6); mul_ci x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do mul_ci x d a b j done
  | _ -> fbin_cc lanes op d (fcol cx c a) (fcol cx c b)

and fbin_cc lanes op d a b : code =
  match op with
  | FAdd ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          add_cc x d a b j; add_cc x d a b (j + 1); add_cc x d a b (j + 2);
          add_cc x d a b (j + 3); add_cc x d a b (j + 4); add_cc x d a b (j + 5);
          add_cc x d a b (j + 6); add_cc x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do add_cc x d a b j done
  | FSub ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          sub_cc x d a b j; sub_cc x d a b (j + 1); sub_cc x d a b (j + 2);
          sub_cc x d a b (j + 3); sub_cc x d a b (j + 4); sub_cc x d a b (j + 5);
          sub_cc x d a b (j + 6); sub_cc x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do sub_cc x d a b j done
  | FMul ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          mul_cc x d a b j; mul_cc x d a b (j + 1); mul_cc x d a b (j + 2);
          mul_cc x d a b (j + 3); mul_cc x d a b (j + 4); mul_cc x d a b (j + 5);
          mul_cc x d a b (j + 6); mul_cc x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do mul_cc x d a b j done
  | FMax ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          max_cc x d a b j; max_cc x d a b (j + 1); max_cc x d a b (j + 2);
          max_cc x d a b (j + 3); max_cc x d a b (j + 4); max_cc x d a b (j + 5);
          max_cc x d a b (j + 6); max_cc x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do max_cc x d a b j done
  | FMin ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          min_cc x d a b j; min_cc x d a b (j + 1); min_cc x d a b (j + 2);
          min_cc x d a b (j + 3); min_cc x d a b (j + 4); min_cc x d a b (j + 5);
          min_cc x d a b (j + 6); min_cc x d a b (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do min_cc x d a b j done
  | FDiv ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * lanes) - 1 do
          fset x (d + i) (fget x (a + i) /. fget x (b + i))
        done
  | FMA -> fun _ _ -> trap "binary FMA (addend dropped by a malformed instruction)"

and fma cx c d a b e : code =
  let lanes = lanes cx.an c and d = dst cx c d in
  match (fsrc cx c a, fsrc cx c b, fsrc cx c e) with
  | Col a, Imm b, Imm e ->
      fun fr n ->
        let x = fr.fl and len = n * lanes in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          fma_cii x d a b e j; fma_cii x d a b e (j + 1);
          fma_cii x d a b e (j + 2); fma_cii x d a b e (j + 3);
          fma_cii x d a b e (j + 4); fma_cii x d a b e (j + 5);
          fma_cii x d a b e (j + 6); fma_cii x d a b e (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do fma_cii x d a b e j done
  | _ ->
      let a = fcol cx c a and b = fcol cx c b and e = fcol cx c e in
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * lanes) - 1 do
          fset x (d + i) ((fget x (a + i) *. fget x (b + i)) +. fget x (e + i))
        done

and fcall cx c fn d a : code =
  let lanes = lanes cx.an c and d = dst cx c d and a = fcol cx c a in
  match fn with
  | MLog ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * lanes) - 1 do fset x (d + i) (log (fget x (a + i))) done
  | MExp ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * lanes) - 1 do fset x (d + i) (exp (fget x (a + i))) done
  | MLog1p ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * lanes) - 1 do
          fset x (d + i) (Float.log1p (fget x (a + i)))
        done

and ibin cx op d a b : code =
  let d = dst cx 1 d in
  match (isrc cx a, isrc cx b) with
  | ICol a, IImm b ->
      fun fr n ->
        let y = fr.it in
        for i = 0 to n - 1 do iset y (d + i) (ibin_eval op (iget y (a + i)) b) done
  | IImm a, ICol b ->
      fun fr n ->
        let y = fr.it in
        for i = 0 to n - 1 do iset y (d + i) (ibin_eval op a (iget y (b + i))) done
  | _ ->
      let a = icol cx a and b = icol cx b in
      fun fr n ->
        let y = fr.it in
        for i = 0 to n - 1 do
          iset y (d + i) (ibin_eval op (iget y (a + i)) (iget y (b + i)))
        done

and fcmp cx p d a b : code =
  let d = dst cx 1 d and a = fcol cx 0 a in
  match fsrc cx 0 b with
  | Imm b ->
      fun fr n ->
        let x = fr.fl and y = fr.it in
        for i = 0 to n - 1 do iset y (d + i) (holds p (fget x (a + i)) b) done
  | Col b ->
      fun fr n ->
        let x = fr.fl and y = fr.it in
        for i = 0 to n - 1 do
          iset y (d + i) (holds p (fget x (a + i)) (fget x (b + i)))
        done

and vcmp cx p d a b : code =
  let w = cx.an.w and d = dst cx 2 d and a = fcol cx 2 a in
  match fsrc cx 2 b with
  | Imm b ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * w) - 1 do
          fset x (d + i) (fget onezero (holds p (fget x (a + i)) b))
        done
  | Col b ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * w) - 1 do
          fset x (d + i) (fget onezero (holds p (fget x (a + i)) (fget x (b + i))))
        done

and self cx d c t e : code =
  let d = dst cx 0 d and c = icol cx c in
  let t, mt = fpick cx 0 t and e, me = fpick cx 0 e in
  fun fr n ->
    let x = fr.fl and y = fr.it in
    for i = 0 to n - 1 do
      pick x d ~k:(b2i (iget y (c + i) <> 0)) t mt e me i
    done

and vsel cx d c t e : code =
  let w = cx.an.w and d = dst cx 2 d and c = fcol cx 2 c in
  match (fpick cx 2 t, fpick cx 2 e) with
  | (t, -1), (e, -1) ->
      fun fr n ->
        let x = fr.fl and len = n * w in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          sel_cc x d c t e j; sel_cc x d c t e (j + 1); sel_cc x d c t e (j + 2);
          sel_cc x d c t e (j + 3); sel_cc x d c t e (j + 4); sel_cc x d c t e (j + 5);
          sel_cc x d c t e (j + 6); sel_cc x d c t e (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do sel_cc x d c t e j done
  | (ts, 0), (e, -1) ->
      fun fr n ->
        let x = fr.fl and len = n * w in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          sel_sc x d c ts e j; sel_sc x d c ts e (j + 1); sel_sc x d c ts e (j + 2);
          sel_sc x d c ts e (j + 3); sel_sc x d c ts e (j + 4); sel_sc x d c ts e (j + 5);
          sel_sc x d c ts e (j + 6); sel_sc x d c ts e (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do sel_sc x d c ts e j done
  | (t, mt), (e, me) ->
      fun fr n ->
        let x = fr.fl in
        for i = 0 to (n * w) - 1 do
          pick x d ~k:(b2i (fget x (c + i) <> 0.0)) t mt e me i
        done

(* A fused Gaussian leaf rooted at [root]: the leaf alone, or under the
   marginal select [sel c t g]. *)
and gauss cx root ~x ~mean ~inv ~mhalf ~k : code =
  let w = cx.an.w and a = fcol cx 2 x in
  match root with
  | VSel (d, c, t, _) ->
      let d = dst cx 2 d and c = fcol cx 2 c in
      let t, mt = fpick cx 2 t in
      fun fr n ->
        let x = fr.fl and len = n * w in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          gauss_sel x d a mean inv mhalf k c t mt j;
          gauss_sel x d a mean inv mhalf k c t mt (j + 1);
          gauss_sel x d a mean inv mhalf k c t mt (j + 2);
          gauss_sel x d a mean inv mhalf k c t mt (j + 3);
          gauss_sel x d a mean inv mhalf k c t mt (j + 4);
          gauss_sel x d a mean inv mhalf k c t mt (j + 5);
          gauss_sel x d a mean inv mhalf k c t mt (j + 6);
          gauss_sel x d a mean inv mhalf k c t mt (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do gauss_sel x d a mean inv mhalf k c t mt j done
  | VBin (_, d, _, _) | VBin3 (_, d, _, _, _) ->
      let d = dst cx 2 d in
      fun fr n ->
        let x = fr.fl and len = n * w in
        let i = ref 0 in
        while !i + 8 <= len do
          let j = !i in
          gauss_cii x d a mean inv mhalf k j;
          gauss_cii x d a mean inv mhalf k (j + 1);
          gauss_cii x d a mean inv mhalf k (j + 2);
          gauss_cii x d a mean inv mhalf k (j + 3);
          gauss_cii x d a mean inv mhalf k (j + 4);
          gauss_cii x d a mean inv mhalf k (j + 5);
          gauss_cii x d a mean inv mhalf k (j + 6);
          gauss_cii x d a mean inv mhalf k (j + 7);
          i := j + 8
        done;
        for j = !i to len - 1 do gauss_cii x d a mean inv mhalf k j done
  | _ -> invalid_arg "Jit.gauss"

(* A fused log-sum-exp rooted at [sel c m s], in phases over the chunk
   with the destination column as scratch: tight [exp] and [log1p]
   loops run faster than one [exp]-then-[log1p] chain per lane. *)
and lse cx root a b : code =
  let w = cx.an.w in
  match root with
  | VSel (d, _, _, _) ->
      let d = dst cx 2 d and a = fcol cx 2 a and b = fcol cx 2 b in
      fun fr n ->
        let x = fr.fl and len = n * w in
        for i = 0 to len - 1 do lse_diff x d a b i done;
        for i = d to d + len - 1 do fset x i (exp (fget x i)) done;
        for i = d to d + len - 1 do fset x i (Float.log1p (fget x i)) done;
        for i = 0 to len - 1 do lse_add x d a b i done
  | _ -> invalid_arg "Jit.lse"

and compile_loop cx (l : loop) : code =
  let id = cx.next_loop in
  cx.next_loop <- id + 1;
  let lp = cx.an.loops.(id) in
  let lb = ireader cx l.lb and ub = ireader cx l.ub and step = l.step in
  let iv = dst cx 1 l.iv in
  if not lp.eligible then begin
    let body = compile_body cx l.body in
    fun fr _ ->
      let hi = ub fr in
      let j = ref (lb fr) in
      while !j < hi do
        iset fr.it iv !j;
        body fr 1;
        j := !j + step
      done
  end
  else begin
    let w = cx.an.w in
    (* broadcast sources are read in the enclosing context *)
    let fills =
      List.map
        (fun (c, r, o) ->
          let src = dst cx c r in
          match c with
          | 1 -> fun fr -> Array.fill fr.it o chunk (iget fr.it src)
          | 0 -> fun fr -> Array.fill fr.fl o chunk (fget fr.fl src)
          | _ ->
              fun fr ->
                for k = 0 to chunk - 1 do Array.blit fr.fl src fr.fl (o + (k * w)) w done)
        lp.bcast
    in
    List.iter
      (fun (c, r, o) ->
        cx.bc_loop.(c).(r) <- id;
        cx.bc_off.(c).(r) <- o)
      lp.bcast;
    let outer = cx.cur in
    cx.cur <- id;
    let body = compile_body cx ~at:(lp.pos + 1) l.body in
    cx.cur <- outer;
    (* distinct buffer registers over one backing array would see the
       stores of later iterations early: run those one at a time *)
    let stored = lp.stored and touched = lp.touched in
    let aliased fr =
      List.exists
        (fun s ->
          let ds = (bget fr s).Vm.data in
          List.exists (fun t -> t <> s && (bget fr t).Vm.data == ds) touched)
        stored
    in
    fun fr _ ->
      let lo = lb fr and hi = ub fr in
      if lo < hi then begin
        List.iter (fun f -> f fr) fills;
        let per = if aliased fr then 1 else chunk in
        let y = fr.it in
        let j = ref lo in
        while !j < hi do
          let n = min per ((hi - !j + step - 1) / step) in
          for k = 0 to n - 1 do iset y (iv + k) (!j + (k * step)) done;
          body fr n;
          j := !j + (n * step)
        done
      end
  end

(* [at] is the flat position of [body.(0)] in an eligible loop, whose
   positions may root or belong to fused idioms; -1 elsewhere. *)
and compile_body cx ?(at = -1) (body : instr array) : code =
  let an = cx.an in
  let is_promoted = function
    | ConstF (d, _) -> promoted an.rs.(0) d
    | ConstI (d, _) -> promoted an.rs.(1) d
    | VConst (d, _) -> promoted an.rs.(2) d
    | _ -> false
  in
  (* in order: loops are numbered as [analyse] met them *)
  let codes = ref [] in
  Array.iteri
    (fun i ins ->
      let code =
        match if at < 0 then Plain else an.roles.(at + i) with
        | Member -> None
        | Plain -> if is_promoted ins then None else Some (compile_instr cx ins)
        | Gauss { x; mean; inv; mhalf; k } ->
            Some (gauss cx ins ~x ~mean ~inv ~mhalf ~k)
        | Lse { a; b } -> Some (lse cx ins a b)
      in
      (* profiled compile: each closure first bumps its pre-resolved
         (node, opcode) cell by its iteration count; a promoted constant
         or a fused member only bumps, so the counts stay the VM's *)
      match (code, cx.prof ins) with
      | None, None -> ()
      | None, Some cell -> codes := (fun _ n -> Profile.bump_n cell n) :: !codes
      | Some c, None -> codes := c :: !codes
      | Some c, Some cell ->
          codes := (fun fr n -> Profile.bump_n cell n; c fr n) :: !codes)
    body;
  (* filled with a constant closure, not with a young one: a major-heap
     array made with a young fill forces a minor collection *)
  let a = Array.make (List.length !codes) (fun _ _ -> ()) in
  List.iteri (fun i c -> a.(Array.length a - 1 - i) <- c) !codes;
  fuse a

let compile_func ?profile (k : kernel) (fn : func) : cfunc * an =
  let an = analyse fn in
  plan an;
  let prof =
    match profile with
    | None -> no_prof
    | Some p -> fun ins -> Some (Profile.cell_for p fn ins)
  in
  let per_class v = Array.map (fun x -> Array.make (Array.length x.base) v) an.rs in
  let cx =
    { k; an; prof; cur = top; bc_loop = per_class nowhere; bc_off = per_class 0;
      konst = Hashtbl.create 16; inits = []; next_loop = 0 }
  in
  let code =
    if an.negative then fun _ _ -> trap "%s: negative register index" fn.fname
    else compile_body cx fn.body
  in
  let inits = Array.of_list cx.inits in
  ( {
    src = fn;
    cparams = Array.of_list fn.params;
    code;
    init = (fun fr -> Array.iter (fun f -> f fr) inits);
    fl_size = an.fl_words;
    it_size = an.it_words;
    b_size = an.b_size;
  },
    an )

let fused_gaussian_counter = Spnc_obs.Metrics.counter "cpu.jit.fused_gaussian"
let fused_lse_counter = Spnc_obs.Metrics.counter "cpu.jit.fused_lse"

(** [compile ?profile m] — compile the module once into closures.  The
    result is immutable and safe to share across domains; pair it with
    one {!make_state} per domain to execute.  With [profile], every
    compiled instruction closure first bumps its pre-resolved
    per-SPN-node cell ({!Profile}) by its iteration count, so the counts
    equal {!Vm.run_profiled}'s; without it, the generated code has no
    profiling in it — the default path pays nothing. *)
let compile ?profile (m : modul) : kernel =
  (* tie the knot: CallFn closures capture [k] and index [cfuncs] at call
     time, so the placeholders can be replaced after each function
     compiles — by run time every slot holds its real cfunc *)
  let placeholder fn =
    { src = fn; cparams = [||]; code = (fun _ _ -> ()); init = ignore;
      fl_size = 0; it_size = 0; b_size = 0 }
  in
  let k =
    { cfuncs = Array.map placeholder m.funcs; centry = m.entry; gaussians = 0;
      lses = 0 }
  in
  (* the result below is a copy of [k] sharing its [cfuncs] *)
  let gaussians = ref 0 and lses = ref 0 in
  Array.iteri
    (fun i fn ->
      let cf, an = compile_func ?profile k fn in
      k.cfuncs.(i) <- cf;
      gaussians := !gaussians + an.gaussians;
      lses := !lses + an.lses)
    m.funcs;
  Spnc_obs.Metrics.counter_incr ~by:!gaussians fused_gaussian_counter;
  Spnc_obs.Metrics.counter_incr ~by:!lses fused_lse_counter;
  { k with gaussians = !gaussians; lses = !lses }

let fused (k : kernel) = (k.gaussians, k.lses)

(* -- Execution state ----------------------------------------------------------- *)

(* registered once; [run] is per-chunk so it must not hit the registry *)
let frame_reuse_counter = Spnc_obs.Metrics.counter "cpu.jit.frame_runs"

(** [make_state k] — a per-domain pool of register frames, one per
    function.  Frames are reused across runs (and across the runtime's
    chunks): compiled kernels define every register before reading it, so
    no per-run zeroing is needed. *)
let make_state (k : kernel) : state =
  Spnc_obs.Metrics.(counter_incr (counter "cpu.jit.states_created"));
  let n = Array.length k.cfuncs in
  let empty_buf = { Vm.data = [||]; off = 0; len = 0; rows = 0; cols = 0 } in
  let dummy = { fl = [||]; it = [||]; b = [||]; frames = [||] } in
  let frames = Array.make n dummy in
  Array.iteri
    (fun ix cf ->
      frames.(ix) <-
        {
          fl = Array.make cf.fl_size 0.0;
          it = Array.make cf.it_size 0;
          b = Array.make cf.b_size empty_buf;
          frames;
        })
    k.cfuncs;
  (* the constant columns: filled once, never written by the body *)
  Array.iteri (fun ix cf -> cf.init frames.(ix)) k.cfuncs;
  frames

(** [run k st ~buffers] executes the compiled entry function, binding
    [buffers] to its parameters in order.  [st] must not be shared
    between concurrently running domains.
    @raise Vm.Trap on runtime errors. *)
let run (k : kernel) (st : state) ~(buffers : Vm.buffer list) : unit =
  (* runs / states_created is the frame-pool reuse ratio: with the
     streaming runtime it should grow with call count while
     states_created stays at one per worker slot *)
  Spnc_obs.Metrics.counter_incr frame_reuse_counter;
  let entry = k.cfuncs.(k.centry) in
  let fr = st.(k.centry) in
  if List.length buffers <> Array.length entry.cparams then
    trap "entry %s expects %d buffers, got %d" entry.src.fname
      (Array.length entry.cparams)
      (List.length buffers);
  List.iteri (fun pi buf -> fr.b.(entry.cparams.(pi)) <- buf) buffers;
  entry.code fr 1

(** [run_once m ~buffers] — compile + run in one shot (tests, one-off
    executions).  Production callers should {!compile} once and reuse. *)
let run_once (m : modul) ~(buffers : Vm.buffer list) : unit =
  let k = compile m in
  run k (make_state k) ~buffers
