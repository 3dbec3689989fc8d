(** Lir optimization pipeline — the "LLVM IR optimized further by the LLVM
    framework" stage (paper §IV-B), with the compiler optimization levels
    investigated in §V-B (Figs. 11/13):

    - [-O0]: no optimization (naive isel output);
    - [-O1]: constant folding, local CSE, dead-code elimination;
    - [-O2]: -O1 plus loop-invariant code motion (constants, tables and
      invariant address arithmetic move out of the batch loop);
    - [-O3]: -O2 plus FMA fusion and a second clean-up round.

    All passes are semantics-preserving; the test suite runs the VM on
    every level against the reference evaluator. *)

type level = O0 | O1 | O2 | O3

let level_of_int = function
  | 0 -> O0
  | 1 -> O1
  | 2 -> O2
  | _ -> O3

let level_to_string = function O0 -> "-O0" | O1 -> "-O1" | O2 -> "-O2" | O3 -> "-O3"

let level_of_string = function
  | "-O0" | "O0" -> Some O0
  | "-O1" | "O1" -> Some O1
  | "-O2" | "O2" -> Some O2
  | "-O3" | "O3" -> Some O3
  | _ -> None

open Lir

(* Register-class tagging of instruction operands, needed to reason about
   def/use without type information: each instruction knows which class
   its dst/srcs belong to. *)

type rc = F | I | V | B

let[@inline] no_reg (_ : rc) (_ : reg) = ()

(* Every pass, the register allocator, the JIT's analysis and the
   profiler read an instruction's registers through this one match. *)
let iter_regs ~(use : rc -> reg -> unit) ~(def : rc -> reg -> unit)
    (i : instr) : unit =
  match i with
  | ConstF (d, _) -> def F d
  | ConstI (d, _) -> def I d
  | VConst (d, _) -> def V d
  | TableConst (d, _) -> def B d
  | Ret -> ()
  | FBin (_, d, a, b) -> use F a; use F b; def F d
  | FBin3 (_, d, a, b, c) -> use F a; use F b; use F c; def F d
  | IBin (_, d, a, b) -> use I a; use I b; def I d
  | FCmp (_, d, a, b) -> use F a; use F b; def I d
  | SelF (d, c, t, f) -> use I c; use F t; use F f; def F d
  | SelI (d, c, t, f) -> use I c; use I t; use I f; def I d
  | FtoI (d, a) -> use F a; def I d
  | ItoF (d, a) -> use I a; def F d
  | Call1 (_, d, a) -> use F a; def F d
  | Load (d, b, idx) -> use B b; use I idx; def F d
  | Store (b, idx, s) -> use B b; use I idx; use F s
  | VBin (_, d, a, b) -> use V a; use V b; def V d
  | VBin3 (_, d, a, b, c) -> use V a; use V b; use V c; def V d
  | VCmp (_, d, a, b) -> use V a; use V b; def V d
  | VSel (d, c, t, f) -> use V c; use V t; use V f; def V d
  | VCall1 (_, d, a) -> use V a; def V d
  | VLoad (d, b, idx) -> use B b; use I idx; def V d
  | VStore (b, idx, s) -> use B b; use I idx; use V s
  | VGather (d, b, idx, _) | VShufLoad (d, b, idx, _, _, _) ->
      use B b; use I idx; def V d
  | VGatherIdx (d, b, idx) -> use B b; use V idx; def V d
  | VFloor (d, a) -> use V a; def V d
  | VExtract (d, v, _) -> use V v; def F d
  | VInsert (d, s, v, _) -> use F s; use V v; def V d
  | VBroadcast (d, s) -> use F s; def V d
  | Dim (d, b) -> use B b; def I d
  | AllocBuf (d, rows, _) -> use I rows; def B d
  | DeallocBuf b -> use B b
  | CopyBuf (a, b) -> use B a; use B b
  | CallFn (_, args) -> List.iter (use B) args
  | Loop l -> use I l.lb; use I l.ub; def I l.iv

(* pure = no side effects, safe to CSE / sink / hoist / remove-if-dead *)
let pure (i : instr) =
  match i with
  | Store _ | VStore _ | DeallocBuf _ | CopyBuf _ | CallFn _ | Ret | Loop _
  | AllocBuf _ ->
      false
  | Load _ | VLoad _ | VGather _ | VShufLoad _ | VGatherIdx _ ->
      (* loads are not CSE'd/hoisted: a preceding store may alias *)
      false
  | _ -> true

(* Registers are dense within each class (isel mints them 0, 1, ...), so
   every per-register map below is one array per class, sized by the
   function's register counts [nf]/[ni]/[nv].  Accesses are bounds-checked:
   a hand-built function whose registers exceed its counts raises
   [Invalid_argument]. *)

(* [filter_map f a]: the instructions [f] keeps, in order. *)
let filter_map (f : instr -> instr option) (a : instr array) : instr array =
  let out = Array.make (Array.length a) Ret and n = ref 0 in
  Array.iter
    (fun i ->
      match f i with
      | Some i ->
          out.(!n) <- i;
          incr n
      | None -> ())
    a;
  Array.sub out 0 !n

(* -- Constant folding --------------------------------------------------------- *)

let fbin_eval op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  | FMax -> Float.max a b
  | FMin -> Float.min a b
  | FMA -> assert false (* guarded at the call site: binary FMA never folds *)

let ibin_eval op a b =
  match op with
  | IAdd -> a + b
  | IMul -> a * b
  | IAnd -> if a <> 0 && b <> 0 then 1 else 0
  | IOr -> if a <> 0 || b <> 0 then 1 else 0

(* The known constant value of each float and int register. *)
type env = {
  fknown : bool array;
  fval : float array;
  iknown : bool array;
  ival : int array;
}

let rec constfold_body (env : env) (body : instr array) : instr array =
  let setf d v =
    env.fknown.(d) <- true;
    env.fval.(d) <- v
  and seti d v =
    env.iknown.(d) <- true;
    env.ival.(d) <- v
  and forget c r =
    match c with
    | F -> env.fknown.(r) <- false
    | I -> env.iknown.(r) <- false
    | V | B -> ()
  in
  Array.map
    (fun i ->
      match i with
      | ConstF (d, v) ->
          setf d v;
          i
      | ConstI (d, v) ->
          seti d v;
          i
      | FBin (FMA, d, _, _) ->
          (* binary FMA is malformed (the addend was dropped); never fold
             it — let it reach the engines, which trap on it *)
          env.fknown.(d) <- false;
          i
      | FBin (op, d, a, b) ->
          if env.fknown.(a) && env.fknown.(b) then begin
            let v = fbin_eval op env.fval.(a) env.fval.(b) in
            setf d v;
            ConstF (d, v)
          end
          else begin
            env.fknown.(d) <- false;
            i
          end
      | IBin (op, d, a, b) ->
          if env.iknown.(a) && env.iknown.(b) then begin
            let v = ibin_eval op env.ival.(a) env.ival.(b) in
            seti d v;
            ConstI (d, v)
          end
          else begin
            env.iknown.(d) <- false;
            i
          end
      | Loop l ->
          (* constants from outside remain valid inside; definitions inside
             the loop are cleared after (they are iteration-dependent) *)
          let inner =
            {
              fknown = Array.copy env.fknown;
              fval = Array.copy env.fval;
              iknown = Array.copy env.iknown;
              ival = Array.copy env.ival;
            }
          in
          inner.iknown.(l.iv) <- false;
          Loop { l with body = constfold_body inner l.body }
      | other ->
          iter_regs ~use:no_reg ~def:forget other;
          other)
    body

let constfold (f : func) : func =
  let env =
    {
      fknown = Array.make f.nf false;
      fval = Array.make f.nf 0.0;
      iknown = Array.make f.ni false;
      ival = Array.make f.ni 0;
    }
  in
  { f with body = constfold_body env f.body }

(* -- Local CSE ------------------------------------------------------------------ *)

(* The CSE candidates: pure instructions other than [TableConst] (buffer
   registers are never substituted). *)
let cse_candidate (i : instr) =
  pure i && match i with TableConst _ -> false | _ -> true

(* The key of a candidate: the candidate with its destination ignored.
   Floats compare by the float rule shared with the LoSPN CSE, so 0.0 and
   -0.0 stay apart; operators are left to [equal]. *)
module Expr = struct
  let equal (x : instr) (y : instr) =
    match (x, y) with
    | ConstF (_, u), ConstF (_, v) | VConst (_, u), VConst (_, v) ->
        Spnc_mlir.Cse.same_float u v
    | ConstI (_, u), ConstI (_, v) -> u = v
    | FBin (o, _, a, b), FBin (o', _, a', b')
    | VBin (o, _, a, b), VBin (o', _, a', b') ->
        o = o' && a = a' && b = b'
    | FBin3 (o, _, a, b, c), FBin3 (o', _, a', b', c')
    | VBin3 (o, _, a, b, c), VBin3 (o', _, a', b', c') ->
        o = o' && a = a' && b = b' && c = c'
    | IBin (o, _, a, b), IBin (o', _, a', b') -> o = o' && a = a' && b = b'
    | FCmp (p, _, a, b), FCmp (p', _, a', b')
    | VCmp (p, _, a, b), VCmp (p', _, a', b') ->
        p = p' && a = a' && b = b'
    | SelF (_, c, t, f), SelF (_, c', t', f')
    | SelI (_, c, t, f), SelI (_, c', t', f')
    | VSel (_, c, t, f), VSel (_, c', t', f') ->
        c = c' && t = t' && f = f'
    | FtoI (_, a), FtoI (_, a')
    | ItoF (_, a), ItoF (_, a')
    | VFloor (_, a), VFloor (_, a')
    | VBroadcast (_, a), VBroadcast (_, a')
    | Dim (_, a), Dim (_, a') ->
        a = a'
    | Call1 (fn, _, a), Call1 (fn', _, a') | VCall1 (fn, _, a), VCall1 (fn', _, a')
      ->
        fn = fn' && a = a'
    | VExtract (_, v, l), VExtract (_, v', l') -> v = v' && l = l'
    | VInsert (_, s, v, l), VInsert (_, s', v', l') -> s = s' && v = v' && l = l'
    | _ -> false

  let hash (i : instr) =
    let ( ++ ) h x = (h * 31) + x in
    match i with
    | ConstF (_, v) -> Hashtbl.hash v
    | VConst (_, v) -> 1 ++ Hashtbl.hash v
    | ConstI (_, v) -> 2 ++ v
    | FBin (_, _, a, b) -> 3 ++ a ++ b
    | VBin (_, _, a, b) -> 4 ++ a ++ b
    | FBin3 (_, _, a, b, c) -> 5 ++ a ++ b ++ c
    | VBin3 (_, _, a, b, c) -> 6 ++ a ++ b ++ c
    | IBin (_, _, a, b) -> 7 ++ a ++ b
    | FCmp (_, _, a, b) -> 8 ++ a ++ b
    | VCmp (_, _, a, b) -> 9 ++ a ++ b
    | SelF (_, c, t, f) -> 10 ++ c ++ t ++ f
    | SelI (_, c, t, f) -> 11 ++ c ++ t ++ f
    | VSel (_, c, t, f) -> 12 ++ c ++ t ++ f
    | FtoI (_, a) -> 13 ++ a
    | ItoF (_, a) -> 14 ++ a
    | VFloor (_, a) -> 15 ++ a
    | VBroadcast (_, a) -> 16 ++ a
    | Dim (_, a) -> 17 ++ a
    | Call1 (_, _, a) -> 18 ++ a
    | VCall1 (_, _, a) -> 19 ++ a
    | VExtract (_, v, l) -> 20 ++ v ++ l
    | VInsert (_, s, v, l) -> 21 ++ s ++ v ++ l
    | _ -> 22
end

(* Per class, the register each register's uses now read (initially
   itself). *)
type subst = { sf : reg array; si : reg array; sv : reg array }

let substitute (s : subst) (i : instr) : instr =
  let sf r = s.sf.(r) and si r = s.si.(r) and sv r = s.sv.(r) in
  match i with
  | ConstF _ | ConstI _ | VConst _ | TableConst _ | Ret -> i
  | FBin (op, d, a, b) -> FBin (op, d, sf a, sf b)
  | FBin3 (op, d, a, b, c) -> FBin3 (op, d, sf a, sf b, sf c)
  | IBin (op, d, a, b) -> IBin (op, d, si a, si b)
  | FCmp (p, d, a, b) -> FCmp (p, d, sf a, sf b)
  | SelF (d, c, t, f) -> SelF (d, si c, sf t, sf f)
  | SelI (d, c, t, f) -> SelI (d, si c, si t, si f)
  | FtoI (d, a) -> FtoI (d, sf a)
  | ItoF (d, a) -> ItoF (d, si a)
  | Call1 (fn, d, a) -> Call1 (fn, d, sf a)
  | Load (d, b, idx) -> Load (d, b, si idx)
  | Store (b, idx, s) -> Store (b, si idx, sf s)
  | VBin (op, d, a, b) -> VBin (op, d, sv a, sv b)
  | VBin3 (op, d, a, b, c) -> VBin3 (op, d, sv a, sv b, sv c)
  | VCmp (p, d, a, b) -> VCmp (p, d, sv a, sv b)
  | VSel (d, c, t, f) -> VSel (d, sv c, sv t, sv f)
  | VCall1 (fn, d, a) -> VCall1 (fn, d, sv a)
  | VLoad (d, b, idx) -> VLoad (d, b, si idx)
  | VStore (b, idx, s) -> VStore (b, si idx, sv s)
  | VGather (d, b, idx, s) -> VGather (d, b, si idx, s)
  | VGatherIdx (d, b, idx) -> VGatherIdx (d, b, sv idx)
  | VFloor (d, a) -> VFloor (d, sv a)
  | VShufLoad (d, b, idx, s, l, sh) -> VShufLoad (d, b, si idx, s, l, sh)
  | VExtract (d, v, l) -> VExtract (d, sv v, l)
  | VInsert (d, s, v, l) -> VInsert (d, sf s, sv v, l)
  | VBroadcast (d, s) -> VBroadcast (d, sf s)
  | Dim (d, b) -> Dim (d, b)
  | AllocBuf (d, rows, c) -> AllocBuf (d, si rows, c)
  | DeallocBuf _ | CopyBuf _ | CallFn _ -> i
  | Loop l -> Loop { l with lb = si l.lb; ub = si l.ub }

(* Registers are in SSA form within a function (isel mints fresh regs), so
   the substitution is shared with nested loop bodies: an outer dedup must
   rewrite uses inside loops too.  An instruction none of whose operands
   moved is kept as it is. *)
let rec cse_body (s : subst) (body : instr array) : instr array =
  (* the expression table: open addressing over [keys], the candidates
     kept so far; a slot holds a key's index + 1, or 0 when empty *)
  let n = Array.length body in
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap 0 and keys = Array.make n Ret and nkeys = ref 0 in
  let slot_of i =
    let h = Expr.hash i * 0x5bd1e995 in
    let k = ref ((h lxor (h lsr 17)) land mask) in
    while slots.(!k) <> 0 && not (Expr.equal keys.(slots.(!k) - 1) i) do
      k := (!k + 1) land mask
    done;
    !k
  in
  (* a candidate defines one F, I or V register: an equal key's
     register [prior] replaces it *)
  let prior = ref 0 in
  let take_prior _ d = prior := d
  and redirect c d =
    match c with
    | F -> s.sf.(d) <- !prior
    | I -> s.si.(d) <- !prior
    | V -> s.sv.(d) <- !prior
    | B -> ()
  in
  let moved = ref false in
  let check c r =
    match c with
    | F -> if s.sf.(r) <> r then moved := true
    | I -> if s.si.(r) <> r then moved := true
    | V -> if s.sv.(r) <> r then moved := true
    | B -> ()
  in
  filter_map
    (fun i ->
      moved := false;
      iter_regs ~use:check ~def:no_reg i;
      match if !moved then substitute s i else i with
      | Loop l ->
          (* expression table is per-region (conservative), but the
             substitution flows through *)
          Some (Loop { l with body = cse_body s l.body })
      | i when cse_candidate i ->
          let k = slot_of i in
          if slots.(k) <> 0 then begin
            iter_regs ~use:no_reg ~def:take_prior keys.(slots.(k) - 1);
            iter_regs ~use:no_reg ~def:redirect i;
            None
          end
          else begin
            keys.(!nkeys) <- i;
            incr nkeys;
            slots.(k) <- !nkeys;
            Some i
          end
      | i -> Some i)
    body

let cse (f : func) : func =
  let id n = Array.init n Fun.id in
  { f with body = cse_body { sf = id f.nf; si = id f.ni; sv = id f.nv } f.body }

(* -- Dead code elimination -------------------------------------------------------- *)

(* A pure instruction is dead when nothing live reads its register.  One
   scan counts every register's reads over the whole function and chains
   each register's pure definers; the pure definers of unread registers
   die, and a dead instruction releases its own reads, which may leave
   further registers unread.  Removing only ever lowers counts, so this
   reaches the fixpoint that removing in rounds reaches.  Buffer
   registers are never dead. *)
let dce (f : func) : func =
  (* the body in pre-order, a [Loop] before its body *)
  let n = count_instrs f.body in
  let flat = Array.make n Ret and next = ref 0 in
  let rec flatten body =
    Array.iter
      (fun i ->
        flat.(!next) <- i;
        incr next;
        match i with Loop l -> flatten l.body | _ -> ())
      body
  in
  flatten f.body;
  let uf = Array.make f.nf 0 and ui = Array.make f.ni 0 and uv = Array.make f.nv 0 in
  (* the last pure definer of each register, and each definer's previous *)
  let df = Array.make f.nf (-1) and di = Array.make f.ni (-1)
  and dv = Array.make f.nv (-1) and chain = Array.make n (-1) in
  let p = ref 0 in
  let count c r =
    match c with
    | F -> uf.(r) <- uf.(r) + 1
    | I -> ui.(r) <- ui.(r) + 1
    | V -> uv.(r) <- uv.(r) + 1
    | B -> ()
  and definer c r =
    let link d =
      chain.(!p) <- d.(r);
      d.(r) <- !p
    in
    if pure flat.(!p) then match c with F -> link df | I -> link di | V -> link dv | B -> ()
  in
  for q = 0 to n - 1 do
    p := q;
    iter_regs ~use:count ~def:definer flat.(q)
  done;
  let dead = Array.make n false and stack = Array.make n 0 and sp = ref 0 in
  let kill d r =
    let q = ref d.(r) in
    while !q >= 0 do
      dead.(!q) <- true;
      stack.(!sp) <- !q;
      incr sp;
      q := chain.(!q)
    done
  in
  let unread u d = Array.iteri (fun r k -> if k = 0 then kill d r) u in
  unread uf df;
  unread ui di;
  unread uv dv;
  let release c r =
    let drop u d =
      u.(r) <- u.(r) - 1;
      if u.(r) = 0 then kill d r
    in
    match c with F -> drop uf df | I -> drop ui di | V -> drop uv dv | B -> ()
  in
  let removed = !sp > 0 in
  while !sp > 0 do
    decr sp;
    iter_regs ~use:release ~def:no_reg flat.(stack.(!sp))
  done;
  if not removed then f
  else begin
    p := 0;
    let rec keep body =
      filter_map
        (fun i ->
          let q = !p in
          incr p;
          if dead.(q) then None
          else match i with Loop l -> Some (Loop { l with body = keep l.body }) | _ -> Some i)
        body
    in
    { f with body = keep f.body }
  end

(* -- Loop-invariant code motion ------------------------------------------------------ *)

(* One flag per register of each class. *)
type marks = { mf : bool array; mi : bool array; mv : bool array }

let copy_marks m =
  { mf = Array.copy m.mf; mi = Array.copy m.mi; mv = Array.copy m.mv }

let mark m c r =
  match c with
  | F -> m.mf.(r) <- true
  | I -> m.mi.(r) <- true
  | V -> m.mv.(r) <- true
  | B -> ()

(* Buffers are never loop-variant. *)
let marked m c r =
  match c with F -> m.mf.(r) | I -> m.mi.(r) | V -> m.mv.(r) | B -> true

let rec licm_body (outside : marks) (body : instr array) : instr array =
  let out = ref [] in
  let mark_outside = mark outside in
  Array.iter
    (fun i ->
      (match i with
      | Loop l ->
          (* values defined so far are invariant w.r.t. this loop *)
          let inv = copy_marks outside in
          let mark_inv = mark inv and invariant = ref true in
          let check c r = if not (marked inv c r) then invariant := false in
          let all_invariant ins =
            invariant := true;
            iter_regs ~use:check ~def:no_reg ins;
            !invariant
          in
          (* hoist, to just before the loop: sweep the body until a sweep
             moves nothing, taking each pure instr whose uses are all
             invariant *)
          let hoisted = Array.make (Array.length l.body) false in
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iteri
              (fun k ins ->
                if (not hoisted.(k)) && pure ins && all_invariant ins then begin
                  hoisted.(k) <- true;
                  out := ins :: !out;
                  iter_regs ~use:no_reg ~def:mark_inv ins;
                  changed := true
                end)
              l.body
          done;
          (* recurse into nested loops with the enlarged invariant set *)
          mark inv I l.iv;
          let k = ref (-1) in
          let rest =
            filter_map
              (fun ins ->
                incr k;
                if hoisted.(!k) then None else Some ins)
              l.body
          in
          out := Loop { l with body = licm_body inv rest } :: !out
      | _ -> out := i :: !out);
      iter_regs ~use:no_reg ~def:mark_outside i)
    body;
  Array.of_list (List.rev !out)

let licm (f : func) : func =
  let m = { mf = Array.make f.nf false; mi = Array.make f.ni false; mv = Array.make f.nv false } in
  { f with body = licm_body m f.body }

(* -- FMA fusion (-O3) ------------------------------------------------------------------- *)

let remark_fused ~vec loc =
  if Spnc_obs.Remark.enabled () then
    Spnc_obs.Remark.emit ~pass:"lir-fma"
      ~loc:
        (if Spnc_mlir.Loc.is_known loc then Spnc_mlir.Loc.to_string loc else "")
      (if vec then "fused vector multiply-add into one FMA"
       else "fused multiply-add into one FMA")

let rec fma_body (f : func) (body : instr array) : instr array =
  let n = Array.length body in
  let consumed = Array.make n false in
  (* uses of each float and vector register within [body] *)
  let uses_f = Array.make f.nf 0 and uses_v = Array.make f.nv 0 in
  let count_use c r =
    match c with
    | F -> uses_f.(r) <- uses_f.(r) + 1
    | V -> uses_v.(r) <- uses_v.(r) + 1
    | I | B -> ()
  in
  let rec count (body : instr array) =
    Array.iter
      (fun i ->
        iter_regs ~use:count_use ~def:no_reg i;
        match i with Loop l -> count l.body | _ -> ())
      body
  in
  count body;
  (* the class and register an instruction defines ([dreg] -1: none) *)
  let dcls = ref B and dreg = ref (-1) in
  let see c r =
    dcls := c;
    dreg := r
  in
  (* a window instruction that redefines [t] ends the window; the others
     add their [cl] definitions to [window_defs] *)
  let window_def cl t window_defs instr =
    dreg := -1;
    iter_regs ~use:no_reg ~def:see instr;
    if !dreg >= 0 && !dcls == cl then begin
      if !dreg = t then raise Exit;
      window_defs := !dreg :: !window_defs
    end
  in
  let out = ref [] in
  for k = 0 to n - 1 do
    if not consumed.(k) then begin
      match body.(k) with
      | Loop l -> out := Lir.Loop { l with body = fma_body f l.body } :: !out
      | FBin (FMul, t, a, b) when uses_f.(t) = 1 && k + 1 < n -> (
          (* look ahead a short window for FAdd(d, t, c) or FAdd(d, c, t).
             The fused FMA is emitted at the multiply's position, so the
             addend [c] is read early: fusing is only sound if nothing in
             the window (k, j) defines [c]. *)
          let fused = ref false in
          let window_defs = ref [] in
          (try
             for j = k + 1 to min (n - 1) (k + 4) do
               match body.(j) with
               | FBin (FAdd, d, x, y) when (x = t || y = t) && not consumed.(j) ->
                   let c = if x = t then y else x in
                   if List.mem c !window_defs then raise Exit;
                   out := FBin3 (FMA, d, a, b, c) :: !out;
                   remark_fused ~vec:false (prov_reg f.prov.pf d);
                   consumed.(j) <- true;
                   fused := true;
                   raise Exit
               | instr -> window_def F t window_defs instr
             done
           with Exit -> ());
          if not !fused then out := body.(k) :: !out)
      | VBin (FMul, t, a, b) when uses_v.(t) = 1 && k + 1 < n -> (
          let fused = ref false in
          let window_defs = ref [] in
          (try
             for j = k + 1 to min (n - 1) (k + 4) do
               match body.(j) with
               | VBin (FAdd, d, x, y) when (x = t || y = t) && not consumed.(j) ->
                   let c = if x = t then y else x in
                   if List.mem c !window_defs then raise Exit;
                   out := VBin3 (FMA, d, a, b, c) :: !out;
                   remark_fused ~vec:true (prov_reg f.prov.pv d);
                   consumed.(j) <- true;
                   fused := true;
                   raise Exit
               | instr -> window_def V t window_defs instr
             done
           with Exit -> ());
          if not !fused then out := body.(k) :: !out)
      | i -> out := i :: !out
    end
  done;
  Array.of_list (List.rev !out)

let fma (f : func) : func = { f with body = fma_body f f.body }

(* -- Fault injection ------------------------------------------------------------------ *)

(* A deliberately unsound "peephole": the first floating add of each
   function becomes a subtract.  Enabled only through
   [inject_bad_peephole] by the differential fuzzing harness
   (bin/spnc_fuzz --inject-bad-peephole) to prove the harness detects
   and shrinks a real miscompile; never on by default. *)
let inject_bad_peephole = ref false

let rec break_first_fadd (broken : bool ref) (body : instr array) : instr array
    =
  Array.map
    (fun i ->
      if !broken then i
      else
        match i with
        | FBin (FAdd, d, a, b) ->
            broken := true;
            FBin (FSub, d, a, b)
        | VBin (FAdd, d, a, b) ->
            broken := true;
            VBin (FSub, d, a, b)
        | Loop l -> Loop { l with body = break_first_fadd broken l.body }
        | i -> i)
    body

let bad_peephole (f : func) : func =
  { f with body = break_first_fadd (ref false) f.body }

(* -- Driver --------------------------------------------------------------------------- *)

(* Each -O level as its sequence of named passes.  Every pass is local to
   one function. *)
let passes (level : level) : (string * (func -> func)) list =
  let cf = ("lir-constfold", constfold)
  and cse = ("lir-cse", cse)
  and dce = ("lir-dce", dce)
  and licm = ("lir-licm", licm)
  and fma = ("lir-fma", fma) in
  match level with
  | O0 -> []
  | O1 -> [ cf; cse; dce ]
  | O2 -> [ cf; cse; dce; licm; cse; dce ]
  | O3 -> [ cf; cse; dce; cf; cse; dce; licm; cse; dce; fma ]

let faulty level = !inject_bad_peephole && level <> O0

(** [run_func level f] — the per-function pipeline of [run].  Exposed so
    the auto-tuner can re-optimize {e individual} task functions of an
    already-compiled module (profile-guided per-task levels: extra -O3
    effort only on the functions that dominate dynamic cycles). *)
let run_func (level : level) (f : func) : func =
  let f = List.fold_left (fun f (_, pass) -> pass f) f (passes level) in
  if faulty level then bad_peephole f else f

(** [run level m] optimizes every function of the module, one pass at a
    time over all of them, each pass under its own trace span. *)
let run (level : level) (m : Lir.modul) : Lir.modul =
  let funcs =
    List.fold_left
      (fun funcs (name, pass) ->
        Spnc_obs.Trace.with_span ~cat:"pass" name (fun () -> Array.map pass funcs))
      m.Lir.funcs (passes level)
  in
  let funcs = if faulty level then Array.map bad_peephole funcs else funcs in
  { m with Lir.funcs }
