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

let defs (i : instr) : (rc * reg) list =
  match i with
  | ConstF (d, _) | FBin (_, d, _, _) | FBin3 (_, d, _, _, _) | SelF (d, _, _, _)
  | ItoF (d, _) | Call1 (_, d, _) | Load (d, _, _) | VExtract (d, _, _) ->
      [ (F, d) ]
  | ConstI (d, _) | IBin (_, d, _, _) | FCmp (_, d, _, _) | SelI (d, _, _, _)
  | FtoI (d, _) | Dim (d, _) ->
      [ (I, d) ]
  | VConst (d, _) | VBin (_, d, _, _) | VBin3 (_, d, _, _, _) | VCmp (_, d, _, _)
  | VSel (d, _, _, _) | VCall1 (_, d, _) | VLoad (d, _, _)
  | VGather (d, _, _, _) | VShufLoad (d, _, _, _, _, _)
  | VGatherIdx (d, _, _) | VFloor (d, _)
  | VInsert (d, _, _, _) | VBroadcast (d, _) ->
      [ (V, d) ]
  | AllocBuf (d, _, _) | TableConst (d, _) -> [ (B, d) ]
  | Store _ | VStore _ | DeallocBuf _ | CopyBuf _ | CallFn _ | Ret -> []
  | Loop l -> [ (I, l.iv) ]

let uses (i : instr) : (rc * reg) list =
  match i with
  | ConstF _ | ConstI _ | VConst _ | TableConst _ | Ret -> []
  | FBin (_, _, a, b) -> [ (F, a); (F, b) ]
  | FBin3 (_, _, a, b, c) -> [ (F, a); (F, b); (F, c) ]
  | IBin (_, _, a, b) -> [ (I, a); (I, b) ]
  | FCmp (_, _, a, b) -> [ (F, a); (F, b) ]
  | SelF (_, c, t, f) -> [ (I, c); (F, t); (F, f) ]
  | SelI (_, c, t, f) -> [ (I, c); (I, t); (I, f) ]
  | FtoI (_, a) -> [ (F, a) ]
  | ItoF (_, a) -> [ (I, a) ]
  | Call1 (_, _, a) -> [ (F, a) ]
  | Load (_, b, idx) -> [ (B, b); (I, idx) ]
  | Store (b, idx, s) -> [ (B, b); (I, idx); (F, s) ]
  | VBin (_, _, a, b) -> [ (V, a); (V, b) ]
  | VBin3 (_, _, a, b, c) -> [ (V, a); (V, b); (V, c) ]
  | VCmp (_, _, a, b) -> [ (V, a); (V, b) ]
  | VSel (_, c, t, f) -> [ (V, c); (V, t); (V, f) ]
  | VCall1 (_, _, a) -> [ (V, a) ]
  | VLoad (_, b, idx) -> [ (B, b); (I, idx) ]
  | VStore (b, idx, s) -> [ (B, b); (I, idx); (V, s) ]
  | VGather (_, b, idx, _) | VShufLoad (_, b, idx, _, _, _) -> [ (B, b); (I, idx) ]
  | VGatherIdx (_, b, idx) -> [ (B, b); (V, idx) ]
  | VFloor (_, a) -> [ (V, a) ]
  | VExtract (_, v, _) -> [ (V, v) ]
  | VInsert (_, s, v, _) -> [ (F, s); (V, v) ]
  | VBroadcast (_, s) -> [ (F, s) ]
  | Dim (_, b) -> [ (B, b) ]
  | AllocBuf (_, rows, _) -> [ (I, rows) ]
  | DeallocBuf b -> [ (B, b) ]
  | CopyBuf (a, b) -> [ (B, a); (B, b) ]
  | CallFn (_, args) -> List.map (fun a -> (B, a)) args
  | Loop l -> [ (I, l.lb); (I, l.ub) ]

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
          List.iter
            (fun (c, r) ->
              match c with
              | F -> env.fknown.(r) <- false
              | I -> env.iknown.(r) <- false
              | _ -> ())
            (defs other);
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

(* The expression table, keyed by a candidate with its destination
   ignored.  Floats compare by the float rule shared with the LoSPN CSE,
   so 0.0 and -0.0 stay apart; operators are left to [equal]. *)
module Expr = Hashtbl.Make (struct
  type t = instr

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
end)

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
   rewrite uses inside loops too. *)
let rec cse_body (s : subst) (body : instr array) : instr array =
  let seen = Expr.create (Array.length body) in
  filter_map
    (fun i ->
      match substitute s i with
      | Loop l ->
          (* expression table is per-region (conservative), but the
             substitution flows through *)
          Some (Loop { l with body = cse_body s l.body })
      | i when cse_candidate i -> (
          match (Expr.find_opt seen i, defs i) with
          | Some prior, [ (F, d) ] ->
              s.sf.(d) <- prior;
              None
          | Some prior, [ (I, d) ] ->
              s.si.(d) <- prior;
              None
          | Some prior, [ (V, d) ] ->
              s.sv.(d) <- prior;
              None
          | None, [ (_, d) ] ->
              Expr.add seen i d;
              Some i
          | _ -> Some i)
      | i -> Some i)
    body

let cse (f : func) : func =
  let id n = Array.init n Fun.id in
  { f with body = cse_body { sf = id f.nf; si = id f.ni; sv = id f.nv } f.body }

(* -- Dead code elimination -------------------------------------------------------- *)

(* One flag per register of each class. *)
type marks = { mf : bool array; mi : bool array; mv : bool array }

let marks (f : func) =
  {
    mf = Array.make f.nf false;
    mi = Array.make f.ni false;
    mv = Array.make f.nv false;
  }

let copy_marks m =
  { mf = Array.copy m.mf; mi = Array.copy m.mi; mv = Array.copy m.mv }

let mark m (c, r) =
  match c with
  | F -> m.mf.(r) <- true
  | I -> m.mi.(r) <- true
  | V -> m.mv.(r) <- true
  | B -> ()

(* Buffers are never dead and never loop-variant. *)
let marked m (c, r) =
  match c with F -> m.mf.(r) | I -> m.mi.(r) | V -> m.mv.(r) | B -> true

let rec mark_uses (used : marks) (body : instr array) =
  Array.iter
    (fun i ->
      List.iter (mark used) (uses i);
      match i with Loop l -> mark_uses used l.body | _ -> ())
    body

(* One round: drop every pure definer none of whose defs is used,
   counting the drops in [removed]. *)
let rec dce_body (used : marks) (removed : int ref) (body : instr array) :
    instr array =
  filter_map
    (fun i ->
      match i with
      | Loop l -> Some (Loop { l with body = dce_body used removed l.body })
      | _ ->
          if
            pure i
            &&
            match defs i with
            | [] -> false
            | ds -> not (List.exists (marked used) ds)
          then begin
            incr removed;
            None
          end
          else Some i)
    body

(* Rounds until one removes nothing. *)
let dce (f : func) : func =
  let rec go body =
    let used = marks f in
    mark_uses used body;
    let removed = ref 0 in
    let body' = dce_body used removed body in
    if !removed = 0 then body' else go body'
  in
  { f with body = go f.body }

(* -- Loop-invariant code motion ------------------------------------------------------ *)

let rec licm_body (outside : marks) (body : instr array) : instr array =
  let out = ref [] in
  Array.iter
    (fun i ->
      (match i with
      | Loop l ->
          (* values defined so far are invariant w.r.t. this loop *)
          let inv = copy_marks outside in
          (* hoist, to just before the loop: sweep the body until a sweep
             moves nothing, taking each pure instr whose uses are all
             invariant *)
          let hoisted = Array.make (Array.length l.body) false in
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iteri
              (fun k ins ->
                if
                  (not hoisted.(k)) && pure ins
                  && List.for_all (marked inv) (uses ins)
                then begin
                  hoisted.(k) <- true;
                  out := ins :: !out;
                  List.iter (mark inv) (defs ins);
                  changed := true
                end)
              l.body
          done;
          (* recurse into nested loops with the enlarged invariant set *)
          mark inv (I, l.iv);
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
      List.iter (mark outside) (defs i))
    body;
  Array.of_list (List.rev !out)

let licm (f : func) : func = { f with body = licm_body (marks f) f.body }

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
  let rec count (body : instr array) =
    Array.iter
      (fun i ->
        List.iter
          (fun (c, r) ->
            match c with
            | F -> uses_f.(r) <- uses_f.(r) + 1
            | V -> uses_v.(r) <- uses_v.(r) + 1
            | I | B -> ())
          (uses i);
        match i with Loop l -> count l.body | _ -> ())
      body
  in
  count body;
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
               | instr
                 when List.exists (fun (cl, r) -> cl = F && r = t) (defs instr) ->
                   raise Exit
               | instr ->
                   List.iter
                     (fun (cl, r) -> if cl = F then window_defs := r :: !window_defs)
                     (defs instr)
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
               | instr
                 when List.exists (fun (cl, r) -> cl = V && r = t) (defs instr) ->
                   raise Exit
               | instr ->
                   List.iter
                     (fun (cl, r) -> if cl = V then window_defs := r :: !window_defs)
                     (defs instr)
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
