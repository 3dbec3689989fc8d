(** The execution engine for compiled kernels: a register VM over Lir.

    This is the "object code the runtime component can load" of §IV-B —
    the closest OCaml equivalent of JIT-ed native code.  Execution is a
    tight match over a flat instruction array with class-separated
    register files (float / int / vector / buffer), so measured wall-clock
    scales with the instruction count the backend actually emitted:
    optimization levels and vectorization genuinely change VM time.

    The interpreter is the reference engine; {!Jit} compiles the same Lir
    into closures for dispatch-free execution.  Both operate on the same
    {!buffer} values, which since the zero-copy runtime rework are
    {e views}: a base offset + logical length into a (possibly shared)
    flat array, so the runtime can hand a kernel a window of the batch
    input and the batch output without copying. *)

open Lir

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

type buffer = {
  data : float array;  (** backing store, possibly shared with other views *)
  off : int;  (** base offset of this view into [data] *)
  len : int;  (** logical length ([rows * cols]); bounds-check limit *)
  rows : int;
  cols : int;
}

let buffer ~rows ~cols =
  { data = Array.make (rows * cols) 0.0; off = 0; len = rows * cols; rows; cols }

let of_flat data ~rows ~cols =
  if Array.length data <> rows * cols then
    trap "buffer size %d does not match %dx%d" (Array.length data) rows cols;
  { data; off = 0; len = rows * cols; rows; cols }

let view data ~off ~rows ~cols =
  let len = rows * cols in
  if off < 0 || len < 0 || off + len > Array.length data then
    trap "view [%d, %d+%d) out of bounds of backing array (%d)" off off len
      (Array.length data);
  { data; off; len; rows; cols }

type frame = {
  fregs : float array;
  iregs : int array;
  vregs : float array array;
  bregs : buffer array;
}

let dummy_buf = { data = [||]; off = 0; len = 0; rows = 0; cols = 0 }

let frame_of (f : func) ~width =
  {
    fregs = Array.make (max 1 f.nf) 0.0;
    iregs = Array.make (max 1 f.ni) 0;
    vregs = Array.init (max 1 f.nv) (fun _ -> Array.make width 0.0);
    bregs = Array.make (max 1 f.nb) dummy_buf;
  }

let fbin_eval (op : fbin) a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  | FMax -> Float.max a b
  | FMin -> Float.min a b
  | FMA ->
      (* FMA is ternary (FBin3); a binary encoding has lost its addend
         somewhere in the pipeline.  Trap so the miscompile surfaces
         instead of silently evaluating a*b. *)
      trap "binary FMA (addend dropped by a malformed instruction)"

let pred_eval (p : pred) a b =
  match p with
  | Olt -> a < b
  | Ole -> a <= b
  | Ogt -> a > b
  | Oge -> a >= b
  | Oeq -> a = b
  | One -> a <> b && not (Float.is_nan a || Float.is_nan b)
  | Uno -> Float.is_nan a || Float.is_nan b

let math_eval (fn : mathfn) x =
  match fn with MLog -> log x | MExp -> exp x | MLog1p -> Float.log1p x

let rec exec (m : modul) (fr : frame) (body : instr array) : unit =
  let n = Array.length body in
  let f = fr.fregs and i = fr.iregs and v = fr.vregs and b = fr.bregs in
  for k = 0 to n - 1 do
    match Array.unsafe_get body k with
    | ConstF (d, x) -> f.(d) <- x
    | ConstI (d, x) -> i.(d) <- x
    | FBin (op, d, a, bb) -> f.(d) <- fbin_eval op f.(a) f.(bb)
    | FBin3 (_, d, a, bb, c) -> f.(d) <- (f.(a) *. f.(bb)) +. f.(c)
    | IBin (op, d, a, bb) ->
        i.(d) <-
          (match op with
          | IAdd -> i.(a) + i.(bb)
          | IMul -> i.(a) * i.(bb)
          | IAnd -> if i.(a) <> 0 && i.(bb) <> 0 then 1 else 0
          | IOr -> if i.(a) <> 0 || i.(bb) <> 0 then 1 else 0)
    | FCmp (p, d, a, bb) -> i.(d) <- (if pred_eval p f.(a) f.(bb) then 1 else 0)
    | SelF (d, c, t, e) -> f.(d) <- (if i.(c) <> 0 then f.(t) else f.(e))
    | SelI (d, c, t, e) -> i.(d) <- (if i.(c) <> 0 then i.(t) else i.(e))
    | FtoI (d, a) -> i.(d) <- int_of_float (Float.floor f.(a))
    | ItoF (d, a) -> f.(d) <- float_of_int i.(a)
    | Call1 (fn, d, a) -> f.(d) <- math_eval fn f.(a)
    | Load (d, bb, idx) ->
        let buf = b.(bb) in
        let ix = i.(idx) in
        if ix < 0 || ix >= buf.len then
          trap "load out of bounds: %d/%d" ix buf.len;
        f.(d) <- Array.unsafe_get buf.data (buf.off + ix)
    | Store (bb, idx, s) ->
        let buf = b.(bb) in
        let ix = i.(idx) in
        if ix < 0 || ix >= buf.len then
          trap "store out of bounds: %d/%d" ix buf.len;
        Array.unsafe_set buf.data (buf.off + ix) f.(s)
    | VConst (d, x) -> Array.fill v.(d) 0 (Array.length v.(d)) x
    | VBin (op, d, a, bb) ->
        let va = v.(a) and vb = v.(bb) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- fbin_eval op va.(l) vb.(l)
        done
    | VBin3 (_, d, a, bb, c) ->
        let va = v.(a) and vb = v.(bb) and vc = v.(c) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- (va.(l) *. vb.(l)) +. vc.(l)
        done
    | VCmp (p, d, a, bb) ->
        let va = v.(a) and vb = v.(bb) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- (if pred_eval p va.(l) vb.(l) then 1.0 else 0.0)
        done
    | VSel (d, c, t, e) ->
        let vc = v.(c) and vt = v.(t) and ve = v.(e) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- (if vc.(l) <> 0.0 then vt.(l) else ve.(l))
        done
    | VCall1 (fn, d, a) ->
        let va = v.(a) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- math_eval fn va.(l)
        done
    | VLoad (d, bb, idx) ->
        let buf = b.(bb) in
        let base = i.(idx) in
        let vd = v.(d) in
        let w = Array.length vd in
        if base < 0 || base + w > buf.len then trap "vload out of bounds";
        Array.blit buf.data (buf.off + base) vd 0 w
    | VStore (bb, idx, s) ->
        let buf = b.(bb) in
        let base = i.(idx) in
        let vs = v.(s) in
        let w = Array.length vs in
        if base < 0 || base + w > buf.len then trap "vstore out of bounds";
        Array.blit vs 0 buf.data (buf.off + base) w
    | VGather (d, bb, idx, stride) | VShufLoad (d, bb, idx, stride, _, _) ->
        let buf = b.(bb) in
        let base = i.(idx) in
        let vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          let ix = base + (l * stride) in
          if ix < 0 || ix >= buf.len then trap "gather out of bounds";
          vd.(l) <- Array.unsafe_get buf.data (buf.off + ix)
        done
    | VFloor (d, a) ->
        let va = v.(a) and vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          vd.(l) <- Float.of_int (int_of_float (Float.floor va.(l)))
        done
    | VGatherIdx (d, bb, idx) ->
        let buf = b.(bb) in
        let vi = v.(idx) in
        let vd = v.(d) in
        for l = 0 to Array.length vd - 1 do
          let k = int_of_float vi.(l) in
          if k < 0 || k >= buf.len then
            trap "gather_indexed out of bounds: %d" k;
          vd.(l) <- Array.unsafe_get buf.data (buf.off + k)
        done
    | VExtract (d, a, lane) -> f.(d) <- v.(a).(lane)
    | VInsert (d, s, a, lane) ->
        let vd = v.(d) and va = v.(a) in
        if vd != va then Array.blit va 0 vd 0 (Array.length vd);
        vd.(lane) <- f.(s)
    | VBroadcast (d, s) -> Array.fill v.(d) 0 (Array.length v.(d)) f.(s)
    | Dim (d, bb) -> i.(d) <- b.(bb).rows
    | AllocBuf (d, rows, cols) -> b.(d) <- buffer ~rows:i.(rows) ~cols
    | DeallocBuf _ -> ()
    | CopyBuf (src, dst) ->
        let s = b.(src) and d = b.(dst) in
        Array.blit s.data s.off d.data d.off s.len
    | TableConst (d, values) ->
        b.(d) <-
          {
            data = values;
            off = 0;
            len = Array.length values;
            rows = Array.length values;
            cols = 1;
          }
    | CallFn (idx, args) ->
        let callee = m.funcs.(idx) in
        let cfr = frame_of callee ~width:(max 1 callee.vec_width) in
        (* bind arguments to parameter registers via arrays: the former
           List.nth-per-parameter binding was O(n²) in the task count *)
        let params = Array.of_list callee.params in
        List.iteri (fun pi a -> cfr.bregs.(params.(pi)) <- b.(a)) args;
        exec m cfr callee.body
    | Loop l ->
        let lb = i.(l.lb) and ub = i.(l.ub) in
        let iv = l.iv and step = l.step and lbody = l.body in
        let j = ref lb in
        while !j < ub do
          i.(iv) <- !j;
          exec m fr lbody;
          j := !j + step
        done
    | Ret -> ()
  done

(* -- Profiled execution -------------------------------------------------------- *)

(* A separate walker so the default [exec] above stays untouched: each
   instruction bumps its pre-resolved (SPN node, opcode) cell, then runs
   through the reference semantics.  Cells (and singleton bodies, to
   avoid re-allocating per instruction inside loops) are resolved once
   per body entry, so loop iterations pay one Atomic.incr plus one
   [exec] call per instruction. *)
let run_profiled (m : modul) (p : Profile.t) ~(buffers : buffer list) : unit =
  let resolve (f : func) (body : instr array) =
    (Array.map (Profile.cell_for p f) body, Array.map (fun i -> [| i |]) body)
  in
  let rec go (f : func) (fr : frame) (body : instr array) : unit =
    let cells, singles = resolve f body in
    step f fr body cells singles
  and step f fr body cells singles =
    for k = 0 to Array.length body - 1 do
      Profile.bump cells.(k);
      match Array.unsafe_get body k with
      | Loop l ->
          let lcells, lsingles = resolve f l.body in
          let lb = fr.iregs.(l.lb) and ub = fr.iregs.(l.ub) in
          let iv = l.iv and stp = l.step in
          let j = ref lb in
          while !j < ub do
            fr.iregs.(iv) <- !j;
            step f fr l.body lcells lsingles;
            j := !j + stp
          done
      | CallFn (idx, args) ->
          let callee = m.funcs.(idx) in
          let cfr = frame_of callee ~width:(max 1 callee.vec_width) in
          let params = Array.of_list callee.params in
          List.iteri (fun pi a -> cfr.bregs.(params.(pi)) <- fr.bregs.(a)) args;
          go callee cfr callee.body
      | _ -> exec m fr singles.(k)
    done
  in
  let entry = m.funcs.(m.entry) in
  let fr = frame_of entry ~width:(max 1 entry.vec_width) in
  if List.length buffers <> List.length entry.params then
    trap "entry %s expects %d buffers, got %d" entry.fname
      (List.length entry.params) (List.length buffers);
  let params = Array.of_list entry.params in
  List.iteri (fun pi buf -> fr.bregs.(params.(pi)) <- buf) buffers;
  go entry fr entry.body

(** [run m ~buffers] executes the entry function with the given buffer
    arguments (bound to the entry's parameters in order). *)
let run (m : modul) ~(buffers : buffer list) : unit =
  let entry = m.funcs.(m.entry) in
  let fr = frame_of entry ~width:(max 1 entry.vec_width) in
  if List.length buffers <> List.length entry.params then
    trap "entry %s expects %d buffers, got %d" entry.fname
      (List.length entry.params) (List.length buffers);
  let params = Array.of_list entry.params in
  List.iteri (fun pi buf -> fr.bregs.(params.(pi)) <- buf) buffers;
  exec m fr entry.body
