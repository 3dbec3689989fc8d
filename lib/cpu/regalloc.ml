(** Linear-scan register allocation.

    Live intervals are computed over the linearized instruction order
    (values live across a loop extend to the loop end); the scan keeps
    the active intervals in a sorted array of at most [phys_regs] end
    points, so the whole allocation is linear in the function size.

    The allocation is recorded as statistics (intervals, spill count,
    peak pressure): the VM and the JIT execute virtual-register code, but
    the spill traffic feeds the execution cost model ({!Cost}). *)

open Lir

type stats = {
  intervals : int;
  spills_f : int;
  spills_i : int;
  spills_v : int;
  max_pressure_f : int;
  max_pressure_v : int;
}

(** Physical register budget, x86-64-flavoured: 16 GP + 16 SIMD. *)
let phys_regs = 16

(* One register class, indexed by register.  [first_def] is 0 until the
   register's first definition and -1 for a constant: constants are
   rematerializable (re-emitted at their uses), so they form no
   interval.  [order] lists the first [n] defined registers in definition
   order.  Every instruction defines at most one register, so within a
   class the interval starts are distinct and [order] is sorted by start
   without a sort. *)
type cls = {
  first_def : int array;
  last_use : int array;
  order : int array;
  mutable n : int;
}

(* Linearize the function body, numbering instructions from 1 in
   pre-order (a [Loop] precedes its body).  A register used inside a
   loop but defined before it is needed on every iteration, so it stays
   live to the end of the outermost such loop. *)
let live_intervals (f : func) =
  let cls n =
    { first_def = Array.make n 0; last_use = Array.make n 0;
      order = Array.make n 0; n = 0 }
  in
  let cf = cls f.nf and ci = cls f.ni and cv = cls f.nv in
  let of_rc = function
    | Optimizer.F -> Some cf
    | Optimizer.I -> Some ci
    | Optimizer.V -> Some cv
    | Optimizer.B -> None
  in
  let rec mark_remat (body : instr array) =
    Array.iter
      (function
        | ConstF (d, _) -> cf.first_def.(d) <- -1
        | ConstI (d, _) -> ci.first_def.(d) <- -1
        | VConst (d, _) -> cv.first_def.(d) <- -1
        | Loop l -> mark_remat l.body
        | _ -> ())
      body
  in
  mark_remat f.body;
  let pos = ref 0 in
  (* [loops]: (start, end) positions of the enclosing loops *)
  let rec scan (body : instr array) ~loops =
    Array.iter
      (fun ins ->
        incr pos;
        let p = !pos in
        List.iter
          (fun (rc, r) ->
            match of_rc rc with
            | Some c when c.first_def.(r) >= 0 ->
                let d = c.first_def.(r) in
                let e =
                  List.fold_left
                    (fun e (ls, le) -> if 0 < d && d < ls then max e le else e)
                    p loops
                in
                c.last_use.(r) <- max e c.last_use.(r)
            | _ -> ())
          (Optimizer.uses ins);
        List.iter
          (fun (rc, r) ->
            match of_rc rc with
            | Some c when c.first_def.(r) = 0 ->
                c.first_def.(r) <- p;
                c.order.(c.n) <- r;
                c.n <- c.n + 1
            | _ -> ())
          (Optimizer.defs ins);
        match ins with
        | Loop l ->
            scan l.body ~loops:((p, p + Lir.count_instrs l.body + 1) :: loops)
        | _ -> ())
      body
  in
  scan f.body ~loops:[];
  (cf, ci, cv)

(* Classic linear scan over one class, intervals in start order; returns
   (spills, max_pressure).  [active] holds the end points of the live
   intervals in increasing order, plus one slot for the new interval. *)
let linear_scan (c : cls) ~k =
  let active = Array.make (k + 1) 0 and n = ref 0 in
  let spills = ref 0 and max_pressure = ref 0 in
  for x = 0 to c.n - 1 do
    let start = c.first_def.(c.order.(x)) in
    let stop = max start c.last_use.(c.order.(x)) in
    (* expire: the intervals that ended by [start] are a prefix *)
    let gone = ref 0 in
    while !gone < !n && active.(!gone) <= start do
      incr gone
    done;
    Array.blit active !gone active 0 (!n - !gone);
    n := !n - !gone;
    let j = ref !n in
    while !j > 0 && active.(!j - 1) > stop do
      active.(!j) <- active.(!j - 1);
      decr j
    done;
    active.(!j) <- stop;
    (* over budget: the interval that ends last, maybe the new one, is
       spilled (Poletto-Sarkar) by dropping the last slot *)
    if !n = k then incr spills else incr n;
    max_pressure := max !max_pressure !n
  done;
  (!spills, !max_pressure)

(** [allocate f] runs linear scan on all three register classes. *)
let allocate (f : func) : stats =
  let cf, ci, cv = live_intervals f in
  let spills_f, mp_f = linear_scan cf ~k:phys_regs in
  let spills_i, _ = linear_scan ci ~k:phys_regs in
  let spills_v, mp_v = linear_scan cv ~k:phys_regs in
  {
    intervals = cf.n + ci.n + cv.n;
    spills_f;
    spills_i;
    spills_v;
    max_pressure_f = mp_f;
    max_pressure_v = mp_v;
  }

let total_spills s = s.spills_f + s.spills_i + s.spills_v

(** [allocate_module m] — per-function stats, in function order. *)
let allocate_module (m : Lir.modul) : stats array = Array.map allocate m.Lir.funcs
