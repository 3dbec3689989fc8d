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
  (* the position being scanned, and the (start, end) positions of the
     loops enclosing it *)
  let pos = ref 0 and loops = ref [] in
  let rec live_to d e = function
    | [] -> e
    | (ls, le) :: outer -> live_to d (if 0 < d && d < ls then max e le else e) outer
  in
  let use_in c r =
    let d = c.first_def.(r) in
    if d >= 0 then c.last_use.(r) <- max (live_to d !pos !loops) c.last_use.(r)
  and def_in c r =
    if c.first_def.(r) = 0 then begin
      c.first_def.(r) <- !pos;
      c.order.(c.n) <- r;
      c.n <- c.n + 1
    end
  in
  let use rc r =
    match rc with
    | Optimizer.F -> use_in cf r
    | Optimizer.I -> use_in ci r
    | Optimizer.V -> use_in cv r
    | Optimizer.B -> ()
  and def rc r =
    match rc with
    | Optimizer.F -> def_in cf r
    | Optimizer.I -> def_in ci r
    | Optimizer.V -> def_in cv r
    | Optimizer.B -> ()
  in
  let rec scan (body : instr array) =
    Array.iter
      (fun ins ->
        incr pos;
        Optimizer.iter_regs ~use ~def ins;
        match ins with
        | Loop l ->
            let outer = !loops in
            loops := (!pos, !pos + Lir.count_instrs l.body + 1) :: outer;
            scan l.body;
            loops := outer
        | _ -> ())
      body
  in
  scan f.body;
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
