(** Execution-time estimation for compiled CPU kernels.

    OCaml cannot execute AVX2/AVX-512, so the ISA-specific execution times
    of the evaluation figures are produced by pricing the {e actual} Lir
    instruction stream of each kernel under a machine description
    ({!Spnc_machine.Machine.cpu}).  The estimate is
    [cycles(instruction stream, rows) / frequency], with spill traffic
    from {!Regalloc} added, and optional multi-thread scaling applied by
    the runtime.  See DESIGN.md §1 for why this substitution preserves the
    shapes of Figs. 6–8. *)

open Lir
module M = Spnc_machine.Machine

(* Cost in cycles of one instruction (amortized, throughput-flavoured). *)
let instr_cycles (cpu : M.cpu) (i : instr) : float =
  match i with
  | ConstF _ | ConstI _ | VConst _ -> 0.25
  | FBin (FDiv, _, _, _) -> cpu.M.div_cost
  | FBin _ | FBin3 _ -> cpu.M.flop_cost
  | IBin _ -> 0.3
  | FCmp _ -> 0.5
  | SelF _ | SelI _ -> 0.5
  | FtoI _ | ItoF _ -> 1.0
  | Call1 _ -> cpu.M.scalar_call_cost
  | VCall1 _ -> cpu.M.veclib_call_cost
  | Load _ -> cpu.M.load_cost
  | Store _ -> cpu.M.store_cost
  | VBin (FDiv, _, _, _) -> cpu.M.div_cost
  | VBin _ | VBin3 _ -> cpu.M.flop_cost
  | VCmp _ -> 0.5
  | VSel _ -> 0.5
  | VLoad _ -> cpu.M.load_cost
  | VStore _ -> cpu.M.store_cost
  | VGather (d, _, _, _) ->
      ignore d;
      cpu.M.gather_cost_per_lane
  | VGatherIdx _ -> cpu.M.gather_cost_per_lane
  | VFloor _ -> 1.0
  | VShufLoad (_, _, _, _, loads, shuffles) ->
      (loads *. cpu.M.load_cost) +. (shuffles *. cpu.M.shuffle_cost)
  | VExtract _ | VInsert _ -> cpu.M.vec_insert_extract_cost
  | VBroadcast _ -> 1.0
  | Dim _ -> 1.0
  | AllocBuf _ -> 150.0  (* allocator call *)
  | DeallocBuf _ -> 80.0
  | CopyBuf _ -> 0.0  (* charged per element by the caller if present *)
  | TableConst _ -> 1.0
  | CallFn _ -> 30.0  (* call + prologue *)
  | Loop _ -> 0.0  (* charged via trip counts below *)
  | Ret -> 2.0

(* VGather cost is per lane; width comes from the enclosing loop. *)
let gather_width_factor (i : instr) ~width =
  match i with
  | VGather _ | VGatherIdx _ -> float_of_int width
  | _ -> 1.0

(* Cycles of a straight-line body, loops expanded by trip count. *)
let rec body_cycles (cpu : M.cpu) (body : instr array) ~rows ~width : float =
  Array.fold_left
    (fun acc i ->
      match i with
      | Loop l ->
          (* the runtime pads the last partial group, so a loop of step
             [w] runs ceil(rows / w) times *)
          let trips =
            if l.step <= 0 then 0.0
            else Float.of_int ((rows + l.step - 1) / l.step)
          in
          let per_iter =
            body_cycles cpu l.body ~rows ~width:(max width l.vector_width)
            +. cpu.M.loop_overhead
          in
          acc +. (trips *. per_iter)
      | _ -> acc +. (instr_cycles cpu i *. gather_width_factor i ~width))
    0.0 body

type estimate = {
  cycles : float;
  seconds : float;  (** single-threaded *)
  spill_cycles : float;
}

(** [kernel_estimate cpu m ~rows ~spills] prices one execution of the
    entry function over [rows] samples. *)
let kernel_estimate (cpu : M.cpu) (m : Lir.modul)
    ?(regalloc : Regalloc.stats array option) ~rows () : estimate =
  let entry = m.funcs.(m.entry) in
  (* entry calls tasks; price callee bodies at their call sites *)
  let rec price (f : func) : float =
    Array.fold_left
      (fun acc i ->
        match i with
        | CallFn (idx, _) -> acc +. instr_cycles cpu i +. price m.funcs.(idx)
        | CopyBuf _ ->
            (* copying an intermediate buffer: rows * cols elements; cols
               unknown here, charge rows load+store conservatively *)
            acc +. (float_of_int rows *. (cpu.M.load_cost +. cpu.M.store_cost))
        | Loop _ -> acc +. body_cycles cpu [| i |] ~rows ~width:f.vec_width
        | _ -> acc +. instr_cycles cpu i)
      0.0 f.body
  in
  let base = price entry in
  (* spill traffic: each spill adds a store+load inside the loop body,
     i.e. per sample *)
  let spill_cycles =
    match regalloc with
    | Some stats ->
        let total =
          Array.fold_left (fun acc s -> acc + Regalloc.total_spills s) 0 stats
        in
        float_of_int total *. float_of_int rows
        *. (cpu.M.load_cost +. cpu.M.store_cost)
        /. 4.0
        (* spilled values are typically reused within short ranges *)
    | None -> 0.0
  in
  let cycles = base +. spill_cycles in
  { cycles; seconds = M.cycles_to_seconds cpu cycles; spill_cycles }

(** [threaded_seconds est ~threads] applies the runtime's chunked
    multi-threading (paper §IV-B) with a 90% parallel efficiency. *)
let threaded_seconds (est : estimate) ~threads =
  if threads <= 1 then est.seconds
  else est.seconds /. (float_of_int threads *. 0.9)
