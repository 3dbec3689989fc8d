(** Sampling-free per-SPN-node execution profiler (docs/OBSERVABILITY.md).

    Every executed Lir instruction is attributed — through the
    per-register provenance recorded by {!Isel} and preserved by
    {!Optimizer} — to the SPN node it implements, and counted in a
    pre-resolved cell keyed (node, opcode).  Cells are resolved before
    the hot path runs (at closure-compile time in {!Jit}, at body entry
    in {!Vm}), so the per-instruction cost of profiling is one
    [Atomic.incr] and the sum of all cell counts equals the number of
    instructions executed exactly — no sampling, no skid.

    Profiling is opt-in per run ({!Jit.compile}[ ?profile],
    {!Vm.run_profiled}); the default execution paths are untouched. *)

open Lir

type cell = {
  node : int;  (** SPN node id; [-1] when unattributed *)
  opcode : string;  (** Lir mnemonic *)
  count : int Atomic.t;  (** executions *)
  cycles : float;  (** estimated cycles per execution *)
}

type t = {
  tbl : ((int * string), cell) Hashtbl.t;
  lock : Mutex.t;  (** guards [tbl]; [count] bumps are lock-free *)
  cpu : Spnc_machine.Machine.cpu;
}

let create ?(cpu = Spnc_machine.Machine.ryzen_3900xt) () =
  { tbl = Hashtbl.create 256; lock = Mutex.create (); cpu }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* -- Attribution ------------------------------------------------------------ *)

let opcode (i : instr) : string =
  match i with
  | ConstF _ -> "constf"
  | ConstI _ -> "consti"
  | FBin (op, _, _, _) -> Fmt.str "%a" pp_fbin op
  | FBin3 _ -> "fma"
  | IBin (IAdd, _, _, _) -> "iadd"
  | IBin (IMul, _, _, _) -> "imul"
  | IBin (IAnd, _, _, _) -> "iand"
  | IBin (IOr, _, _, _) -> "ior"
  | FCmp _ -> "fcmp"
  | SelF _ -> "fsel"
  | SelI _ -> "isel"
  | FtoI _ -> "ftoi"
  | ItoF _ -> "itof"
  | Call1 (fn, _, _) -> Fmt.str "call.%a" pp_mathfn fn
  | Load _ -> "load"
  | Store _ -> "store"
  | VConst _ -> "vconst"
  | VBin (op, _, _, _) -> Fmt.str "v%a" pp_fbin op
  | VBin3 _ -> "vfma"
  | VCmp _ -> "vcmp"
  | VSel _ -> "vsel"
  | VCall1 (fn, _, _) -> Fmt.str "vcall.%a" pp_mathfn fn
  | VLoad _ -> "vload"
  | VStore _ -> "vstore"
  | VGather _ -> "vgather"
  | VShufLoad _ -> "vshufload"
  | VFloor _ -> "vfloor"
  | VGatherIdx _ -> "vgatheridx"
  | VExtract _ -> "vextract"
  | VInsert _ -> "vinsert"
  | VBroadcast _ -> "vbroadcast"
  | Dim _ -> "dim"
  | AllocBuf _ -> "alloc"
  | DeallocBuf _ -> "dealloc"
  | CopyBuf _ -> "copy"
  | TableConst _ -> "table"
  | CallFn _ -> "callfn"
  | Loop _ -> "loop"
  | Ret -> "ret"

(** [node_of f i] — the SPN node an instruction belongs to: the
    provenance of its first located destination register, falling back
    to the first located source (stores have no destination), else -1. *)
let node_of (f : func) (i : instr) : int =
  let arr = function
    | Optimizer.F -> f.prov.pf
    | Optimizer.I -> f.prov.pi
    | Optimizer.V -> f.prov.pv
    | Optimizer.B -> f.prov.pb
  in
  let node rc r = Spnc_mlir.Loc.node_id (prov_reg (arr rc) r) in
  let d = ref None and u = ref None in
  Optimizer.iter_regs i
    ~use:(fun rc r -> if Option.is_none !u then u := node rc r)
    ~def:(fun rc r -> d := node rc r);
  match (!d, !u) with Some n, _ | None, Some n -> n | None, None -> -1

(** [cell_for t f i] — the (get-or-create) cell the instruction bumps.
    Safe to call from multiple domains; intended for resolution ahead of
    the hot path, not inside it. *)
let cell_for (t : t) (f : func) (i : instr) : cell =
  let key = (node_of f i, opcode i) in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some c -> c
      | None ->
          let c =
            {
              node = fst key;
              opcode = snd key;
              count = Atomic.make 0;
              cycles = Cost.instr_cycles t.cpu i;
            }
          in
          Hashtbl.replace t.tbl key c;
          c)

let[@inline] bump (c : cell) = Atomic.incr c.count

let[@inline] bump_n (c : cell) n = ignore (Atomic.fetch_and_add c.count n : int)

(* -- Reporting --------------------------------------------------------------- *)

let cells (t : t) : cell list =
  with_lock t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.tbl [])

(** Total instructions executed under profiling — each execution bumps
    exactly one cell, so this is exact. *)
let total (t : t) : int =
  List.fold_left (fun acc c -> acc + Atomic.get c.count) 0 (cells t)

type node_stat = {
  ns_node : int;
  ns_hits : int;  (** instructions executed for this node *)
  ns_cycles : float;  (** estimated cycles (hits weighted by opcode cost) *)
  ns_opcodes : (string * int) list;  (** per-opcode hits, descending *)
}

(** Per-node aggregation, hottest (by estimated cycles) first. *)
let by_node (t : t) : node_stat list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let hits = Atomic.get c.count in
      if hits > 0 then begin
        let hits0, cyc0, ops0 =
          Option.value ~default:(0, 0.0, []) (Hashtbl.find_opt tbl c.node)
        in
        Hashtbl.replace tbl c.node
          ( hits0 + hits,
            cyc0 +. (float_of_int hits *. c.cycles),
            (c.opcode, hits) :: ops0 )
      end)
    (cells t);
  Hashtbl.fold
    (fun node (hits, cycles, ops) acc ->
      {
        ns_node = node;
        ns_hits = hits;
        ns_cycles = cycles;
        ns_opcodes = List.sort (fun (_, a) (_, b) -> compare b a) ops;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.ns_cycles a.ns_cycles)

let node_label n = if n < 0 then "(unattributed)" else Fmt.str "spn.node %d" n

(** [pp_report ~k ppf t] — the top-[k] hottest SPN nodes as a table. *)
let pp_report ?(k = 10) ppf (t : t) =
  let stats = by_node t in
  let tot = total t in
  let tot_cycles =
    List.fold_left (fun acc s -> acc +. s.ns_cycles) 0.0 stats
  in
  Fmt.pf ppf "top %d of %d SPN nodes, %d instructions executed@."
    (min k (List.length stats))
    (List.length stats) tot;
  Fmt.pf ppf "%-16s %10s %12s %7s  %s@." "node" "hits" "est.cycles" "share"
    "opcodes";
  List.iteri
    (fun i s ->
      if i < k then
        let share =
          if tot_cycles > 0.0 then 100.0 *. s.ns_cycles /. tot_cycles else 0.0
        in
        let ops =
          String.concat " "
            (List.filteri (fun i _ -> i < 4)
               (List.map
                  (fun (op, n) -> Fmt.str "%s:%d" op n)
                  s.ns_opcodes))
        in
        Fmt.pf ppf "%-16s %10d %12.0f %6.1f%%  %s@." (node_label s.ns_node)
          s.ns_hits s.ns_cycles share ops)
    stats

(* -- Export ------------------------------------------------------------------- *)

let to_json (t : t) : Spnc_obs.Json.t =
  let stats = by_node t in
  Spnc_obs.Json.Obj
    [
      ("total_instructions", Spnc_obs.Json.Num (float_of_int (total t)));
      ( "nodes",
        Spnc_obs.Json.List
          (List.map
             (fun s ->
               Spnc_obs.Json.Obj
                 [
                   ("node", Spnc_obs.Json.Num (float_of_int s.ns_node));
                   ("hits", Spnc_obs.Json.Num (float_of_int s.ns_hits));
                   ("est_cycles", Spnc_obs.Json.Num s.ns_cycles);
                   ( "opcodes",
                     Spnc_obs.Json.Obj
                       (List.map
                          (fun (op, n) ->
                            (op, Spnc_obs.Json.Num (float_of_int n)))
                          s.ns_opcodes) );
                 ])
             stats) );
    ]

let write_file (t : t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Spnc_obs.Json.to_string_pretty (to_json t)))

(** Merge the per-node totals into the Chrome trace as instant events
    (category "profile"), so hot nodes line up with the execution spans
    in chrome://tracing. *)
let to_trace (t : t) =
  List.iter
    (fun s ->
      Spnc_obs.Trace.instant ~cat:"profile" (node_label s.ns_node)
        ~args:
          [
            ("hits", Spnc_obs.Trace.I s.ns_hits);
            ("est_cycles", Spnc_obs.Trace.F s.ns_cycles);
          ])
    (by_node t)
