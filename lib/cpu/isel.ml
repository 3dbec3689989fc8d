(** Instruction selection: cir functions → Lir (paper §IV-B's "translated
    to LLVM IR").

    The translation is deliberately naive — redundant constants, address
    arithmetic and table materializations inside loop bodies are emitted
    as-is.  This is the [-O0] code; {!Optimizer} cleans it up at higher
    levels, reproducing the compile-time/execution-time trade-off of
    Figs. 11/13. *)

open Spnc_mlir

exception Unsupported of string

let fail fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type cls = CF | CI | CV | CB

let class_of_type (t : Types.t) : cls =
  match t with
  | Types.F32 | Types.F64 | Types.Log _ -> CF
  | Types.Index | Types.Bool | Types.Int _ -> CI
  | Types.Vector (_, Types.Bool) -> CV  (* predicate masks live in V *)
  | Types.Vector _ -> CV
  | Types.MemRef _ | Types.Tensor _ -> CB
  | t -> fail "isel: no register class for type %s" (Types.to_string t)

(* A growable array; [push] appends and returns the new element's index. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf x = { data = Array.make 64 x; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) x in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1;
  b.len - 1

let contents b = Array.sub b.data 0 b.len

(* Registers are minted densely per class and value ids are dense per
   module, so all per-register and per-value state is arrays. *)
type st = {
  (* per class, the provenance of each minted register (from the defining
     cir op); the class's register count is the buffer's length *)
  lf : Loc.t buf;
  li : Loc.t buf;
  lv : Loc.t buf;
  lb : Loc.t buf;
  iconst : int option buf;  (** per int register, its value if constant *)
  mutable vid_reg : int array;  (** cir value id -> register, valid ... *)
  mutable vid_func : int array;  (** ... when this equals [func] *)
  mutable func : int;  (** number of the function being selected *)
  func_index : (string, int) Hashtbl.t;
  mutable max_vec_width : int;
  mutable cur_loc : Loc.t;  (** location of the op being selected *)
}

let fresh st (c : cls) : Lir.reg =
  match c with
  | CF -> push st.lf st.cur_loc
  | CI ->
      ignore (push st.iconst None);
      push st.li st.cur_loc
  | CV -> push st.lv st.cur_loc
  | CB -> push st.lb st.cur_loc

let reg_of st (v : Ir.value) : Lir.reg =
  let id = v.Ir.vid in
  if id >= 0 && id < Array.length st.vid_func && st.vid_func.(id) = st.func
  then st.vid_reg.(id)
  else fail "isel: value %%%d has no register" id

let def st (v : Ir.value) : Lir.reg =
  let r = fresh st (class_of_type v.Ir.vty) in
  let id = v.Ir.vid in
  let n = Array.length st.vid_reg in
  if id >= n then begin
    let grow a x =
      let a' = Array.make (max (id + 1) (2 * n)) x in
      Array.blit a 0 a' 0 n;
      a'
    in
    st.vid_reg <- grow st.vid_reg 0;
    st.vid_func <- grow st.vid_func (-1)
  end;
  st.vid_reg.(id) <- r;
  st.vid_func.(id) <- st.func;
  r

let is_vec (v : Ir.value) = match v.Ir.vty with Types.Vector _ -> true | _ -> false

let fbin_of = function
  | "arith.addf" -> Lir.FAdd
  | "arith.subf" -> Lir.FSub
  | "arith.mulf" -> Lir.FMul
  | "arith.divf" -> Lir.FDiv
  | "arith.maxf" -> Lir.FMax
  | "arith.minf" -> Lir.FMin
  | n -> fail "isel: not a float binop: %s" n

let pred_of = function
  | "olt" -> Lir.Olt
  | "ole" -> Lir.Ole
  | "ogt" -> Lir.Ogt
  | "oge" -> Lir.Oge
  | "oeq" -> Lir.Oeq
  | "one" -> Lir.One
  | "uno" -> Lir.Uno
  | p -> fail "isel: unknown predicate %s" p

let mathfn_of = function
  | "math.log" -> Lir.MLog
  | "math.exp" -> Lir.MExp
  | "math.log1p" -> Lir.MLog1p
  | n -> fail "isel: unknown math fn %s" n

(* [scf.yield] selects to nothing, every other op to one instruction. *)
let rec sel_ops st (ops : Ir.op list) : Lir.instr array =
  let out = buf Lir.Ret in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name <> "scf.yield" then ignore (push out (sel_op st op)))
    ops;
  contents out

and sel_op st (op : Ir.op) : Lir.instr =
  st.cur_loc <- op.Ir.loc;
  let o n = Ir.operand_n op n in
  let r0 () = Ir.result op in
  match op.Ir.name with
  | "arith.constant" -> (
      let res = r0 () in
      match (Ir.attr op "value", res.Ir.vty) with
      | Some (Attr.Float f), Types.Vector _ -> Lir.VConst (def st res, f)
      | Some (Attr.Float f), _ -> Lir.ConstF (def st res, f)
      | Some (Attr.Int i), Types.Vector _ ->
          Lir.VConst (def st res, float_of_int i)
      | Some (Attr.Int i), (Types.Index | Types.Int _ | Types.Bool) ->
          let r = def st res in
          st.iconst.data.(r) <- Some i;
          Lir.ConstI (r, i)
      | Some (Attr.Int i), _ -> Lir.ConstF (def st res, float_of_int i)
      | _ -> fail "isel: bad constant")
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      let fb = fbin_of op.Ir.name in
      let a = reg_of st (o 0) and b = reg_of st (o 1) in
      if is_vec (r0 ()) then Lir.VBin (fb, def st (r0 ()), a, b)
      else Lir.FBin (fb, def st (r0 ()), a, b)
  | "arith.addi" ->
      Lir.IBin (Lir.IAdd, def st (r0 ()), reg_of st (o 0), reg_of st (o 1))
  | "arith.muli" ->
      Lir.IBin (Lir.IMul, def st (r0 ()), reg_of st (o 0), reg_of st (o 1))
  | "arith.andi" ->
      let a = reg_of st (o 0) and b = reg_of st (o 1) in
      if is_vec (r0 ()) || is_vec (o 0) then
        (* 0/1 masks: conjunction is lane-wise multiplication *)
        Lir.VBin (Lir.FMul, def st (r0 ()), a, b)
      else Lir.IBin (Lir.IAnd, def st (r0 ()), a, b)
  | "arith.ori" ->
      let a = reg_of st (o 0) and b = reg_of st (o 1) in
      if is_vec (r0 ()) || is_vec (o 0) then
        Lir.VBin (Lir.FMax, def st (r0 ()), a, b)
      else Lir.IBin (Lir.IOr, def st (r0 ()), a, b)
  | "arith.cmpf" ->
      let pred = pred_of (Option.value ~default:"olt" (Ir.string_attr op "predicate")) in
      let a = reg_of st (o 0) and b = reg_of st (o 1) in
      if is_vec (o 0) || is_vec (o 1) then
        Lir.VCmp (pred, def st (r0 ()), a, b)
      else Lir.FCmp (pred, def st (r0 ()), a, b)
  | "arith.select" -> (
      let c = reg_of st (o 0) and t = reg_of st (o 1) and f = reg_of st (o 2) in
      let res = r0 () in
      match class_of_type res.Ir.vty with
      | CV -> Lir.VSel (def st res, c, t, f)
      | CF -> Lir.SelF (def st res, c, t, f)
      | CI -> Lir.SelI (def st res, c, t, f)
      | CB -> fail "isel: select on buffers")
  | "arith.fptosi" ->
      if is_vec (r0 ()) then Lir.VFloor (def st (r0 ()), reg_of st (o 0))
      else Lir.FtoI (def st (r0 ()), reg_of st (o 0))
  | "arith.sitofp" -> Lir.ItoF (def st (r0 ()), reg_of st (o 0))
  | "math.log" | "math.exp" | "math.log1p" ->
      let fn = mathfn_of op.Ir.name in
      let src = reg_of st (o 0) in
      if is_vec (r0 ()) then begin
        if Ir.bool_attr op "veclib" <> Some true then
          fail "isel: vector math without veclib must be scalarized earlier";
        Lir.VCall1 (fn, def st (r0 ()), src)
      end
      else Lir.Call1 (fn, def st (r0 ()), src)
  | "memref.load" ->
      Lir.Load (def st (r0 ()), reg_of st (o 0), reg_of st (o 1))
  | "memref.store" ->
      Lir.Store (reg_of st (o 0), reg_of st (o 1), reg_of st (o 2))
  | "memref.dim" -> Lir.Dim (def st (r0 ()), reg_of st (o 0))
  | "memref.alloc" -> (
      let res = r0 () in
      let cols =
        match res.Ir.vty with
        | Types.MemRef (dims, _) ->
            List.fold_left
              (fun acc d -> match d with Some n -> acc * n | None -> acc)
              1 dims
        | _ -> 1
      in
      Lir.AllocBuf (def st res, reg_of st (o 0), cols))
  | "memref.dealloc" -> Lir.DeallocBuf (reg_of st (o 0))
  | "memref.copy" -> Lir.CopyBuf (reg_of st (o 0), reg_of st (o 1))
  | "memref.global_table" -> (
      match Ir.dense_attr op "values" with
      | Some values -> Lir.TableConst (def st (r0 ()), values)
      | None -> fail "isel: global_table without values")
  | "vector.load" ->
      Lir.VLoad (def st (r0 ()), reg_of st (o 0), reg_of st (o 1))
  | "vector.store" ->
      Lir.VStore (reg_of st (o 0), reg_of st (o 1), reg_of st (o 2))
  | "vector.gather" ->
      let stride = Option.value ~default:1 (Ir.int_attr op "stride") in
      Lir.VGather (def st (r0 ()), reg_of st (o 0), reg_of st (o 1), stride)
  | "vector.shuffled_load" ->
      let stride = Option.value ~default:1 (Ir.int_attr op "stride") in
      let loads = Option.value ~default:1.0 (Ir.float_attr op "loads") in
      let shuffles = Option.value ~default:1.0 (Ir.float_attr op "shuffles") in
      Lir.VShufLoad
        (def st (r0 ()), reg_of st (o 0), reg_of st (o 1), stride, loads, shuffles)
  | "vector.gather_indexed" ->
      Lir.VGatherIdx (def st (r0 ()), reg_of st (o 0), reg_of st (o 1))
  | "vector.extract" ->
      let lane = Option.value ~default:0 (Ir.int_attr op "lane") in
      Lir.VExtract (def st (r0 ()), reg_of st (o 0), lane)
  | "vector.insert" ->
      let lane = Option.value ~default:0 (Ir.int_attr op "lane") in
      Lir.VInsert (def st (r0 ()), reg_of st (o 0), reg_of st (o 1), lane)
  | "vector.broadcast" -> Lir.VBroadcast (def st (r0 ()), reg_of st (o 0))
  | "scf.for" ->
      let lb = reg_of st (o 0) and ub = reg_of st (o 1) in
      let step =
        match st.iconst.data.(reg_of st (o 2)) with
        | Some s -> s
        | None -> fail "isel: scf.for step must be a constant"
      in
      let blk = Option.get (Ir.entry_block op) in
      let iv = def st (List.hd blk.Ir.bargs) in
      (* detect the vector width used inside *)
      let width = ref 1 in
      List.iter
        (fun (o : Ir.op) ->
          Ir.walk_ops
            (fun inner ->
              List.iter
                (fun (r : Ir.value) ->
                  match r.Ir.vty with
                  | Types.Vector (w, _) -> if w > !width then width := w
                  | _ -> ())
                inner.Ir.results)
            o)
        blk.Ir.bops;
      if !width > st.max_vec_width then st.max_vec_width <- !width;
      let body = sel_ops st blk.Ir.bops in
      Lir.Loop { iv; lb; ub; step; body; vector_width = !width }
  | "func.call" -> (
      let callee = Option.get (Ir.string_attr op "callee") in
      match Hashtbl.find_opt st.func_index callee with
      | Some idx ->
          Lir.CallFn (idx, List.map (fun v -> reg_of st v) op.Ir.operands)
      | None -> fail "isel: unknown callee %s" callee)
  | "func.return" -> Lir.Ret
  | other -> fail "isel: unsupported cir op %s" other

let sel_func st (f : Ir.op) : Lir.func =
  List.iter (fun b -> b.len <- 0) [ st.lf; st.li; st.lv; st.lb ];
  st.iconst.len <- 0;
  st.func <- st.func + 1;
  st.cur_loc <- Loc.Unknown;
  st.max_vec_width <- 1;
  let blk = Option.get (Ir.entry_block f) in
  let params = List.map (def st) blk.Ir.bargs in
  let body = sel_ops st blk.Ir.bops in
  {
    Lir.fname = Option.value ~default:"?" (Ir.string_attr f "sym_name");
    params;
    body;
    nf = st.lf.len;
    ni = st.li.len;
    nv = st.lv.len;
    nb = st.lb.len;
    vec_width = st.max_vec_width;
    prov =
      {
        Lir.pf = contents st.lf;
        pi = contents st.li;
        pv = contents st.lv;
        pb = contents st.lb;
      };
  }

(** [run m ~entry] selects instructions for every [func.func] of a cir
    module; [entry] names the kernel entry function. *)
let run (m : Ir.modul) ~entry : Lir.modul =
  let funcs =
    List.filter (fun (o : Ir.op) -> o.Ir.name = "func.func") m.Ir.mops
  in
  let func_index = Hashtbl.create 8 in
  List.iteri
    (fun i (f : Ir.op) ->
      match Ir.string_attr f "sym_name" with
      | Some n -> Hashtbl.replace func_index n i
      | None -> ())
    funcs;
  let st =
    {
      lf = buf Loc.Unknown;
      li = buf Loc.Unknown;
      lv = buf Loc.Unknown;
      lb = buf Loc.Unknown;
      iconst = buf None;
      vid_reg = [||];
      vid_func = [||];
      func = 0;
      func_index;
      max_vec_width = 1;
      cur_loc = Loc.Unknown;
    }
  in
  let lfuncs = Array.of_list (List.map (sel_func st) funcs) in
  let entry_idx =
    match Hashtbl.find_opt func_index entry with
    | Some i -> i
    | None -> fail "isel: entry %s not found" entry
  in
  { Lir.funcs = lfuncs; entry = entry_idx }
