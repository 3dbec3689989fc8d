(** Instruction selection: cir ops → Lir (paper §IV-B's "translated to
    LLVM IR").

    The selector takes one cir op at a time between four structural
    points: a function starts (with its block arguments), a loop starts
    (with its induction variable), the loop ends (with its bounds and
    step), the function ends.  On the compile path {!Lower_cpu.isel}
    calls them as it emits, so each op is garbage as soon as it is
    selected and no cir module exists between the two stages; {!finish}
    then closes the functions.

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

(* A growable array in chunks small enough for the minor heap, so that
   growing it copies nothing and leaves no large array behind.  A chunk's
   fill is fixed when the buffer is made, never a pushed value (a young
   fill would tie the chunk to the minor heap).  [len] is one past the
   highest index set. *)
type 'a buf = { mutable chunks : 'a array array; mutable len : int; fill : 'a }

let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let buf fill = { chunks = [||]; len = 0; fill }

(* [get b i] — [fill] where nothing was set, including chunks skipped
   over by [set] *)
let get b i =
  if i >= b.len then b.fill
  else
    let c = b.chunks.(i lsr chunk_bits) in
    if c == [||] then b.fill else c.(i land (chunk - 1))

let set b i x =
  let c = i lsr chunk_bits in
  let n = Array.length b.chunks in
  if c >= n then begin
    let spine = Array.make (max (c + 1) (2 * n)) [||] in
    Array.blit b.chunks 0 spine 0 n;
    b.chunks <- spine
  end;
  if b.chunks.(c) == [||] then b.chunks.(c) <- Array.make chunk b.fill;
  b.chunks.(c).(i land (chunk - 1)) <- x;
  if i >= b.len then b.len <- i + 1

(* [push b x] appends [x] and returns its index. *)
let push b x =
  let i = b.len in
  set b i x;
  i

(* [sub b pos n] — elements [pos .. pos + n) as one array, the only one
   of its size the buffer allocates. *)
let sub b pos n =
  let a = Array.make n b.fill in
  let i = ref 0 in
  while !i < n do
    let p = pos + !i in
    let k = min (n - !i) (chunk - (p land (chunk - 1))) in
    Array.blit b.chunks.(p lsr chunk_bits) (p land (chunk - 1)) a !i k;
    i := !i + k
  done;
  a

(* A function of the selection: registers are minted densely per class
   and numbered from 0 in each function; its registers' provenance and
   its top-level instructions sit in the selection's shared buffers from
   the offsets below, until {!finish} closes it. *)
type fn = {
  name : string;
  mutable params : Lir.reg list;
  code0 : int;  (** its top-level body is [code.(code0 .. code0 + ncode)] *)
  mutable ncode : int;
  f0 : int;  (** its float registers' provenance is [lf.(f0 .. f0 + nf)] *)
  i0 : int;
  v0 : int;
  b0 : int;
  mutable nf : int;
  mutable ni : int;
  mutable nv : int;
  mutable nb : int;
  mutable vec_width : int;  (** the widest of its loops' vector widths *)
}

(* An open loop: its body is [code.(code0 ..)] until it ends. *)
type loop = { iv : Lir.reg; code0 : int; mutable width : int }

(* Value ids are dense in the order the walk mints them, so the value ->
   register map is a buffer indexed from the first value defined. *)
type t = {
  lf : Loc.t buf;
  li : Loc.t buf;
  lv : Loc.t buf;
  lb : Loc.t buf;
  iconst : int option buf;  (** per int register ([li]'s index), its value if constant *)
  code : Lir.instr buf;
      (** ended functions' top-level bodies, then the open function's,
          then each open loop's body *)
  mutable vid0 : int;  (** value id of [vids]'s index 0 *)
  vids : int buf;
      (** value id - [vid0] -> [(func lsl 32) lor register], valid when
          [func] is the open function's *)
  mutable func : int;  (** number of the open or last function *)
  mutable fn : fn;  (** the open function *)
  mutable loops : loop list;  (** open loops, innermost first *)
  mutable ended : fn list;  (** ended functions, last first *)
  func_index : (string, int) Hashtbl.t;
  mutable cur_loc : Loc.t;  (** location of the op being selected *)
}

let no_fn =
  {
    name = "";
    params = [];
    code0 = 0;
    ncode = 0;
    f0 = 0;
    i0 = 0;
    v0 = 0;
    b0 = 0;
    nf = 0;
    ni = 0;
    nv = 0;
    nb = 0;
    vec_width = 1;
  }

let create () =
  {
    lf = buf Loc.Unknown;
    li = buf Loc.Unknown;
    lv = buf Loc.Unknown;
    lb = buf Loc.Unknown;
    iconst = buf None;
    code = buf Lir.Ret;
    vid0 = 0;
    vids = buf (-1);
    func = 0;
    fn = no_fn;
    loops = [];
    ended = [];
    func_index = Hashtbl.create 8;
    cur_loc = Loc.Unknown;
  }

let fresh st (c : cls) : Lir.reg =
  match c with
  | CF -> push st.lf st.cur_loc - st.fn.f0
  | CI ->
      ignore (push st.iconst None);
      push st.li st.cur_loc - st.fn.i0
  | CV -> push st.lv st.cur_loc - st.fn.v0
  | CB -> push st.lb st.cur_loc - st.fn.b0

let reg_of st (v : Ir.value) : Lir.reg =
  let x = if v.Ir.vid < st.vid0 then -1 else get st.vids (v.Ir.vid - st.vid0) in
  if x lsr 32 = st.func then x land 0xffff_ffff
  else fail "isel: value %%%d has no register" v.Ir.vid

let def st (v : Ir.value) : Lir.reg =
  let cls = class_of_type v.Ir.vty in
  (match (v.Ir.vty, st.loops) with
  | Types.Vector (w, _), l :: _ -> if w > l.width then l.width <- w
  | _ -> ());
  let r = fresh st cls in
  (* the first value defined starts the map: the walk mints the first
     function's arguments first *)
  if st.vids.len = 0 then st.vid0 <- v.Ir.vid
  else if v.Ir.vid < st.vid0 then
    fail "isel: value %%%d precedes the first value defined" v.Ir.vid;
  set st.vids (v.Ir.vid - st.vid0) ((st.func lsl 32) lor r);
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

(* Every cir op but the structural ones selects to one instruction. *)
let sel_op st (op : Ir.op) : Lir.instr =
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
          set st.iconst (st.fn.i0 + r) (Some i);
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
  | "func.call" -> (
      let callee = Option.get (Ir.string_attr op "callee") in
      match Hashtbl.find_opt st.func_index callee with
      | Some idx ->
          Lir.CallFn (idx, List.map (fun v -> reg_of st v) op.Ir.operands)
      | None -> fail "isel: unknown callee %s" callee)
  | "func.return" -> Lir.Ret
  | other -> fail "isel: unsupported cir op %s" other

(* -- The selector's entry points ------------------------------------------- *)

let func_start st name (args : Ir.value list) =
  if st.fn != no_fn then fail "isel: function %s starts inside %s" name st.fn.name;
  (* functions are numbered from 1, in order; their index is one less *)
  Hashtbl.replace st.func_index name st.func;
  st.func <- st.func + 1;
  st.fn <-
    {
      no_fn with
      name;
      code0 = st.code.len;
      f0 = st.lf.len;
      i0 = st.li.len;
      v0 = st.lv.len;
      b0 = st.lb.len;
    };
  st.cur_loc <- Loc.Unknown;
  st.fn.params <- List.map (def st) args

let op st loc (op : Ir.op) =
  if op.Ir.name <> "scf.yield" then begin
    st.cur_loc <- loc;
    ignore (push st.code (sel_op st op))
  end

let loop_start st (iv : Ir.value) =
  if st.fn == no_fn then fail "isel: loop outside a function";
  st.cur_loc <- Loc.Unknown;
  let iv = def st iv in
  st.loops <- { iv; code0 = st.code.len; width = 1 } :: st.loops

let loop_end st ~lb ~ub ~step =
  match st.loops with
  | [] -> fail "isel: loop end outside a loop"
  | l :: outer ->
      let lb = reg_of st lb and ub = reg_of st ub in
      let step =
        match class_of_type step.Ir.vty with
        | CI -> (
            match get st.iconst (st.fn.i0 + reg_of st step) with
            | Some s -> s
            | None -> fail "isel: scf.for step must be a constant")
        | _ -> fail "isel: scf.for step must be a constant"
      in
      let body = sub st.code l.code0 (st.code.len - l.code0) in
      st.code.len <- l.code0;
      st.loops <- outer;
      (match outer with o :: _ -> if l.width > o.width then o.width <- l.width | [] -> ());
      if l.width > st.fn.vec_width then st.fn.vec_width <- l.width;
      ignore
        (push st.code
           (Lir.Loop { iv = l.iv; lb; ub; step; body; vector_width = l.width }))

let func_end st =
  let f = st.fn in
  if f == no_fn || st.loops <> [] then fail "isel: function end without its start";
  f.ncode <- st.code.len - f.code0;
  f.nf <- st.lf.len - f.f0;
  f.ni <- st.li.len - f.i0;
  f.nv <- st.lv.len - f.v0;
  f.nb <- st.lb.len - f.b0;
  st.ended <- f :: st.ended;
  st.fn <- no_fn

let close st (f : fn) : Lir.func =
  {
    Lir.fname = f.name;
    params = f.params;
    body = sub st.code f.code0 f.ncode;
    nf = f.nf;
    ni = f.ni;
    nv = f.nv;
    nb = f.nb;
    vec_width = f.vec_width;
    prov =
      {
        Lir.pf = sub st.lf f.f0 f.nf;
        pi = sub st.li f.i0 f.ni;
        pv = sub st.lv f.v0 f.nv;
        pb = sub st.lb f.b0 f.nb;
      };
  }

let finish st ~entry : Lir.modul =
  if st.fn != no_fn then fail "isel: function %s never ended" st.fn.name;
  let funcs = Array.of_list (List.rev_map (close st) st.ended) in
  match Hashtbl.find_opt st.func_index entry with
  | Some entry -> { Lir.funcs; entry }
  | None -> fail "isel: entry %s not found" entry
