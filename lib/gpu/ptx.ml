(** Pseudo-PTX emission and CUBIN assembly (paper §IV-C).

    The real SPNC lowers GPU kernels to NVVM IR, links libdevice,
    compiles to PTX and finally assembles CUBIN through the CUDA API.
    We keep the pipeline shape: {!emit} prints a PTX-like text for every
    [gpu.func]; {!assemble} parses it, sizes each kernel's register file
    from its live intervals and encodes 16 bytes per instruction.  The
    bytes are placeholders — the simulator runs the [gpu.func] IR, and
    only the image's length is read (module-load cost). *)

open Spnc_mlir

(* -- PTX printing ----------------------------------------------------------- *)

type rstate = {
  mutable nf : int;
  mutable nr : int;
  mutable np : int;
  regs : (int, string) Hashtbl.t;
  buf : Buffer.t;
  mutable label : int;
}

let reg st (v : Ir.value) =
  match Hashtbl.find_opt st.regs v.Ir.vid with
  | Some r -> r
  | None ->
      let r =
        match v.Ir.vty with
        | Types.F32 | Types.F64 | Types.Log _ ->
            st.nf <- st.nf + 1;
            Printf.sprintf "%%f%d" st.nf
        | Types.Bool ->
            st.np <- st.np + 1;
            Printf.sprintf "%%p%d" st.np
        | _ ->
            st.nr <- st.nr + 1;
            Printf.sprintf "%%r%d" st.nr
      in
      Hashtbl.replace st.regs v.Ir.vid r;
      r

let emitf st fmt = Printf.ksprintf (fun s -> Buffer.add_string st.buf ("  " ^ s ^ "\n")) fmt

let rec emit_op st (op : Ir.op) =
  let r n = reg st (Ir.operand_n op n) in
  let d () = reg st (Ir.result op) in
  match op.Ir.name with
  | "arith.constant" -> (
      match Ir.attr op "value" with
      | Some (Attr.Float f) -> emitf st "mov.f32 %s, 0f%08lX;" (d ()) (Int32.bits_of_float f)
      | Some (Attr.Int i) -> emitf st "mov.u32 %s, %d;" (d ()) i
      | _ -> ())
  | "arith.addf" -> emitf st "add.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.subf" -> emitf st "sub.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.mulf" -> emitf st "mul.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.divf" -> emitf st "div.rn.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.maxf" -> emitf st "max.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.minf" -> emitf st "min.f32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.addi" -> emitf st "add.s32 %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.muli" -> emitf st "mad.lo.s32 %s, %s, %s, 0;" (d ()) (r 0) (r 1)
  | "arith.andi" -> emitf st "and.pred %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.ori" -> emitf st "or.pred %s, %s, %s;" (d ()) (r 0) (r 1)
  | "arith.cmpf" ->
      let p = Option.value ~default:"olt" (Ir.string_attr op "predicate") in
      let ptx_p =
        match p with
        | "olt" -> "lt" | "ole" -> "le" | "ogt" -> "gt" | "oge" -> "ge"
        | "oeq" -> "eq" | "one" -> "ne" | "uno" -> "nan" | _ -> "lt"
      in
      emitf st "setp.%s.f32 %s, %s, %s;" ptx_p (d ()) (r 0) (r 1)
  | "arith.cmpi" ->
      let p = Option.value ~default:"slt" (Ir.string_attr op "predicate") in
      emitf st "setp.%s.s32 %s, %s, %s;"
        (String.sub p 1 (String.length p - 1))
        (d ()) (r 0) (r 1)
  | "arith.select" -> emitf st "selp.f32 %s, %s, %s, %s;" (d ()) (r 1) (r 2) (r 0)
  | "arith.fptosi" -> emitf st "cvt.rzi.s32.f32 %s, %s;" (d ()) (r 0)
  | "arith.sitofp" -> emitf st "cvt.rn.f32.s32 %s, %s;" (d ()) (r 0)
  | "math.log" -> emitf st "call.uni (%s), __nv_logf, (%s);" (d ()) (r 0)
  | "math.exp" -> emitf st "call.uni (%s), __nv_expf, (%s);" (d ()) (r 0)
  | "math.log1p" -> emitf st "call.uni (%s), __nv_log1pf, (%s);" (d ()) (r 0)
  | "memref.load" -> emitf st "ld.global.f32 %s, [%s+%s];" (d ()) (r 0) (r 1)
  | "memref.store" -> emitf st "st.global.f32 [%s+%s], %s;" (r 0) (r 1) (r 2)
  | "memref.dim" -> emitf st "ld.param.u32 %s, [%s_rows];" (d ()) (r 0)
  | "gpu.thread_id" -> emitf st "mov.u32 %s, %%tid.x;" (d ())
  | "gpu.block_id" -> emitf st "mov.u32 %s, %%ctaid.x;" (d ())
  | "gpu.block_dim" -> emitf st "mov.u32 %s, %%ntid.x;" (d ())
  | "scf.if" ->
      st.label <- st.label + 1;
      let lbl = Printf.sprintf "$L_skip_%d" st.label in
      emitf st "@!%s bra %s;" (reg st (Ir.operand_n op 0)) lbl;
      List.iter (emit_op st) (Ir.single_region_ops op);
      Buffer.add_string st.buf (lbl ^ ":\n")
  | "scf.yield" | "func.return" -> ()
  | other -> emitf st "// unhandled %s" other

(** [emit m] prints all [gpu.func] kernels of [m] as pseudo-PTX. *)
let emit (m : Ir.modul) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ".version 7.2\n.target sm_75\n.address_size 64\n\n";
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = "gpu.func" then begin
        let name = Option.value ~default:"kernel" (Ir.string_attr op "sym_name") in
        let st =
          { nf = 0; nr = 0; np = 0; regs = Hashtbl.create 256; buf; label = 0 }
        in
        let blk = Option.get (Ir.entry_block op) in
        Buffer.add_string buf (Printf.sprintf ".visible .entry %s(" name);
        List.iteri
          (fun i (arg : Ir.value) ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf ".param .u64 %s" (reg st arg)))
          blk.Ir.bargs;
        Buffer.add_string buf ")\n{\n";
        List.iter (emit_op st) blk.Ir.bops;
        Buffer.add_string buf
          (Printf.sprintf "  // regs: f=%d r=%d p=%d\n  ret;\n}\n\n" st.nf st.nr st.np)
      end)
    m.Ir.mops;
  Buffer.contents buf

(* -- CUBIN assembly ------------------------------------------------------------ *)

type cubin = { bytes : bytes; instructions : int; regs_allocated : int }

(* Tokenize a PTX instruction line into opcode + operand registers. *)
let parse_line (line : string) : (string * string list) option =
  let line = String.trim line in
  if line = "" || line.[0] = '.' || line.[0] = '/' || line.[0] = '@'
     || String.contains line ':' || line = "{" || line = "}"
  then None
  else
    match String.index_opt line ' ' with
    | None -> Some (line, [])
    | Some i ->
        let opcode = String.sub line 0 i in
        let rest = String.sub line i (String.length line - i) in
        let operands =
          String.split_on_char ',' rest
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        Some (opcode, operands)

(* Assemble one kernel: register demand is the maximum number of
   simultaneously live PTX registers, by first/last occurrence. *)
let assemble_kernel (lines : string list) : cubin =
  let instrs = List.filter_map parse_line lines |> Array.of_list in
  let n = Array.length instrs in
  (* live intervals by first/last occurrence; maximum overlap via an
     event sweep *)
  let first = Hashtbl.create 256 and last = Hashtbl.create 256 in
  Array.iteri
    (fun i (_, ops) ->
      List.iter
        (fun o ->
          if String.length o > 1 && o.[0] = '%' then begin
            if not (Hashtbl.mem first o) then Hashtbl.replace first o i;
            Hashtbl.replace last o i
          end)
        ops)
    instrs;
  let events = Array.make (n + 2) 0 in
  Hashtbl.iter
    (fun r s ->
      let e = Hashtbl.find last r in
      events.(s) <- events.(s) + 1;
      if e + 1 < Array.length events then events.(e + 1) <- events.(e + 1) - 1)
    first;
  let max_active = ref 0 in
  let cur = ref 0 in
  Array.iter
    (fun d ->
      cur := !cur + d;
      if !cur > !max_active then max_active := !cur)
    events;
  (* encoding: 16 bytes per SASS instruction, hashed from the opcode,
     operands and position *)
  let out = Buffer.create (16 * n) in
  Array.iteri
    (fun i (opcode, ops) ->
      let h1 = Hashtbl.hash (opcode, ops) and h2 = Hashtbl.hash i in
      for k = 0 to 3 do
        Buffer.add_int32_le out (Int32.of_int ((h1 lsr (8 * k)) lxor h2))
      done)
    instrs;
  {
    bytes = Buffer.to_bytes out;
    instructions = n;
    regs_allocated = !max_active;
  }

(** [assemble ptx] assembles every kernel of a PTX module separately
    (ptxas compiles per entry point); the returned [cubin] concatenates
    the per-kernel images. *)
let assemble (ptx : string) : cubin =
  let lines = String.split_on_char '\n' ptx in
  (* split into per-kernel line groups at ".visible .entry" boundaries *)
  let groups = ref [] and current = ref [] in
  List.iter
    (fun line ->
      let is_entry =
        String.length line >= 8 && String.sub line 0 8 = ".visible"
      in
      if is_entry && !current <> [] then begin
        groups := List.rev !current :: !groups;
        current := [ line ]
      end
      else current := line :: !current)
    lines;
  if !current <> [] then groups := List.rev !current :: !groups;
  let kernels = List.rev_map assemble_kernel !groups in
  let total_bytes = Buffer.create 4096 in
  List.iter (fun c -> Buffer.add_bytes total_bytes c.bytes) kernels;
  {
    bytes = Buffer.to_bytes total_bytes;
    instructions = List.fold_left (fun acc c -> acc + c.instructions) 0 kernels;
    regs_allocated =
      List.fold_left (fun acc c -> max acc c.regs_allocated) 0 kernels;
  }
