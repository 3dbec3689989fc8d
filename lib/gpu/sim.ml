(** Functional + timing simulator for the GPU target.

    Functional part: executes the host function with real buffers; each
    [gpu.launch_func] runs the kernel body for {e every} thread of every
    block through the cir interpreter (the grid intrinsics are bound per
    thread), so correctness of the whole GPU path — select cascades,
    bounds guards, copy schedule after {!Copy_opt} — is checked exactly.

    Timing part: an analytic SM/occupancy/PCIe model of the RTX-class
    device descriptions in {!Spnc_machine.Machine}, applied to the actual
    operation stream: transfer times from real buffer sizes, kernel times
    from the per-thread instruction cost and an occupancy model in which
    high per-thread register demand limits resident blocks — which is why
    small block sizes win in the paper's sweep (§V-A.1).  The ledger
    separates transfer from compute time, producing Fig. 9. *)

open Spnc_mlir
module CI = Spnc_cir.Interp
module M = Spnc_machine.Machine
module Obs_trace = Spnc_obs.Trace
module Obs_metrics = Spnc_obs.Metrics

(* Host-op observability: spans carry the modelled seconds as args (the
   span duration itself is simulator wall time, which is meaningless as
   a GPU measurement), counters mirror the ledger's traffic. *)
let m_bytes_h2d = Obs_metrics.counter "gpu.bytes_h2d"
let m_bytes_d2h = Obs_metrics.counter "gpu.bytes_d2h"
let m_launches = Obs_metrics.counter "gpu.launches"
let m_stream_chunks = Obs_metrics.counter "gpu.stream_chunks"

type ledger = {
  mutable h2d_s : float;
  mutable d2h_s : float;
  mutable kernel_s : float;
  mutable launch_s : float;
  mutable alloc_s : float;
  mutable overlap_s : float;
      (** time hidden by stream-pipelined transfer/compute overlap;
          0 for monolithic schedules *)
}

let empty_ledger () =
  {
    h2d_s = 0.0;
    d2h_s = 0.0;
    kernel_s = 0.0;
    launch_s = 0.0;
    alloc_s = 0.0;
    overlap_s = 0.0;
  }

(* What the schedule would cost with every component serialized — the
   denominator of [transfer_fraction], which characterizes the workload
   independently of how well a given stream count hides it. *)
let serial_seconds l =
  l.h2d_s +. l.d2h_s +. l.kernel_s +. l.launch_s +. l.alloc_s

let total_seconds l = serial_seconds l -. l.overlap_s

let transfer_fraction l =
  let t = serial_seconds l in
  if t <= 0.0 then 0.0 else (l.h2d_s +. l.d2h_s) /. t

let pp_ledger ppf l =
  Fmt.pf ppf
    "h2d %.6fs d2h %.6fs kernel %.6fs launch %.6fs alloc %.6fs overlap %.6fs \
     (transfers %.1f%%)"
    l.h2d_s l.d2h_s l.kernel_s l.launch_s l.alloc_s l.overlap_s
    (100.0 *. transfer_fraction l)

(* -- Per-thread kernel cost --------------------------------------------------- *)

let rec op_cycles (g : M.gpu) (op : Ir.op) : float =
  let nested =
    List.fold_left
      (fun acc (r : Ir.region) ->
        List.fold_left
          (fun acc (b : Ir.block) ->
            List.fold_left (fun acc o -> acc +. op_cycles g o) acc b.Ir.bops)
          acc r.Ir.blocks)
      0.0 op.Ir.regions
  in
  nested
  +.
  match op.Ir.name with
  | "arith.constant" -> 0.25
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.maxf" | "arith.minf" ->
      g.M.gpu_flop_cost
  | "arith.divf" -> 4.0 *. g.M.gpu_flop_cost
  | "math.log" | "math.exp" | "math.log1p" -> g.M.gpu_special_cost
  | "arith.select" -> g.M.gpu_select_cost
  | "arith.cmpf" | "arith.cmpi" | "arith.andi" | "arith.ori" -> 1.0
  | "arith.addi" | "arith.muli" -> 0.5
  | "arith.fptosi" | "arith.sitofp" -> 1.0
  | "memref.load" -> g.M.gpu_load_cost
  | "memref.store" -> g.M.gpu_store_cost
  | "memref.dim" -> 0.5
  | "gpu.thread_id" | "gpu.block_id" | "gpu.block_dim" -> 0.5
  | "scf.if" -> 1.0  (* predicated execution *)
  | "func.return" | "scf.yield" -> 0.0
  | _ -> 1.0

let kernel_thread_cycles (g : M.gpu) (kernel : Ir.op) : float =
  List.fold_left
    (fun acc o -> acc +. op_cycles g o)
    0.0
    (Ir.single_region_ops kernel)

(* Register demand estimate: base machine state plus live SPN values.  A
   Turing SM has a 64k-register file; blocks whose threads need too many
   registers limit occupancy. *)
let regs_per_thread (kernel : Ir.op) : int =
  let body_ops =
    List.fold_left
      (fun acc (o : Ir.op) ->
        acc + 1 + List.length (Ir.single_region_ops o))
      0
      (Ir.single_region_ops kernel)
  in
  min 255 (24 + (body_ops / 40))

(** [kernel_seconds g kernel ~rows ~block_size] — one launch. *)
let kernel_seconds (g : M.gpu) (kernel : Ir.op) ~rows ~block_size : float =
  let per_thread = kernel_thread_cycles g kernel in
  let blocks = (rows + block_size - 1) / block_size in
  let total_threads = blocks * block_size in
  let regs = regs_per_thread kernel in
  let reg_limit_threads = 65536 / regs in
  let resident_blocks =
    min (min 16 (reg_limit_threads / block_size)) (g.M.max_threads_per_sm / block_size)
  in
  let spill_factor, resident_blocks =
    if resident_blocks = 0 then
      (* a single block does not fit in the register file: spill *)
      (float_of_int (regs * block_size) /. 65536.0, 1)
    else (1.0, resident_blocks)
  in
  let resident_warps = resident_blocks * block_size / g.M.warp_size in
  (* ~2 resident warps per SM already hide most latency here *)
  let efficiency = Float.min 1.0 (float_of_int resident_warps /. 2.0) /. spill_factor in
  (* 64 FP32 lanes per SM; small grids cannot use every SM.  Dual-issue
     and instruction-level parallelism hide about half the latency of the
     straight-line SPN code. *)
  let lanes = float_of_int (min blocks g.M.sm_count * 64) in
  let ilp = 2.0 in
  let cycles = per_thread *. float_of_int total_threads /. lanes /. ilp in
  let block_sched =
    float_of_int blocks *. 300.0 /. float_of_int g.M.sm_count
    (* block dispatch cost in cycles *)
  in
  M.gpu_cycles_to_seconds g ((cycles /. efficiency) +. block_sched)

let transfer_seconds (g : M.gpu) ~bytes =
  (g.M.transfer_latency_us *. 1e-6)
  +. (float_of_int bytes /. (g.M.pcie_gb_per_s *. 1e9))

(* -- Execution ------------------------------------------------------------------- *)

exception Gpu_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Gpu_error s)) fmt

(* Execute a kernel body for one thread. *)
let exec_thread (ctx : CI.ctx) (kernel : Ir.op) ~args ~block ~thread ~block_size =
  let blk = Option.get (Ir.entry_block kernel) in
  List.iter2 (fun (barg : Ir.value) v -> CI.set ctx barg v) blk.Ir.bargs args;
  List.iter
    (fun (op : Ir.op) ->
      match op.Ir.name with
      | "gpu.thread_id" -> CI.set ctx (Ir.result op) (CI.I thread)
      | "gpu.block_id" -> CI.set ctx (Ir.result op) (CI.I block)
      | "gpu.block_dim" -> CI.set ctx (Ir.result op) (CI.I block_size)
      | _ -> CI.exec_op ctx op)
    blk.Ir.bops

type result = {
  ledger : ledger;
  output : float array;  (** contents of the last host parameter *)
}

(** [run m ~gpu ~entry ~inputs ~rows ~out_cols ()] executes the host
    function functionally and returns the output buffer plus the timing
    ledger (timing is modelled, execution is exact). *)
let run (m : Ir.modul) ~(gpu : M.gpu) ~entry ~(inputs : float array list)
    ~rows ~out_cols () : result =
  let kernels = Hashtbl.create 8 in
  let hosts = Hashtbl.create 8 in
  List.iter
    (fun (op : Ir.op) ->
      match (op.Ir.name, Ir.string_attr op "sym_name") with
      | "gpu.func", Some n -> Hashtbl.replace kernels n op
      | "func.func", Some n -> Hashtbl.replace hosts n op
      | _ -> ())
    m.Ir.mops;
  let host =
    match Hashtbl.find_opt hosts entry with
    | Some h -> h
    | None -> fail "host function %S not found" entry
  in
  let blk = Option.get (Ir.entry_block host) in
  let ledger = empty_ledger () in
  let ctx = { CI.funcs = Hashtbl.create 4; values = Hashtbl.create 1024 } in
  (* bind host parameters *)
  let cols_of (v : Ir.value) =
    match v.Ir.vty with
    | Types.MemRef ([ _; Some c ], _) -> c
    | Types.MemRef ([ Some c; _ ], _) -> c
    | _ -> 1
  in
  let out_buf = ref [||] in
  let rec bind args ins =
    match (args, ins) with
    | [ out_arg ], [] ->
        let data = Array.make (rows * out_cols) 0.0 in
        out_buf := data;
        CI.set ctx out_arg (CI.Buf { CI.data; rows; cols = cols_of out_arg })
    | arg :: rest, data :: more ->
        CI.set ctx arg (CI.Buf { CI.data; rows; cols = cols_of arg });
        bind rest more
    | _ -> fail "host arity mismatch"
  in
  bind blk.Ir.bargs inputs;
  let buf v =
    match CI.lookup ctx v with CI.Buf b -> b | _ -> fail "expected buffer"
  in
  let bytes_of (b : CI.buffer) = 4 * Array.length b.CI.data in
  List.iter
    (fun (op : Ir.op) ->
      match op.Ir.name with
      | "memref.dim" | "memref.alloc" | "memref.dealloc" | "memref.copy" ->
          CI.exec_op ctx op
      | "gpu.alloc" ->
          ledger.alloc_s <- ledger.alloc_s +. 0.3e-6;
          let res = Ir.result op in
          let cols = cols_of res in
          CI.set ctx res
            (CI.Buf { CI.data = Array.make (rows * cols) 0.0; rows; cols })
      | "gpu.dealloc" -> ledger.alloc_s <- ledger.alloc_s +. 0.1e-6
      | "gpu.memcpy_h2d" ->
          let src = buf (Ir.operand_n op 0) and dst = buf (Ir.operand_n op 1) in
          let bytes = bytes_of src in
          let modelled = transfer_seconds gpu ~bytes in
          Obs_metrics.counter_incr ~by:bytes m_bytes_h2d;
          Obs_trace.with_span ~cat:"gpu" "upload"
            ~args:(fun () ->
              Obs_trace.[ ("bytes", I bytes); ("modelled_s", F modelled) ])
            (fun () ->
              Array.blit src.CI.data 0 dst.CI.data 0 (Array.length src.CI.data));
          ledger.h2d_s <- ledger.h2d_s +. modelled
      | "gpu.memcpy_d2h" ->
          let src = buf (Ir.operand_n op 0) and dst = buf (Ir.operand_n op 1) in
          let bytes = bytes_of src in
          let modelled = transfer_seconds gpu ~bytes in
          Obs_metrics.counter_incr ~by:bytes m_bytes_d2h;
          Obs_trace.with_span ~cat:"gpu" "download"
            ~args:(fun () ->
              Obs_trace.[ ("bytes", I bytes); ("modelled_s", F modelled) ])
            (fun () ->
              Array.blit src.CI.data 0 dst.CI.data 0 (Array.length src.CI.data));
          ledger.d2h_s <- ledger.d2h_s +. modelled
      | "gpu.launch_func" ->
          let kname = Option.get (Ir.string_attr op "kernel") in
          let kernel =
            match Hashtbl.find_opt kernels kname with
            | Some k -> k
            | None -> fail "kernel %S not found" kname
          in
          let block_size = Option.get (Ir.int_attr op "blockSize") in
          let blocks = (rows + block_size - 1) / block_size in
          let args = List.map (CI.lookup ctx) op.Ir.operands in
          let modelled = kernel_seconds gpu kernel ~rows ~block_size in
          Obs_metrics.counter_incr m_launches;
          Obs_trace.with_span ~cat:"gpu" "compute"
            ~args:(fun () ->
              Obs_trace.
                [
                  ("kernel", S kname);
                  ("rows", I rows);
                  ("block_size", I block_size);
                  ("modelled_s", F modelled);
                ])
            (fun () ->
              for b = 0 to blocks - 1 do
                for t = 0 to block_size - 1 do
                  exec_thread ctx kernel ~args ~block:b ~thread:t ~block_size
                done
              done);
          ledger.launch_s <- ledger.launch_s +. (gpu.M.kernel_launch_us *. 1e-6);
          ledger.kernel_s <- ledger.kernel_s +. modelled
      | "func.return" -> ()
      | other -> fail "gpu sim: unsupported host op %s" other)
    blk.Ir.bops;
  { ledger; output = !out_buf }

let scale_ledger l k =
  {
    h2d_s = l.h2d_s *. k;
    d2h_s = l.d2h_s *. k;
    kernel_s = l.kernel_s *. k;
    launch_s = l.launch_s *. k;
    alloc_s = l.alloc_s *. k;
    overlap_s = l.overlap_s *. k;
  }

let add_ledger a b =
  {
    h2d_s = a.h2d_s +. b.h2d_s;
    d2h_s = a.d2h_s +. b.d2h_s;
    kernel_s = a.kernel_s +. b.kernel_s;
    launch_s = a.launch_s +. b.launch_s;
    alloc_s = a.alloc_s +. b.alloc_s;
    overlap_s = a.overlap_s +. b.overlap_s;
  }

(** [estimate m ~gpu ~entry ~rows] — timing ledger only, no execution;
    used by the benchmark harness at paper-scale row counts. *)
let estimate (m : Ir.modul) ~(gpu : M.gpu) ~entry ~rows : ledger =
  let kernels = Hashtbl.create 8 in
  List.iter
    (fun (op : Ir.op) ->
      match (op.Ir.name, Ir.string_attr op "sym_name") with
      | "gpu.func", Some n -> Hashtbl.replace kernels n op
      | _ -> ())
    m.Ir.mops;
  let host =
    List.find
      (fun (o : Ir.op) ->
        o.Ir.name = "func.func" && Ir.string_attr o "sym_name" = Some entry)
      m.Ir.mops
  in
  let blk = Option.get (Ir.entry_block host) in
  let ledger = empty_ledger () in
  let cols_of (v : Ir.value) =
    match v.Ir.vty with
    | Types.MemRef ([ _; Some c ], _) -> c
    | Types.MemRef ([ Some c; _ ], _) -> c
    | _ -> 1
  in
  List.iter
    (fun (op : Ir.op) ->
      match op.Ir.name with
      | "gpu.alloc" -> ledger.alloc_s <- ledger.alloc_s +. 0.3e-6
      | "gpu.dealloc" -> ledger.alloc_s <- ledger.alloc_s +. 0.1e-6
      | "gpu.memcpy_h2d" ->
          let bytes = 4 * rows * cols_of (Ir.operand_n op 0) in
          ledger.h2d_s <- ledger.h2d_s +. transfer_seconds gpu ~bytes
      | "gpu.memcpy_d2h" ->
          let bytes = 4 * rows * cols_of (Ir.operand_n op 0) in
          ledger.d2h_s <- ledger.d2h_s +. transfer_seconds gpu ~bytes
      | "gpu.launch_func" ->
          let kname = Option.get (Ir.string_attr op "kernel") in
          let kernel = Hashtbl.find kernels kname in
          let block_size = Option.get (Ir.int_attr op "blockSize") in
          ledger.launch_s <- ledger.launch_s +. (gpu.M.kernel_launch_us *. 1e-6);
          ledger.kernel_s <-
            ledger.kernel_s +. kernel_seconds gpu kernel ~rows ~block_size
      | _ -> ())
    blk.Ir.bops;
  ledger

(** [estimate_chunked m ~gpu ~entry ~rows ~chunk] — ledger for processing
    [rows] samples in host-side chunks of [chunk] samples, one full
    upload/launch/download schedule per chunk.  With small chunk sizes
    (the paper's GPU batch size of 64) per-transfer latency dominates —
    exactly the Fig. 9 situation. *)
let estimate_chunked (m : Ir.modul) ~gpu ~entry ~rows ~chunk : ledger =
  let chunk = max 1 (min chunk rows) in
  let full = rows / chunk in
  let rem = rows mod chunk in
  let l_full = scale_ledger (estimate m ~gpu ~entry ~rows:chunk) (float_of_int full) in
  if rem = 0 then l_full else add_ledger l_full (estimate m ~gpu ~entry ~rows:rem)

(* -- Stream pipelining (docs/PERFORMANCE.md §5) -------------------------------- *)

(* Discrete-event model of an [streams]-deep double-buffered pipeline:
   one DMA engine (uploads and downloads share the PCIe link) and one
   compute engine.  Per chunk i the dependencies are
     upload_i  needs: DMA free, and chunk (i - streams)'s download done
               (its stream buffer is being reused);
     kernel_i  needs: compute free, upload_i done;
     download_i needs: DMA free, kernel_i done.
   The DMA engine is scheduled greedily: among the next pending upload
   and the next pending download, issue whichever can start earlier
   (tie goes to the download — draining frees a stream buffer).

   Soundness of the ledger column: the makespan is at least the sum of
   all copy times (one DMA engine) and at least the sum of all compute
   times (one compute engine), so
     overlap = serial - makespan <= min(total transfer, total compute)
   — the invariant the ledger tests assert.  With [streams = 1] the
   buffer-reuse edge serializes everything and the overlap is 0. *)
let pipeline_overlap ~streams (chunks : (float * float * float) array) : float =
  let n = Array.length chunks in
  if n = 0 || streams <= 1 then 0.0
  else begin
    let u_done = Array.make n 0.0 in
    let k_done = Array.make n 0.0 in
    let d_done = Array.make n 0.0 in
    let dma_free = ref 0.0 in
    let next_u = ref 0 and next_d = ref 0 in
    while !next_d < n do
      let up_ready u =
        if u >= n then None
        else if u < streams then Some 0.0
        else if u - streams < !next_d then Some d_done.(u - streams)
        else None (* reused buffer's download not yet issued *)
      in
      (* the next download needs its kernel scheduled, i.e. its upload
         issued first; uploads and downloads are each FIFO *)
      let dn_ready d = if d < !next_u then Some k_done.(d) else None in
      let issue_upload () =
        let u = !next_u in
        let ci, cp, _ = chunks.(u) in
        let ready = Option.get (up_ready u) in
        u_done.(u) <- Float.max !dma_free ready +. ci;
        dma_free := u_done.(u);
        k_done.(u) <-
          Float.max (if u > 0 then k_done.(u - 1) else 0.0) u_done.(u) +. cp;
        incr next_u
      in
      let issue_download ready =
        let d = !next_d in
        let _, _, co = chunks.(d) in
        d_done.(d) <- Float.max !dma_free ready +. co;
        dma_free := d_done.(d);
        incr next_d
      in
      match (up_ready !next_u, dn_ready !next_d) with
      | Some ru, Some rd ->
          if Float.max !dma_free ru < Float.max !dma_free rd then
            issue_upload ()
          else issue_download rd
      | Some _, None -> issue_upload ()
      | None, Some rd -> issue_download rd
      | None, None -> assert false (* next_d < n implies a pending op *)
    done;
    let makespan = d_done.(n - 1) in
    let serial =
      Array.fold_left (fun a (ci, cp, co) -> a +. ci +. cp +. co) 0.0 chunks
    in
    Float.max 0.0 (serial -. makespan)
  end

(* Per-chunk (copy-in, compute, copy-out) components for [rows] samples
   split into chunks of [chunk]. *)
let chunk_components m ~gpu ~entry ~rows ~chunk =
  let chunk = max 1 (min chunk rows) in
  let full = rows / chunk in
  let rem = rows mod chunk in
  let comp l = (l.h2d_s, l.kernel_s +. l.launch_s, l.d2h_s) in
  let c_full = comp (estimate m ~gpu ~entry ~rows:chunk) in
  Array.init
    (full + if rem > 0 then 1 else 0)
    (fun i ->
      if i < full then c_full else comp (estimate m ~gpu ~entry ~rows:rem))

(** [estimate_streamed m ~gpu ~entry ~rows ~chunk ~streams] — the
    chunked schedule of {!estimate_chunked} with [streams]-deep
    double-buffered overlap recorded in [overlap_s]; component columns
    (and hence [transfer_fraction]) are identical to the monolithic
    chunked ledger. *)
let estimate_streamed (m : Ir.modul) ~gpu ~entry ~rows ~chunk ~streams : ledger =
  let l = estimate_chunked m ~gpu ~entry ~rows ~chunk in
  l.overlap_s <-
    pipeline_overlap ~streams (chunk_components m ~gpu ~entry ~rows ~chunk);
  l

(** [run_streamed m ~gpu ~entry ~inputs ~rows ~out_cols ~streams ()] —
    functional streamed execution: the batch is split into [streams]
    chunks, every chunk runs exactly through {!run}, and the per-slot
    outputs are concatenated so the result is bit-identical to the
    monolithic [run].  The ledger carries the serial component sums plus
    the modelled pipeline overlap.  Falls back to the monolithic path
    when the host schedule is not stream-safe ({!Copy_opt.stream_profile})
    or the split would be trivial. *)
let run_streamed (m : Ir.modul) ~(gpu : M.gpu) ~entry
    ~(inputs : float array list) ~rows ~out_cols ~streams () : result =
  let streams = max 1 streams in
  let chunk = if streams = 1 then rows else (rows + streams - 1) / streams in
  if streams = 1 || rows <= 1 || chunk >= rows
     || not (Copy_opt.stream_profile m ~entry).Copy_opt.stream_safe
  then run m ~gpu ~entry ~inputs ~rows ~out_cols ()
  else begin
    let host =
      List.find
        (fun (o : Ir.op) ->
          o.Ir.name = "func.func" && Ir.string_attr o "sym_name" = Some entry)
        m.Ir.mops
    in
    let blk = Option.get (Ir.entry_block host) in
    let cols_of (v : Ir.value) =
      match v.Ir.vty with
      | Types.MemRef ([ _; Some c ], _) -> c
      | Types.MemRef ([ Some c; _ ], _) -> c
      | _ -> 1
    in
    let in_cols =
      match List.rev blk.Ir.bargs with
      | _out :: rev_ins -> List.rev_map cols_of rev_ins
      | [] -> fail "host function %S has no parameters" entry
    in
    if List.length in_cols <> List.length inputs then
      fail "run_streamed: %d inputs for %d host input parameters"
        (List.length inputs) (List.length in_cols);
    let out = Array.make (rows * out_cols) 0.0 in
    let ledger = empty_ledger () in
    let components = ref [] in
    let lo = ref 0 in
    while !lo < rows do
      let crows = min chunk (rows - !lo) in
      let sliced =
        List.map2
          (fun data cols -> Array.sub data (!lo * cols) (crows * cols))
          inputs in_cols
      in
      Obs_metrics.counter_incr m_stream_chunks;
      let r =
        Obs_trace.with_span ~cat:"gpu" "stream-chunk"
          ~args:(fun () ->
            Obs_trace.[ ("lo", I !lo); ("rows", I crows) ])
          (fun () -> run m ~gpu ~entry ~inputs:sliced ~rows:crows ~out_cols ())
      in
      (* chunk outputs are slot-transposed like the full output: slot j of
         the chunk is entries [j*crows, (j+1)*crows) *)
      for j = 0 to out_cols - 1 do
        Array.blit r.output (j * crows) out ((j * rows) + !lo) crows
      done;
      components :=
        (r.ledger.h2d_s, r.ledger.kernel_s +. r.ledger.launch_s, r.ledger.d2h_s)
        :: !components;
      ledger.h2d_s <- ledger.h2d_s +. r.ledger.h2d_s;
      ledger.d2h_s <- ledger.d2h_s +. r.ledger.d2h_s;
      ledger.kernel_s <- ledger.kernel_s +. r.ledger.kernel_s;
      ledger.launch_s <- ledger.launch_s +. r.ledger.launch_s;
      ledger.alloc_s <- ledger.alloc_s +. r.ledger.alloc_s;
      lo := !lo + crows
    done;
    ledger.overlap_s <-
      pipeline_overlap ~streams (Array.of_list (List.rev !components));
    if Obs_trace.enabled () then
      Obs_trace.instant ~cat:"gpu" "overlap"
        ~args:
          Obs_trace.
            [ ("streams", I streams); ("modelled_s", F ledger.overlap_s) ];
    { ledger; output = out }
  end
