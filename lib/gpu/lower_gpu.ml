(** GPU target lowering (paper §IV-C): bufferized LoSPN → host function +
    one GPU kernel per Task.

    Each kernel computes a {e single} sample; the batch is parallelized
    across GPU threads ([sample = block_id * block_dim + thread_id], with
    an [scf.if] bounds guard).  The LoSPN [lo_spn.kernel] becomes a host
    function that allocates device buffers, copies inputs host→device,
    launches the kernels in task order, and copies the result back.

    Differences from the CPU lowering, as in the paper:
    - discrete univariate distributions lower to a {e cascade of select
      operations} rather than a table lookup;
    - no loop vectorization (parallelism comes from the thread grid);
    - this naive lowering copies every intermediate task result back to
      the host and re-uploads it for consuming tasks; {!Copy_opt} removes
      those round-trips by re-using the device-resident buffer. *)

open Spnc_mlir
module C = Spnc_cir.Ops
module L = Spnc_cpu.Lower_cpu

(* gpu dialect op names *)
let gpu_func = "gpu.func"  (* device kernel function *)
let gpu_alloc = "gpu.alloc"
let gpu_dealloc = "gpu.dealloc"
let memcpy_h2d = "gpu.memcpy_h2d"  (* operands: host src, device dst *)
let memcpy_d2h = "gpu.memcpy_d2h"  (* operands: device src, host dst *)
let launch = "gpu.launch_func"  (* attrs: kernel, blockSize *)
let thread_id = "gpu.thread_id"
let block_id = "gpu.block_id"
let block_dim = "gpu.block_dim"

type options = { block_size : int }

let default_options = { block_size = 64 }

let register () =
  Spnc_cir.Ops.register ();
  let open Dialect in
  register_simple gpu_func (fun op -> expect_regions op 1);
  register_simple gpu_alloc (fun op -> expect_results op 1);
  register_simple gpu_dealloc (fun op -> expect_operands op 1);
  register_simple memcpy_h2d (fun op -> expect_operands op 2);
  register_simple memcpy_d2h (fun op -> expect_operands op 2);
  register_simple launch (fun op ->
      let open Dialect in
      let* _ = expect_attr op "kernel" in
      let* _ = expect_int_attr op "blockSize" in
      Ok ());
  register_simple ~pure:true thread_id (fun op -> expect_results op 1);
  register_simple ~pure:true block_id (fun op -> expect_results op 1);
  register_simple ~pure:true block_dim (fun op -> expect_results op 1)

let () = register ()

(* -- Select-cascade lowering for discrete leaves (§IV-C) -------------------- *)

(* r = marginal-nan ? one
     : x in bucket_0 ? p_0 : x in bucket_1 ? p_1 : ... : zero *)
let select_cascade e ~x ~(bounds : (float * float * float) list) ~is_log
    ~marginal ~base =
  let mode = L.Scalar in
  let zero = L.const_f e mode (if is_log then Float.neg_infinity else 0.0) ~base in
  let result =
    List.fold_left
      (fun acc (lo, hi, p) ->
        let lo_c = L.const_f e mode lo ~base in
        let hi_c = L.const_f e mode hi ~base in
        let ge = L.cmp e mode "oge" x lo_c in
        let lt = L.cmp e mode "olt" x hi_c in
        let inb = L.emit e (C.binary e.L.b C.andi ge lt ~ty:Types.Bool) in
        let p_c = L.const_f e mode p ~base in
        L.select e mode inb p_c acc ~base)
      zero (List.rev bounds)
  in
  if marginal then begin
    let isnan = L.cmp e mode "uno" x x in
    let one = L.const_f e mode (if is_log then 0.0 else 1.0) ~base in
    L.select e mode isnan one result ~base
  end
  else result

let categorical_bounds (probs : float array) =
  Array.to_list
    (Array.mapi (fun i p -> (float_of_int i -. 0.5, float_of_int i +. 0.5, p)) probs)

let histogram_bounds ~(breaks : int array) ~(densities : float array) =
  Array.to_list
    (Array.mapi
       (fun k d -> (float_of_int breaks.(k), float_of_int breaks.(k + 1), d))
       densities)

(* Body lowering: like the CPU scalar path, but discrete leaves become
   select cascades. *)
let lower_body_ops e ~(env : (int, Ir.value) Hashtbl.t) ~base (ops : Ir.op list)
    : unit =
  let get (v : Ir.value) =
    match Hashtbl.find_opt env v.Ir.vid with
    | Some v' -> v'
    | None -> invalid_arg (Printf.sprintf "lower_gpu: unmapped value %%%d" v.Ir.vid)
  in
  let setr (op : Ir.op) value = Hashtbl.replace env (Ir.result op).Ir.vid value in
  let mode = L.Scalar in
  List.iter
    (fun (op : Ir.op) ->
      e.L.cur_loc <- op.Ir.loc;
      let is_log =
        match op.Ir.results with
        | r :: _ -> (match r.Ir.vty with Types.Log _ -> true | _ -> false)
        | [] -> false
      in
      let marginal = Option.value ~default:false (Ir.bool_attr op "supportMarginal") in
      if op.Ir.name = Spnc_lospn.Ops.constant_name then
        setr op (L.const_f e mode (Option.get (Ir.float_attr op "value")) ~base)
      else if op.Ir.name = Spnc_lospn.Ops.mul_name then
        let l = get (Ir.operand_n op 0) and r = get (Ir.operand_n op 1) in
        setr op (L.bin e mode (if is_log then C.addf else C.mulf) l r ~base)
      else if op.Ir.name = Spnc_lospn.Ops.add_name then
        let l = get (Ir.operand_n op 0) and r = get (Ir.operand_n op 1) in
        setr op
          (if is_log then L.log_sum_exp e mode l r ~base
           else L.bin e mode C.addf l r ~base)
      else if op.Ir.name = Spnc_lospn.Ops.gaussian_name then
        let x = get (Ir.operand_n op 0) in
        setr op
          (L.gaussian e mode ~x
             ~mean:(Option.get (Ir.float_attr op "mean"))
             ~stddev:(Option.get (Ir.float_attr op "stddev"))
             ~is_log ~marginal ~base)
      else if op.Ir.name = Spnc_lospn.Ops.categorical_name then
        let x = get (Ir.operand_n op 0) in
        let probs = Option.get (Ir.dense_attr op "probabilities") in
        setr op
          (select_cascade e ~x ~bounds:(categorical_bounds probs) ~is_log
             ~marginal ~base)
      else if op.Ir.name = Spnc_lospn.Ops.histogram_name then begin
        let x = get (Ir.operand_n op 0) in
        let densities = Option.get (Ir.dense_attr op "densities") in
        let breaks =
          match Ir.attr op "buckets" with
          | Some (Attr.Array l) ->
              Array.of_list (List.map (fun a -> Option.get (Attr.as_int a)) l)
          | _ -> [||]
        in
        setr op
          (select_cascade e ~x
             ~bounds:(histogram_bounds ~breaks ~densities)
             ~is_log ~marginal ~base)
      end
      else if op.Ir.name = Spnc_lospn.Ops.yield_name then ()
      else invalid_arg ("lower_gpu: unexpected op in body: " ^ op.Ir.name))
    ops

(* One GPU kernel per task: computes a single sample. *)
let lower_task_kernel b (task : Ir.op) ~name : Ir.op =
  let tb = Option.get (Ir.entry_block task) in
  let arg_tys = List.map (fun (v : Ir.value) -> v.Ir.vty) (List.tl tb.Ir.bargs) in
  let ct =
    match List.rev arg_tys with
    | Types.MemRef (_, t) :: _ -> t
    | _ -> Types.F32
  in
  let base = Types.strip_log ct in
  let block =
    Builder.block b ~arg_tys (fun args ->
        L.collect b L.scalar_options @@ fun e ->
        let arg_env = Hashtbl.create 8 in
        List.iter2
          (fun (old_arg : Ir.value) (newv : Ir.value) ->
            Hashtbl.replace arg_env old_arg.Ir.vid newv)
          (List.tl tb.Ir.bargs) args;
        (* sample index from the thread grid *)
        let bid = L.emit e (Builder.op b block_id ~results:[ Types.Index ] ()) in
        let bdim = L.emit e (Builder.op b block_dim ~results:[ Types.Index ] ()) in
        let tid = L.emit e (Builder.op b thread_id ~results:[ Types.Index ] ()) in
        let base_idx = L.emit e (C.binary b C.muli bid bdim ~ty:Types.Index) in
        let sample = L.emit e (C.binary b C.addi base_idx tid ~ty:Types.Index) in
        let rows_of = Hashtbl.create 8 in
        List.iter
          (fun (arg : Ir.value) ->
            let d = L.emit e (C.dim_op b arg ~index:0) in
            Hashtbl.replace rows_of arg.Ir.vid d)
          args;
        let rows_v = Hashtbl.find rows_of (List.hd args).Ir.vid in
        let guard =
          L.emit e
            (Builder.op b C.cmpi ~operands:[ sample; rows_v ]
               ~results:[ Types.Bool ]
               ~attrs:[ ("predicate", Attr.String "slt") ]
               ())
        in
        (* guarded body: reads, arithmetic, writes for this sample *)
        let then_block =
          Builder.block b ~arg_tys:[] (fun _ ->
              L.collect b L.scalar_options (fun e' ->
              let env = Hashtbl.create 64 in
              List.iter
                (fun (op : Ir.op) ->
                  if op.Ir.name = Spnc_lospn.Ops.batch_read_name then begin
                    let buf = Hashtbl.find arg_env (Ir.operand_n op 0).Ir.vid in
                    let transposed =
                      Option.value ~default:false (Ir.bool_attr op "transposed")
                    in
                    let slot = Option.get (Ir.int_attr op "staticIndex") in
                    let rows_b = Hashtbl.find rows_of buf.Ir.vid in
                    let elem = Types.strip_log (Types.element_type (Ir.result op).Ir.vty) in
                    let idx =
                      L.linear_index e' ~transposed ~iv:sample ~slot
                        ~cols:(L.buffer_cols buf) ~rows_v:rows_b
                    in
                    let v = L.emit e' (C.load_op b buf idx ~ty:elem) in
                    Hashtbl.replace env (Ir.result op).Ir.vid v
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.body_name then begin
                    let blk = Option.get (Ir.entry_block op) in
                    List.iter2
                      (fun (barg : Ir.value) (operand : Ir.value) ->
                        Hashtbl.replace env barg.Ir.vid
                          (Hashtbl.find env operand.Ir.vid))
                      blk.Ir.bargs op.Ir.operands;
                    lower_body_ops e' ~env ~base blk.Ir.bops;
                    let y =
                      List.find
                        (fun (o : Ir.op) -> o.Ir.name = Spnc_lospn.Ops.yield_name)
                        blk.Ir.bops
                    in
                    List.iter2
                      (fun (res : Ir.value) (yv : Ir.value) ->
                        Hashtbl.replace env res.Ir.vid
                          (Hashtbl.find env yv.Ir.vid))
                      op.Ir.results y.Ir.operands
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.batch_write_name then begin
                    match op.Ir.operands with
                    | buf_lospn :: _bi :: values ->
                        let buf = Hashtbl.find arg_env buf_lospn.Ir.vid in
                        let transposed =
                          Option.value ~default:false (Ir.bool_attr op "transposed")
                        in
                        let rows_b = Hashtbl.find rows_of buf.Ir.vid in
                        List.iteri
                          (fun slot (v : Ir.value) ->
                            let idx =
                              L.linear_index e' ~transposed ~iv:sample ~slot
                                ~cols:(L.buffer_cols buf) ~rows_v:rows_b
                            in
                            L.emit_ e'
                              (C.store_op b buf idx (Hashtbl.find env v.Ir.vid)))
                          values
                    | _ -> invalid_arg "lower_gpu: malformed batch_write"
                  end)
                tb.Ir.bops)
              @ [ Builder.op b C.yield () ])
        in
        L.emit_ e (C.if_op b ~cond:guard ~then_block);
        L.emit_ e (Builder.op b C.return_ ()))
  in
  Builder.op b gpu_func
    ~attrs:
      [
        ("sym_name", Attr.String name);
        ( "function_type",
          Attr.Type (Types.Func (List.map (fun (v : Ir.value) -> v.Ir.vty) block.Ir.bargs, []))
        );
      ]
    ~regions:[ Builder.region1 block ]
    ()

(** [run ?options m] lowers bufferized LoSPN kernels for the GPU.  The
    result contains [gpu.func] kernels plus a host [func.func] per LoSPN
    kernel. *)
let run ?(options = default_options) (m : Ir.modul) : Ir.modul =
  register ();
  let b = Builder.seed_from m in
  let out_ops = ref [] in
  List.iter
    (fun (kernel : Ir.op) ->
      if kernel.Ir.name = Spnc_lospn.Ops.kernel_name then begin
        let sym =
          Option.value ~default:"spn_kernel" (Ir.string_attr kernel "sym_name")
        in
        let kb = Option.get (Ir.entry_block kernel) in
        let kernel_names = Hashtbl.create 8 in
        let counter = ref 0 in
        List.iter
          (fun (op : Ir.op) ->
            if op.Ir.name = Spnc_lospn.Ops.task_name then begin
              let name = Printf.sprintf "%s_gpu_task_%d" sym !counter in
              incr counter;
              out_ops := lower_task_kernel b op ~name :: !out_ops;
              Hashtbl.replace kernel_names op name
            end)
          kb.Ir.bops;
        (* host function *)
        let arg_tys = List.map (fun (v : Ir.value) -> v.Ir.vty) kb.Ir.bargs in
        let block =
          Builder.block b ~arg_tys (fun args ->
              L.collect b L.scalar_options @@ fun e ->
              (* host-side buffer for each LoSPN value *)
              let host = Hashtbl.create 16 in
              List.iter2
                (fun (old_arg : Ir.value) newv ->
                  Hashtbl.replace host old_arg.Ir.vid newv)
                kb.Ir.bargs args;
              let rows = L.emit e (C.dim_op b (List.hd args) ~index:0) in
              (* naive data movement: every task input is uploaded fresh,
                 every output downloaded — the round-trips Copy_opt removes *)
              let device_buffers = ref [] in
              let fresh_device (host_v : Ir.value) =
                let d =
                  L.emit e
                    (Builder.op b gpu_alloc ~operands:[ rows ]
                       ~results:[ host_v.Ir.vty ] ())
                in
                device_buffers := d :: !device_buffers;
                d
              in
              let upload (host_v : Ir.value) =
                let d = fresh_device host_v in
                L.emit_ e (Builder.op b memcpy_h2d ~operands:[ host_v; d ] ());
                d
              in
              List.iter
                (fun (op : Ir.op) ->
                  if op.Ir.name = Spnc_lospn.Ops.alloc_name then begin
                    (* intermediate buffer: host side now; device mirror
                       created lazily at each use (naive) *)
                    let res = Ir.result op in
                    let a =
                      L.emit e
                        (Builder.op b C.alloc ~operands:[ rows ]
                           ~results:[ res.Ir.vty ] ())
                    in
                    Hashtbl.replace host res.Ir.vid a
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.dealloc_name then begin
                    let h = Hashtbl.find host (Ir.operand_n op 0).Ir.vid in
                    L.emit_ e (Builder.op b C.dealloc ~operands:[ h ] ())
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.copy_name then begin
                    let s = Hashtbl.find host (Ir.operand_n op 0).Ir.vid in
                    let d = Hashtbl.find host (Ir.operand_n op 1).Ir.vid in
                    L.emit_ e (Builder.op b C.copy ~operands:[ s; d ] ())
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.task_name then begin
                    (* naive: upload every input, launch, download output *)
                    let host_bufs =
                      List.map
                        (fun (v : Ir.value) -> Hashtbl.find host v.Ir.vid)
                        op.Ir.operands
                    in
                    let n_in = List.length host_bufs - 1 in
                    let dev_bufs =
                      List.mapi
                        (fun i hv -> if i < n_in then upload hv else fresh_device hv)
                        host_bufs
                    in
                    L.emit_ e
                      (Builder.op b launch ~operands:dev_bufs
                         ~attrs:
                           [
                             ("kernel", Attr.String (Hashtbl.find kernel_names op));
                             ("blockSize", Attr.Int options.block_size);
                           ]
                         ());
                    (* download the task output back to its host buffer *)
                    let out_host = List.nth host_bufs n_in in
                    let out_dev = List.nth dev_bufs n_in in
                    L.emit_ e
                      (Builder.op b memcpy_d2h ~operands:[ out_dev; out_host ] ())
                  end
                  else if op.Ir.name = Spnc_lospn.Ops.return_name then ()
                  else invalid_arg ("lower_gpu: unexpected kernel op " ^ op.Ir.name))
                kb.Ir.bops;
              (* free device buffers *)
              List.iter
                (fun d -> L.emit_ e (Builder.op b gpu_dealloc ~operands:[ d ] ()))
                (List.rev !device_buffers);
              L.emit_ e (Builder.op b C.return_ ()))
        in
        out_ops := C.func_op b ~sym_name:sym ~block :: !out_ops
      end
      else out_ops := kernel :: !out_ops)
    m.Ir.mops;
  Builder.modul ~name:m.Ir.mname (List.rev !out_ops)
