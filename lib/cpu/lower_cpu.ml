(** CPU target lowering (paper §IV-B): bufferized LoSPN → cir
    (Standard/Math/SCF/MemRef/Vector mix).

    Each [lo_spn.task] becomes a function containing a loop over the batch;
    the [lo_spn.kernel] becomes a function that allocates intermediate
    buffers and calls the task functions in order.  SPN arithmetic lowers
    to float ops (log-space typed values produce log-space instruction
    sequences: [mul]→[addf], [add]→log-sum-exp); discrete leaves lower to
    table lookups; Gaussian leaves to the (log-)PDF computation.

    With [vectorize] enabled, the batch loop is vectorized data-parallel
    over [width] samples and steps by [width]; there is no scalar
    epilogue, so the kernel must be called on a multiple of [width] rows
    ([Spnc_runtime.Exec] pads the last partial group).  Memory access
    patterns exploit the LoSPN access semantics:

    - intermediate task buffers are transposed, so vector loads of one
      slot across consecutive samples are contiguous [vector.load]s;
    - input features are strided; they lower to [vector.gather], or, with
      [use_shuffle], to [vector.shuffled_load] (the loads+shuffles
      replacement of §IV-B);
    - without [use_veclib], vector [log]/[exp]/[log1p] are scalarized:
      each lane is extracted, the scalar function applied, and the result
      re-inserted — the exact penalty Fig. 6 shows. *)

open Spnc_mlir
module C = Spnc_cir.Ops

type options = {
  vectorize : bool;
  width : int;
  use_veclib : bool;
  use_shuffle : bool;
  gather_tables : bool;
      (** vectorize discrete-leaf table lookups with hardware indexed
          gathers instead of scalarizing them (extension beyond the
          paper; requires an ISA with gather, i.e. AVX2/AVX-512) *)
}

let scalar_options =
  { vectorize = false; width = 1; use_veclib = false; use_shuffle = false;
    gather_tables = false }

type mode = Scalar | Vec of int

(* Where the walk's ops go: one cir op at a time, between four
   structural points (a function starts with its block arguments, a loop
   starts with its induction variable, the loop ends with its bounds and
   step, the function ends).  [op] receives the location the op is to
   carry. *)
type sink = {
  op : Loc.t -> Ir.op -> unit;
  func_start : string -> Ir.value list -> unit;
  loop_start : Ir.value -> unit;
  loop_end : lb:Ir.value -> ub:Ir.value -> step:Ir.value -> unit;
  func_end : unit -> unit;
}

(* The emitter: hands ops to its sink in order, offering typed helpers. *)
type emitter = {
  b : Builder.t;
  opts : options;
  sink : sink;
  mutable cur_loc : Loc.t;
      (** provenance of the LoSPN op currently being expanded; given to
          every emitted cir op that has no location of its own, so the
          SPN node id survives down to cir and Lir *)
}

let emitter b opts sink = { b; opts; sink; cur_loc = Loc.Unknown }

let emit_ e (op : Ir.op) =
  e.sink.op (if Loc.is_known op.Ir.loc then op.Ir.loc else e.cur_loc) op

let emit e op =
  emit_ e op;
  Ir.result op

(* [op] with location [loc], copied only when that changes it *)
let stamp loc (op : Ir.op) = if op.Ir.loc == loc then op else { op with Ir.loc }

let collect b opts f =
  let acc = ref [] in
  let structural _ =
    invalid_arg "Lower_cpu.collect: a collected block has no functions or loops"
  in
  f
    (emitter b opts
       {
         op = (fun loc op -> acc := stamp loc op :: !acc);
         func_start = (fun _ -> structural);
         loop_start = structural;
         loop_end = (fun ~lb:_ ~ub:_ ~step:_ -> structural ());
         func_end = structural;
       });
  List.rev !acc

let scalar_of (t : Types.t) = Types.strip_log (Types.element_type t)

let val_ty mode (base : Types.t) =
  match mode with Scalar -> base | Vec w -> Types.Vector (w, base)

let bool_ty mode = match mode with Scalar -> Types.Bool | Vec w -> Types.Vector (w, Types.Bool)

let const_f e mode v ~base = emit e (C.const_f e.b v ~ty:(val_ty mode base))
let const_i e v = emit e (C.const_i e.b v)

let bin e mode name l r ~base = emit e (C.binary e.b name l r ~ty:(val_ty mode base))

let cmp e mode pred l r = emit e (C.cmp e.b pred l r ~ty:(bool_ty mode))

let select e mode c t f ~base = emit e (C.select_op e.b c t f ~ty:(val_ty mode base))

(* Elementary function application: scalar op, veclib vector op, or the
   scalarized extract/apply/insert cascade. *)
let elementary e mode fname x ~base =
  match mode with
  | Scalar -> emit e (C.unary e.b fname x ~ty:base)
  | Vec w ->
      if e.opts.use_veclib then
        emit e
          (Builder.op e.b fname ~operands:[ x ]
             ~results:[ Types.Vector (w, base) ]
             ~attrs:[ ("veclib", Attr.Bool true) ]
             ())
      else begin
        (* scalarize: extract each lane, scalar call, insert back *)
        let acc = ref (const_f e mode 0.0 ~base) in
        for lane = 0 to w - 1 do
          let s =
            emit e
              (Builder.op e.b C.vextract ~operands:[ x ] ~results:[ base ]
                 ~attrs:[ ("lane", Attr.Int lane) ]
                 ())
          in
          let r = emit e (C.unary e.b fname s ~ty:base) in
          acc :=
            emit e
              (Builder.op e.b C.vinsert ~operands:[ r; !acc ]
                 ~results:[ Types.Vector (w, base) ]
                 ~attrs:[ ("lane", Attr.Int lane) ]
                 ())
        done;
        !acc
      end

(* log-sum-exp of two (log-space) values, -inf-safe *)
let log_sum_exp e mode a bv ~base =
  let m = bin e mode C.maxf a bv ~base in
  let mn = bin e mode C.minf a bv ~base in
  let d = bin e mode C.subf mn m ~base in
  let ex = elementary e mode C.exp_ d ~base in
  let l1p = elementary e mode C.log1p ex ~base in
  let s = bin e mode C.addf m l1p ~base in
  let neginf = const_f e mode Float.neg_infinity ~base in
  let isninf = cmp e mode "oeq" m neginf in
  select e mode isninf m s ~base

(* Gaussian leaf: (log-)pdf of evidence [x]. *)
let gaussian e mode ~x ~mean ~stddev ~is_log ~marginal ~base =
  let mean_c = const_f e mode mean ~base in
  let inv_c = const_f e mode (1.0 /. stddev) ~base in
  let z0 = bin e mode C.subf x mean_c ~base in
  let z = bin e mode C.mulf z0 inv_c ~base in
  let z2 = bin e mode C.mulf z z ~base in
  let mhalf = const_f e mode (-0.5) ~base in
  let h = bin e mode C.mulf z2 mhalf ~base in
  let raw =
    if is_log then
      let k =
        const_f e mode (-.log stddev -. (0.5 *. log (2.0 *. Float.pi))) ~base
      in
      bin e mode C.addf h k ~base
    else
      let ex = elementary e mode C.exp_ h ~base in
      let coef = const_f e mode (1.0 /. (stddev *. sqrt (2.0 *. Float.pi))) ~base in
      bin e mode C.mulf ex coef ~base
  in
  if marginal then begin
    let isnan = cmp e mode "uno" x x in
    let one = const_f e mode (if is_log then 0.0 else 1.0) ~base in
    select e mode isnan one raw ~base
  end
  else raw

(* Discrete leaf lookup on a global table, scalar mode.
   [lookup_of x] takes the evidence and computes (offset, limit):
   - categorical: offset = x + 0.5 (round), limit = bucket count
   - histogram:   offset = x - first_break, limit = expanded size *)
let discrete_scalar e ~table ~x ~shift ~limit ~is_log ~marginal ~base =
  let mode = Scalar in
  let shift_c = const_f e mode shift ~base in
  let xo = bin e mode C.addf x shift_c ~base in
  let zero_f = const_f e mode 0.0 ~base in
  let limit_c = const_f e mode (float_of_int limit) ~base in
  let ge0 = cmp e mode "oge" xo zero_f in
  let ltn = cmp e mode "olt" xo limit_c in
  let inb = emit e (C.binary e.b C.andi ge0 ltn ~ty:Types.Bool) in
  let idx = emit e (C.unary e.b C.fptosi xo ~ty:Types.Index) in
  let zero_i = const_i e 0 in
  let safe = emit e (C.select_op e.b inb idx zero_i ~ty:Types.Index) in
  let p = emit e (C.load_op e.b table safe ~ty:base) in
  let zero_prob = const_f e mode (if is_log then Float.neg_infinity else 0.0) ~base in
  let r0 = select e mode inb p zero_prob ~base in
  if marginal then begin
    let isnan = cmp e mode "uno" x x in
    let one = const_f e mode (if is_log then 0.0 else 1.0) ~base in
    select e mode isnan one r0 ~base
  end
  else r0

(* Discrete leaf in vector mode: scalarize the table lookups per lane. *)
let discrete_vector e ~w ~table ~x ~shift ~limit ~is_log ~marginal ~base =
  let acc = ref (const_f e (Vec w) 0.0 ~base) in
  for lane = 0 to w - 1 do
    let s =
      emit e
        (Builder.op e.b C.vextract ~operands:[ x ] ~results:[ base ]
           ~attrs:[ ("lane", Attr.Int lane) ]
           ())
    in
    let r = discrete_scalar e ~table ~x:s ~shift ~limit ~is_log ~marginal ~base in
    acc :=
      emit e
        (Builder.op e.b C.vinsert ~operands:[ r; !acc ]
           ~results:[ Types.Vector (w, base) ]
           ~attrs:[ ("lane", Attr.Int lane) ]
           ())
  done;
  !acc

(* Discrete leaf in vector mode using a hardware indexed gather: the
   whole lane bundle is looked up with one [vector.gather_indexed], with
   masked selects handling out-of-range and marginalized lanes.  An
   extension beyond the paper's scalarized lookups; enabled by
   [gather_tables]. *)
let discrete_vector_gather e ~w ~table ~x ~shift ~limit ~is_log ~marginal ~base =
  let mode = Vec w in
  let shift_c = const_f e mode shift ~base in
  let xo = bin e mode C.addf x shift_c ~base in
  let zero_f = const_f e mode 0.0 ~base in
  let limit_c = const_f e mode (float_of_int limit) ~base in
  let ge0 = cmp e mode "oge" xo zero_f in
  let ltn = cmp e mode "olt" xo limit_c in
  let inb = emit e (C.binary e.b C.andi ge0 ltn ~ty:(bool_ty mode)) in
  (* floored float indices, clamped to 0 for out-of-range lanes *)
  let idx =
    emit e
      (Builder.op e.b C.fptosi ~operands:[ xo ]
         ~results:[ Types.Vector (w, base) ]
         ())
  in
  let safe = select e mode inb idx zero_f ~base in
  let p =
    emit e
      (Builder.op e.b C.vgather_indexed ~operands:[ table; safe ]
         ~results:[ Types.Vector (w, base) ]
         ())
  in
  let zero_prob = const_f e mode (if is_log then Float.neg_infinity else 0.0) ~base in
  let r0 = select e mode inb p zero_prob ~base in
  if marginal then begin
    let isnan = cmp e mode "uno" x x in
    let one = const_f e mode (if is_log then 0.0 else 1.0) ~base in
    select e mode isnan one r0 ~base
  end
  else r0

(* Expand a histogram's sparse (breaks, densities) into a dense per-integer
   table covering [breaks.(0), breaks.(n)). *)
let expand_histogram ~breaks ~densities =
  let first = breaks.(0) and last = breaks.(Array.length breaks - 1) in
  let table = Array.make (last - first) 0.0 in
  Array.iteri
    (fun k d ->
      for v = breaks.(k) to breaks.(k + 1) - 1 do
        table.(v - first) <- d
      done)
    densities;
  (first, table)

(* -- Access-path emission --------------------------------------------------- *)

(* Linear index for element (sample=iv, slot) of a buffer whose dynamic
   row count is [rows_v]:
   transposed: slot * rows + iv        (slot-major)
   otherwise:  iv * cols + slot        (sample-major) *)
let linear_index e ~transposed ~iv ~slot ~cols ~rows_v =
  if transposed then
    let slot_c = const_i e slot in
    let off = emit e (C.binary e.b C.muli slot_c rows_v ~ty:Types.Index) in
    emit e (C.binary e.b C.addi off iv ~ty:Types.Index)
  else begin
    let cols_c = const_i e cols in
    let off = emit e (C.binary e.b C.muli iv cols_c ~ty:Types.Index) in
    let slot_c = const_i e slot in
    emit e (C.binary e.b C.addi off slot_c ~ty:Types.Index)
  end

let buffer_cols (v : Ir.value) =
  match v.Ir.vty with
  | Types.MemRef ([ _; Some c ], _) -> c
  | Types.MemRef ([ Some c; _ ], _) -> c
  | _ -> 1

(* Emit the read of (iv, slot) from [buf] in the given mode. *)
let emit_read e mode ~buf ~iv ~slot ~transposed ~rows_v ~base =
  let cols = buffer_cols buf in
  match mode with
  | Scalar ->
      let idx = linear_index e ~transposed ~iv ~slot ~cols ~rows_v in
      emit e (C.load_op e.b buf idx ~ty:base)
  | Vec w ->
      if transposed then begin
        (* consecutive samples of one slot are contiguous *)
        let idx = linear_index e ~transposed ~iv ~slot ~cols ~rows_v in
        emit e
          (Builder.op e.b C.vload ~operands:[ buf; idx ]
             ~results:[ Types.Vector (w, base) ]
             ())
      end
      else begin
        (* strided access across samples: gather, or loads+shuffles *)
        let idx = linear_index e ~transposed ~iv ~slot ~cols ~rows_v in
        if e.opts.use_shuffle then
          (* transposing a w-sample block in registers costs w contiguous
             loads plus w*log2(w) shuffles and yields w feature vectors:
             amortized per feature read, 1 load + log2(w) shuffles *)
          let loads_amortized = 1.0 in
          let shuffles = log (float_of_int (max 2 w)) /. log 2.0 in
          emit e
            (Builder.op e.b C.vshuffled_load ~operands:[ buf; idx ]
               ~results:[ Types.Vector (w, base) ]
               ~attrs:
                 [
                   ("stride", Attr.Int cols);
                   ("loads", Attr.Float loads_amortized);
                   ("shuffles", Attr.Float shuffles);
                 ]
               ())
        else
          emit e
            (Builder.op e.b C.vgather ~operands:[ buf; idx ]
               ~results:[ Types.Vector (w, base) ]
               ~attrs:[ ("stride", Attr.Int cols) ]
               ())
      end

let emit_write e mode ~buf ~iv ~slot ~transposed ~rows_v ~value =
  let cols = buffer_cols buf in
  let idx = linear_index e ~transposed ~iv ~slot ~cols ~rows_v in
  match mode with
  | Scalar -> emit_ e (C.store_op e.b buf idx value)
  | Vec _ ->
      if transposed then
        emit_ e (Builder.op e.b C.vstore ~operands:[ buf; idx; value ] ())
      else
        (* scatter: store lanes individually (no vector scatter modelled) *)
        invalid_arg "emit_write: vector store requires transposed layout"

(* -- Task body lowering ------------------------------------------------------ *)

(* Tables needed by the discrete leaves of a task are hoisted to the top
   of the task function; keyed by the leaf op's result id. *)
let hoist_tables e (task : Ir.op) : (int, Ir.value) Hashtbl.t =
  let tables = Hashtbl.create 16 in
  let counter = ref 0 in
  Ir.walk_ops
    (fun (op : Ir.op) ->
      let add values =
        incr counter;
        let name = Printf.sprintf "table_%d_%d" (Ir.result op).Ir.vid !counter in
        let t = emit e (C.global_table_op e.b ~values ~name) in
        Hashtbl.replace tables (Ir.result op).Ir.vid t
      in
      (* categorical probabilities were already log-transformed during
         LoSPN lowering when computing in log space *)
      if op.Ir.name = Spnc_lospn.Ops.categorical_name then
        add (Option.get (Ir.dense_attr op "probabilities"))
      else if op.Ir.name = Spnc_lospn.Ops.histogram_name then begin
        let densities = Option.get (Ir.dense_attr op "densities") in
        let breaks =
          match Ir.attr op "buckets" with
          | Some (Attr.Array l) ->
              Array.of_list (List.map (fun a -> Option.get (Attr.as_int a)) l)
          | _ -> [||]
        in
        let _, table = expand_histogram ~breaks ~densities in
        add table
      end)
    task;
  tables

(* Lower the arithmetic ops of a lo_spn.body given an environment mapping
   LoSPN values to cir values. *)
let lower_body_ops e mode ~(env : (int, Ir.value) Hashtbl.t) ~tables ~base
    (ops : Ir.op list) : unit =
  let get (v : Ir.value) =
    match Hashtbl.find_opt env v.Ir.vid with
    | Some v' -> v'
    | None -> invalid_arg (Printf.sprintf "lower_cpu: unmapped value %%%d" v.Ir.vid)
  in
  let setr (op : Ir.op) value = Hashtbl.replace env (Ir.result op).Ir.vid value in
  List.iter
    (fun (op : Ir.op) ->
      e.cur_loc <- op.Ir.loc;
      let is_log =
        match op.Ir.results with
        | r :: _ -> (match r.Ir.vty with Types.Log _ -> true | _ -> false)
        | [] -> false
      in
      let marginal =
        Option.value ~default:false (Ir.bool_attr op "supportMarginal")
      in
      if op.Ir.name = Spnc_lospn.Ops.constant_name then
        setr op (const_f e mode (Option.get (Ir.float_attr op "value")) ~base)
      else if op.Ir.name = Spnc_lospn.Ops.mul_name then
        let l = get (Ir.operand_n op 0) and r = get (Ir.operand_n op 1) in
        setr op (bin e mode (if is_log then C.addf else C.mulf) l r ~base)
      else if op.Ir.name = Spnc_lospn.Ops.add_name then
        let l = get (Ir.operand_n op 0) and r = get (Ir.operand_n op 1) in
        setr op
          (if is_log then log_sum_exp e mode l r ~base
           else bin e mode C.addf l r ~base)
      else if op.Ir.name = Spnc_lospn.Ops.gaussian_name then
        let x = get (Ir.operand_n op 0) in
        setr op
          (gaussian e mode ~x
             ~mean:(Option.get (Ir.float_attr op "mean"))
             ~stddev:(Option.get (Ir.float_attr op "stddev"))
             ~is_log ~marginal ~base)
      else if op.Ir.name = Spnc_lospn.Ops.categorical_name then begin
        let x = get (Ir.operand_n op 0) in
        let table = Hashtbl.find tables (Ir.result op).Ir.vid in
        let limit =
          Array.length (Option.get (Ir.dense_attr op "probabilities"))
        in
        let emit_lookup () =
          match mode with
          | Scalar ->
              discrete_scalar e ~table ~x ~shift:0.5 ~limit ~is_log ~marginal ~base
          | Vec w ->
              if e.opts.gather_tables then
                discrete_vector_gather e ~w ~table ~x ~shift:0.5 ~limit ~is_log
                  ~marginal ~base
              else
                discrete_vector e ~w ~table ~x ~shift:0.5 ~limit ~is_log
                  ~marginal ~base
        in
        setr op (emit_lookup ())
      end
      else if op.Ir.name = Spnc_lospn.Ops.histogram_name then begin
        let x = get (Ir.operand_n op 0) in
        let table = Hashtbl.find tables (Ir.result op).Ir.vid in
        let breaks =
          match Ir.attr op "buckets" with
          | Some (Attr.Array l) ->
              Array.of_list (List.map (fun a -> Option.get (Attr.as_int a)) l)
          | _ -> [||]
        in
        let first = breaks.(0) in
        let limit = breaks.(Array.length breaks - 1) - first in
        let emit_lookup () =
          match mode with
          | Scalar ->
              discrete_scalar e ~table ~x ~shift:(-.float_of_int first) ~limit
                ~is_log ~marginal ~base
          | Vec w ->
              if e.opts.gather_tables then
                discrete_vector_gather e ~w ~table ~x
                  ~shift:(-.float_of_int first) ~limit ~is_log ~marginal ~base
              else
                discrete_vector e ~w ~table ~x ~shift:(-.float_of_int first)
                  ~limit ~is_log ~marginal ~base
        in
        setr op (emit_lookup ())
      end
      else if op.Ir.name = Spnc_lospn.Ops.yield_name then ()
      else
        invalid_arg ("lower_cpu: unexpected op in body: " ^ op.Ir.name))
    ops

(* Emit the per-iteration work of a task: reads, body arithmetic, writes. *)
let lower_iteration e mode ~iv ~(arg_env : (int, Ir.value) Hashtbl.t)
    ~(rows_of : (int, Ir.value) Hashtbl.t) ~tables ~base (task_ops : Ir.op list)
    : unit =
  let env : (int, Ir.value) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (op : Ir.op) ->
      e.cur_loc <- op.Ir.loc;
      if op.Ir.name = Spnc_lospn.Ops.batch_read_name then begin
        let buf_lospn = Ir.operand_n op 0 in
        let buf = Hashtbl.find arg_env buf_lospn.Ir.vid in
        let transposed = Option.value ~default:false (Ir.bool_attr op "transposed") in
        let slot = Option.get (Ir.int_attr op "staticIndex") in
        let rows_v = Hashtbl.find rows_of buf.Ir.vid in
        let elem_base = scalar_of (Ir.result op).Ir.vty in
        let v = emit_read e mode ~buf ~iv ~slot ~transposed ~rows_v ~base:elem_base in
        Hashtbl.replace env (Ir.result op).Ir.vid v
      end
      else if op.Ir.name = Spnc_lospn.Ops.body_name then begin
        let blk = Option.get (Ir.entry_block op) in
        (* body args bind to the cir values of the body operands *)
        List.iter2
          (fun (barg : Ir.value) (operand : Ir.value) ->
            Hashtbl.replace env barg.Ir.vid (Hashtbl.find env operand.Ir.vid))
          blk.Ir.bargs op.Ir.operands;
        lower_body_ops e mode ~env ~tables ~base blk.Ir.bops;
        (* map body results from its yield *)
        let y =
          List.find (fun (o : Ir.op) -> o.Ir.name = Spnc_lospn.Ops.yield_name)
            blk.Ir.bops
        in
        List.iter2
          (fun (res : Ir.value) (yv : Ir.value) ->
            Hashtbl.replace env res.Ir.vid (Hashtbl.find env yv.Ir.vid))
          op.Ir.results y.Ir.operands
      end
      else if op.Ir.name = Spnc_lospn.Ops.batch_write_name then begin
        match op.Ir.operands with
        | buf_lospn :: _bi :: values ->
            let buf = Hashtbl.find arg_env buf_lospn.Ir.vid in
            let transposed =
              Option.value ~default:false (Ir.bool_attr op "transposed")
            in
            let rows_v = Hashtbl.find rows_of buf.Ir.vid in
            List.iteri
              (fun slot (v : Ir.value) ->
                emit_write e mode ~buf ~iv ~slot ~transposed ~rows_v
                  ~value:(Hashtbl.find env v.Ir.vid))
              values
        | _ -> invalid_arg "lower_cpu: malformed batch_write"
      end)
    task_ops

(* -- Task and kernel functions ------------------------------------------------ *)

let lower_task b opts sink (task : Ir.op) ~name =
  let tb = Option.get (Ir.entry_block task) in
  let arg_tys =
    List.map (fun (v : Ir.value) -> v.Ir.vty) (List.tl tb.Ir.bargs)
  in
  let ct =
    (* computation type: element of the output buffer (last arg) *)
    match List.rev arg_tys with
    | Types.MemRef (_, t) :: _ -> t
    | _ -> Types.F32
  in
  let base = Types.strip_log ct in
  let e = emitter b opts sink in
  let args = Builder.fresh_list b arg_tys in
  sink.func_start name args;
  (* bind LoSPN block args (minus the index) to function params *)
  let arg_env = Hashtbl.create 8 in
  List.iter2
    (fun (old_arg : Ir.value) (newv : Ir.value) ->
      Hashtbl.replace arg_env old_arg.Ir.vid newv)
    (List.tl tb.Ir.bargs) args;
  (* rows per buffer (dynamic dimension) *)
  let rows_of = Hashtbl.create 8 in
  List.iter
    (fun (arg : Ir.value) ->
      let d = emit e (C.dim_op b arg ~index:0) in
      Hashtbl.replace rows_of arg.Ir.vid d)
    args;
  let rows_v = Hashtbl.find rows_of (List.hd args).Ir.vid in
  let tables = hoist_tables e task in
  let mode =
    if opts.vectorize && opts.width > 1 then Vec opts.width else Scalar
  in
  let zero = const_i e 0 in
  let step = const_i e (match mode with Vec w -> w | Scalar -> 1) in
  let iv = Builder.fresh b Types.Index in
  sink.loop_start iv;
  lower_iteration (emitter b opts sink) mode ~iv ~arg_env ~rows_of ~tables ~base
    tb.Ir.bops;
  sink.loop_end ~lb:zero ~ub:rows_v ~step;
  emit_ e (Builder.op b C.return_ ());
  sink.func_end ()

(* The kernel entry: allocates the intermediate buffers and calls the
   task functions, which are lowered first, in order. *)
let lower_kernel b opts sink (kernel : Ir.op) =
  let sym =
    Option.value ~default:"spn_kernel" (Ir.string_attr kernel "sym_name")
  in
  let kb = Option.get (Ir.entry_block kernel) in
  let task_funcs = Hashtbl.create 8 in
  let counter = ref 0 in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = Spnc_lospn.Ops.task_name then begin
        let name = Printf.sprintf "%s_task_%d" sym !counter in
        incr counter;
        lower_task b opts sink op ~name;
        Hashtbl.replace task_funcs op name
      end)
    kb.Ir.bops;
  let e = emitter b opts sink in
  let args =
    Builder.fresh_list b (List.map (fun (v : Ir.value) -> v.Ir.vty) kb.Ir.bargs)
  in
  sink.func_start sym args;
  let env = Hashtbl.create 16 in
  List.iter2
    (fun (old_arg : Ir.value) newv -> Hashtbl.replace env old_arg.Ir.vid newv)
    kb.Ir.bargs args;
  let rows = emit e (C.dim_op b (List.hd args) ~index:0) in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = Spnc_lospn.Ops.alloc_name then begin
        let res = Ir.result op in
        let a =
          emit e (Builder.op b C.alloc ~operands:[ rows ] ~results:[ res.Ir.vty ] ())
        in
        Hashtbl.replace env res.Ir.vid a
      end
      else if op.Ir.name = Spnc_lospn.Ops.dealloc_name then
        emit_ e
          (Builder.op b C.dealloc
             ~operands:[ Hashtbl.find env (Ir.operand_n op 0).Ir.vid ]
             ())
      else if op.Ir.name = Spnc_lospn.Ops.copy_name then
        emit_ e
          (Builder.op b C.copy
             ~operands:
               [
                 Hashtbl.find env (Ir.operand_n op 0).Ir.vid;
                 Hashtbl.find env (Ir.operand_n op 1).Ir.vid;
               ]
             ())
      else if op.Ir.name = Spnc_lospn.Ops.task_name then
        emit_ e
          (C.call_op b
             ~callee:(Hashtbl.find task_funcs op)
             ~operands:
               (List.map (fun (v : Ir.value) -> Hashtbl.find env v.Ir.vid) op.Ir.operands))
      else if op.Ir.name = Spnc_lospn.Ops.return_name then ()
      else invalid_arg ("lower_cpu: unexpected kernel op " ^ op.Ir.name))
    kb.Ir.bops;
  emit_ e (Builder.op b C.return_ ());
  sink.func_end ()

(* The sink that builds the cir functions: the open function's block and
   its open loops' blocks, innermost first, each its arguments and its
   ops so far (reversed). *)
let block_sink b (funcs : Ir.op list ref) : sink =
  let name = ref "" and frames = ref [] in
  let add op =
    match !frames with
    | (_, ops) :: _ -> ops := op :: !ops
    | [] -> invalid_arg "lower_cpu: op outside a function"
  in
  let pop () =
    match !frames with
    | frame :: outer ->
        frames := outer;
        frame
    | [] -> invalid_arg "lower_cpu: end outside a function"
  in
  {
    op = (fun loc op -> add (stamp loc op));
    func_start =
      (fun n args ->
        name := n;
        frames := [ (args, ref []) ]);
    loop_start = (fun iv -> frames := ([ iv ], ref []) :: !frames);
    loop_end =
      (fun ~lb ~ub ~step ->
        let bargs, ops = pop () in
        let bops = List.rev (Builder.op b C.yield () :: !ops) in
        add (C.for_op b ~lb ~ub ~step ~body_block:{ Ir.bargs; bops }));
    func_end =
      (fun () ->
        let bargs, ops = pop () in
        let block = { Ir.bargs; bops = List.rev !ops } in
        funcs := C.func_op b ~sym_name:!name ~block :: !funcs);
  }

(** [run ?options m] lowers every bufferized LoSPN kernel of [m] to a cir
    module with one function per task plus the kernel entry function. *)
let run ?(options = scalar_options) (m : Ir.modul) : Ir.modul =
  Spnc_cir.Ops.register ();
  let b = Builder.seed_from m in
  let funcs = ref [] in
  let sink = block_sink b funcs in
  Builder.modul ~name:m.Ir.mname
    (List.concat_map
       (fun (op : Ir.op) ->
         if op.Ir.name = Spnc_lospn.Ops.kernel_name then begin
           funcs := [];
           lower_kernel b options sink op;
           List.rev !funcs
         end
         else [ op ])
       m.Ir.mops)

(** [isel ?options m] — the same walk with each cir op handed to the
    instruction selector as it is emitted: no cir module is built.
    {!Isel.finish} closes the result. *)
let isel ?(options = scalar_options) (m : Ir.modul) : Isel.t =
  let b = Builder.seed_from m in
  let sel = Isel.create () in
  let sink =
    {
      op = (fun loc op -> Isel.op sel loc op);
      func_start = (fun name args -> Isel.func_start sel name args);
      loop_start = (fun iv -> Isel.loop_start sel iv);
      loop_end = (fun ~lb ~ub ~step -> Isel.loop_end sel ~lb ~ub ~step);
      func_end = (fun () -> Isel.func_end sel);
    }
  in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = Spnc_lospn.Ops.kernel_name then lower_kernel b options sink op)
    m.Ir.mops;
  sel
