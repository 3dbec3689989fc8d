(** Lowering from HiSPN to LoSPN (paper §IV-A3).

    The HiSPN query becomes a [lo_spn.kernel] holding a single
    [lo_spn.task]; the SPN DAG becomes the task's [lo_spn.body].  Two
    SPN-specific decisions happen here:

    - {b datatype selection}: the abstract [!hi_spn.probability] type is
      resolved to a concrete computation type.  The analysis estimates the
      worst-case log-magnitude of the result from the graph depth and the
      smallest leaf probabilities; if an f32 linear computation could
      underflow, log-space computation ([!lo_spn.log<f32>]) is selected
      (§III-A, §III-B);
    - {b binary decomposition}: variadic HiSPN sums/products become trees
      of two-operand [lo_spn.add]/[lo_spn.mul]; weighted sums are
      decomposed into a constant multiplication per child followed by the
      additions (§III-B). *)

open Spnc_mlir

type datatype_choice = {
  use_log_space : bool;
  base : Types.t;  (** F32 or F64 *)
  worst_log2_magnitude : float;
      (** estimated log2 of the smallest intermediate value *)
}

(** Space to force, overriding the analysis. *)
type space_option = Auto | Force_linear | Force_log

let space_to_string = function
  | Auto -> "auto"
  | Force_linear -> "linear"
  | Force_log -> "log"

type options = {
  space : space_option;
  base_type : Types.t;
  kernel_name : string;
}

let default_options = { space = Auto; base_type = Types.F32; kernel_name = "spn_kernel" }

(* -- Datatype analysis ------------------------------------------------------ *)

(* Walk the HiSPN graph bottom-up, propagating a conservative lower bound
   of the log2-magnitude each node can produce.  Gaussians are bounded by
   the density at ~6 sigma; categorical/histogram by their smallest
   non-zero entry. *)
let analyze_magnitude (graph_ops : Ir.op list) : float =
  let log2 x = log x /. log 2.0 in
  let bounds : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let bound_of (v : Ir.value) =
    Option.value ~default:0.0 (Hashtbl.find_opt bounds v.Ir.vid)
  in
  let min_positive a =
    Array.fold_left
      (fun acc p -> if p > 0.0 then Float.min acc p else acc)
      1.0 a
  in
  List.iter
    (fun (op : Ir.op) ->
      let set b = match op.Ir.results with
        | [ r ] -> Hashtbl.replace bounds r.Ir.vid b
        | _ -> ()
      in
      match op.Ir.name with
      | "hi_spn.gaussian" ->
          let stddev = Option.value ~default:1.0 (Ir.float_attr op "stddev") in
          (* density at 6 sigma *)
          let v = exp (-18.0) /. (stddev *. sqrt (2.0 *. Float.pi)) in
          set (log2 v)
      | "hi_spn.categorical" ->
          let probs = Option.value ~default:[| 1.0 |] (Ir.dense_attr op "probabilities") in
          set (log2 (min_positive probs))
      | "hi_spn.histogram" ->
          let densities = Option.value ~default:[| 1.0 |] (Ir.dense_attr op "densities") in
          set (log2 (min_positive densities))
      | "hi_spn.product" ->
          set (List.fold_left (fun acc v -> acc +. bound_of v) 0.0 op.Ir.operands)
      | "hi_spn.sum" ->
          (* a mixture is at least its smallest weighted term *)
          let weights = Option.value ~default:[||] (Ir.dense_attr op "weights") in
          let w_min = min_positive weights in
          let child_min =
            List.fold_left (fun acc v -> Float.min acc (bound_of v)) 0.0 op.Ir.operands
          in
          set (log2 w_min +. child_min)
      | _ -> ())
    graph_ops;
  (* worst over all produced bounds (the root dominates, but partial
     products can dip lower) *)
  Hashtbl.fold (fun _ b acc -> Float.min b acc) bounds 0.0

(** [choose_datatype ~options graph_ops] implements the deferred-datatype
    decision.  f32 denormals die below 2^-149; we keep a safety margin. *)
let choose_datatype ~(options : options) (graph_ops : Ir.op list) :
    datatype_choice =
  let worst = analyze_magnitude graph_ops in
  let use_log =
    match options.space with
    | Force_log -> true
    | Force_linear -> false
    | Auto -> (
        match options.base_type with
        | Types.F64 -> worst < -1000.0
        | _ -> worst < -120.0)
  in
  { use_log_space = use_log; base = options.base_type; worst_log2_magnitude = worst }

(* -- Lowering ---------------------------------------------------------------- *)

let log_of_weight w = if w <= 0.0 then Float.neg_infinity else log w

(** Translation of the HiSPN graph body into LoSPN arithmetic, given a
    value environment mapping HiSPN feature block-args / node results to
    LoSPN values.  Returns the op list and the value of the root. *)
let lower_graph_ops b ~(ct : Types.t) ~support_marginal
    ~(env : Ir.value Ir.VMap.t) (graph_ops : Ir.op list) :
    Ir.op list * Ir.value =
  let is_log = match ct with Types.Log _ -> true | _ -> false in
  let ops_rev = ref [] in
  let emit op =
    ops_rev := op :: !ops_rev;
    Ir.result op
  in
  let env = ref env in
  let subst (v : Ir.value) =
    match Ir.VMap.find_opt v !env with
    | Some v' -> v'
    | None -> v
  in
  let root_value = ref None in
  (* balanced binary reduction keeps the op-tree depth logarithmic *)
  let rec reduce mk = function
    | [] -> invalid_arg "lower_graph_ops: empty reduction"
    | [ x ] -> x
    | xs ->
        let rec pairs = function
          | a :: b :: rest -> mk a b :: pairs rest
          | tail -> tail
        in
        reduce mk (pairs xs)
  in
  List.iter
    (fun (op : Ir.op) ->
      let map_result value =
        match op.Ir.results with
        | [ r ] -> env := Ir.VMap.add r value !env
        | _ -> ()
      in
      (* every LoSPN op derived from this HiSPN op — including the whole
         constant/mul/add expansion of a weighted sum — inherits its
         provenance, so the SPN node id survives the lowering *)
      let loc = op.Ir.loc in
      match op.Ir.name with
      | "hi_spn.gaussian" ->
          let mean = Option.get (Ir.float_attr op "mean") in
          let stddev = Option.get (Ir.float_attr op "stddev") in
          map_result
            (emit
               (Ops.gaussian b ~loc ~evidence:(subst (Ir.operand_n op 0)) ~mean
                  ~stddev ~support_marginal ~ty:ct ()))
      | "hi_spn.categorical" ->
          let probabilities = Option.get (Ir.dense_attr op "probabilities") in
          let probabilities =
            if is_log then Array.map log_of_weight probabilities
            else probabilities
          in
          map_result
            (emit
               (Ops.categorical b ~loc ~index:(subst (Ir.operand_n op 0))
                  ~probabilities ~support_marginal ~ty:ct ()))
      | "hi_spn.histogram" ->
          let densities = Option.get (Ir.dense_attr op "densities") in
          let densities =
            if is_log then Array.map log_of_weight densities else densities
          in
          let breaks =
            match Ir.attr op "buckets" with
            | Some (Attr.Array l) ->
                Array.of_list
                  (List.map (fun a -> Option.get (Attr.as_int a)) l)
            | _ -> [||]
          in
          map_result
            (emit
               (Ops.histogram b ~loc ~index:(subst (Ir.operand_n op 0)) ~breaks
                  ~densities ~support_marginal ~ty:ct ()))
      | "hi_spn.product" ->
          let children = List.map subst op.Ir.operands in
          map_result
            (reduce (fun l r -> emit (Ops.mul b ~loc ~lhs:l ~rhs:r ~ty:ct ())) children)
      | "hi_spn.sum" ->
          let weights = Option.get (Ir.dense_attr op "weights") in
          let children = List.map subst op.Ir.operands in
          let terms =
            List.mapi
              (fun i child ->
                let w = weights.(i) in
                let w = if is_log then log_of_weight w else w in
                let c = emit (Ops.constant b ~loc ~value:w ~ty:ct ()) in
                emit (Ops.mul b ~loc ~lhs:c ~rhs:child ~ty:ct ()))
              children
          in
          map_result
            (reduce (fun l r -> emit (Ops.add b ~loc ~lhs:l ~rhs:r ~ty:ct ())) terms)
      | "hi_spn.root" -> root_value := Some (subst (Ir.operand_n op 0))
      | other -> invalid_arg ("lower_graph_ops: unexpected op " ^ other))
    graph_ops;
  match !root_value with
  | Some r -> (List.rev !ops_rev, r)
  | None -> invalid_arg "lower_graph_ops: graph has no hi_spn.root"

(** [run ?options m] lowers a HiSPN module to LoSPN (tensor stage). *)
let run ?(options = default_options) (m : Ir.modul) : Ir.modul =
  Ops.register ();
  let b = Builder.seed_from m in
  let query =
    match
      List.find_opt (fun (o : Ir.op) -> o.Ir.name = "hi_spn.joint_query") m.Ir.mops
    with
    | Some q -> q
    | None -> invalid_arg "lower_hispn: module has no hi_spn.joint_query"
  in
  let graph =
    match
      List.find_opt
        (fun (o : Ir.op) -> o.Ir.name = "hi_spn.graph")
        (Ir.single_region_ops query)
    with
    | Some g -> g
    | None -> invalid_arg "lower_hispn: query has no hi_spn.graph"
  in
  let num_features = Option.get (Ir.int_attr query "numFeatures") in
  let batch_size = Option.get (Ir.int_attr query "batchSize") in
  let support_marginal =
    Option.value ~default:false (Ir.bool_attr query "supportMarginal")
  in
  let input_type =
    Option.value ~default:Types.F32 (Ir.type_attr query "inputType")
  in
  let graph_block = Option.get (Ir.entry_block graph) in
  let choice = choose_datatype ~options graph_block.Ir.bops in
  let ct = if choice.use_log_space then Types.Log choice.base else choice.base in
  let input_tensor_ty = Types.Tensor ([ None; Some num_features ], input_type) in
  let result_tensor_ty = Types.Tensor ([ None; Some 1 ], ct) in
  (* task region: ^bb(%index: index, %input: tensor<?,F,ity>) *)
  let task_block =
    Builder.block b ~arg_tys:[ Types.Index; input_tensor_ty ] (fun args ->
        let batch_index = List.nth args 0 in
        let input = List.nth args 1 in
        (* extract each feature used by the graph *)
        let feature_args = graph_block.Ir.bargs in
        let extracts =
          List.mapi
            (fun f arg ->
              let ex =
                Ops.batch_extract b ~tensor:input ~dynamic_index:batch_index
                  ~static_index:f ~transposed:false ~result_ty:input_type
              in
              (arg, ex))
            feature_args
        in
        (* body op: operands are the extracted features *)
        let body_block =
          Builder.block b
            ~arg_tys:(List.map (fun _ -> input_type) feature_args)
            (fun body_args ->
              let env =
                List.fold_left2
                  (fun acc (feat_arg, _) barg -> Ir.VMap.add feat_arg barg acc)
                  Ir.VMap.empty extracts body_args
              in
              let ops, root =
                lower_graph_ops b ~ct ~support_marginal ~env
                  graph_block.Ir.bops
              in
              ops @ [ Ops.yield b ~values:[ root ] ])
        in
        let body_op =
          Ops.body b
            ~inputs:(List.map (fun (_, ex) -> Ir.result ex) extracts)
            ~result_tys:[ ct ] ~body_block
        in
        let collect =
          Ops.batch_collect b ~batch_index ~values:[ Ir.result body_op ]
            ~transposed:true ~result_ty:result_tensor_ty
        in
        List.map snd extracts @ [ body_op; collect; Ops.yield b ~values:[ Ir.result collect ] ])
  in
  let kernel_block =
    Builder.block b ~arg_tys:[ input_tensor_ty ] (fun args ->
        let input = List.hd args in
        let task =
          Ops.task b ~inputs:[ input ] ~batch_size
            ~result_tys:[ result_tensor_ty ] ~body_block:task_block
        in
        [ task; Ops.return_ b ~values:[ Ir.result task ] ])
  in
  let kernel =
    Ops.kernel b ~sym_name:options.kernel_name
      ~result_tys:[ result_tensor_ty ] ~body_block:kernel_block
  in
  Builder.modul ~name:m.Ir.mname [ kernel ]
