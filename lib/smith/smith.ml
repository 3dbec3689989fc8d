(** Case generator of the fuzzer (docs/FUZZING.md) — the SPNC analogue
    of MLIR-Smith.

    Even case ids are {e IR-level} programs emitted directly through
    {!Spnc_mlir.Builder}, so they reach attribute and type corners no
    model produces: degenerate single-operand sums/products, zero
    weights whose log-space constants are [-inf], near-singular and
    far-off-data Gaussians, single-bucket categoricals and histograms,
    shared subgraphs that are not smooth/decomposable SPNs, and batch
    sizes from 1 to 4096.  Odd case ids are {e model-derived}: a
    {!Spnc_spn.Random_spn} model translated by {!Spnc_hispn.From_model},
    which the harness also checks against the reference evaluator.
    Every program passes the verifier, round-trips the printer/parser,
    and carries [loc(...)] provenance.

    Generation is seed-deterministic: the same (seed, id) pair always
    yields the same printed IR and the same input data, so a failure
    replays from the two integers alone. *)

open Spnc_mlir
module Rng = Spnc_data.Rng
module Hi = Spnc_hispn.Ops
module Model = Spnc_spn.Model

(** Evidence kind of one feature column. *)
type var_kind =
  | Continuous  (** Gaussian leaves *)
  | Categorical of int  (** arity; 1 is a legal degenerate corner *)
  | Histogram of int  (** bucket count; breaks are [0..n] *)

type config = {
  min_features : int;
  max_features : int;
  max_depth : int;  (** region-nesting depth of the generated DAG *)
  target_ops : int;  (** soft budget on generated graph ops *)
  rows : int;  (** input rows generated per program *)
  extreme : bool;
      (** draw extreme corners: zero weights, [1e-7]-skewed mixtures,
          near-singular Gaussians, zero-density histogram buckets,
          far-out-of-distribution evidence *)
}

let default_config =
  {
    min_features = 2;
    max_features = 6;
    max_depth = 5;
    target_ops = 24;
    rows = 6;
    extreme = true;
  }

type program = {
  seed : int;
  id : int;
  modul : Ir.modul;  (** a single [hi_spn.joint_query]; verified *)
  num_features : int;
  kinds : var_kind array;
  rows : int;
  data : float array array;  (** [rows] × [num_features] evidence *)
  support_marginal : bool;
  space : Spnc_lospn.Lower_hispn.space_option;
  batch_size : int;
  model : Model.t option;  (** the source model of a model-derived case *)
}

(* Cases are independent streams, so [--case N] replays one program
   exactly. *)
let case_rng ~seed ~id = Rng.create ~seed:((seed * 1_000_003) + id)

(* -- Attribute corners ------------------------------------------------------- *)

let normalize w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total > 0.0 then Array.map (fun x -> x /. total) w else w

(* Mixture weights: Dirichlet by default; extreme draws produce a
   1e-7-skewed mixture or an exactly-zero weight (whose log-space
   constant lowers to -inf).  Always renormalized: the verifier requires
   the sum within 1e-5 of 1. *)
let gen_weights cfg rng n =
  if n = 1 then [| 1.0 |]
  else
    let w =
      if cfg.extreme && Rng.float rng < 0.2 then begin
        let w = Array.make n 1e-7 in
        w.(Rng.int rng n) <- 1.0;
        w
      end
      else Rng.dirichlet rng ~alpha:1.0 n
    in
    if cfg.extreme && n >= 2 && Rng.float rng < 0.2 then
      w.(Rng.int rng n) <- 0.0;
    normalize w

let gen_gaussian cfg rng =
  let mean =
    if cfg.extreme && Rng.float rng < 0.15 then
      Rng.choose rng [ 1e3; -1e3; 50.0; -50.0 ]
    else Rng.range rng (-2.0) 2.0
  in
  let stddev =
    if cfg.extreme && Rng.float rng < 0.2 then
      Rng.choose rng [ 1e-3; 1e3; 0.05 ]
    else Rng.range rng 0.3 2.0
  in
  (mean, stddev)

let gen_categorical cfg rng k =
  if k = 1 then [| 1.0 |]
  else begin
    let p = Rng.dirichlet rng ~alpha:0.8 k in
    if cfg.extreme && Rng.float rng < 0.25 then p.(Rng.int rng k) <- 0.0;
    normalize p
  end

let gen_densities cfg rng n =
  Array.init n (fun _ ->
      if cfg.extreme && Rng.float rng < 0.15 then
        Rng.choose rng [ 0.0; 1e6; 1e-9 ]
      else Rng.range rng 0.01 2.0)

(* Evidence rows: in-support values per feature kind, far-off corners
   when [extreme], NaN (marginalized) entries under [support_marginal]. *)
let gen_data (cfg : config) rng kinds ~support_marginal =
  Array.init cfg.rows (fun _ ->
      Array.map
        (fun kind ->
          let base =
            match kind with
            | Continuous ->
                if cfg.extreme && Rng.float rng < 0.1 then
                  Rng.choose rng [ 1e3; -1e3; 0.0 ]
                else Rng.range rng (-3.0) 3.0
            | Categorical k -> float_of_int (Rng.int rng k)
            | Histogram n -> float_of_int (Rng.int rng n) +. Rng.float rng
          in
          if support_marginal && Rng.float rng < 0.15 then Float.nan else base)
        kinds)

(* -- Structure --------------------------------------------------------------- *)

let generate ?(config = default_config) ~seed ~id () : program =
  let cfg = config in
  let rng = case_rng ~seed ~id in
  let nf =
    cfg.min_features + Rng.int rng (cfg.max_features - cfg.min_features + 1)
  in
  let kinds =
    Array.init nf (fun _ ->
        match Rng.int rng 4 with
        | 0 | 1 -> Continuous
        | 2 -> Categorical (1 + Rng.int rng 5)
        | _ -> Histogram (1 + Rng.int rng 4))
  in
  let support_marginal = Rng.float rng < 0.3 in
  let space =
    Rng.choose rng
      Spnc_lospn.Lower_hispn.[ Auto; Auto; Force_log; Force_linear ]
  in
  let batch_size = Rng.choose rng [ 1; 3; 8; 4096 ] in
  let b = Builder.create () in
  let node_id = ref 0 in
  let next_loc () =
    incr node_id;
    Loc.node !node_id
  in
  let body =
    Builder.block b
      ~arg_tys:(List.init nf (fun _ -> Types.F32))
      (fun args ->
        let args = Array.of_list args in
        let ops = ref [] in
        let emit op =
          ops := op :: !ops;
          Ir.result op
        in
        (* already-built subtrees, reusable to form shared (DAG, not
           tree) structure — including sharings no valid SPN has *)
        let pool = ref [] in
        let budget = ref cfg.target_ops in
        let gen_leaf () =
          decr budget;
          let f = Rng.int rng nf in
          let loc = next_loc () in
          let v = args.(f) in
          match kinds.(f) with
          | Continuous ->
              let mean, stddev = gen_gaussian cfg rng in
              emit (Hi.gaussian b ~loc ~evidence:v ~mean ~stddev ())
          | Categorical k ->
              emit
                (Hi.categorical b ~loc ~index:v
                   ~probabilities:(gen_categorical cfg rng k)
                   ())
          | Histogram n ->
              emit
                (Hi.histogram b ~loc ~index:v
                   ~breaks:(Array.init (n + 1) (fun i -> i))
                   ~densities:(gen_densities cfg rng n)
                   ())
        in
        let rec gen_node depth =
          if !pool <> [] && Rng.float rng < 0.2 then Rng.choose rng !pool
          else if depth = 0 || !budget <= 1 then begin
            let v = gen_leaf () in
            pool := v :: !pool;
            v
          end
          else begin
            let arity = Rng.choose rng [ 1; 2; 2; 2; 3; 3; 4; 5 ] in
            let children = List.init arity (fun _ -> gen_node (depth - 1)) in
            decr budget;
            let loc = next_loc () in
            let v =
              if Rng.int rng 2 = 0 then
                emit
                  (Hi.sum b ~loc ~operands:children
                     ~weights:(gen_weights cfg rng arity)
                     ())
              else emit (Hi.product b ~loc ~operands:children ())
            in
            pool := v :: !pool;
            v
          end
        in
        let root_v = gen_node cfg.max_depth in
        let root_op = Hi.root b ~value:root_v in
        List.rev (root_op :: !ops))
  in
  let graph_op = Hi.graph b ~num_features:nf ~body in
  let query =
    Hi.joint_query b ~num_features:nf ~batch_size ~input_type:Types.F32
      ~support_marginal ~graph_op
  in
  let modul =
    Builder.modul ~name:(Printf.sprintf "smith_s%d_c%d" seed id) [ query ]
  in
  {
    seed;
    id;
    modul;
    num_features = nf;
    kinds;
    rows = cfg.rows;
    data = gen_data cfg rng kinds ~support_marginal;
    support_marginal;
    space;
    batch_size;
    model = None;
  }

(* Evidence kind of each feature of a model: integral indices when any
   leaf over it is discrete (Random_spn gives categoricals and histograms
   one arity, so the index stays in both supports), else continuous. *)
let kinds_of_model (m : Model.t) =
  let kinds = Array.make m.Model.num_features Continuous in
  Model.iter_unique
    (fun n ->
      match n.Model.desc with
      | Model.Categorical { var; probs } ->
          kinds.(var) <- Categorical (Array.length probs)
      | Model.Histogram { var; densities; _ } ->
          if kinds.(var) = Continuous then
            kinds.(var) <- Categorical (Array.length densities)
      | _ -> ())
    m;
  kinds

(* Random_spn mints node ids from a process-wide counter; renumber them
   children-first, so a case carries the same provenance (loc(spn.node N))
   whatever the process generated before it. *)
let renumber (m : Model.t) =
  let memo = Hashtbl.create 64 and next = ref 0 in
  let rec go (n : Model.node) =
    match Hashtbl.find_opt memo n.Model.id with
    | Some n' -> n'
    | None ->
        let desc =
          match n.Model.desc with
          | Model.Sum cs -> Model.Sum (List.map (fun (w, c) -> (w, go c)) cs)
          | Model.Product cs -> Model.Product (List.map go cs)
          | leaf -> leaf
        in
        let n' = { Model.id = !next; desc } in
        incr next;
        Hashtbl.add memo n.Model.id n';
        n'
  in
  { m with Model.root = go m.Model.root }

let of_model ?(config = default_config) ~seed ~id () : program =
  (* no far-off evidence: it underflows a linear-space kernel to -inf
     where the log-space reference stays finite, by design *)
  let cfg = { config with extreme = false } in
  let rng = case_rng ~seed ~id in
  let num_features = 3 + Rng.int rng 6 in
  let name = Printf.sprintf "model_s%d_c%d" seed id in
  (* one case in four takes the speaker-ID shape at >= 200 ops *)
  let model =
    renumber
      (if Rng.float rng < 0.25 then
         Spnc_spn.Random_spn.generate_sized ~name rng
           { Spnc_spn.Random_spn.speaker_id_config with num_features }
           ~min_ops:200
       else
         Spnc_spn.Random_spn.generate ~name rng
           {
             Spnc_spn.Random_spn.default_config with
             num_features;
             max_depth = cfg.max_depth;
           })
  in
  let support_marginal = Rng.float rng < 0.3 in
  let batch_size = Rng.choose rng [ 1; 3; 8; 4096 ] in
  let kinds = kinds_of_model model in
  {
    seed;
    id;
    modul =
      Spnc_hispn.From_model.translate
        ~query:
          {
            Spnc_hispn.From_model.batch_size;
            input_type = Types.F32;
            support_marginal;
          }
        model;
    num_features;
    kinds;
    rows = cfg.rows;
    data = gen_data cfg rng kinds ~support_marginal;
    support_marginal;
    space = Spnc_lospn.Lower_hispn.Auto;
    batch_size;
    model = Some model;
  }

let case ?config ~seed ~id () =
  if id mod 2 = 0 then generate ?config ~seed ~id ()
  else of_model ?config ~seed ~id ()

let flat_data (p : program) = Array.concat (Array.to_list p.data)

let data_to_csv (data : float array array) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%h") row)));
      Buffer.add_char buf '\n')
    data;
  Buffer.contents buf
