(** Tests for the SPN model substrate: construction, validation, reference
    inference, serialization (binary + text), generators. *)

open Spnc_spn
module Rng = Spnc_data.Rng

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-9

(* The example-style SPN: mixture of two products over x0, x1 *)
let example_spn () =
  let g00 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g01 = Model.gaussian ~var:1 ~mean:1.0 ~stddev:0.5 in
  let g10 = Model.gaussian ~var:0 ~mean:2.0 ~stddev:1.5 in
  let g11 = Model.gaussian ~var:1 ~mean:(-1.0) ~stddev:1.0 in
  let p0 = Model.product [ g00; g01 ] in
  let p1 = Model.product [ g10; g11 ] in
  Model.make ~name:"example" ~num_features:2
    (Model.sum [ (0.3, p0); (0.7, p1) ])

let discrete_spn () =
  let c0 = Model.categorical ~var:0 ~probs:[| 0.2; 0.5; 0.3 |] in
  let h1 =
    Model.histogram ~var:1 ~breaks:[| 0; 2; 4 |] ~densities:[| 0.25; 0.25 |]
  in
  Model.make ~name:"discrete" ~num_features:2 (Model.product [ c0; h1 ])

(* -- Model construction --------------------------------------------------- *)

let test_constructors_validate () =
  (match Model.gaussian ~var:0 ~mean:0.0 ~stddev:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero stddev accepted");
  (match Model.sum [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sum accepted");
  (match Model.histogram ~var:0 ~breaks:[| 0 |] ~densities:[| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad histogram accepted");
  match Model.sum_normalized [ (2.0, Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0);
                               (2.0, Model.gaussian ~var:0 ~mean:1.0 ~stddev:1.0) ] with
  | n -> (
      match n.Model.desc with
      | Model.Sum [ (w1, _); (w2, _) ] ->
          check tfloat "normalized w1" 0.5 w1;
          check tfloat "normalized w2" 0.5 w2
      | _ -> Alcotest.fail "not a sum")

let test_node_count_dag_sharing () =
  (* shared leaf counted once *)
  let shared = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let other = Model.gaussian ~var:1 ~mean:0.0 ~stddev:1.0 in
  let p1 = Model.product [ shared; other ] in
  let p2 = Model.product [ shared; Model.gaussian ~var:1 ~mean:1.0 ~stddev:1.0 ] in
  let t =
    Model.make ~num_features:2 (Model.sum [ (0.5, p1); (0.5, p2) ])
  in
  (* nodes: shared, other, g3, p1, p2, sum = 6 *)
  check tint "dag node count" 6 (Model.node_count t)

let test_depth () =
  let t = example_spn () in
  check tint "depth" 2 (Model.depth t);
  let leaf_only =
    Model.make ~num_features:1 (Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0)
  in
  check tint "leaf depth" 0 (Model.depth leaf_only)

let test_postorder_children_first () =
  let t = example_spn () in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n : Model.node) ->
      List.iter
        (fun (c : Model.node) ->
          if not (Hashtbl.mem seen c.Model.id) then
            Alcotest.failf "child %d after parent %d" c.Model.id n.Model.id)
        (Model.children n);
      Hashtbl.replace seen n.Model.id ())
    (Model.nodes_postorder t)

(* -- Validation ------------------------------------------------------------ *)

let test_validate_accepts_valid () =
  check tbool "example valid" true (Validate.is_valid (example_spn ()));
  check tbool "discrete valid" true (Validate.is_valid (discrete_spn ()))

let test_validate_rejects_unnormalized_sum () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:0 ~mean:1.0 ~stddev:1.0 in
  let t = Model.make ~num_features:1 (Model.sum [ (0.5, g0); (0.2, g1) ]) in
  check tbool "unnormalized rejected" false (Validate.is_valid t)

let test_validate_rejects_nonsmooth () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:1 ~mean:0.0 ~stddev:1.0 in
  (* sum over different scopes *)
  let t = Model.make ~num_features:2 (Model.sum [ (0.5, g0); (0.5, g1) ]) in
  check tbool "non-smooth rejected" false (Validate.is_valid t)

let test_validate_rejects_nondecomposable () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:0 ~mean:1.0 ~stddev:1.0 in
  (* product over overlapping scopes *)
  let t = Model.make ~num_features:1 (Model.product [ g0; g1 ]) in
  check tbool "non-decomposable rejected" false (Validate.is_valid t)

let test_validate_rejects_var_out_of_range () =
  let g = Model.gaussian ~var:5 ~mean:0.0 ~stddev:1.0 in
  let t = Model.make ~num_features:2 g in
  check tbool "var out of range" false (Validate.is_valid t)

(* The validator's oracle: the same checks with scopes on [Set.Make (Int)],
   which also returns the issues in [Model.iter_unique] order. *)
module ISet = Set.Make (Int)

let reference_check (t : Model.t) : Validate.issue list =
  let weight_eps = 1e-6 in
  let issues = ref [] in
  let add node_id fmt =
    Fmt.kstr (fun message -> issues := { Validate.node_id; message } :: !issues) fmt
  in
  let scope = Hashtbl.create 256 in
  Model.iter_unique
    (fun n ->
      let union cs =
        List.fold_left (fun acc c -> ISet.union acc (Hashtbl.find scope c.Model.id)) ISet.empty cs
      in
      Hashtbl.replace scope n.Model.id
        (match n.Model.desc with
        | Model.Gaussian { var; _ } | Model.Categorical { var; _ } | Model.Histogram { var; _ } ->
            ISet.singleton var
        | Model.Sum cs -> union (List.map snd cs)
        | Model.Product cs -> union cs))
    t;
  let in_range var = var >= 0 && var < t.Model.num_features in
  Model.iter_unique
    (fun n ->
      let id = n.Model.id in
      match n.Model.desc with
      | Model.Sum cs ->
          let w_total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 cs in
          if Float.abs (w_total -. 1.0) > weight_eps then
            add id "sum weights total %.9f, expected 1.0" w_total;
          List.iter (fun (w, _) -> if w < 0.0 then add id "negative weight %g" w) cs;
          (match cs with
          | (_, first) :: rest ->
              let s0 = Hashtbl.find scope first.Model.id in
              List.iter
                (fun (_, c) ->
                  if not (ISet.equal s0 (Hashtbl.find scope c.Model.id)) then
                    add id "not smooth: child %d has different scope" c.Model.id)
                rest
          | [] -> add id "sum with no children")
      | Model.Product cs ->
          ignore
            (List.fold_left
               (fun union c ->
                 let s = Hashtbl.find scope c.Model.id in
                 if not (ISet.is_empty (ISet.inter union s)) then
                   add id "not decomposable: child %d overlaps previous scope" c.Model.id;
                 ISet.union union s)
               ISet.empty cs);
          if cs = [] then add id "product with no children"
      | Model.Gaussian { var; stddev; _ } ->
          if stddev <= 0.0 then add id "gaussian stddev %g <= 0" stddev;
          if not (in_range var) then add id "gaussian variable %d out of range" var
      | Model.Categorical { var; probs } ->
          let total = Array.fold_left ( +. ) 0.0 probs in
          if Float.abs (total -. 1.0) > weight_eps then
            add id "categorical probabilities total %.9f" total;
          if not (in_range var) then add id "categorical variable %d out of range" var
      | Model.Histogram { var; breaks; densities } ->
          if not (in_range var) then add id "histogram variable %d out of range" var;
          Array.iteri
            (fun i b ->
              if i > 0 && b <= breaks.(i - 1) then
                add id "histogram breaks not strictly increasing at %d" i)
            breaks;
          let mass = ref 0.0 in
          Array.iteri
            (fun i d -> mass := !mass +. (d *. float_of_int (breaks.(i + 1) - breaks.(i))))
            densities;
          if Float.abs (!mass -. 1.0) > 1e-3 then
            add id "histogram mass %.9f, expected 1.0" !mass)
    t;
  List.rev !issues

(* [t] with the variable of its [k]-th leaf (children first) set to [var],
   sharing kept *)
let with_leaf_var (t : Model.t) k var : Model.t =
  let memo = Hashtbl.create 256 and leaf = ref (-1) in
  let pick v = if !leaf = k then var else v in
  let rec go (n : Model.node) =
    match Hashtbl.find_opt memo n.Model.id with
    | Some n' -> n'
    | None ->
        let n' =
          match n.Model.desc with
          | Model.Sum cs -> Model.sum (List.map (fun (w, c) -> (w, go c)) cs)
          | Model.Product cs -> Model.product (List.map go cs)
          | Model.Gaussian { var = v; mean; stddev } ->
              incr leaf;
              Model.mk (Model.Gaussian { var = pick v; mean; stddev })
          | Model.Categorical { var = v; probs } ->
              incr leaf;
              Model.mk (Model.Categorical { var = pick v; probs })
          | Model.Histogram { var = v; breaks; densities } ->
              incr leaf;
              Model.mk (Model.Histogram { var = pick v; breaks; densities })
        in
        Hashtbl.replace memo n.Model.id n';
        n'
  in
  Model.make ~name:t.Model.name ~num_features:t.Model.num_features (go t.Model.root)

let test_validate_matches_sets () =
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun nf ->
      for seed = 1 to 4 do
        let t =
          Random_spn.generate (Rng.create ~seed)
            { Random_spn.default_config with num_features = nf; max_depth = 5 }
        in
        let leaf var = Model.gaussian ~var ~mean:0.0 ~stddev:1.0 in
        let on root = Model.make ~num_features:nf root in
        let leaves = Model.fold_unique (fun k n -> if Model.is_leaf n then k + 1 else k) 0 t in
        let mutants =
          [
            on (Model.sum [ (0.5, t.Model.root); (0.5, leaf (nf - 1)) ]);
            on (Model.product [ t.Model.root; leaf 0 ]);
            on (Model.product [ t.Model.root; leaf nf ]);
            on (Model.product [ t.Model.root; leaf (-1); Model.product [ leaf (-1); leaf (-2) ] ]);
          ]
          @ List.init 6 (fun _ ->
                with_leaf_var t (Rng.int rng leaves) (Rng.int rng (nf + 4) - 2))
        in
        check tint "valid model has no issues" 0 (List.length (Validate.check t));
        List.iter
          (fun m ->
            let want = reference_check m and got = Validate.check m in
            if want <> got then
              Alcotest.failf "%d features: bitsets found@.%s@.sets found@.%s" nf
                (Validate.issues_to_string got) (Validate.issues_to_string want))
          (t :: mutants);
        (* the fixed mutants are invalid in the ways their names say *)
        List.iteri
          (fun i m ->
            if i > 0 || nf > 1 then
              check tbool "mutant rejected" true (Validate.check m <> []))
          (List.filteri (fun i _ -> i < 4) mutants)
      done)
    [ 1; 62; 63; 200 ]

(* -- Inference --------------------------------------------------------------- *)

let test_inference_manual () =
  let t = example_spn () in
  let row = [| 0.5; 0.5 |] in
  let expected =
    let pdf mean stddev x = Infer.gaussian_pdf ~mean ~stddev x in
    (0.3 *. pdf 0.0 1.0 0.5 *. pdf 1.0 0.5 0.5)
    +. (0.7 *. pdf 2.0 1.5 0.5 *. pdf (-1.0) 1.0 0.5)
  in
  check (Alcotest.float 1e-9) "linear" expected (Infer.likelihood t row);
  check (Alcotest.float 1e-9) "log" (log expected) (Infer.log_likelihood t row)

let test_inference_discrete () =
  let t = discrete_spn () in
  check (Alcotest.float 1e-12) "cat*hist" (0.5 *. 0.25)
    (Infer.likelihood t [| 1.0; 1.0 |]);
  check (Alcotest.float 1e-12) "out-of-domain categorical" 0.0
    (Infer.likelihood t [| 7.0; 1.0 |]);
  check (Alcotest.float 1e-12) "out-of-domain histogram" 0.0
    (Infer.likelihood t [| 1.0; 9.0 |])

let test_inference_marginal () =
  let t = example_spn () in
  (* marginalizing x1 leaves the mixture of x0 marginals *)
  let row = [| 0.5; Float.nan |] in
  let expected =
    (0.3 *. Infer.gaussian_pdf ~mean:0.0 ~stddev:1.0 0.5)
    +. (0.7 *. Infer.gaussian_pdf ~mean:2.0 ~stddev:1.5 0.5)
  in
  check (Alcotest.float 1e-9) "marginal" (log expected) (Infer.log_likelihood t row);
  (* marginalizing everything gives probability 1 *)
  check (Alcotest.float 1e-9) "all marginal" 0.0
    (Infer.log_likelihood t [| Float.nan; Float.nan |])

let test_log_linear_agree_prop =
  QCheck.Test.make ~count:100 ~name:"log and linear inference agree"
    QCheck.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (x, y) ->
      let t = example_spn () in
      let ll = Infer.log_likelihood t [| x; y |] in
      let l = Infer.likelihood t [| x; y |] in
      Float.abs (exp ll -. l) < 1e-9 *. Float.max 1.0 l)

let test_log_sum_exp_stability () =
  (* values that would overflow exp *)
  let a = -1000.0 and b = -1001.0 in
  let r = Infer.log_sum_exp a b in
  check tbool "finite" true (Float.is_finite r);
  check (Alcotest.float 1e-9) "lse" (a +. log (1.0 +. exp (b -. a))) r;
  check (Alcotest.float 1e-9) "neg_inf identity" (-3.0)
    (Infer.log_sum_exp Float.neg_infinity (-3.0))

let test_classify () =
  let rng = Rng.create ~seed:42 in
  let speech = Spnc_data.Speech.generate ~num_speakers:3 ~scale:0.002 rng () in
  (* build per-speaker models directly from the ground-truth mixtures *)
  let models =
    Array.map
      (fun (g : Spnc_data.Synth.gmm) ->
        let comps =
          Array.to_list
            (Array.mapi
               (fun k w ->
                 ( w,
                   Model.product
                     (List.init Spnc_data.Speech.num_features (fun f ->
                          Model.gaussian ~var:f ~mean:g.Spnc_data.Synth.means.(k).(f)
                            ~stddev:g.Spnc_data.Synth.stddevs.(k).(f))) ))
               g.Spnc_data.Synth.weights)
        in
        Model.make ~num_features:Spnc_data.Speech.num_features
          (Model.sum comps))
      speech.Spnc_data.Speech.gmms
  in
  let acc = Infer.accuracy models speech.Spnc_data.Speech.data in
  check tbool (Printf.sprintf "accuracy %.2f > 0.7" acc) true (acc > 0.7)

(* -- Serialization ------------------------------------------------------------ *)

let models_agree t1 t2 rows =
  Array.for_all
    (fun row ->
      let a = Infer.log_likelihood t1 row and b = Infer.log_likelihood t2 row in
      (Float.is_nan a && Float.is_nan b)
      || a = b (* covers equal infinities *)
      || Float.abs (a -. b) < 1e-12)
    rows

let random_rows rng n f =
  Array.init n (fun _ -> Array.init f (fun _ -> Rng.range rng (-4.0) 4.0))

let test_binary_roundtrip () =
  let t = example_spn () in
  let s = Serialize.to_string t in
  match Serialize.of_string s with
  | Error e -> Alcotest.failf "deserialize failed: %s" e
  | Ok t' ->
      let rng = Rng.create ~seed:7 in
      check tbool "semantics preserved" true
        (models_agree t t' (random_rows rng 50 2));
      check tint "structure preserved" (Model.node_count t) (Model.node_count t')

let test_binary_roundtrip_discrete () =
  let t = discrete_spn () in
  match Serialize.of_string (Serialize.to_string t) with
  | Error e -> Alcotest.failf "deserialize failed: %s" e
  | Ok t' ->
      check tbool "semantics preserved" true
        (models_agree t t'
           [| [| 0.0; 0.0 |]; [| 1.0; 1.0 |]; [| 2.0; 3.0 |]; [| 5.0; 5.0 |] |])

let test_binary_preserves_sharing () =
  let shared = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let o1 = Model.gaussian ~var:1 ~mean:0.0 ~stddev:1.0 in
  let o2 = Model.gaussian ~var:1 ~mean:1.0 ~stddev:1.0 in
  let t =
    Model.make ~num_features:2
      (Model.sum
         [ (0.5, Model.product [ shared; o1 ]); (0.5, Model.product [ shared; o2 ]) ])
  in
  let t' = Serialize.of_string_exn (Serialize.to_string t) in
  check tint "sharing preserved" (Model.node_count t) (Model.node_count t')

let test_binary_rejects_corruption () =
  let t = example_spn () in
  let s = Bytes.of_string (Serialize.to_string t) in
  Bytes.set s (Bytes.length s / 2)
    (Char.chr ((Char.code (Bytes.get s (Bytes.length s / 2)) + 1) land 0xFF));
  match Serialize.of_string (Bytes.to_string s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted input accepted"

let test_binary_rejects_truncation () =
  let t = example_spn () in
  let s = Serialize.to_string t in
  match Serialize.of_string (String.sub s 0 (String.length s / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted"

let test_binary_rejects_bad_magic () =
  match Serialize.of_string "XXXX_not_an_spn_file" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_text_roundtrip () =
  let t = example_spn () in
  let s = Text.to_string t in
  let t' = Text.of_string s in
  let rng = Rng.create ~seed:11 in
  check tbool "text roundtrip semantics" true
    (models_agree t t' (random_rows rng 50 2))

let test_text_roundtrip_discrete () =
  let t = discrete_spn () in
  let t' = Text.of_string (Text.to_string t) in
  check tbool "discrete text roundtrip" true
    (models_agree t t' [| [| 0.0; 1.0 |]; [| 1.0; 3.0 |]; [| 2.0; 0.0 |] |])

let test_text_parse_errors () =
  List.iter
    (fun src ->
      match Text.of_string src with
      | exception Text.Error _ -> ()
      | _ -> Alcotest.failf "accepted %S" src)
    [
      "";
      "spn \"x\" features 2 Sum()";
      "spn \"x\" features 2 Gaussian(x0; 1.0)";
      "spn \"x\" features 2 Frobnicate(x0; 1.0, 2.0)";
      "not even close";
    ]

let test_text_comments_and_ws () =
  let t =
    Text.of_string
      "spn \"c\" features 1 // a comment\n  Gaussian(x0; 0.0, 1.0)\n"
  in
  check tint "one node" 1 (Model.node_count t)

(* -- Generators ---------------------------------------------------------------- *)

let test_random_spn_valid () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 5 do
    let t = Random_spn.generate rng Random_spn.default_config in
    match Validate.check t with
    | [] -> ()
    | issues -> Alcotest.failf "invalid random SPN: %s" (Validate.issues_to_string issues)
  done

let test_random_spn_sized () =
  let rng = Rng.create ~seed:2 in
  let t =
    Random_spn.generate_sized rng Random_spn.speaker_id_config ~min_ops:1000
  in
  check tbool "reaches target size" true (Model.node_count t >= 1000)

let test_rat_spn_valid_and_shared () =
  let rng = Rng.create ~seed:3 in
  let cfg = { Rat_spn.bench_config with num_features = 16; repetitions = 2 } in
  let models = Rat_spn.generate rng cfg in
  check tint "ten classes" 10 (Array.length models);
  Array.iter
    (fun t ->
      match Validate.check t with
      | [] -> ()
      | issues ->
          Alcotest.failf "invalid RAT-SPN: %s" (Validate.issues_to_string issues))
    models;
  (* classes share structure: total unique nodes across two classes is far
     less than twice a single class *)
  let n0 = Model.node_count models.(0) in
  let union =
    let seen = Hashtbl.create 1024 in
    Array.iter
      (fun t -> Model.iter_unique (fun n -> Hashtbl.replace seen n.Model.id ()) t)
      models;
    Hashtbl.length seen
  in
  check tbool "substructure shared" true (union < 2 * n0)

let test_rat_spn_stats () =
  let rng = Rng.create ~seed:4 in
  let models = Rat_spn.generate rng Rat_spn.bench_config in
  let s = Stats.compute models.(0) in
  check tbool "has sums" true (s.Stats.sums > 0);
  check tbool "has products" true (s.Stats.products > 0);
  check tbool "gaussian leaves" true (s.Stats.gaussians > 0)

let test_learnspn_recovers_structure () =
  let rng = Rng.create ~seed:5 in
  (* two well-separated clusters over 4 vars *)
  let gmms =
    [| Spnc_data.Synth.random_gmm rng ~num_features:4 ~components:2 ~spread:5.0 |]
  in
  let data = Spnc_data.Synth.dataset_of_gmms rng gmms ~rows_per_class:300 in
  let t =
    Learnspn.learn rng data.Spnc_data.Synth.samples ~num_features:4
      ~name:"learned"
  in
  (match Validate.check t with
  | [] -> ()
  | issues -> Alcotest.failf "invalid learned SPN: %s" (Validate.issues_to_string issues));
  (* learned model should assign higher likelihood to in-distribution data
     than to far-away points *)
  let ll_in =
    Infer.log_likelihood t data.Spnc_data.Synth.samples.(0)
  in
  let ll_out = Infer.log_likelihood t [| 100.0; 100.0; 100.0; 100.0 |] in
  check tbool "in-distribution scores higher" true (ll_in > ll_out)

let test_stats_example () =
  let s = Stats.compute (example_spn ()) in
  check tint "total" 7 s.Stats.total;
  check tint "sums" 1 s.Stats.sums;
  check tint "products" 2 s.Stats.products;
  check tint "gaussians" 4 s.Stats.gaussians;
  check tint "edges" 6 s.Stats.edges

let suite =
  [
    Alcotest.test_case "constructors validate" `Quick test_constructors_validate;
    Alcotest.test_case "dag sharing count" `Quick test_node_count_dag_sharing;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "postorder children-first" `Quick test_postorder_children_first;
    Alcotest.test_case "validate accepts valid" `Quick test_validate_accepts_valid;
    Alcotest.test_case "validate unnormalized sum" `Quick test_validate_rejects_unnormalized_sum;
    Alcotest.test_case "validate non-smooth" `Quick test_validate_rejects_nonsmooth;
    Alcotest.test_case "validate non-decomposable" `Quick test_validate_rejects_nondecomposable;
    Alcotest.test_case "validate var range" `Quick test_validate_rejects_var_out_of_range;
    Alcotest.test_case "validate matches set scopes" `Quick test_validate_matches_sets;
    Alcotest.test_case "inference manual" `Quick test_inference_manual;
    Alcotest.test_case "inference discrete" `Quick test_inference_discrete;
    Alcotest.test_case "inference marginal" `Quick test_inference_marginal;
    QCheck_alcotest.to_alcotest test_log_linear_agree_prop;
    Alcotest.test_case "log_sum_exp stability" `Quick test_log_sum_exp_stability;
    Alcotest.test_case "classification accuracy" `Slow test_classify;
    Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary roundtrip discrete" `Quick test_binary_roundtrip_discrete;
    Alcotest.test_case "binary preserves sharing" `Quick test_binary_preserves_sharing;
    Alcotest.test_case "binary rejects corruption" `Quick test_binary_rejects_corruption;
    Alcotest.test_case "binary rejects truncation" `Quick test_binary_rejects_truncation;
    Alcotest.test_case "binary rejects bad magic" `Quick test_binary_rejects_bad_magic;
    Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
    Alcotest.test_case "text roundtrip discrete" `Quick test_text_roundtrip_discrete;
    Alcotest.test_case "text parse errors" `Quick test_text_parse_errors;
    Alcotest.test_case "text comments" `Quick test_text_comments_and_ws;
    Alcotest.test_case "random spn valid" `Quick test_random_spn_valid;
    Alcotest.test_case "random spn sized" `Quick test_random_spn_sized;
    Alcotest.test_case "rat-spn valid and shared" `Quick test_rat_spn_valid_and_shared;
    Alcotest.test_case "rat-spn stats" `Quick test_rat_spn_stats;
    Alcotest.test_case "learnspn structure" `Slow test_learnspn_recovers_structure;
    Alcotest.test_case "stats example" `Quick test_stats_example;
  ]
