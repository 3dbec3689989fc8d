(** Seeded inputs for every spnc_bench workload.

    Model {e structures} come from fixed seeds, so every run compiles and
    executes the same number of operations; the run's [--seed] draws the
    model weights, the input rows and the arrival schedules.  Fresh
    weights give every compile a fresh cache key, and a fixed structure
    keeps the work per operation the same from seed to seed, which is
    what makes runs with different seeds comparable. *)

module Rng = Spnc_data.Rng
module Model = Spnc_spn.Model

(* The structure seeds of the repo's other benchmark programs
   (bench/workloads.ml, bench/bench_serve.ml), so the speaker models and
   tenants have the same shapes there and here. *)
let speaker_structure_seed = 20221
let rat_structure_seed = 20224
let tenant_structure_seed = 20226

(** Independent generator for one purpose of one run. *)
let rng ~seed ~stream = Rng.create ~seed:((seed * 1_000_003) + stream)

(** [reweight rng m] — the same DAG (sharing preserved) with fresh
    parameters: Dirichlet sum weights and categorical/histogram masses,
    jittered Gaussian means and standard deviations. *)
let reweight rng (m : Model.t) : Model.t =
  let memo = Hashtbl.create 1024 in
  let rec go (n : Model.node) =
    match Hashtbl.find_opt memo n.Model.id with
    | Some n' -> n'
    | None ->
        let n' =
          match n.Model.desc with
          | Model.Sum ch ->
              let w = Rng.dirichlet rng ~alpha:3.0 (List.length ch) in
              Model.sum (List.mapi (fun i (_, c) -> (w.(i), go c)) ch)
          | Model.Product ch -> Model.product (List.map go ch)
          | Model.Gaussian { var; mean; stddev } ->
              Model.gaussian ~var
                ~mean:(mean +. (0.5 *. Rng.gaussian rng))
                ~stddev:(stddev *. Rng.range rng 0.8 1.25)
          | Model.Categorical { var; probs } ->
              Model.categorical ~var
                ~probs:(Rng.dirichlet rng ~alpha:2.0 (Array.length probs))
          | Model.Histogram { var; breaks; densities } ->
              let mass = Rng.dirichlet rng ~alpha:2.0 (Array.length densities) in
              Model.histogram ~var ~breaks
                ~densities:
                  (Array.mapi
                     (fun i p -> p /. float_of_int (breaks.(i + 1) - breaks.(i)))
                     mass)
        in
        Hashtbl.add memo n.Model.id n';
        n'
  in
  Model.make ~name:m.Model.name ~num_features:m.Model.num_features (go m.Model.root)

let uniform_rows rng ~rows ~features =
  Array.init rows (fun _ -> Array.init features (fun _ -> Rng.range rng (-3.0) 3.0))

(* -- speaker-batch -------------------------------------------------------- *)

let num_speakers = 5
let speaker_rows = 512
let speaker_texts = 4

let speaker_structures =
  lazy
    (let rng = Rng.create ~seed:speaker_structure_seed in
     Array.init num_speakers (fun i ->
         Spnc_spn.Random_spn.generate_sized rng
           ~name:(Printf.sprintf "speaker-%d" i)
           Spnc_spn.Random_spn.speaker_id_config ~min_ops:800))

let speaker_models ~seed =
  let rng = rng ~seed ~stream:1 in
  Array.map (reweight rng) (Lazy.force speaker_structures)

(** [rows] rows of the paper's speaker-ID data ({!Spnc_data.Speech}:
    per-speaker Gaussian mixtures over 26 features), clean, or noisy with
    a quarter of the values missing (NaN, marginalized). *)
let speech_rows rng scenario ~rows =
  let module S = Spnc_data.Speech in
  let paper =
    match scenario with
    | S.Clean -> S.paper_clean_samples
    | S.Noisy -> S.paper_noisy_samples
  in
  (* the rows come shuffled over the speakers; draw a few more than needed *)
  let scale = float_of_int (rows + (4 * num_speakers)) /. float_of_int paper in
  let d = S.generate ~num_speakers ~scenario ~scale rng () in
  Array.sub d.S.data.Spnc_data.Synth.samples 0 rows

(** The [speaker_texts] CSV texts of a run, [speaker_rows] rows each,
    clean and noisy rows alternating, as the paper evaluates both sets.
    Every text has the same mix, so every call does the same work. *)
let speaker_csvs ~seed =
  let rng = rng ~seed ~stream:2 in
  let half = speaker_rows / 2 in
  Array.init speaker_texts (fun _ ->
      let clean = speech_rows rng Spnc_data.Speech.Clean ~rows:half in
      let noisy = speech_rows rng Spnc_data.Speech.Noisy ~rows:half in
      Spnc_data.Csv.print
        {
          Spnc_data.Synth.samples =
            Array.init speaker_rows (fun r ->
                (if r mod 2 = 0 then clean else noisy).(r / 2));
          labels = Array.make speaker_rows (-1);
          num_features = Spnc_data.Speech.num_features;
        })

(* -- rat-cold -------------------------------------------------------------- *)

(** One class SPN of a small RAT-SPN: compile time, not kernel time,
    dominates its first result. *)
let rat_config =
  {
    Spnc_spn.Rat_spn.num_features = 32;
    depth = 3;
    repetitions = 2;
    num_sums = 4;
    num_input_distributions = 4;
    num_classes = 1;
  }

let rat_rows = 64

let rat_structure =
  lazy
    (let rng = Rng.create ~seed:rat_structure_seed in
     (Spnc_spn.Rat_spn.generate ~name_prefix:"rat" rng rat_config).(0))

(** A stream of fresh-weight RAT-SPN class models. *)
let rat_model_stream ~seed =
  let rng = rng ~seed ~stream:3 in
  fun () -> reweight rng (Lazy.force rat_structure)

let rat_inputs ~seed =
  uniform_rows (rng ~seed ~stream:4) ~rows:rat_rows
    ~features:rat_config.Spnc_spn.Rat_spn.num_features

(* -- serve ----------------------------------------------------------------- *)

let num_tenants = 32
let tenant_pool_rows = 256

(* tiny tenants: serving stresses per-request overhead, not kernel math *)
let tenant_config =
  { Spnc_spn.Random_spn.default_config with num_features = 8; max_depth = 6 }

let tenant_structures =
  lazy
    (let rng = Rng.create ~seed:tenant_structure_seed in
     Array.init num_tenants (fun i ->
         Spnc_spn.Random_spn.generate_sized rng
           ~name:(Printf.sprintf "tenant-%02d" i)
           tenant_config ~min_ops:120))

let tenant_models ~seed =
  let rng = rng ~seed ~stream:5 in
  Array.map (reweight rng) (Lazy.force tenant_structures)

(** [tenant_pool ~seed i ~finite] — [tenant_pool_rows] rows for tenant
    [i], each redrawn until [finite row] holds.  Uniform rows often fall
    outside a discrete leaf's support, where the likelihood is exactly
    0 and the log-likelihood -inf; such rows would only exercise the
    output guard. *)
let tenant_pool ~seed i ~(finite : float array -> bool) =
  let rng = rng ~seed ~stream:(100 + i) in
  let features = tenant_config.Spnc_spn.Random_spn.num_features in
  Array.init tenant_pool_rows (fun _ ->
      let rec draw tries =
        let row = Array.init features (fun _ -> Rng.range rng (-3.0) 3.0) in
        if finite row then row
        else if tries > 100_000 then
          failwith (Printf.sprintf "tenant %d: no finite row in 100000 draws" i)
        else draw (tries + 1)
      in
      draw 0)

type request = {
  due : float;  (** seconds after the schedule starts *)
  tenant : int;
  offset : int;  (** first row in the tenant's pool *)
  rows : int;
}

(** Poisson arrivals: [(rate_rps, seconds)] phases back to back; each
    request asks one random tenant for 1-4 consecutive pool rows. *)
let schedule ~seed ~stream (phases : (float * float) list) : request array =
  let rng = rng ~seed ~stream in
  let out = ref [] in
  let start = ref 0.0 in
  List.iter
    (fun (rate, seconds) ->
      let t = ref (!start -. (log (1.0 -. Rng.float rng) /. rate)) in
      while !t < !start +. seconds do
        let rows = 1 + Rng.int rng 4 in
        out :=
          {
            due = !t;
            tenant = Rng.int rng num_tenants;
            offset = Rng.int rng (tenant_pool_rows - rows + 1);
            rows;
          }
          :: !out;
        t := !t -. (log (1.0 -. Rng.float rng) /. rate)
      done;
      start := !start +. seconds)
    phases;
  Array.of_list (List.rev !out)
