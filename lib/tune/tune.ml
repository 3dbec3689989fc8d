(* Vectorization design-space explorer + profile-guided auto-tuner.
   See tune.mli and docs/PERFORMANCE.md §6 for the design. *)

module Options = Spnc.Options
module Compiler = Spnc.Compiler
module M = Spnc_machine.Machine
module Json = Spnc_obs.Json
module Lir = Spnc_cpu.Lir
module Optimizer = Spnc_cpu.Optimizer
module Profile = Spnc_cpu.Profile
module Exec = Spnc_runtime.Exec

type knob = Opt_level | Vectorize | Veclib | Shuffle | Gather_tables | Partition

let knob_to_string = function
  | Opt_level -> "opt_level"
  | Vectorize -> "vectorize"
  | Veclib -> "veclib"
  | Shuffle -> "shuffle"
  | Gather_tables -> "gather_tables"
  | Partition -> "partition"

type candidate = {
  label : string;
  options : Options.t;
  est_seconds : float;
  wall_seconds : float option;
  identical : bool option;
}

type feedback = {
  fb_total_cycles : float;
  fb_call_share : float;
  fb_mem_share : float;
  fb_table_share : float;
  fb_dropped : knob list;
}

type task_stat = {
  ts_fn : string;
  ts_cycles : float;
  ts_share : float;
  ts_level : Optimizer.level;
}

type per_task = {
  pt_stats : task_stat list;
  pt_refined : bool;
  pt_wall_seconds : float option;
  pt_identical : bool option;
}

type budget = { measure : int; reps : int }

let default_budget = { measure = 5; reps = 3 }

type result = {
  model_digest : string;
  space_size : int;
  searched : int;
  budget : budget;
  feedback : feedback option;
  candidates : candidate list;
  reference : candidate;
  best : candidate;
  per_task : per_task option;
  from_cache : bool;
}

(* -- Labels and digests ----------------------------------------------------- *)

let label_of (o : Options.t) =
  let vec =
    if not o.vectorize then "novec"
    else
      "vec"
      ^ (if o.use_veclib then "+veclib" else "")
      ^ (if o.use_shuffle then "+shuffle" else "")
      ^ if o.use_gather_tables then "+gt" else ""
  in
  let part =
    match o.max_partition_size with
    | None -> "none"
    | Some n -> string_of_int n
  in
  Printf.sprintf "%s %s part=%s"
    (Optimizer.level_to_string o.opt_level)
    vec part

let digest_of (model : Spnc_spn.Model.t) =
  Digest.to_hex (Digest.string (Spnc_spn.Serialize.to_string model))

(* -- Lattice enumeration ---------------------------------------------------- *)

let key_of (o : Options.t) = Options.fingerprint (Options.compile_of o)

let enumerate ?(dropped = []) ~(stats : Spnc_spn.Stats.t) (base : Options.t) =
  let has k = List.mem k dropped in
  let dedup_cons xs x = if List.mem x xs then xs else xs @ [ x ] in
  let levels =
    if has Opt_level then [ base.opt_level ]
    else dedup_cons [ Optimizer.O0; O1; O2; O3 ] base.opt_level
  in
  let vecs =
    (* a scalar ISA has no lanes: force the scalar point even when the
       base config asked for vectorization *)
    if base.machine.isa = M.Scalar then [ false ]
    else if has Vectorize then [ base.vectorize ]
    else [ false; true ]
  in
  let gatherable =
    match base.machine.isa with M.AVX2 | M.AVX512 -> true | _ -> false
  in
  let partitions =
    if has Partition then [ base.max_partition_size ]
    else
      let buckets =
        None
        :: List.filter_map
             (fun n -> if stats.total > 2 * n then Some (Some n) else None)
             [ 128; 512 ]
      in
      dedup_cons buckets base.max_partition_size
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun opt_level ->
      List.iter
        (fun vectorize ->
          let veclibs =
            if not vectorize then [ true ]
            else if has Veclib || base.machine.veclib = M.No_veclib then
              [ base.use_veclib ]
            else [ false; true ]
          in
          let shuffles =
            if not vectorize then [ true ]
            else if has Shuffle then [ base.use_shuffle ]
            else [ false; true ]
          in
          let gts =
            if not (vectorize && gatherable) then [ false ]
            else if has Gather_tables then [ base.use_gather_tables ]
            else [ false; true ]
          in
          List.iter
            (fun use_veclib ->
              List.iter
                (fun use_shuffle ->
                  List.iter
                    (fun use_gather_tables ->
                      List.iter
                        (fun max_partition_size ->
                          let o =
                            {
                              base with
                              opt_level;
                              vectorize;
                              use_veclib;
                              use_shuffle;
                              use_gather_tables;
                              max_partition_size;
                            }
                          in
                          let fp = key_of o in
                          if not (Hashtbl.mem seen fp) then begin
                            Hashtbl.add seen fp ();
                            out := o :: !out
                          end)
                        partitions)
                    gts)
                shuffles)
            veclibs)
        vecs)
    levels;
  List.rev !out

(* -- Measurement ------------------------------------------------------------ *)

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

(* One untimed warm-up run forces the JIT so the timed repetitions see the
   steady state the paper's figures report; best-of-[reps] rejects noise. *)
let measure ~reps (c : Compiler.compiled) data =
  let out = Compiler.execute c data in
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let t0 = Unix.gettimeofday () in
    ignore (Compiler.execute c data : float array);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (out, !best)

(* -- Stage 2: profile feedback ---------------------------------------------- *)

type opclass = Call | Mem | Table | Other

let classify op =
  if String.starts_with ~prefix:"call." op
     || String.starts_with ~prefix:"vcall." op
  then Call
  else
    match op with
    | "load" | "vload" | "vgather" | "vshufload" -> Mem
    | "table" | "vgatheridx" | "vfloor" -> Table
    | _ -> Other

(* Cold-class → droppable-dimension thresholds.  A knob only pays off when
   the opcode class it steers carries dynamic cycles: the veclib swaps
   libm calls, shuffle/gather swaps input loads, gather-tables swaps
   discrete-leaf lookups. *)
let call_threshold = 0.05
let mem_threshold = 0.03
let table_threshold = 0.02

let feedback_of (p : Profile.t) =
  let call = ref 0. and mem = ref 0. and table = ref 0. and total = ref 0. in
  List.iter
    (fun (c : Profile.cell) ->
      let cyc = c.cycles *. float_of_int (Atomic.get c.count) in
      total := !total +. cyc;
      match classify c.opcode with
      | Call -> call := !call +. cyc
      | Mem -> mem := !mem +. cyc
      | Table -> table := !table +. cyc
      | Other -> ())
    (Profile.cells p);
  let share x = if !total > 0. then x /. !total else 0. in
  let call_share = share !call
  and mem_share = share !mem
  and table_share = share !table in
  let dropped =
    if !total <= 0. then []
    else
      (if call_share < call_threshold then [ Veclib ] else [])
      @ (if mem_share < mem_threshold then [ Shuffle ] else [])
      @ if table_share < table_threshold then [ Gather_tables ] else []
  in
  {
    fb_total_cycles = !total;
    fb_call_share = call_share;
    fb_mem_share = mem_share;
    fb_table_share = table_share;
    fb_dropped = dropped;
  }

(* -- Per-task refinement ---------------------------------------------------- *)

let rec iter_instrs f (body : Lir.instr array) =
  Array.iter
    (fun i ->
      f i;
      match i with Lir.Loop l -> iter_instrs f l.body | _ -> ())
    body

(* SPN nodes implemented by a task function, via register provenance. *)
let func_nodes (fn : Lir.func) =
  let s = Hashtbl.create 32 in
  iter_instrs
    (fun i ->
      let n = Profile.node_of fn i in
      if n >= 0 then Hashtbl.replace s n ())
    fn.body;
  s

let hot_task_share = 0.10

(* Raw single-threaded execution of a Lir module (kernel outputs, before
   the log-space conversion and output guard — those are per-artifact
   deterministic, so raw bit-equality implies finished bit-equality). *)
let run_raw (lir : Lir.modul) ~out_cols data =
  let t = Exec.load ~threads:1 ~out_cols lir in
  let t0 = Unix.gettimeofday () in
  let out = Exec.execute_rows t data in
  let dt = Unix.gettimeofday () -. t0 in
  Exec.shutdown t;
  (out, dt)

let refine_per_task ~(base_level : Optimizer.level) ~(profile : Profile.t)
    (bestc : Compiler.compiled) data : per_task option =
  match bestc.artifact with
  | Compiler.Gpu_kernel _ -> None
  | Compiler.Cpu_kernel art ->
      let lir = art.lir in
      if Array.length lir.funcs < 2 then None
      else begin
        let node_cycles = Hashtbl.create 64 in
        List.iter
          (fun (ns : Profile.node_stat) ->
            Hashtbl.replace node_cycles ns.ns_node ns.ns_cycles)
          (Profile.by_node profile);
        let tasks = ref [] in
        Array.iteri
          (fun i (f : Lir.func) ->
            if i <> lir.entry then begin
              let cyc = ref 0. in
              Hashtbl.iter
                (fun n () ->
                  match Hashtbl.find_opt node_cycles n with
                  | Some c -> cyc := !cyc +. c
                  | None -> ())
                (func_nodes f);
              tasks := (i, f.fname, !cyc) :: !tasks
            end)
          lir.funcs;
        let tasks = List.rev !tasks in
        let total = List.fold_left (fun acc (_, _, c) -> acc +. c) 0. tasks in
        let level_of share =
          if total > 0. && share >= hot_task_share && base_level < Optimizer.O3
          then Optimizer.O3
          else base_level
        in
        let stats =
          List.map
            (fun (i, fname, cyc) ->
              let share = if total > 0. then cyc /. total else 0. in
              ( i,
                {
                  ts_fn = fname;
                  ts_cycles = cyc;
                  ts_share = share;
                  ts_level = level_of share;
                } ))
            tasks
        in
        let refined_idx =
          List.filter_map
            (fun (i, s) -> if s.ts_level > base_level then Some i else None)
            stats
        in
        let pt_stats =
          List.stable_sort
            (fun a b -> compare b.ts_cycles a.ts_cycles)
            (List.map snd stats)
        in
        if refined_idx = [] then
          Some
            {
              pt_stats;
              pt_refined = false;
              pt_wall_seconds = None;
              pt_identical = None;
            }
        else begin
          let refined =
            {
              lir with
              Lir.funcs =
                Array.mapi
                  (fun i f ->
                    if List.mem i refined_idx then
                      Optimizer.run_func Optimizer.O3 f
                    else f)
                  lir.funcs;
            }
          in
          let base_raw, _ = run_raw lir ~out_cols:bestc.out_cols data in
          let ref_raw, wall = run_raw refined ~out_cols:bestc.out_cols data in
          Some
            {
              pt_stats;
              pt_refined = true;
              pt_wall_seconds = Some wall;
              pt_identical = Some (bits_equal base_raw ref_raw);
            }
        end
      end

(* -- Spearman rank correlation ---------------------------------------------- *)

let spearman_of_candidates (cands : candidate list) =
  let measured = List.filter (fun c -> c.wall_seconds <> None) cands in
  let n = List.length measured in
  if n < 3 then None
  else begin
    let rank key =
      let arr = List.mapi (fun i c -> (i, key c)) measured in
      let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) arr in
      let ranks = Array.make n 0. in
      List.iteri (fun rk (i, _) -> ranks.(i) <- float_of_int rk) sorted;
      ranks
    in
    let re = rank (fun c -> c.est_seconds) in
    let rw = rank (fun c -> Option.value ~default:0. c.wall_seconds) in
    let d2 = ref 0. in
    for i = 0 to n - 1 do
      let d = re.(i) -. rw.(i) in
      d2 := !d2 +. (d *. d)
    done;
    let nf = float_of_int n in
    Some (1. -. (6. *. !d2 /. (nf *. ((nf *. nf) -. 1.))))
  end

let spearman r = spearman_of_candidates r.candidates

(* -- Per-dimension rank correlation ----------------------------------------- *)

type dimension_corr = {
  dc_knob : knob;
  dc_rho_est : float option;
  dc_rho_wall : float option;
  dc_inverted : bool;
}

(* tie-averaged (fractional) ranks: knob ordinals are massively tied
   (booleans!), so the plain distinct-rank scheme used for the global
   est-vs-wall coefficient would manufacture spurious order *)
let fractional_ranks (xs : float array) : float array =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let ranks = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j) /. 2. in
    for k = !i to !j do
      ranks.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  ranks

(* Spearman with ties = Pearson over fractional ranks; [None] when
   either vector is constant (correlation undefined) *)
let spearman_ranks (xs : float array) (ys : float array) : float option =
  let n = Array.length xs in
  if n < 3 then None
  else begin
    let rx = fractional_ranks xs and ry = fractional_ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let cov = ref 0. and vx = ref 0. and vy = ref 0. in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy)
    done;
    if !vx = 0. || !vy = 0. then None
    else Some (!cov /. sqrt (!vx *. !vy))
  end

let knob_ordinal (k : knob) (o : Options.t) : float =
  match k with
  | Opt_level -> (
      match o.Options.opt_level with
      | Optimizer.O0 -> 0.
      | Optimizer.O1 -> 1.
      | Optimizer.O2 -> 2.
      | Optimizer.O3 -> 3.)
  | Vectorize -> if o.Options.vectorize then 1. else 0.
  | Veclib -> if o.Options.use_veclib then 1. else 0.
  | Shuffle -> if o.Options.use_shuffle then 1. else 0.
  | Gather_tables -> if o.Options.use_gather_tables then 1. else 0.
  | Partition -> (
      (* unpartitioned sorts above every finite bucket *)
      match o.Options.max_partition_size with
      | None -> infinity
      | Some n -> float_of_int n)

let all_knobs =
  [ Opt_level; Vectorize; Veclib; Shuffle; Gather_tables; Partition ]

(* a dimension is "inverted" when the cost model and the wall clock rank
   it in clearly opposite directions — both correlations past a noise
   floor, with opposite signs *)
let inversion_floor = 0.25

let spearman_by_dimension (r : result) : dimension_corr list =
  let measured =
    List.filter (fun c -> c.wall_seconds <> None) r.candidates
  in
  let est = Array.of_list (List.map (fun c -> c.est_seconds) measured) in
  let wall =
    Array.of_list
      (List.map (fun c -> Option.value ~default:0. c.wall_seconds) measured)
  in
  List.map
    (fun k ->
      let dim =
        Array.of_list (List.map (fun c -> knob_ordinal k c.options) measured)
      in
      let rho_est = spearman_ranks dim est in
      let rho_wall = spearman_ranks dim wall in
      let inverted =
        match (rho_est, rho_wall) with
        | Some e, Some w ->
            e *. w < 0.
            && Float.abs e >= inversion_floor
            && Float.abs w >= inversion_floor
        | _ -> false
      in
      { dc_knob = k; dc_rho_est = rho_est; dc_rho_wall = rho_wall; dc_inverted = inverted })
    all_knobs

let inverted_dimensions r =
  List.filter_map
    (fun dc -> if dc.dc_inverted then Some (knob_to_string dc.dc_knob) else None)
    (spearman_by_dimension r)

(* -- Result JSON ------------------------------------------------------------ *)

let opt_num = function None -> Json.Null | Some x -> Json.Num x
let opt_bool = function None -> Json.Null | Some b -> Json.Bool b

let candidate_to_json (c : candidate) =
  Json.Obj
    [
      ("label", Json.Str c.label);
      ("est_seconds", Json.Num c.est_seconds);
      ("wall_seconds", opt_num c.wall_seconds);
      ("bit_identical", opt_bool c.identical);
    ]

let feedback_to_json (f : feedback) =
  Json.Obj
    [
      ("total_cycles", Json.Num f.fb_total_cycles);
      ("call_share", Json.Num f.fb_call_share);
      ("mem_share", Json.Num f.fb_mem_share);
      ("table_share", Json.Num f.fb_table_share);
      ( "dropped_knobs",
        Json.List (List.map (fun k -> Json.Str (knob_to_string k)) f.fb_dropped)
      );
    ]

let per_task_to_json (pt : per_task) =
  Json.Obj
    [
      ( "tasks",
        Json.List
          (List.map
             (fun t ->
               Json.Obj
                 [
                   ("fn", Json.Str t.ts_fn);
                   ("cycles", Json.Num t.ts_cycles);
                   ("share", Json.Num t.ts_share);
                   ("level", Json.Str (Optimizer.level_to_string t.ts_level));
                 ])
             pt.pt_stats) );
      ("refined", Json.Bool pt.pt_refined);
      ("wall_seconds", opt_num pt.pt_wall_seconds);
      ("bit_identical", opt_bool pt.pt_identical);
    ]

let result_to_json (r : result) =
  Json.Obj
    [
      ("schema", Json.Str "spnc-dse-v1");
      ("model_digest", Json.Str r.model_digest);
      ("space_size", Json.Num (float_of_int r.space_size));
      ("searched", Json.Num (float_of_int r.searched));
      ( "budget",
        Json.Obj
          [
            ("measure", Json.Num (float_of_int r.budget.measure));
            ("reps", Json.Num (float_of_int r.budget.reps));
          ] );
      ( "feedback",
        match r.feedback with None -> Json.Null | Some f -> feedback_to_json f
      );
      ("reference", candidate_to_json r.reference);
      ("candidates", Json.List (List.map candidate_to_json r.candidates));
      ("best", candidate_to_json r.best);
      ( "best_config",
        Options.compile_to_json (Options.compile_of r.best.options) );
      ( "per_task",
        match r.per_task with
        | None -> Json.Null
        | Some pt -> per_task_to_json pt );
      ("spearman", opt_num (spearman r));
      ( "spearman_by_dimension",
        Json.List
          (List.map
             (fun dc ->
               Json.Obj
                 [
                   ("knob", Json.Str (knob_to_string dc.dc_knob));
                   ("rho_est", opt_num dc.dc_rho_est);
                   ("rho_wall", opt_num dc.dc_rho_wall);
                   ("inverted", Json.Bool dc.dc_inverted);
                 ])
             (spearman_by_dimension r)) );
      ("from_cache", Json.Bool r.from_cache);
    ]

(* -- Tuned-config cache ----------------------------------------------------- *)

(* Tuned configs are Kcache entries in <kernel-cache-dir>/tuned — their
   own directory, so the kernel LRU never evicts them — holding the
   winner's compile key.  An entry is keyed by (model digest, base compile
   key): a hit replaces the caller's compile key with the winner's, so a
   tune under other base options (marginal support, space, ISA, pass
   order, ...) must search again rather than be served a winner that
   drops them. *)
let tuned_fmt = "spnc-tuned"

let tuned_key ~options ~digest =
  Digest.to_hex (Digest.string (digest ^ "\x00" ^ key_of options))

let tuned_cache (o : Options.t) =
  Option.bind o.kernel_cache_dir (fun dir ->
      Result.to_option
        (Spnc.Kcache.open_
           ~dir:(Filename.concat dir "tuned")
           ~max_mb:o.kernel_cache_mb))

let load_cached ~options model =
  Option.bind (tuned_cache options) (fun kc ->
      let key = tuned_key ~options ~digest:(digest_of model) in
      Option.bind (Spnc.Kcache.find kc ~fmt:tuned_fmt ~key) (fun payload ->
          match Result.bind (Json.parse payload) Options.compile_of_json with
          | Ok k -> Some k
          | Error _ ->
              (* checksum-valid bytes that do not decode: quarantine like
                 corruption and search again *)
              Spnc.Kcache.quarantine kc ~key;
              None))

let store_cached ~options ~digest (best : candidate) =
  Option.iter
    (fun kc ->
      Spnc.Kcache.store kc ~fmt:tuned_fmt
        ~key:(tuned_key ~options ~digest)
        (key_of best.options))
    (tuned_cache options)

(* -- The explorer ----------------------------------------------------------- *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let tune ?(budget = default_budget) ?(use_profile = true) ?(profile_rows = 64)
    ?(est_rows = 8192) ~(options : Options.t) ~data model =
  if options.target <> Options.Cpu then
    invalid_arg "Tune.tune: the design-space explorer targets the CPU backend";
  if Array.length data = 0 then invalid_arg "Tune.tune: empty sample set";
  let digest = digest_of model in
  match load_cached ~options model with
  | Some k ->
      (* Cache hit: no search.  Estimates still come from a (kcache-served)
         compile so the report stays meaningful. *)
      let best_opts = Options.with_compile k options in
      let ref_c = Compiler.compile ~options model in
      let best_c = Compiler.compile ~options:best_opts model in
      let mk label opts c =
        {
          label;
          options = opts;
          est_seconds = Compiler.estimate_seconds c ~rows:est_rows;
          wall_seconds = None;
          identical = None;
        }
      in
      let reference = mk (label_of options) options ref_c in
      let best = mk (label_of best_opts) best_opts best_c in
      {
        model_digest = digest;
        space_size = 0;
        searched = 0;
        budget;
        feedback = None;
        candidates = [ best ];
        reference;
        best;
        per_task = None;
        from_cache = true;
      }
  | None ->
      let ref_c = Compiler.compile ~options model in
      (* Stage 2 input: one profiled run of the reference configuration. *)
      let profile =
        if not use_profile then None
        else begin
          let rows =
            Array.sub data 0 (min (max 1 profile_rows) (Array.length data))
          in
          let _, p = Compiler.execute_profiled ref_c rows in
          Some p
        end
      in
      let feedback = Option.map feedback_of profile in
      let dropped =
        match feedback with None -> [] | Some f -> f.fb_dropped
      in
      let stats = Spnc_spn.Stats.compute model in
      let space_size = List.length (enumerate ~stats options) in
      let lattice = enumerate ~dropped ~stats options in
      (* Stage 1: compile + cost-model score every surviving point (the
         reference's own point reuses its artifact). *)
      let scored =
        List.map
          (fun o ->
            let c =
              if key_of o = key_of options then Compiler.with_options ref_c o
              else Compiler.compile ~options:o model
            in
            (o, c, Compiler.estimate_seconds c ~rows:est_rows))
          lattice
      in
      let ranked =
        List.stable_sort
          (fun (oa, _, ea) (ob, _, eb) ->
            compare (ea, label_of oa) (eb, label_of ob))
          scored
      in
      (* Reference wall-clock + outputs: the bit-identity oracle. *)
      let ref_out, ref_wall = measure ~reps:budget.reps ref_c data in
      let reference =
        {
          label = label_of options;
          options;
          est_seconds = Compiler.estimate_seconds ref_c ~rows:est_rows;
          wall_seconds = Some ref_wall;
          identical = Some true;
        }
      in
      (* Wall-clock validation of the top-[measure] by modelled time. *)
      let to_measure = take (max 0 budget.measure) ranked in
      let measured_fps = List.map (fun (o, _, _) -> key_of o) to_measure in
      let candidates =
        List.map
          (fun (o, c, est) ->
            if List.mem (key_of o) measured_fps then begin
              let out, wall = measure ~reps:budget.reps c data in
              {
                label = label_of o;
                options = o;
                est_seconds = est;
                wall_seconds = Some wall;
                identical = Some (bits_equal out ref_out);
              }
            end
            else
              {
                label = label_of o;
                options = o;
                est_seconds = est;
                wall_seconds = None;
                identical = None;
              })
          ranked
      in
      (* Winner: best-ranked measured candidate that validated
         bit-identical; selection never consults wall-clock, so tuning is
         deterministic for a fixed (model, options, budget). *)
      let best =
        match List.find_opt (fun c -> c.identical = Some true) candidates with
        | Some c -> c
        | None -> reference
      in
      let per_task =
        match profile with
        | None -> None
        | Some p ->
            let best_c =
              match
                List.find_opt
                  (fun (o, _, _) -> key_of o = key_of best.options)
                  ranked
              with
              | Some (_, c, _) -> c
              | None -> ref_c
            in
            refine_per_task ~base_level:best.options.opt_level ~profile:p
              best_c data
      in
      let r =
        {
          model_digest = digest;
          space_size;
          searched = List.length lattice;
          budget;
          feedback;
          candidates;
          reference;
          best;
          per_task;
          from_cache = false;
        }
      in
      store_cached ~options ~digest best;
      r

(* -- Report ----------------------------------------------------------------- *)

let pp_seconds ppf = function
  | None -> Fmt.string ppf "-"
  | Some s -> Fmt.pf ppf "%.4fs" s

let pp_result ppf (r : result) =
  Fmt.pf ppf "model %s: %d/%d configs searched (budget %d measured x%d)%s@."
    (String.sub r.model_digest 0 (min 12 (String.length r.model_digest)))
    r.searched r.space_size r.budget.measure r.budget.reps
    (if r.from_cache then " [cached]" else "");
  Option.iter
    (fun f ->
      Fmt.pf ppf
        "profile feedback: calls %.1f%%, loads %.1f%%, tables %.1f%%; dropped: %s@."
        (100. *. f.fb_call_share) (100. *. f.fb_mem_share)
        (100. *. f.fb_table_share)
        (if f.fb_dropped = [] then "none"
         else String.concat ", " (List.map knob_to_string f.fb_dropped)))
    r.feedback;
  Fmt.pf ppf "  %-32s %12s %10s %s@." "config" "est" "wall" "bits";
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-32s %10.6fs %a %s@." c.label c.est_seconds pp_seconds
        c.wall_seconds
        (match c.identical with
        | None -> "-"
        | Some true -> "ok"
        | Some false -> "DIFF"))
    r.candidates;
  Fmt.pf ppf "reference: %s (est %.6fs, wall %a)@." r.reference.label
    r.reference.est_seconds pp_seconds r.reference.wall_seconds;
  Fmt.pf ppf "best:      %s (est %.6fs, wall %a)@." r.best.label
    r.best.est_seconds pp_seconds r.best.wall_seconds;
  Option.iter
    (fun pt ->
      Fmt.pf ppf "per-task (%d tasks, refined=%b):@." (List.length pt.pt_stats)
        pt.pt_refined;
      List.iter
        (fun t ->
          Fmt.pf ppf "  %-24s %10.0f cyc %5.1f%% %s@." t.ts_fn t.ts_cycles
            (100. *. t.ts_share)
            (Optimizer.level_to_string t.ts_level))
        pt.pt_stats;
      match pt.pt_identical with
      | Some id ->
          Fmt.pf ppf "  refined artifact: wall %a, bit-identical=%b@."
            pp_seconds pt.pt_wall_seconds id
      | None -> ())
    r.per_task;
  Option.iter
    (fun rho -> Fmt.pf ppf "spearman(est, wall) = %.2f@." rho)
    (spearman r)
