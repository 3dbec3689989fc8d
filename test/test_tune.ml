(** Tests for the Fig. 6 design-space explorer and auto-tuner
    (docs/PERFORMANCE.md §6): the compile key's structure, lattice
    enumeration/dedup, tuner determinism, bit-identity of measured
    candidates, profile-feedback pruning, per-task refinement, tuned
    configs as compile keys and the tuned-config cache, keyed by (model
    digest, base compile key). *)

module Tune = Spnc_tune.Tune
module Options = Spnc.Options
module Compiler = Spnc.Compiler
module Optimizer = Spnc_cpu.Optimizer
module M = Spnc_machine.Machine
module Json = Spnc_obs.Json
module Rng = Spnc_data.Rng

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let key o = Options.fingerprint (Options.compile_of o)

let with_tmp_dir f =
  let dir = Filename.temp_file "spnc-tune" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* small speaker-ID-config model: Gaussian-heavy, like the paper's *)
let model =
  lazy
    (let rng = Rng.create ~seed:4611 in
     Spnc_spn.Random_spn.generate_sized rng ~name:"tune-speaker"
       Spnc_spn.Random_spn.speaker_id_config ~min_ops:300)

let data rows =
  let m = Lazy.force model in
  let rng = Rng.create ~seed:4612 in
  Array.init rows (fun _ ->
      Array.init m.Spnc_spn.Model.num_features (fun _ ->
          Rng.range rng (-3.0) 3.0))

(* vectorized AVX2 base so every knob of the lattice is live *)
let base =
  {
    Options.default with
    machine = M.ryzen_3900xt;
    vectorize = true;
    use_veclib = true;
    use_shuffle = true;
  }

let stats () = Spnc_spn.Stats.compute (Lazy.force model)

(* -- The compile key ---------------------------------------------------------- *)

let test_compile_key_structure () =
  (* injective: records varying every field of [Options.compile] decode
     back from their key *)
  let k = Options.compile_of base in
  let variants =
    [ k; { k with target = Options.Gpu }; { k with vectorize = false };
      { k with use_veclib = false }; { k with use_shuffle = false };
      { k with use_gather_tables = true };
      { k with lospn_opt_order = [ "dce"; "cse"; "constfold" ] };
      { k with max_partition_size = Some 64 };
      { k with base_type = Spnc_mlir.Types.F64 };
      { k with support_marginal = true }; { k with block_size = 256 };
      { k with gpu_fallback = false } ]
    @ List.map (fun isa -> { k with isa }) M.[ Scalar; AVX512; Neon ]
    @ List.map (fun veclib -> { k with veclib }) M.[ No_veclib; SVML ]
    @ List.map (fun opt_level -> { k with opt_level }) Optimizer.[ O0; O2; O3 ]
    @ List.map
        (fun space -> { k with space })
        Spnc_lospn.Lower_hispn.[ Force_linear; Force_log ]
  in
  List.iter
    (fun (v : Options.compile) ->
      let text = Options.fingerprint v in
      check tbool ("versioned: " ^ text) true
        (String.starts_with ~prefix:{|{"spnc_compile": 1,|} text);
      check tbool ("decode (encode k) = Ok k: " ^ text) true
        (Result.bind (Json.parse text) Options.compile_of_json = Ok v))
    variants;
  (* a key applied over options on another machine reproduces itself *)
  let xeon = Options.best_cpu ~machine:M.xeon_9242 () in
  let arm_gpu = { (Options.best_gpu ()) with machine = M.neoverse_n1; threads = 8 } in
  List.iter
    (fun (a, b) ->
      let applied = Options.with_compile (Options.compile_of a) b in
      check tbool "compile_of (with_compile (compile_of a) b) = compile_of a" true
        (Options.compile_of applied = Options.compile_of a);
      check tbool "b keeps its cost constants and runtime knobs" true
        (applied.machine.M.flop_cost = b.machine.M.flop_cost
        && applied.threads = b.threads))
    [ (base, xeon); (base, arm_gpu); ({ xeon with opt_level = Optimizer.O3 }, base);
      ({ arm_gpu with block_size = 128; lospn_opt_order = Some [ "cse" ] }, xeon) ];
  (* no runtime or serve knob moves the key — [batch_size] and the GPU
     cost descriptor included *)
  check tstr "runtime and serve knobs leave the key alone" (key base)
    (key
       { base with batch_size = 512; gpu = M.radeon_6800; threads = 8;
         streams = 4; engine = Spnc_cpu.Jit.Vm;
         use_kernel_cache = false; kernel_cache_dir = Some "/nonexistent";
         kernel_cache_mb = 1;
         output_guard = Spnc_resilience.Guard.Fail; deadline_ms = Some 5.0;
         exec_retries = 0; serve_max_batch = 1; serve_queue_cap = 1;
         serve_global_queue_cap = 1;
         serve_engines_cap = 1; serve_dispatchers = 7;
         serve_starvation_ms = 1.0 })

(* [Options.pp] prints the compile key whole, then the runtime knobs *)
let test_options_pp () =
  let o = { base with support_marginal = true; threads = 3 } in
  let text = Fmt.str "%a" Options.pp o in
  check tbool "starts with the compile key" true
    (String.starts_with ~prefix:(key o) text);
  List.iter
    (fun s -> check tbool ("names " ^ s) true (Astring_contains.contains text s))
    [ {|"support_marginal": true|}; {|"space": |}; {|"base_type": |};
      "threads=3"; "engine=jit" ]

(* -- Lattice enumeration ---------------------------------------------------- *)

let test_enumerate () =
  let stats = stats () in
  let points = Tune.enumerate ~stats base in
  let fps = List.map key points in
  check tint "lattice deduplicated by compile key" (List.length fps)
    (List.length (List.sort_uniq compare fps));
  check tbool "base configuration is in its own lattice" true
    (List.mem (key base) fps);
  (* scalar points are canonicalized: exactly one scalar point per
     (level, partition) pair regardless of the veclib/shuffle knobs *)
  let scalars = List.filter (fun o -> not o.Options.vectorize) points in
  List.iter
    (fun (o : Options.t) ->
      check tbool "scalar point canonical" true
        (o.Options.use_veclib && o.Options.use_shuffle
        && not o.Options.use_gather_tables))
    scalars;
  (* dropping a knob shrinks the lattice *)
  let pruned = Tune.enumerate ~dropped:[ Tune.Opt_level ] ~stats base in
  check tbool "dropping opt_level shrinks the lattice" true
    (List.length pruned < List.length points);
  List.iter
    (fun (o : Options.t) ->
      check tbool "dropped knob pinned to base value" true
        (o.Options.opt_level = base.Options.opt_level))
    pruned;
  (* a scalar-only machine has no vector points at all *)
  let scalar_machine =
    { base with Options.machine = { M.ryzen_3900xt with M.isa = M.Scalar } }
  in
  let scalar_points = Tune.enumerate ~stats scalar_machine in
  List.iter
    (fun (o : Options.t) ->
      check tbool "no vector point on a scalar ISA" false o.Options.vectorize)
    scalar_points

(* -- Tuned configs ------------------------------------------------------------ *)

let test_config_roundtrip () =
  (* round trips are the structural test's; malformed inputs are
     rejected with errors, not exceptions *)
  let reject j = Result.is_error (Options.compile_of_json j) in
  let with_field name v =
    match Options.compile_to_json (Options.compile_of base) with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
    | _ -> assert false
  in
  check tbool "rejects non-object" true (reject (Json.Str "nope"));
  check tbool "rejects bad version" true
    (reject (with_field "spnc_compile" (Json.Num 99.)));
  check tbool "rejects unknown isa" true
    (reject (with_field "isa" (Json.Str "quantum-9000")));
  check tbool "rejects unknown pass" true
    (reject (with_field "lospn_opt_order" (Json.List [ Json.Str "inline" ])))

let test_string_parsers () =
  List.iter
    (fun v ->
      check tbool "veclib_of_string inverts veclib_to_string" true
        (M.veclib_of_string (M.veclib_to_string v) = Some v))
    [ M.No_veclib; M.SVML; M.Libmvec ];
  check tbool "veclib_of_string rejects junk" true
    (M.veclib_of_string "avx-512" = None);
  List.iter
    (fun l ->
      check tbool "level_of_string inverts level_to_string" true
        (Optimizer.level_of_string (Optimizer.level_to_string l) = Some l))
    [ Optimizer.O0; Optimizer.O1; Optimizer.O2; Optimizer.O3 ];
  check tbool "level_of_string accepts bare form" true
    (Optimizer.level_of_string "O2" = Some Optimizer.O2);
  check tbool "level_of_string rejects junk" true
    (Optimizer.level_of_string "-O9" = None)

(* -- The explorer ----------------------------------------------------------- *)

let run_tune ?(use_profile = true) ?(measure = 4) ?(options = base) () =
  Compiler.reset_kernel_cache ();
  Tune.tune
    ~budget:{ Tune.measure; reps = 2 }
    ~use_profile ~profile_rows:32 ~options ~data:(data 96) (Lazy.force model)

(* one search shared by every test that only reads the result *)
let shared_tune = lazy (run_tune ())

let test_tune_determinism () =
  let r1 = run_tune () and r2 = run_tune () in
  check tstr "same best label" r1.Tune.best.Tune.label r2.Tune.best.Tune.label;
  check tstr "same best compile key" (key r1.Tune.best.Tune.options)
    (key r2.Tune.best.Tune.options);
  check tint "same searched count" r1.Tune.searched r2.Tune.searched;
  List.iter2
    (fun (a : Tune.candidate) (b : Tune.candidate) ->
      check tstr "same candidate order" a.Tune.label b.Tune.label;
      check tbool "same deterministic estimate" true
        (a.Tune.est_seconds = b.Tune.est_seconds))
    r1.Tune.candidates r2.Tune.candidates

let test_tune_bit_identity_and_best () =
  let r = Lazy.force shared_tune in
  let measured =
    List.filter (fun c -> c.Tune.wall_seconds <> None) r.Tune.candidates
  in
  check tbool "budget produced measurements" true (measured <> []);
  check tbool "budget bounds the measured set" true
    (List.length measured <= r.Tune.budget.Tune.measure);
  List.iter
    (fun (c : Tune.candidate) ->
      check tbool
        (Printf.sprintf "measured candidate %s is bit-identical" c.Tune.label)
        true
        (c.Tune.identical = Some true))
    measured;
  (* the tuned pick is never slower (modelled) than the caller's config:
     the reference is itself a lattice point, so the winner at worst ties *)
  check tbool "best no slower than the reference" true
    (r.Tune.best.Tune.est_seconds <= r.Tune.reference.Tune.est_seconds);
  check tbool "searched within the full space" true
    (r.Tune.searched <= r.Tune.space_size)

let test_profile_pruning () =
  let r = Lazy.force shared_tune in
  match r.Tune.feedback with
  | None -> Alcotest.fail "profiled tune must carry feedback"
  | Some f ->
      (* speaker-ID models are Gaussian-heavy: libm calls dominate, so the
         veclib knob must survive; there are no discrete leaves, so the
         gather-tables dimension must be pruned *)
      check tbool "libm calls dominate the profile" true (f.Tune.fb_call_share > 0.2);
      check tbool "veclib knob survives" false
        (List.mem Tune.Veclib f.Tune.fb_dropped);
      check tbool "gather-tables knob pruned" true
        (List.mem Tune.Gather_tables f.Tune.fb_dropped);
      check tbool "pruning shrank the search" true
        (r.Tune.searched < r.Tune.space_size);
      (* the unprofiled search keeps the full lattice *)
      let r0 = run_tune ~use_profile:false () in
      check tbool "no profile, no feedback" true (r0.Tune.feedback = None);
      check tint "no profile, full lattice searched" r0.Tune.space_size
        r0.Tune.searched

let test_tuned_config_cache () =
  with_tmp_dir (fun dir ->
      let options = { base with Options.kernel_cache_dir = Some dir } in
      let r1 = run_tune ~options () in
      check tbool "first tune is a real search" false r1.Tune.from_cache;
      let r2 = run_tune ~options () in
      check tbool "second tune served from the cache" true r2.Tune.from_cache;
      check tint "cache hit runs no search" 0 r2.Tune.searched;
      check tstr "cached best matches the searched best"
        (key r1.Tune.best.Tune.options)
        (key r2.Tune.best.Tune.options);
      check tstr "cached best label" r1.Tune.best.Tune.label
        r2.Tune.best.Tune.label;
      (match Tune.load_cached ~options (Lazy.force model) with
      | None -> Alcotest.fail "load_cached must hit after a cached tune"
      | Some k ->
          check tstr "load_cached compile key" (key r1.Tune.best.Tune.options)
            (Options.fingerprint k));
      (* flip the stored entry's last payload byte behind the cache's back:
         the entry is quarantined and the next tune searches again.  The
         entry is keyed by (model digest, base compile key). *)
      let tuned = Filename.concat dir "tuned" in
      let entry =
        Digest.to_hex
          (Digest.string (r1.Tune.model_digest ^ "\x00" ^ key options))
      in
      let fd =
        Unix.openfile
          (Filename.concat tuned (entry ^ ".kc"))
          [ Unix.O_WRONLY ] 0
      in
      ignore (Unix.lseek fd (-1) Unix.SEEK_END);
      ignore (Unix.write_substring fd "#" 0 1);
      Unix.close fd;
      let r3 = run_tune ~options () in
      check tbool "a corrupt entry is searched again" true
        ((not r3.Tune.from_cache) && r3.Tune.searched > 0);
      check tint "the corrupt entry is quarantined" 1
        (Spnc.Kcache.quarantined_count
           (Result.get_ok (Spnc.Kcache.open_ ~dir:tuned ~max_mb:1))))

let test_tuned_config_cache_base_key () =
  (* a hit replaces the caller's compile key with the stored winner's, so
     a base that differs only in marginal support must search again *)
  with_tmp_dir (fun dir ->
      let options = { base with Options.kernel_cache_dir = Some dir } in
      let r1 = run_tune ~options () in
      let r2 = run_tune ~options:{ options with support_marginal = true } () in
      check tbool "another base searches" true
        ((not r2.Tune.from_cache) && r2.Tune.searched > 0);
      check tbool "its best keeps support_marginal" true
        r2.Tune.best.Tune.options.Options.support_marginal;
      let r3 = run_tune ~options () in
      check tbool "the same base still hits" true r3.Tune.from_cache;
      check tstr "and gets its own winner" (key r1.Tune.best.Tune.options)
        (key r3.Tune.best.Tune.options))

let test_promoted_order_replays () =
  (* a config tuned under a promoted pass order replays with it, from
     the DSE report (run --tuned-config) and from the tuned-config cache *)
  let order = [ "dce"; "cse"; "constfold" ] in
  with_tmp_dir (fun dir ->
      let options =
        { base with lospn_opt_order = Some order; kernel_cache_dir = Some dir }
      in
      let r = run_tune ~measure:1 ~options () in
      let replayed k = (Options.with_compile k Options.default).lospn_opt_order in
      let reported = Json.member "best_config" (Tune.result_to_json r) in
      List.iter
        (fun (what, k) ->
          check (Alcotest.option (Alcotest.list tstr)) what (Some order)
            (Option.bind k replayed))
        [
          ( "report",
            Option.bind reported (fun j ->
                Result.to_option (Options.compile_of_json j)) );
          ("cache", Tune.load_cached ~options (Lazy.force model));
        ])

let test_result_json () =
  let r = Lazy.force shared_tune in
  let j = Tune.result_to_json r in
  check tbool "schema tag" true
    (Option.bind (Json.member "schema" j) Json.str = Some "spnc-dse-v1");
  (* the embedded best_config round-trips through Options *)
  (match Json.member "best_config" j with
  | None -> Alcotest.fail "result JSON must embed the winning config"
  | Some cj -> (
      match Options.compile_of_json cj with
      | Ok k ->
          check tstr "embedded config round-trips"
            (key r.Tune.best.Tune.options) (Options.fingerprint k)
      | Error e -> Alcotest.fail e));
  (* and the whole report survives a print/parse cycle *)
  match Json.parse (Json.to_string_pretty j) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("result JSON reparse failed: " ^ e)

let test_invalid_args () =
  Alcotest.check_raises "GPU target rejected"
    (Invalid_argument
       "Tune.tune: the design-space explorer targets the CPU backend")
    (fun () ->
      ignore
        (Tune.tune
           ~options:{ base with Options.target = Options.Gpu }
           ~data:(data 8) (Lazy.force model)));
  Alcotest.check_raises "empty data rejected"
    (Invalid_argument "Tune.tune: empty sample set") (fun () ->
      ignore (Tune.tune ~options:base ~data:[||] (Lazy.force model)))

(* -- Spearman --------------------------------------------------------------- *)

(* The rank-correlation math itself is checked exactly on synthetic
   candidates; the live value is only bounds-checked, because host
   wall-clock and the MODELLED target time legitimately diverge across
   ISA classes (DESIGN.md §1) — which is exactly why the bench_check
   spearman gate is WARN-only. *)
let test_spearman () =
  let mk est wall =
    {
      Tune.label = Printf.sprintf "c%f" est;
      options = base;
      est_seconds = est;
      wall_seconds = Some wall;
      identical = Some true;
    }
  in
  let result_of candidates =
    {
      Tune.model_digest = "0";
      space_size = List.length candidates;
      searched = List.length candidates;
      budget = Tune.default_budget;
      feedback = None;
      candidates;
      reference = mk 1.0 1.0;
      best = mk 1.0 1.0;
      per_task = None;
      from_cache = false;
    }
  in
  let rho_exn r =
    match Tune.spearman r with Some v -> v | None -> Alcotest.fail "no rho"
  in
  let concordant = [ mk 1. 10.; mk 2. 20.; mk 3. 30.; mk 4. 40. ] in
  check (Alcotest.float 1e-9) "concordant ranking gives rho = 1" 1.0
    (rho_exn (result_of concordant));
  let reversed = [ mk 1. 40.; mk 2. 30.; mk 3. 20.; mk 4. 10. ] in
  check (Alcotest.float 1e-9) "reversed ranking gives rho = -1" (-1.0)
    (rho_exn (result_of reversed));
  check tbool "fewer than 3 measurements gives None" true
    (Tune.spearman (result_of [ mk 1. 1.; mk 2. 2. ]) = None);
  (* live run: well-formed whenever defined *)
  let r = Lazy.force shared_tune in
  match Tune.spearman r with
  | Some rho -> check tbool "live rho within [-1, 1]" true (Float.abs rho <= 1.0)
  | None -> ()

(* -- Per-task refinement ---------------------------------------------------- *)

let test_per_task_refinement () =
  (* partition the model into several tasks at -O1, profile it, and let
     the refinement raise the hot tasks to -O3 *)
  let options =
    {
      base with
      Options.max_partition_size = Some 600;
      opt_level = Optimizer.O1;
    }
  in
  Compiler.reset_kernel_cache ();
  let c = Compiler.compile ~options (Lazy.force model) in
  check tbool "model partitioned into several tasks" true
    (c.Compiler.num_tasks > 1);
  let rows = data 64 in
  let _, profile = Compiler.execute_profiled c rows in
  match Tune.refine_per_task ~base_level:Optimizer.O1 ~profile c rows with
  | None -> Alcotest.fail "partitioned artifact must yield per-task stats"
  | Some pt ->
      check tbool "one stat per task" true
        (List.length pt.Tune.pt_stats >= c.Compiler.num_tasks);
      let total_share =
        List.fold_left (fun acc t -> acc +. t.Tune.ts_share) 0. pt.Tune.pt_stats
      in
      check (Alcotest.float 1e-6) "shares sum to 1" 1.0 total_share;
      (* some task must be hot (>= 10%) with only a handful of tasks *)
      check tbool "hot tasks were raised to -O3" true pt.Tune.pt_refined;
      List.iter
        (fun (t : Tune.task_stat) ->
          if t.Tune.ts_share >= 0.10 then
            check tbool
              (Printf.sprintf "hot task %s at -O3" t.Tune.ts_fn)
              true
              (t.Tune.ts_level = Optimizer.O3))
        pt.Tune.pt_stats;
      check tbool "refined artifact is bit-identical" true
        (pt.Tune.pt_identical = Some true);
      check tbool "refined artifact was timed" true
        (pt.Tune.pt_wall_seconds <> None)

let suite =
  [
    Alcotest.test_case "compile key structure" `Quick
      test_compile_key_structure;
    Alcotest.test_case "options print the compile key" `Quick test_options_pp;
    Alcotest.test_case "lattice enumeration and dedup" `Quick test_enumerate;
    Alcotest.test_case "tuned-config JSON round-trip" `Quick
      test_config_roundtrip;
    Alcotest.test_case "veclib/level string parsers" `Quick test_string_parsers;
    Alcotest.test_case "tuner determinism" `Quick test_tune_determinism;
    Alcotest.test_case "measured candidates bit-identical" `Quick
      test_tune_bit_identity_and_best;
    Alcotest.test_case "profile-feedback pruning" `Quick test_profile_pruning;
    Alcotest.test_case "tuned-config cache" `Quick test_tuned_config_cache;
    Alcotest.test_case "tuned-config cache keyed by base" `Quick
      test_tuned_config_cache_base_key;
    Alcotest.test_case "promoted pass order replays" `Quick
      test_promoted_order_replays;
    Alcotest.test_case "DSE report JSON" `Quick test_result_json;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "spearman rank correlation" `Quick test_spearman;
    Alcotest.test_case "per-task profile refinement" `Quick
      test_per_task_refinement;
  ]
