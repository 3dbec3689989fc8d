(** Tests for the crash-safe persistent kernel cache (docs/RESILIENCE.md
    §1): checksum-verified round-trips, corruption quarantine, LRU
    eviction under a size budget, injected I/O faults, and the
    compiler's memory → disk → compile lookup order. *)

module Kcache = Spnc.Kcache
module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Fault = Spnc_resilience.Fault
module Model = Spnc_spn.Model

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let with_tmp_dir f =
  let dir = Filename.temp_file "spnc-kcache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let opened dir = Result.get_ok (Kcache.open_ ~dir ~max_mb:4)

let fmt = "test-fmt-v1"

(* -- Store / find round-trips --------------------------------------------------- *)

let test_roundtrip () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      let payload = String.init 4096 (fun i -> Char.chr (i mod 256)) in
      Kcache.store t ~fmt ~key:"model-a" payload;
      (match Kcache.find t ~fmt ~key:"model-a" with
      | Some p -> check tbool "payload bit-exact" true (p = payload)
      | None -> Alcotest.fail "stored entry must be found");
      check (Alcotest.list Alcotest.string) "entry listed" [ "model-a" ]
        (Kcache.entry_keys t);
      check tbool "size accounts the entry" true (Kcache.size_bytes t > 4096))

let test_miss_absent () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.reset_counters_for_tests ();
      check tbool "absent key is a miss" true
        (Kcache.find t ~fmt ~key:"nope" = None);
      check tint "miss counted" 1 (Kcache.counters ()).Kcache.misses)

let test_unsafe_keys_round_trip () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      (* keys with path separators and spaces must be sanitized, must not
         escape the cache directory, and must not collide *)
      let k1 = "../evil/key with spaces" and k2 = "../evil/other key" in
      Kcache.store t ~fmt ~key:k1 "one";
      Kcache.store t ~fmt ~key:k2 "two";
      check tbool "weird key 1 round-trips" true
        (Kcache.find t ~fmt ~key:k1 = Some "one");
      check tbool "weird key 2 round-trips" true
        (Kcache.find t ~fmt ~key:k2 = Some "two");
      check tbool "nothing escaped the cache dir" false
        (Sys.file_exists (Filename.concat (Filename.dirname dir) "evil")))

let test_format_mismatch_is_silent_miss () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.store t ~fmt:"old-fmt" ~key:"k" "payload";
      Kcache.reset_counters_for_tests ();
      check tbool "stale format is a miss" true
        (Kcache.find t ~fmt:"new-fmt" ~key:"k" = None);
      let c = Kcache.counters () in
      check tint "not counted as corruption" 0 c.Kcache.corrupt;
      check tint "stale entry removed, not quarantined" 0
        (Kcache.quarantined_count t);
      check (Alcotest.list Alcotest.string) "entry gone" []
        (Kcache.entry_keys t))

(* -- Corruption ----------------------------------------------------------------- *)

let entry_file dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".kc")
  |> function
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected exactly one entry, got %d" (List.length l)

let test_bitflip_quarantined () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.store t ~fmt ~key:"k" (String.make 1024 'x');
      (* flip one payload byte on disk behind the cache's back *)
      let path = entry_file dir in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (-1) Unix.SEEK_END);
      ignore (Unix.write_substring fd "y" 0 1);
      Unix.close fd;
      Kcache.reset_counters_for_tests ();
      check tbool "corrupt entry is a miss, not wrong bytes" true
        (Kcache.find t ~fmt ~key:"k" = None);
      check tint "corruption counted" 1 (Kcache.counters ()).Kcache.corrupt;
      check tint "entry quarantined for post-mortem" 1
        (Kcache.quarantined_count t);
      check tbool "second lookup is a plain miss" true
        (Kcache.find t ~fmt ~key:"k" = None))

let test_truncation_quarantined () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.store t ~fmt ~key:"k" (String.make 2048 'p');
      let path = entry_file dir in
      Unix.truncate path ((Unix.stat path).Unix.st_size / 2);
      check tbool "truncated entry is a miss" true
        (Kcache.find t ~fmt ~key:"k" = None);
      check tbool "truncated entry quarantined" true
        (Kcache.quarantined_count t >= 1))

(* -- Eviction ------------------------------------------------------------------- *)

let age path seconds =
  let past = Unix.gettimeofday () -. seconds in
  Unix.utimes path past past

let test_lru_eviction_respects_budget () =
  with_tmp_dir (fun dir ->
      let t = Result.get_ok (Kcache.open_ ~dir ~max_mb:1) in
      Kcache.reset_counters_for_tests ();
      let payload = String.make 400_000 'z' in
      Kcache.store t ~fmt ~key:"oldest" payload;
      age (entry_file dir) 300.0;
      Kcache.store t ~fmt ~key:"middle" payload;
      (* publishing the third entry blows the 1 MB budget: the oldest
         mtime must go *)
      Kcache.store t ~fmt ~key:"newest" payload;
      check tbool "budget holds after publish" true
        (Kcache.size_bytes t <= 1 lsl 20);
      check tbool "eviction counted" true
        ((Kcache.counters ()).Kcache.evictions >= 1);
      check tbool "newest entry survives" true
        (List.mem "newest" (Kcache.entry_keys t));
      check tbool "oldest entry evicted" false
        (List.mem "oldest" (Kcache.entry_keys t)))

let test_hit_refreshes_recency () =
  with_tmp_dir (fun dir ->
      let t = Result.get_ok (Kcache.open_ ~dir ~max_mb:1) in
      let payload = String.make 400_000 'z' in
      Kcache.store t ~fmt ~key:"a" payload;
      Kcache.store t ~fmt ~key:"b" payload;
      (* make [a] the LRU candidate, then hit it: the hit must touch it
         back to the front so [b] is evicted instead *)
      List.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Filename.check_suffix f ".kc" then
            age p (if f = "a.kc" then 600.0 else 300.0))
        (Array.to_list (Sys.readdir dir));
      check tbool "hit on the cold entry" true
        (Kcache.find t ~fmt ~key:"a" <> None);
      Kcache.store t ~fmt ~key:"c" payload;
      check tbool "recently hit entry survives eviction" true
        (List.mem "a" (Kcache.entry_keys t));
      check tbool "cold untouched entry evicted" false
        (List.mem "b" (Kcache.entry_keys t)))

(* -- Injected I/O faults --------------------------------------------------------- *)

let with_faults points f =
  Fault.reset_for_tests ();
  Fault.arm ~points ~seed:42 ~rate:1.0 ();
  Fun.protect ~finally:Fault.reset_for_tests f

let test_enospc_absorbed () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.reset_counters_for_tests ();
      with_faults [ "kcache.write_enospc" ] (fun () ->
          Kcache.store t ~fmt ~key:"k" "payload");
      check tbool "failed store is simply absent" true
        (Kcache.find t ~fmt ~key:"k" = None);
      check tbool "store failure counted" true
        ((Kcache.counters ()).Kcache.store_failures >= 1);
      (* the cache keeps working afterwards *)
      Kcache.store t ~fmt ~key:"k" "payload";
      check tbool "store succeeds once the fault clears" true
        (Kcache.find t ~fmt ~key:"k" = Some "payload"))

let test_torn_write_caught_by_checksum () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      with_faults [ "kcache.write_torn" ] (fun () ->
          Kcache.store t ~fmt ~key:"k" (String.make 4096 'q'));
      Kcache.reset_counters_for_tests ();
      check tbool "torn entry never returns wrong bytes" true
        (Kcache.find t ~fmt ~key:"k" = None);
      check tbool "torn entry detected as corrupt" true
        ((Kcache.counters ()).Kcache.corrupt >= 1))

let test_read_faults_surface_as_misses () =
  with_tmp_dir (fun dir ->
      let t = opened dir in
      Kcache.store t ~fmt ~key:"k" (String.make 4096 'r');
      with_faults [ "kcache.read_bitflip" ] (fun () ->
          check tbool "injected bit flip is a miss" true
            (Kcache.find t ~fmt ~key:"k" = None));
      Kcache.store t ~fmt ~key:"k2" (String.make 4096 's');
      with_faults [ "kcache.read_short" ] (fun () ->
          check tbool "injected short read is a miss" true
            (Kcache.find t ~fmt ~key:"k2" = None)))

let test_open_errors () =
  with_tmp_dir (fun dir ->
      (* nested directories are created on demand *)
      (match Kcache.open_ ~dir:(Filename.concat dir "a/b/c") ~max_mb:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "nested open failed: %s" e);
      (* a regular file in the way is an error, not an exception *)
      let f = Filename.concat dir "plain-file" in
      let oc = open_out f in
      output_string oc "x";
      close_out oc;
      match Kcache.open_ ~dir:f ~max_mb:1 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "open over a regular file must fail")

(* -- Compiler integration: memory -> disk -> compile ---------------------------- *)

let small_model () =
  let g0 = Model.gaussian ~var:0 ~mean:0.0 ~stddev:1.0 in
  let g1 = Model.gaussian ~var:1 ~mean:1.0 ~stddev:0.5 in
  let c1 = Model.categorical ~var:1 ~probs:[| 0.25; 0.75 |] in
  let p0 = Model.product [ g0; g1 ] in
  let p1 = Model.product [ g0; c1 ] in
  Model.make ~num_features:2 (Model.sum [ (0.4, p0); (0.6, p1) ])

let small_rows = [| [| 0.1; 0.9 |]; [| -0.5; 1.0 |]; [| 1.5; 0.0 |] |]

let disk_options dir =
  {
    Options.default with
    Options.kernel_cache_dir = Some dir;
    kernel_cache_mb = 4;
    threads = 1;
  }

let test_disk_hit_skips_pipeline () =
  with_tmp_dir (fun dir ->
      let options = disk_options dir in
      let model = small_model () in
      Compiler.reset_kernel_cache ();
      let first = Compiler.execute (Compiler.compile ~options model) small_rows in
      let k = Compiler.cache_counters () in
      check tint "first compile runs the pipeline" 1 k.Compiler.full_compiles;
      (* a fresh process-equivalent: memory tier dropped, disk survives *)
      Compiler.reset_kernel_cache ();
      let second = Compiler.execute (Compiler.compile ~options model) small_rows in
      let k = Compiler.cache_counters () in
      check tint "served from disk" 1 k.Compiler.disk_hits;
      check tint "no pipeline run" 0 k.Compiler.full_compiles;
      check tbool "outputs bit-identical" true (first = second))

let test_corrupt_disk_entry_recompiles () =
  with_tmp_dir (fun dir ->
      let options = disk_options dir in
      let model = small_model () in
      Compiler.reset_kernel_cache ();
      let first = Compiler.execute (Compiler.compile ~options model) small_rows in
      (* scribble over every stored entry *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".kc" then begin
            let oc = open_out_gen [ Open_wronly ] 0 (Filename.concat dir f) in
            seek_out oc 0;
            output_string oc "GARBAGE";
            close_out oc
          end)
        (Sys.readdir dir);
      Compiler.reset_kernel_cache ();
      let second = Compiler.execute (Compiler.compile ~options model) small_rows in
      let k = Compiler.cache_counters () in
      check tint "corruption forces a clean recompile" 1 k.Compiler.full_compiles;
      check tint "no disk hit" 0 k.Compiler.disk_hits;
      check tbool "recompiled outputs bit-identical" true (first = second))

(* An entry that another build wrote for the same key (its format tag
   digests other sources) is a stale miss: the compile runs the pipeline
   and replaces the entry, which is dropped quietly, not quarantined. *)
let test_other_format_tag_recompiles () =
  with_tmp_dir (fun dir ->
      let options = disk_options dir in
      let model = small_model () in
      Compiler.reset_kernel_cache ();
      let first = Compiler.execute (Compiler.compile ~options model) small_rows in
      let kc = opened dir in
      let key =
        match Kcache.entry_keys kc with
        | [ k ] -> k
        | keys -> Alcotest.failf "expected one entry, found %d" (List.length keys)
      in
      (* the hand-kept tag of earlier builds, over a payload that is not
         this build's layout *)
      Kcache.store kc ~fmt:("spnc-compiled-v5/" ^ Sys.ocaml_version) ~key
        (Marshal.to_string (42, "stale") []);
      Kcache.reset_counters_for_tests ();
      Compiler.reset_kernel_cache ();
      let second = Compiler.execute (Compiler.compile ~options model) small_rows in
      let k = Compiler.cache_counters () in
      check tint "stale tag forces a recompile" 1 k.Compiler.full_compiles;
      check tint "no disk hit" 0 k.Compiler.disk_hits;
      let kk = Kcache.counters () in
      check tint "a counted miss" 1 kk.Kcache.misses;
      check tint "not corrupt" 0 kk.Kcache.corrupt;
      check tint "nothing quarantined" 0 (Kcache.quarantined_count kc);
      check tbool "recompiled outputs bit-identical" true (first = second);
      (* the stale entry gave way to this build's *)
      Compiler.reset_kernel_cache ();
      ignore (Compiler.compile ~options model);
      check tint "the republished entry is a disk hit" 1
        (Compiler.cache_counters ()).Compiler.disk_hits)

let test_runtime_knobs_share_disk_entry () =
  with_tmp_dir (fun dir ->
      let options = disk_options dir in
      let model = small_model () in
      Compiler.reset_kernel_cache ();
      ignore (Compiler.compile ~options model);
      Compiler.reset_kernel_cache ();
      (* threads and engine are runtime-only: same disk entry *)
      let options' =
        { options with Options.threads = 4; engine = Spnc_cpu.Jit.Vm }
      in
      let out = Compiler.execute (Compiler.compile ~options:options' model) small_rows in
      let k = Compiler.cache_counters () in
      check tint "runtime-only change still hits disk" 1 k.Compiler.disk_hits;
      check tint "rows out" (Array.length small_rows) (Array.length out))

let suite =
  [
    Alcotest.test_case "store/find round-trip" `Quick test_roundtrip;
    Alcotest.test_case "absent key is a counted miss" `Quick test_miss_absent;
    Alcotest.test_case "unsafe keys sanitized without collision" `Quick
      test_unsafe_keys_round_trip;
    Alcotest.test_case "stale format is a silent miss" `Quick
      test_format_mismatch_is_silent_miss;
    Alcotest.test_case "bit flip quarantined, never wrong bytes" `Quick
      test_bitflip_quarantined;
    Alcotest.test_case "truncation quarantined" `Quick test_truncation_quarantined;
    Alcotest.test_case "LRU eviction respects the budget" `Quick
      test_lru_eviction_respects_budget;
    Alcotest.test_case "hits refresh recency" `Quick test_hit_refreshes_recency;
    Alcotest.test_case "injected ENOSPC absorbed" `Quick test_enospc_absorbed;
    Alcotest.test_case "injected torn write caught by checksum" `Quick
      test_torn_write_caught_by_checksum;
    Alcotest.test_case "injected read faults are misses" `Quick
      test_read_faults_surface_as_misses;
    Alcotest.test_case "open_: creates dirs, rejects files" `Quick
      test_open_errors;
    Alcotest.test_case "compiler: disk hit skips the pipeline" `Quick
      test_disk_hit_skips_pipeline;
    Alcotest.test_case "compiler: corrupt entry recompiles transparently"
      `Quick test_corrupt_disk_entry_recompiles;
    Alcotest.test_case "compiler: another build's tag is a stale miss" `Quick
      test_other_format_tag_recompiles;
    Alcotest.test_case "compiler: runtime-only knobs share the entry" `Quick
      test_runtime_knobs_share_disk_entry;
  ]
