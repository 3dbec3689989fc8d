(** Direct tests of the Lir layer: VM instruction semantics, optimizer
    equivalence properties on randomly generated SPNs, regalloc
    rematerialization, and the ablation-relevant partitioner variants. *)

open Spnc_spn
module Rng = Spnc_data.Rng
module Lir = Spnc_cpu.Lir
module Vm = Spnc_cpu.Vm
module Opt = Spnc_cpu.Optimizer

let check = Alcotest.check
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-12

(* -- Raw VM semantics -------------------------------------------------------- *)

(* Hand-assemble a function: out[0] = fma(2,3,4) = 10; out[1] = select *)
let test_vm_hand_assembled () =
  let body =
    [|
      Lir.ConstF (0, 2.0);
      Lir.ConstF (1, 3.0);
      Lir.ConstF (2, 4.0);
      Lir.FBin3 (Lir.FMA, 3, 0, 1, 2);
      Lir.ConstI (0, 0);
      Lir.Store (0, 0, 3);
      (* select: cmp 2 < 3 -> pick 4.0 *)
      Lir.FCmp (Lir.Olt, 1, 0, 1);
      Lir.SelF (4, 1, 2, 0);
      Lir.ConstI (1, 1);
      Lir.Store (0, 1, 4);
      Lir.Ret;
    |]
  in
  let f =
    {
      Lir.fname = "t";
      params = [ 0 ];
      body;
      nf = 5;
      ni = 2;
      nv = 1;
      nb = 1;
      vec_width = 1;
      prov = Lir.no_prov;
    }
  in
  let m = { Lir.funcs = [| f |]; entry = 0 } in
  let out = Vm.buffer ~rows:2 ~cols:1 in
  Vm.run m ~buffers:[ out ];
  check tfloat "fma" 10.0 out.Vm.data.(0);
  check tfloat "select picks t" 4.0 out.Vm.data.(1)

let test_vm_loop_and_dim () =
  (* out[i] = 2*i for all rows, via Loop + Dim *)
  let body =
    [|
      Lir.Dim (0, 0);
      (* ub = rows *)
      Lir.ConstI (1, 0);
      (* lb *)
      Lir.Loop
        {
          Lir.iv = 2;
          lb = 1;
          ub = 0;
          step = 1;
          vector_width = 1;
          body =
            [|
              Lir.ItoF (0, 2);
              Lir.ConstF (1, 2.0);
              Lir.FBin (Lir.FMul, 2, 0, 1);
              Lir.Store (0, 2, 2);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "t"; params = [ 0 ]; body; nf = 3; ni = 3; nv = 1; nb = 1; vec_width = 1; prov = Lir.no_prov }
  in
  let out = Vm.buffer ~rows:5 ~cols:1 in
  Vm.run { Lir.funcs = [| f |]; entry = 0 } ~buffers:[ out ];
  Array.iteri (fun i v -> check tfloat (Printf.sprintf "row %d" i) (2.0 *. float_of_int i) v) out.Vm.data

let test_vm_vector_semantics () =
  let w = 4 in
  let body =
    [|
      Lir.ConstI (0, 0);
      Lir.VLoad (0, 0, 0);
      Lir.VConst (1, 10.0);
      Lir.VBin (Lir.FAdd, 2, 0, 1);
      Lir.VCmp (Lir.Ogt, 3, 2, 1);
      (* mask: v+10 > 10 i.e. v > 0 *)
      Lir.VSel (4, 3, 2, 1);
      Lir.VStore (0, 0, 4);
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "t"; params = [ 0 ]; body; nf = 1; ni = 1; nv = 5; nb = 1; vec_width = w; prov = Lir.no_prov }
  in
  let buf = Vm.of_flat [| 1.0; -2.0; 3.0; 0.0 |] ~rows:4 ~cols:1 in
  Vm.run { Lir.funcs = [| f |]; entry = 0 } ~buffers:[ buf ];
  check tfloat "lane0 selected" 11.0 buf.Vm.data.(0);
  check tfloat "lane1 fallback" 10.0 buf.Vm.data.(1);
  check tfloat "lane2 selected" 13.0 buf.Vm.data.(2);
  check tfloat "lane3 fallback (0 not > 0)" 10.0 buf.Vm.data.(3)

let test_vm_traps () =
  let f =
    {
      Lir.fname = "t";
      params = [ 0 ];
      body = [| Lir.ConstI (0, 99); Lir.Load (0, 0, 0); Lir.Ret |];
      nf = 1;
      ni = 1;
      nv = 1;
      nb = 1;
      vec_width = 1;
      prov = Lir.no_prov;
    }
  in
  let out = Vm.buffer ~rows:1 ~cols:1 in
  match Vm.run { Lir.funcs = [| f |]; entry = 0 } ~buffers:[ out ] with
  | exception Vm.Trap _ -> ()
  | () -> Alcotest.fail "out-of-bounds load did not trap"

(* -- Per-node profiler --------------------------------------------------------- *)

module Profile = Spnc_cpu.Profile
module Jit = Spnc_cpu.Jit
module Exec = Spnc_runtime.Exec

let tint = Alcotest.int

(* The straight-line func from [test_vm_hand_assembled]: 11 instructions,
   executed exactly once per run. *)
let straightline_func ~prov =
  let body =
    [|
      Lir.ConstF (0, 2.0);
      Lir.ConstF (1, 3.0);
      Lir.ConstF (2, 4.0);
      Lir.FBin3 (Lir.FMA, 3, 0, 1, 2);
      Lir.ConstI (0, 0);
      Lir.Store (0, 0, 3);
      Lir.FCmp (Lir.Olt, 1, 0, 1);
      Lir.SelF (4, 1, 2, 0);
      Lir.ConstI (1, 1);
      Lir.Store (0, 1, 4);
      Lir.Ret;
    |]
  in
  { Lir.fname = "t"; params = [ 0 ]; body; nf = 5; ni = 2; nv = 1; nb = 1;
    vec_width = 1; prov }

let test_profile_straightline_exact_total () =
  let m = { Lir.funcs = [| straightline_func ~prov:Lir.no_prov |]; entry = 0 } in
  let p = Profile.create () in
  let out = Vm.buffer ~rows:2 ~cols:1 in
  Vm.run_profiled m p ~buffers:[ out ];
  (* profiling must not change the computed result *)
  check tfloat "fma result unchanged" 10.0 out.Vm.data.(0);
  check tint "every instruction counted exactly once" 11 (Profile.total p);
  (* the total is the sum of the cells, by construction *)
  let cell_sum =
    List.fold_left (fun a (c : Profile.cell) -> a + Atomic.get c.Profile.count)
      0 (Profile.cells p)
  in
  check tint "cells sum to the total" (Profile.total p) cell_sum;
  (* opcode breakdown: three ConstF, two ConstI, two Store *)
  let count op =
    List.fold_left
      (fun a (c : Profile.cell) ->
        if c.Profile.opcode = op then a + Atomic.get c.Profile.count else a)
      0 (Profile.cells p)
  in
  check tint "constf x3" 3 (count "constf");
  check tint "consti x2" 2 (count "consti");
  check tint "store x2" 2 (count "store");
  check tint "fma x1" 1 (count "fma");
  (* a second run doubles every count — cells accumulate across runs *)
  Vm.run_profiled m p ~buffers:[ out ];
  check tint "second run doubles the total" 22 (Profile.total p)

let test_profile_loop_trip_count () =
  (* the loop func from [test_vm_loop_and_dim]: 4 top-level instructions
     (Dim, ConstI, Loop, Ret) plus 4 body instructions per row *)
  let body =
    [|
      Lir.Dim (0, 0);
      Lir.ConstI (1, 0);
      Lir.Loop
        {
          Lir.iv = 2; lb = 1; ub = 0; step = 1; vector_width = 1;
          body =
            [|
              Lir.ItoF (0, 2);
              Lir.ConstF (1, 2.0);
              Lir.FBin (Lir.FMul, 2, 0, 1);
              Lir.Store (0, 2, 2);
            |];
        };
      Lir.Ret;
    |]
  in
  let f =
    { Lir.fname = "t"; params = [ 0 ]; body; nf = 3; ni = 3; nv = 1; nb = 1;
      vec_width = 1; prov = Lir.no_prov }
  in
  let rows = 5 in
  let p = Profile.create () in
  let out = Vm.buffer ~rows ~cols:1 in
  Vm.run_profiled { Lir.funcs = [| f |]; entry = 0 } p ~buffers:[ out ];
  check tint "4 straight-line + rows*4 body instructions"
    (4 + (rows * 4))
    (Profile.total p)

let test_profile_attribution_via_provenance () =
  (* tag the FMA destination (f3) as SPN node 7 and the select destination
     (f4) as node 9; everything else stays unattributed (-1) *)
  let pf = Array.make 5 Spnc_mlir.Loc.Unknown in
  pf.(3) <- Spnc_mlir.Loc.node 7;
  pf.(4) <- Spnc_mlir.Loc.node 9;
  let prov = { Lir.pf; pi = [||]; pv = [||]; pb = [||] } in
  let m = { Lir.funcs = [| straightline_func ~prov |]; entry = 0 } in
  let p = Profile.create () in
  let out = Vm.buffer ~rows:2 ~cols:1 in
  Vm.run_profiled m p ~buffers:[ out ];
  let stats = Profile.by_node p in
  let hits n =
    match List.find_opt (fun s -> s.Profile.ns_node = n) stats with
    | Some s -> s.Profile.ns_hits
    | None -> 0
  in
  (* node 7: the FMA itself plus the Store whose source is f3 (a store has
     no destination, so attribution falls back to the located source) *)
  check tint "node 7 owns fma + its store" 2 (hits 7);
  check tint "node 9 owns the select + its store" 2 (hits 9);
  (* attribution is a partition: per-node hits sum to the exact total *)
  let sum = List.fold_left (fun a s -> a + s.Profile.ns_hits) 0 stats in
  check tint "per-node hits sum to the total" (Profile.total p) sum;
  check tint "the rest lands on the unattributed bucket" (11 - 4) (hits (-1))

let test_profile_jit_matches_vm_shape () =
  (* the JIT turns single-definition constants into immediates, whose
     profiled closures only count; counts must be deterministic and
     accumulate linearly *)
  let prov = Lir.no_prov in
  let m = { Lir.funcs = [| straightline_func ~prov |]; entry = 0 } in
  let p = Profile.create () in
  let k = Jit.compile ~profile:p m in
  let st = Jit.make_state k in
  let out = Vm.buffer ~rows:2 ~cols:1 in
  Jit.run k st ~buffers:[ out ];
  check tfloat "jit result unchanged under profiling" 10.0 out.Vm.data.(0);
  let t1 = Profile.total p in
  check tbool "profiled jit counts executions" true (t1 > 0);
  check tbool "promoted constants are excluded" true (t1 <= 11);
  Jit.run k st ~buffers:[ out ];
  check tint "second run adds exactly one run's worth" (2 * t1)
    (Profile.total p)

(* -- Optimizer equivalence properties ------------------------------------------ *)

let compile_lir ?(vec = false) level t =
  let hi = Spnc_hispn.From_model.translate t in
  let lo =
    Spnc_lospn.Lower_hispn.run
      ~options:
        {
          Spnc_lospn.Lower_hispn.default_options with
          space = Spnc_lospn.Lower_hispn.Force_log;
        }
      hi
  in
  let lo = Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo) in
  let options =
    if vec then
      { Spnc_cpu.Lower_cpu.scalar_options with vectorize = true;
        width = 8; use_veclib = true; use_shuffle = true }
    else Spnc_cpu.Lower_cpu.scalar_options
  in
  Opt.run level
    (Spnc_cpu.Isel.finish (Spnc_cpu.Lower_cpu.isel ~options lo) ~entry:"spn_kernel")

let run_lir lir ~rows ~num_features =
  let n = Array.length rows in
  let input = Vm.of_flat (Array.concat (Array.to_list rows)) ~rows:n ~cols:num_features in
  let out = Vm.buffer ~rows:n ~cols:1 in
  Vm.run lir ~buffers:[ input; out ];
  Array.sub out.Vm.data 0 n

(* Exact profiles across column chunks: a column closure counts its
   whole chunk at once, so on a vectorized kernel whose 8-lane loop runs
   two full chunks and a partial one (whose last group the runtime pads)
   every cell of the JIT's profile equals the VM's. *)
let test_profile_jit_equals_vm_across_chunks () =
  let rng = Rng.create ~seed:17 in
  let t =
    Random_spn.generate rng
      { Random_spn.default_config with num_features = 5; max_depth = 5 }
  in
  let lir = compile_lir ~vec:true Opt.O1 t in
  let n = (2 * Jit.chunk * 8) + 13 in
  let drng = Rng.create ~seed:18 in
  let flat = Array.init (n * 5) (fun _ -> Rng.range drng (-3.0) 3.0) in
  let pv = Profile.create () and pj = Profile.create () in
  let run engine profile =
    let ex = Exec.load ~engine ~profile ~out_cols:1 lir in
    ignore (Exec.execute ex ~flat ~rows:n ~num_features:5)
  in
  run Jit.Vm pv;
  run Jit.Jit pj;
  check tint "equal totals" (Profile.total pv) (Profile.total pj);
  let counts p =
    List.sort compare
      (List.map
         (fun (c : Profile.cell) ->
           ((c.Profile.node, c.Profile.opcode), Atomic.get c.Profile.count))
         (Profile.cells p))
  in
  let cv = counts pv and cj = counts pj in
  check tint "same cells" (List.length cv) (List.length cj);
  List.iter2
    (fun ((node, op), v) (key, j) ->
      if (node, op) <> key || v <> j then
        Alcotest.failf "cell (%d, %s): vm %d, jit %d" node op v j)
    cv cj

let test_optimizer_equivalence_prop =
  QCheck.Test.make ~count:12 ~name:"O0 and O3 produce identical results"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate rng
          { Random_spn.default_config with num_features = 6; max_depth = 5 }
      in
      let data_rng = Rng.create ~seed:(seed + 1) in
      let rows =
        Array.init 9 (fun _ ->
            Array.init 6 (fun _ -> Rng.range data_rng (-3.0) 3.0))
      in
      let o0 = run_lir (compile_lir Opt.O0 t) ~rows ~num_features:6 in
      let o3 = run_lir (compile_lir Opt.O3 t) ~rows ~num_features:6 in
      Array.for_all2 (fun a b -> a = b || Float.abs (a -. b) < 1e-12) o0 o3)

(* The padding contract: through [Exec], on both engines, the vectorized
   lowering scores every row count — each of 1..17, 19, and either side
   of a JIT column chunk of 8-lane groups — bit for bit as the scalar
   lowering does. *)
let test_scalar_vector_equivalence_prop =
  QCheck.Test.make ~count:12 ~name:"scalar and vectorized kernels agree"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let t =
        Random_spn.generate rng
          { Random_spn.default_config with num_features = 5; max_depth = 5 }
      in
      let counts =
        List.init 17 succ @ [ 19; (Jit.chunk * 8) - 1; (Jit.chunk * 8) + 1 ]
      in
      let data_rng = Rng.create ~seed:(seed + 2) in
      let flat =
        Array.init
          (5 * List.fold_left max 0 counts)
          (fun _ -> Rng.range data_rng (-3.0) 3.0)
      in
      let scalar = compile_lir ~vec:false Opt.O1 t
      and vec = compile_lir ~vec:true Opt.O1 t in
      List.for_all
        (fun engine ->
          let s = Exec.load ~engine ~out_cols:1 scalar
          and v = Exec.load ~engine ~out_cols:1 vec in
          List.for_all
            (fun n ->
              let run ex =
                Exec.execute ex ~flat:(Array.sub flat 0 (n * 5)) ~rows:n
                  ~num_features:5
              in
              Array.for_all2
                (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                (run s) (run v))
            counts)
        Jit.[ Vm; Jit ])

(* Called directly, without the runtime's padding, a vectorized kernel
   on a partial group of rows reads past its input: both engines trap at
   that first read, and no result is written. *)
let test_partial_group_traps () =
  let t =
    Random_spn.generate (Rng.create ~seed:19)
      { Random_spn.default_config with num_features = 5; max_depth = 5 }
  in
  let lir = compile_lir ~vec:true Opt.O1 t in
  let k = Jit.compile lir in
  List.iter
    (fun n ->
      List.iter
        (fun (engine, run) ->
          let out = Vm.buffer ~rows:n ~cols:1 in
          Array.fill out.Vm.data 0 n 42.0;
          let input =
            Vm.of_flat (Array.init (n * 5) float_of_int) ~rows:n ~cols:5
          in
          (match run ~buffers:[ input; out ] with
          | exception Vm.Trap msg ->
              check tbool
                (Printf.sprintf "%s, %d rows: trap at the input read (%s)"
                   engine n msg)
                true
                (Astring_contains.contains msg "gather out of bounds")
          | () -> Alcotest.failf "%s, %d rows: no trap" engine n);
          check tbool
            (Printf.sprintf "%s, %d rows: no result written" engine n)
            true
            (Array.for_all (fun x -> x = 42.0) out.Vm.data))
        [ ("vm", Vm.run lir); ("jit", Jit.run k (Jit.make_state k)) ])
    [ 1; 5; 7 ]

(* -- Regalloc rematerialization ----------------------------------------------------- *)

let test_remat_reduces_intervals () =
  (* a function whose loop body is dominated by constants: with
     rematerialization they form no intervals *)
  let t =
    Model.make ~num_features:1
      (Model.sum
         (List.init 10 (fun i ->
              (0.1, Model.gaussian ~var:0 ~mean:(float_of_int i) ~stddev:1.0))))
  in
  let lir = compile_lir Opt.O0 t in
  let stats = Spnc_cpu.Regalloc.allocate_module lir in
  (* O0 keeps all constants in the loop; without remat the interval count
     would exceed the instruction count substantially *)
  let intervals = Array.fold_left (fun a s -> a + s.Spnc_cpu.Regalloc.intervals) 0 stats in
  let consts =
    Array.fold_left
      (fun a (f : Lir.func) ->
        a
        + Lir.count_instrs
            ~filter:(fun i ->
              match i with Lir.ConstF _ | Lir.ConstI _ | Lir.VConst _ -> true | _ -> false)
            f.Lir.body)
      0 lir.Lir.funcs
  in
  check tbool
    (Printf.sprintf "intervals %d exclude the %d constants" intervals consts)
    true
    (intervals < Lir.module_size lir - consts + 8)

(* -- Partitioner ablation invariants ------------------------------------------------- *)

let tree_dag leaves =
  let nodes = ref 0 and edges = ref [] in
  let fresh () = let n = !nodes in incr nodes; n in
  let layer = ref (List.init leaves (fun _ -> fresh ())) in
  while List.length !layer > 1 do
    let rec pair = function
      | a :: b :: rest ->
          let p = fresh () in
          edges := (a, p) :: (b, p) :: !edges;
          p :: pair rest
      | rest -> rest
    in
    layer := pair !layer
  done;
  Spnc_partition.Dag.create ~num_nodes:!nodes ~edges:!edges

let test_topo_random_is_topological () =
  let module D = Spnc_partition.Dag in
  let d = tree_dag 64 in
  List.iter
    (fun seed ->
      let order = D.topo_random ~seed d in
      let pos = Array.make d.D.num_nodes 0 in
      Array.iteri (fun p n -> pos.(n) <- p) order;
      for n = 0 to d.D.num_nodes - 1 do
        List.iter
          (fun s ->
            if pos.(s) < pos.(n) then
              Alcotest.failf "seed %d: edge %d->%d violates order" seed n s)
          d.D.succ.(n)
      done)
    [ 1; 2; 3; 42 ]

let test_dfs_beats_random_ordering () =
  (* the paper's stated reason for replacing the random ordering *)
  let module P = Spnc_partition.Partitioner in
  let d = tree_dag 512 in
  let cost ordering =
    P.cost d
      (P.run
         ~config:{ P.default_config with P.max_partition_size = 64; ordering }
         d)
  in
  let dfs = cost P.Dfs_order in
  let rand =
    (cost (P.Random_order 1) + cost (P.Random_order 2) + cost (P.Random_order 3)) / 3
  in
  check tbool
    (Printf.sprintf "dfs cost %d < random avg cost %d" dfs rand)
    true (dfs < rand)

let test_refinement_never_hurts_random_start () =
  let module P = Spnc_partition.Partitioner in
  let d = tree_dag 256 in
  List.iter
    (fun seed ->
      let base =
        { P.default_config with P.max_partition_size = 40;
          ordering = P.Random_order seed }
      in
      let p0 = P.initial base d in
      let p1 = P.refine base d p0 in
      check tbool "refinement non-increasing" true (P.cost d p1 <= P.cost d p0))
    [ 5; 6; 7 ]

let suite =
  [
    Alcotest.test_case "vm hand-assembled" `Quick test_vm_hand_assembled;
    Alcotest.test_case "vm loop + dim" `Quick test_vm_loop_and_dim;
    Alcotest.test_case "vm vector semantics" `Quick test_vm_vector_semantics;
    Alcotest.test_case "vm traps" `Quick test_vm_traps;
    Alcotest.test_case "profile straight-line exact total" `Quick
      test_profile_straightline_exact_total;
    Alcotest.test_case "profile loop trip count" `Quick
      test_profile_loop_trip_count;
    Alcotest.test_case "profile attribution via provenance" `Quick
      test_profile_attribution_via_provenance;
    Alcotest.test_case "profile jit accumulates deterministically" `Quick
      test_profile_jit_matches_vm_shape;
    Alcotest.test_case "profile jit equals vm across chunks" `Quick
      test_profile_jit_equals_vm_across_chunks;
    QCheck_alcotest.to_alcotest test_optimizer_equivalence_prop;
    QCheck_alcotest.to_alcotest test_scalar_vector_equivalence_prop;
    Alcotest.test_case "vectorized kernel traps on a partial group" `Quick
      test_partial_group_traps;
    Alcotest.test_case "remat excludes constants" `Quick test_remat_reduces_intervals;
    Alcotest.test_case "topo_random topological" `Quick test_topo_random_is_topological;
    Alcotest.test_case "dfs beats random ordering" `Quick test_dfs_beats_random_ordering;
    Alcotest.test_case "refinement never hurts" `Quick test_refinement_never_hurts_random_start;
  ]
