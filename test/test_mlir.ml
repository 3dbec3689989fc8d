(** Tests for the mini-MLIR infrastructure: types, attributes, IR
    construction, printing/parsing round-trips, verification, CSE,
    constant folding and canonicalization. *)

open Spnc_mlir

let check = Alcotest.check
let tbool = Alcotest.bool
let tstr = Alcotest.string
let tint = Alcotest.int

(* -- Types ------------------------------------------------------------- *)

let test_type_printing () =
  check tstr "f32" "f32" (Types.to_string Types.F32);
  check tstr "log" "!lo_spn.log<f32>" (Types.to_string (Types.Log Types.F32));
  check tstr "prob" "!hi_spn.probability" (Types.to_string Types.Prob);
  check tstr "tensor" "tensor<?,26,f32>"
    (Types.to_string (Types.Tensor ([ None; Some 26 ], Types.F32)));
  check tstr "memref" "memref<?,1,!lo_spn.log<f32>>"
    (Types.to_string (Types.MemRef ([ None; Some 1 ], Types.Log Types.F32)));
  check tstr "vector" "vector<8,f32>" (Types.to_string (Types.Vector (8, Types.F32)));
  check tstr "index" "index" (Types.to_string Types.Index)

let test_type_equality () =
  check tbool "equal tensors" true
    (Types.equal
       (Types.Tensor ([ None; Some 3 ], Types.F32))
       (Types.Tensor ([ None; Some 3 ], Types.F32)));
  check tbool "unequal dims" false
    (Types.equal
       (Types.Tensor ([ None; Some 3 ], Types.F32))
       (Types.Tensor ([ None; Some 4 ], Types.F32)));
  check tbool "log vs plain" false (Types.equal (Types.Log Types.F32) Types.F32);
  check tbool "func type" true
    (Types.equal (Types.Func ([ Types.F32 ], [])) (Types.Func ([ Types.F32 ], [])))

let test_type_predicates () =
  check tbool "is_float f64" true (Types.is_float Types.F64);
  check tbool "is_float log" false (Types.is_float (Types.Log Types.F32));
  check tbool "computation log" true (Types.is_computation (Types.Log Types.F32));
  check tbool "computation prob" false (Types.is_computation Types.Prob);
  check tint "bit width f32" 32 (Types.bit_width Types.F32);
  check tint "bit width log f64" 64 (Types.bit_width (Types.Log Types.F64));
  check tbool "element type" true
    (Types.equal (Types.element_type (Types.Tensor ([ None ], Types.F64))) Types.F64)

(* -- Attributes --------------------------------------------------------- *)

let test_attr_dict () =
  let d = Attr.Dict.of_list [ ("b", Attr.Int 2); ("a", Attr.Int 1) ] in
  (* sorted by key *)
  check tbool "find a" true (Attr.Dict.find d "a" = Some (Attr.Int 1));
  check tbool "ordering" true (fst (List.hd d) = "a");
  let d = Attr.Dict.set d "a" (Attr.Int 9) in
  check tbool "set replaces" true (Attr.Dict.find d "a" = Some (Attr.Int 9));
  check tbool "remove" true (Attr.Dict.find (Attr.Dict.remove d "a") "a" = None)

let test_attr_equal () =
  check tbool "dense equal" true
    (Attr.equal (Attr.DenseF [| 1.0; 2.0 |]) (Attr.DenseF [| 1.0; 2.0 |]));
  check tbool "dense unequal" false
    (Attr.equal (Attr.DenseF [| 1.0 |]) (Attr.DenseF [| 1.0; 2.0 |]));
  check tbool "nan equal" true (Attr.equal (Attr.Float Float.nan) (Attr.Float Float.nan));
  check tbool "array of mixed" true
    (Attr.equal
       (Attr.Array [ Attr.Int 1; Attr.String "x" ])
       (Attr.Array [ Attr.Int 1; Attr.String "x" ]))

(* -- IR construction ----------------------------------------------------- *)

let simple_module () =
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let c2 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 3.0) ] () in
  let m =
    Builder.op b "lo_spn.mul"
      ~operands:[ Ir.result c1; Ir.result c2 ]
      ~results:[ Types.F32 ] ()
  in
  (Builder.modul ~name:"t" [ c1; c2; m ], m)

let test_builder_ids_unique () =
  let m, _ = simple_module () in
  let ids = ref [] in
  Ir.walk (fun op -> List.iter (fun (v : Ir.value) -> ids := v.Ir.vid :: !ids) op.Ir.results) m;
  let sorted = List.sort_uniq compare !ids in
  check tint "no duplicate ids" (List.length !ids) (List.length sorted)

let test_walk_and_count () =
  let m, _ = simple_module () in
  check tint "three ops" 3 (Ir.count_ops (fun _ -> true) m);
  check tint "two constants" 2
    (Ir.count_ops (fun o -> o.Ir.name = "lo_spn.constant") m)

let test_defining_map () =
  let m, mul_op = simple_module () in
  let dm = Ir.defining_map m in
  let def = Ir.VMap.find (Ir.result mul_op) dm in
  check tstr "mul defines its result" "lo_spn.mul" def.Ir.name

(* -- Printer / parser round-trip ----------------------------------------- *)

let test_print_parse_roundtrip_simple () =
  let m, _ = simple_module () in
  let s = Printer.modul_to_string m in
  let m' = Parser.modul_of_string s in
  let s' = Printer.modul_to_string m' in
  check tstr "roundtrip fixpoint" s s'

let test_parse_nested_regions () =
  Spnc_lospn.Ops.register ();
  let src =
    {|module @k {
  "lo_spn.body"() ({
  ^bb(%1: f32):
    %2 = "lo_spn.mul"(%1, %1) : (f32, f32) -> (f32)
    "lo_spn.yield"(%2) : (f32) -> ()
  }) : () -> ()
}|}
  in
  (* note: operands of yield print inside parens *)
  match Parser.modul_of_string src with
  | m -> check tint "one top op" 1 (List.length m.Ir.mops)
  | exception Parser.Error e -> Alcotest.failf "parse error: %s" e

let test_parse_errors () =
  let bad = "module @x { %0 = \"foo\"( : () -> (f32) }" in
  (match Parser.modul_of_string bad with
  | exception (Parser.Error _ | Lexer.Error _) -> ()
  | _ -> Alcotest.fail "expected parse error");
  match Parser.modul_of_string "not a module" with
  | exception (Parser.Error _ | Lexer.Error _) -> ()
  | _ -> Alcotest.fail "expected parse error"

(* Property: random attribute dictionaries survive print->parse *)
let attr_gen : Attr.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Attr.Int i) small_signed_int;
                map (fun f -> Attr.Float f) (float_bound_inclusive 1000.0);
                map (fun s -> Attr.String s) (string_size ~gen:(char_range 'a' 'z') (return 5));
                map (fun b -> Attr.Bool b) bool;
                map (fun a -> Attr.DenseF (Array.of_list a)) (small_list (float_bound_inclusive 10.0));
              ]
          else
            frequency
              [
                (3, self 0);
                (1, map (fun l -> Attr.Array l) (list_size (return 3) (self (n / 2))));
              ])
        n)

let test_attr_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"attr print/parse roundtrip"
    (QCheck.make attr_gen ~print:Attr.to_string)
    (fun attr ->
      let b = Builder.create () in
      let op =
        Builder.op b "test.op" ~results:[ Types.F32 ] ~attrs:[ ("a", attr) ] ()
      in
      let m = Builder.modul [ op ] in
      let s = Printer.modul_to_string m in
      match Parser.modul_of_string s with
      | m' -> (
          match m'.Ir.mops with
          | [ op' ] -> (
              match Ir.attr op' "a" with
              | Some attr' -> Attr.equal attr attr'
              | None -> false)
          | _ -> false)
      | exception _ -> false)

(* -- Verifier ------------------------------------------------------------- *)

let test_verifier_accepts_valid () =
  let m, _ = simple_module () in
  check tbool "valid module" true (Verifier.is_valid m)

let test_verifier_rejects_use_before_def () =
  let b = Builder.create () in
  let phantom = Builder.fresh b Types.F32 in
  let op =
    Builder.op b "lo_spn.mul" ~operands:[ phantom; phantom ]
      ~results:[ Types.F32 ] ()
  in
  let m = Builder.modul [ op ] in
  check tbool "invalid" false (Verifier.is_valid m)

let test_verifier_rejects_double_def () =
  let b = Builder.create () in
  let c = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 1.0) ] () in
  (* duplicate the same op structure (same result value) twice *)
  let m = Builder.modul [ c; c ] in
  check tbool "double definition rejected" false (Verifier.is_valid m)

let test_dialect_verifier_runs () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ] () in
  (* missing the required "value" attribute *)
  let m = Builder.modul [ c ] in
  check tbool "missing attr rejected" false (Verifier.is_valid m)

(* -- CSE / constant folding / DCE ------------------------------------------ *)

let test_cse_dedups () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let c2 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let m1 = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c1; Ir.result c1 ] ~results:[ Types.F32 ] () in
  let m2 = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c2; Ir.result c2 ] ~results:[ Types.F32 ] () in
  let s = Builder.op b "lo_spn.add" ~operands:[ Ir.result m1; Ir.result m2 ] ~results:[ Types.F32 ] () in
  let m = Builder.modul [ c1; c2; m1; m2; s ] in
  let m' = Cse.run m in
  (* c2 dedups into c1, then m2 dedups into m1 *)
  check tint "ops after cse" 3 (Ir.count_ops (fun _ -> true) m');
  check tbool "still valid" true (Verifier.is_valid m')

(* The CSE key is the op itself: attributes compare structurally, floats
   by bit pattern with all NaNs alike, so it merges exactly what the
   printed attributes would. *)
let test_cse_key () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let const attrs = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ] ~attrs () in
  let ops_after ops = Ir.count_ops (fun _ -> true) (Cse.run (Builder.modul ops)) in
  let v x = ("value", Attr.Float x) in
  check tint "0.0 and -0.0 stay apart" 2 (ops_after [ const [ v 0.0 ]; const [ v (-0.0) ] ]);
  check tint "equal bit patterns merge" 1 (ops_after [ const [ v 0.5 ]; const [ v 0.5 ] ]);
  check tint "two NaNs merge" 1
    (ops_after [ const [ v Float.nan ]; const [ v (Int64.float_of_bits 0x7FF0000000000001L) ] ]);
  let table t = [ v 1.0; ("table", Attr.DenseF t) ] in
  check tint "one DenseF entry apart" 2
    (ops_after [ const (table [| 0.25; 0.5 |]); const (table [| 0.25; 0.75 |]) ]);
  check tint "a zero's sign in a DenseF apart" 2
    (ops_after [ const (table [| 0.25; 0.0 |]); const (table [| 0.25; -0.0 |]) ]);
  check tint "equal DenseF tables merge" 1
    (ops_after [ const (table [| 0.25; 0.5 |]); const (table [| 0.25; 0.5 |]) ]);
  check tint "dictionary order does not matter" 1
    (ops_after [ const [ v 1.0; ("k", Attr.Int 3) ]; const [ ("k", Attr.Int 3); v 1.0 ] ]);
  let wrap regions = Builder.op b "test.wrap" ~regions () in
  let region ops = Builder.region [ Builder.block b ~arg_tys:[] (fun _ -> ops) ] in
  check tint "sibling regions stay apart" 3
    (ops_after [ wrap [ region [ const [ v 2.0 ] ]; region [ const [ v 2.0 ] ] ] ]);
  check tint "a nested region sees its parent's ops" 2
    (ops_after [ const [ v 2.0 ]; wrap [ region [ const [ v 2.0 ] ] ] ])

let test_constfold_folds_chain () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let c2 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 3.0) ] () in
  let m1 = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c1; Ir.result c2 ] ~results:[ Types.F32 ] () in
  let m = Builder.modul [ c1; c2; m1 ] in
  let m' = Constfold.run (Builder.seed_from m) m in
  let folded =
    Ir.find_ops (fun o -> o.Ir.name = "lo_spn.constant") m'
    |> List.filter_map (fun o -> Ir.float_attr o "value")
  in
  check tbool "6.0 appears" true (List.mem 6.0 folded)

let test_constfold_log_space () =
  Spnc_lospn.Ops.register ();
  let lt = Types.Log Types.F32 in
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ lt ]
      ~attrs:[ ("value", Attr.Float (log 0.5)) ] () in
  let c2 = Builder.op b "lo_spn.constant" ~results:[ lt ]
      ~attrs:[ ("value", Attr.Float (log 0.25)) ] () in
  (* log-space mul is addition of logs: log(0.5*0.25) = log 0.125 *)
  let m1 = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c1; Ir.result c2 ] ~results:[ lt ] () in
  let m = Builder.modul [ c1; c2; m1 ] in
  let m' = Constfold.run (Builder.seed_from m) m in
  let folded =
    Ir.find_ops (fun o -> o.Ir.name = "lo_spn.constant") m'
    |> List.filter_map (fun o -> Ir.float_attr o "value")
  in
  check tbool "log(0.125) appears" true
    (List.exists (fun v -> Float.abs (v -. log 0.125) < 1e-6) folded)

let test_dce_removes_dead () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let dead = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 9.0) ] () in
  let m1 = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c1; Ir.result c1 ] ~results:[ Types.F32 ] () in
  let keep = Builder.op b "lo_spn.yield" ~operands:[ Ir.result m1 ] () in
  let m = Builder.modul [ c1; dead; m1; keep ] in
  let m' = Rewrite.dce m in
  check tint "dead constant removed" 3 (Ir.count_ops (fun _ -> true) m')

(* -- Rewrites that change nothing, and the one-sweep DCE --------------------- *)

(* The DCE's oracle: rounds of "erase every pure op whose results are all
   unused, counting uses anywhere in the module" until a round erases
   nothing.  Returns the module and the number of rounds that erased. *)
let reference_dce (m : Ir.modul) : Ir.modul * int =
  let rec go m rounds =
    let used = Hashtbl.create 64 in
    Ir.walk
      (fun op ->
        List.iter (fun (v : Ir.value) -> Hashtbl.replace used v.Ir.vid ()) op.Ir.operands)
      m;
    let erased = ref false in
    let rec ops l =
      List.filter_map
        (fun (op : Ir.op) ->
          if
            Dialect.is_pure op.Ir.name
            && op.Ir.results <> []
            && List.for_all
                 (fun (v : Ir.value) -> not (Hashtbl.mem used v.Ir.vid))
                 op.Ir.results
          then begin
            erased := true;
            None
          end
          else
            Some
              {
                op with
                Ir.regions =
                  List.map
                    (fun (r : Ir.region) ->
                      {
                        Ir.blocks =
                          List.map
                            (fun (b : Ir.block) -> { b with Ir.bops = ops b.Ir.bops })
                            r.Ir.blocks;
                      })
                    op.Ir.regions;
              })
        l
    in
    let m' = { m with Ir.mops = ops m.Ir.mops } in
    if !erased then go m' (rounds + 1) else (m', rounds)
  in
  go m 0

(* [m] with its [k]-th result-less op (pre-order) erased: the values it
   read may leave dead chains, dead region ops and values read only in a
   dead region behind *)
let drop_effect (m : Ir.modul) k : Ir.modul =
  let seen = ref (-1) in
  let rec ops l =
    List.filter_map
      (fun (op : Ir.op) ->
        if op.Ir.results = [] && op.Ir.regions = [] && (incr seen; !seen = k) then None
        else
          Some
            {
              op with
              Ir.regions =
                List.map
                  (fun (r : Ir.region) ->
                    {
                      Ir.blocks =
                        List.map
                          (fun (b : Ir.block) -> { b with Ir.bops = ops b.Ir.bops })
                          r.Ir.blocks;
                    })
                  op.Ir.regions;
            })
      l
  in
  { m with Ir.mops = ops m.Ir.mops }

(* HiSPN and LoSPN modules: the smith IR corpus and model cases *)
let rewrite_corpus () =
  Spnc.Pipelines.register_dialects ();
  List.concat_map
    (fun id ->
      let p = Spnc_smith.Smith.case ~seed:3 ~id () in
      let hi = p.Spnc_smith.Smith.modul in
      let lo = Spnc_lospn.Lower_hispn.run (Canonicalize.run hi) in
      [ hi; lo; Spnc_lospn.Bufferize.run lo ])
    (List.init 16 Fun.id)

let printed m = Printer.modul_to_string m

let test_dce_matches_rounds () =
  let erased = ref 0 and deep = ref 0 and bodies = ref 0 in
  List.iter
    (fun m ->
      let effects = Ir.count_ops (fun o -> o.Ir.results = [] && o.Ir.regions = []) m in
      List.iter
        (fun v ->
          let want, rounds = reference_dce v in
          let got = Rewrite.dce v in
          check tstr "one sweep = rounds" (printed want) (printed got);
          let count name m = Ir.count_ops (fun o -> o.Ir.name = name) m in
          if rounds > 0 then incr erased;
          if rounds > 2 then incr deep;
          if count Spnc_lospn.Ops.body_name got < count Spnc_lospn.Ops.body_name v
          then incr bodies)
        (m :: List.init (min effects 4) (drop_effect m)))
    (rewrite_corpus ());
  (* the corpus reaches what the sweep must get right *)
  check tbool "some variants lose ops" true (!erased > 10);
  check tbool "dead chains need more than two rounds" true (!deep > 0);
  check tbool "dead lo_spn.body regions go" true (!bodies > 0)

(* a dead region op takes the values only its region reads with it; a
   live one keeps its region but loses the region's dead ops *)
let test_dce_dead_region () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let const x =
    Builder.op b "lo_spn.constant" ~results:[ Types.F32 ] ~attrs:[ ("value", Attr.Float x) ] ()
  in
  let body c =
    Builder.op b "lo_spn.body" ~results:[ Types.F32 ]
      ~regions:
        [
          Builder.region
            [
              Builder.block b ~arg_tys:[] (fun _ ->
                  let m = Builder.op b "lo_spn.mul" ~operands:[ Ir.result c; Ir.result c ]
                      ~results:[ Types.F32 ] () in
                  let dead = Builder.op b "lo_spn.add" ~operands:[ Ir.result c; Ir.result c ]
                      ~results:[ Types.F32 ] () in
                  [ m; dead; Builder.op b "lo_spn.yield" ~operands:[ Ir.result m ] () ]);
            ];
        ]
      ()
  in
  let c1 = const 1.0 and c2 = const 2.0 in
  let gone = body c1 and kept = body c2 in
  let use = Builder.op b "lo_spn.yield" ~operands:[ Ir.result kept ] () in
  let m = Builder.modul [ c1; c2; gone; kept; use ] in
  let m' = Rewrite.dce m in
  check tstr "one sweep = rounds" (printed (fst (reference_dce m))) (printed m');
  check tint "dead body, its constant and the live body's dead add go" 5
    (Ir.count_ops (fun _ -> true) m')

(* a rewrite that changes nothing returns its input, not a copy *)
let test_unchanged_is_shared () =
  List.iter
    (fun m ->
      check tbool "transform Keep" true
        (Rewrite.transform ~rewrite:(fun _ -> Rewrite.Keep) m == m);
      let m = Rewrite.dce m in
      check tbool "dce" true (Rewrite.dce m == m);
      let m = Cse.run m in
      check tbool "cse" true (Cse.run m == m);
      let m = Constfold.run (Builder.seed_from m) m in
      check tbool "constfold" true (Constfold.run (Builder.seed_from m) m == m))
    (rewrite_corpus ())

(* -- Locations ------------------------------------------------------------- *)

let test_loc_roundtrip () =
  let b = Builder.create () in
  let c1 =
    Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ]
      ~loc:(Loc.node 17) ()
  in
  let c2 =
    Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 3.0) ] ()
  in
  let m =
    Builder.op b "lo_spn.mul"
      ~operands:[ Ir.result c1; Ir.result c2 ]
      ~results:[ Types.F32 ]
      ~loc:(Loc.derived "vectorize" (Loc.node 3))
      ()
  in
  let s = Printer.modul_to_string (Builder.modul ~name:"t" [ c1; c2; m ]) in
  (* unknown locations print nothing; known ones print a loc(...) suffix *)
  check tbool "node loc printed" true
    (Astring_contains.contains s "loc(spn.node 17)");
  check tbool "derived loc printed" true
    (Astring_contains.contains s {|loc("vectorize"(spn.node 3))|});
  let m' = Parser.modul_of_string s in
  let locs =
    List.map (fun (o : Ir.op) -> (o.Ir.name, o.Ir.loc)) m'.Ir.mops
  in
  check tint "three ops back" 3 (List.length locs);
  let loc_of name = List.assoc name locs in
  check tbool "constant keeps its node" true
    (Loc.equal (Loc.node 17) (loc_of "lo_spn.constant"));
  check tbool "mul keeps its derivation chain" true
    (Loc.equal (Loc.derived "vectorize" (Loc.node 3)) (loc_of "lo_spn.mul"));
  check tbool "derived origin unwraps" true
    (Loc.node_id (loc_of "lo_spn.mul") = Some 3);
  (* second constant carried no loc and must come back Unknown *)
  let unknowns =
    List.filter (fun (n, l) -> n = "lo_spn.constant" && not (Loc.is_known l))
      locs
  in
  check tint "unlocated op stays unlocated" 1 (List.length unknowns)

(* -- Pass instrumentation ---------------------------------------------------- *)

let cse_pass = Pass.make "cse" Cse.run

(* --print-ir-after-change must stay silent across a pass that does not
   touch the IR, and must produce a diff when one does. *)
let test_print_after_change_silent_when_unchanged () =
  let m, _ = simple_module () in
  let run_with instr passes =
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    let instr = Pass.instrument ~out:fmt instr in
    (match Pass.run_pipeline_checked ~instr passes m with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "pipeline failed in %s" f.Pass.failed_pass);
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let identity = Pass.make "identity" Fun.id in
  check tstr "no-op pass dumps nothing under after-change" ""
    (run_with Pass.Print_after_change [ identity ]);
  (* the same module has no CSE opportunity either — still silent *)
  check tstr "cse without duplicates dumps nothing" ""
    (run_with Pass.Print_after_change [ cse_pass ]);
  (* after-all always dumps, and labels the unchanged pass as such *)
  let dump = run_with Pass.Print_after_all [ identity ] in
  check tbool "after-all dumps even without change" true
    (Astring_contains.contains dump "IR Dump After identity (no change)")

(* A pass that rebuilds an identical module is [changed] (it returned a
   different module) but prints no diff: the instrument compares text. *)
let test_print_after_change_silent_on_identical_rebuild () =
  let m, _ = simple_module () in
  let rebuild =
    Pass.make "rebuild" (fun m ->
        { m with Ir.mops = List.map Fun.id m.Ir.mops })
  in
  let identity = Pass.make "identity" Fun.id in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let instr = Pass.instrument ~out:fmt Pass.Print_after_change in
  (match Pass.run_pipeline_checked ~instr [ rebuild; identity ] m with
  | Error f -> Alcotest.failf "pipeline failed in %s" f.Pass.failed_pass
  | Ok r ->
      check (Alcotest.list tbool) "rebuild changed, identity did not"
        [ true; false ]
        (List.map (fun t -> t.Pass.changed) r.Pass.timings));
  Format.pp_print_flush fmt ();
  check tstr "no diff for an identical rebuild" "" (Buffer.contents buf)

let test_print_after_change_emits_diff () =
  Spnc_lospn.Ops.register ();
  let b = Builder.create () in
  let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let c2 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
      ~attrs:[ ("value", Attr.Float 2.0) ] () in
  let s = Builder.op b "lo_spn.add" ~operands:[ Ir.result c1; Ir.result c2 ]
      ~results:[ Types.F32 ] () in
  let m = Builder.modul [ c1; c2; s ] in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let instr = Pass.instrument ~out:fmt Pass.Print_after_change in
  (match Pass.run_pipeline_checked ~instr [ cse_pass ] m with
  | Ok r ->
      check tint "cse deduped" 2 (Ir.count_ops (fun _ -> true) r.Pass.modul)
  | Error f -> Alcotest.failf "pipeline failed in %s" f.Pass.failed_pass);
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  check tbool "diff header present" true
    (Astring_contains.contains out "IR Diff After cse");
  (* the dedup shows up as a removed line *)
  check tbool "diff shows a removal" true (Astring_contains.contains out "-")

(* -- Optimization remarks ----------------------------------------------------- *)

let test_constfold_emits_remark () =
  Spnc_lospn.Ops.register ();
  Spnc_obs.Remark.set_enabled true;
  Spnc_obs.Remark.clear ();
  Fun.protect
    ~finally:(fun () ->
      Spnc_obs.Remark.set_enabled false;
      Spnc_obs.Remark.clear ())
    (fun () ->
      let b = Builder.create () in
      let c1 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
          ~attrs:[ ("value", Attr.Float 2.0) ] ~loc:(Loc.node 4) () in
      let c2 = Builder.op b "lo_spn.constant" ~results:[ Types.F32 ]
          ~attrs:[ ("value", Attr.Float 3.0) ] () in
      let m1 = Builder.op b "lo_spn.mul"
          ~operands:[ Ir.result c1; Ir.result c2 ]
          ~results:[ Types.F32 ] ~loc:(Loc.node 4) () in
      let m = Builder.modul [ c1; c2; m1 ] in
      ignore (Constfold.run (Builder.seed_from m) m);
      let remarks = Spnc_obs.Remark.all () in
      let folds =
        List.filter
          (fun (r : Spnc_obs.Remark.remark) ->
            r.Spnc_obs.Remark.pass = "constfold"
            && r.Spnc_obs.Remark.kind = Spnc_obs.Remark.Applied)
          remarks
      in
      check tbool "constfold reported its rewrite" true (folds <> []);
      check tbool "remark carries the SPN node" true
        (List.exists
           (fun (r : Spnc_obs.Remark.remark) ->
             Astring_contains.contains r.Spnc_obs.Remark.loc "spn.node 4")
           folds))

(* -- Pass manager ----------------------------------------------------------- *)

let test_pass_manager_timing () =
  let m, _ = simple_module () in
  let p1 = Pass.make "identity" Fun.id in
  let dce = Pass.make "dce" Rewrite.dce in
  match Pass.run_pipeline_checked [ p1; cse_pass; dce ] m with
  | Error f -> Alcotest.failf "pipeline failed in %s" f.Pass.failed_pass
  | Ok r ->
      check (Alcotest.list tstr) "one timing per pass, named by it"
        [ "identity"; "cse"; "dce" ]
        (List.map (fun t -> t.Pass.timing.Pass.stage) r.Pass.timings);
      List.iter
        (fun t ->
          check tbool "seconds nonnegative" true
            (t.Pass.timing.Pass.seconds >= 0.0))
        r.Pass.timings

let test_pass_manager_error () =
  let m, _ = simple_module () in
  let failing = Pass.make_fallible "boom" (fun _ -> Error "nope") in
  match Pass.run_pipeline_checked [ failing ] m with
  | Error f ->
      check tstr "failing pass" "boom" f.Pass.failed_pass;
      check tstr "message" "nope" f.Pass.diag.Pass.Diag.message
  | Ok _ -> Alcotest.fail "expected failure"

(* Each pass's row carries the collector's view of that pass alone: a
   pass that allocates a large float array shows it as direct major-heap
   words, one that allocates 30,000 words of small blocks shows them as
   minor words (OCaml 5.1's [Gc.counters] would read about 3,750). *)
let test_pass_timings_gc_columns () =
  let m, _ = simple_module () in
  let big =
    Pass.make "big" (fun m ->
        ignore (Sys.opaque_identity (Array.make 100_000 0.0));
        m)
  in
  let small =
    Pass.make "small" (fun m ->
        ignore (Sys.opaque_identity (List.init 10_000 (fun i -> i)));
        m)
  in
  match Pass.run_pipeline_checked [ big; small ] m with
  | Error f -> Alcotest.failf "pipeline failed in %s" f.Pass.failed_pass
  | Ok r -> (
      match List.map (fun t -> t.Pass.timing) r.Pass.timings with
      | [ b; s ] ->
          check tbool "big: direct major words" true
            (b.Pass.direct_words >= 100_000.0);
          check tbool "small: minor words" true (s.Pass.minor_words >= 20_000.0);
          check tbool "small: no direct major words" true
            (s.Pass.direct_words < 1_000.0);
          check tbool "collections nonnegative" true
            (b.Pass.minor_collections >= 0 && s.Pass.minor_collections >= 0)
      | _ -> Alcotest.fail "expected two timings")

let suite =
  [
    Alcotest.test_case "type printing" `Quick test_type_printing;
    Alcotest.test_case "type equality" `Quick test_type_equality;
    Alcotest.test_case "type predicates" `Quick test_type_predicates;
    Alcotest.test_case "attr dict" `Quick test_attr_dict;
    Alcotest.test_case "attr equality" `Quick test_attr_equal;
    Alcotest.test_case "builder unique ids" `Quick test_builder_ids_unique;
    Alcotest.test_case "walk and count" `Quick test_walk_and_count;
    Alcotest.test_case "defining map" `Quick test_defining_map;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip_simple;
    Alcotest.test_case "parse nested regions" `Quick test_parse_nested_regions;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest test_attr_roundtrip_prop;
    Alcotest.test_case "verifier accepts valid" `Quick test_verifier_accepts_valid;
    Alcotest.test_case "verifier rejects use-before-def" `Quick test_verifier_rejects_use_before_def;
    Alcotest.test_case "verifier rejects double def" `Quick test_verifier_rejects_double_def;
    Alcotest.test_case "dialect verifier runs" `Quick test_dialect_verifier_runs;
    Alcotest.test_case "cse dedups" `Quick test_cse_dedups;
    Alcotest.test_case "cse key" `Quick test_cse_key;
    Alcotest.test_case "constfold chain" `Quick test_constfold_folds_chain;
    Alcotest.test_case "constfold log space" `Quick test_constfold_log_space;
    Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce sweep matches rounds" `Quick test_dce_matches_rounds;
    Alcotest.test_case "dce dead region" `Quick test_dce_dead_region;
    Alcotest.test_case "unchanged rewrites are shared" `Quick test_unchanged_is_shared;
    Alcotest.test_case "loc print/parse roundtrip" `Quick test_loc_roundtrip;
    Alcotest.test_case "print-after-change silent when unchanged" `Quick
      test_print_after_change_silent_when_unchanged;
    Alcotest.test_case "print-after-change silent on an identical rebuild"
      `Quick test_print_after_change_silent_on_identical_rebuild;
    Alcotest.test_case "print-after-change emits diff" `Quick
      test_print_after_change_emits_diff;
    Alcotest.test_case "constfold emits remark" `Quick
      test_constfold_emits_remark;
    Alcotest.test_case "pass manager timing" `Quick test_pass_manager_timing;
    Alcotest.test_case "pass manager error" `Quick test_pass_manager_error;
    Alcotest.test_case "pass timings carry the GC columns" `Quick
      test_pass_timings_gc_columns;
  ]
