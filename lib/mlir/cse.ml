(** Common subexpression elimination.

    Pure operations with identical name, operands, attributes and result
    types are deduplicated within each block scope.  Nested regions see the
    expressions of their enclosing scopes (our regions are not isolated
    from above), but expressions inside a region do not leak out, since a
    region's ops may execute under different control conditions. *)

(** The float equality of both CSEs, this one and the Lir CSE: equal bit
    patterns, or both NaN.  Unlike [Float.equal], [=] and [compare] it
    keeps 0.0 and -0.0 apart; it holds exactly when {!Attr.pp_float}
    prints the two floats alike. *)
let same_float (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let rec same_attr (a : Attr.t) (b : Attr.t) =
  match (a, b) with
  | Float x, Float y -> same_float x y
  | DenseF x, DenseF y ->
      Array.length x = Array.length y && Array.for_all2 same_float x y
  | Array x, Array y -> List.equal same_attr x y
  | Int x, Int y -> Int.equal x y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Type x, Type y -> Types.equal x y
  | Unit, Unit -> true
  | _ -> false

(* The key of a pure op is the op itself after operand substitution: its
   name, operand ids, attribute dictionary and result types.  The hash
   leaves the result types to [equal]; [Hashtbl.hash] maps all NaNs, and
   0.0 and -0.0, to one hash, so it agrees with {!same_float}. *)
module Key = Hashtbl.Make (struct
  type t = Ir.op

  let equal (a : Ir.op) (b : Ir.op) =
    String.equal a.Ir.name b.Ir.name
    && List.equal Ir.value_equal a.Ir.operands b.Ir.operands
    && List.equal
         (fun (k, x) (k', y) -> String.equal k k' && same_attr x y)
         a.Ir.attrs b.Ir.attrs
    && List.equal
         (fun (x : Ir.value) (y : Ir.value) -> Types.equal x.Ir.vty y.Ir.vty)
         a.Ir.results b.Ir.results

  let hash (op : Ir.op) =
    let h =
      List.fold_left
        (fun h (v : Ir.value) -> (h * 31) + v.Ir.vid)
        (Hashtbl.hash op.Ir.name) op.Ir.operands
    in
    (h * 31) + Hashtbl.hash op.Ir.attrs
end)

let run (m : Ir.modul) : Ir.modul =
  let rec rebuild_ops (s : Rewrite.subst ref) (seen : Ir.value list Key.t)
      (ops : Ir.op list) : Ir.op list =
    List.concat_map
      (fun (op : Ir.op) ->
        let operands = List.map (Rewrite.subst_value !s) op.Ir.operands in
        let regions =
          List.map
            (fun (r : Ir.region) ->
              {
                Ir.blocks =
                  List.map
                    (fun (b : Ir.block) ->
                      (* child scope: copy of the parent's expression table *)
                      let child = Key.copy seen in
                      { b with Ir.bops = rebuild_ops s child b.Ir.bops })
                    r.Ir.blocks;
              })
            op.Ir.regions
        in
        let op = { op with Ir.operands; regions } in
        if (not (Dialect.is_pure op.Ir.name)) || op.Ir.regions <> [] then [ op ]
        else
          match Key.find_opt seen op with
          | Some prior_results ->
              List.iter2
                (fun old_r new_r -> s := Ir.VMap.add old_r new_r !s)
                op.Ir.results prior_results;
              if Spnc_obs.Remark.enabled () then
                Spnc_obs.Remark.emit ~pass:"cse"
                  ~loc:(if Loc.is_known op.Ir.loc then Loc.to_string op.Ir.loc else "")
                  (Fmt.str "deduplicated %s with an earlier identical op"
                     op.Ir.name);
              []
          | None ->
              Key.replace seen op op.Ir.results;
              [ op ])
      ops
  in
  let s = ref Ir.VMap.empty in
  let top = Key.create 256 in
  { m with Ir.mops = rebuild_ops s top m.Ir.mops }
