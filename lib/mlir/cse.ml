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

(* One table for the whole module, scoped: a nested block adds only keys
   its enclosing scopes lack (a present key deduplicates instead), and
   removes them when it ends, which restores the table its parent had. *)
let run (m : Ir.modul) : Ir.modul =
  let seen : Ir.value list Key.t = Key.create (max 16 (Ir.count_ops (fun _ -> true) m)) in
  let added = ref [] in
  Rewrite.transform m
    ~in_block:(fun k ->
      let outer = !added in
      added := [];
      let b = k () in
      List.iter (Key.remove seen) !added;
      added := outer;
      b)
    ~rewrite:(fun (op : Ir.op) ->
      if op.Ir.regions <> [] || not (Dialect.is_pure op.Ir.name) then Rewrite.Keep
      else
        match Key.find_opt seen op with
        | Some prior_results ->
            if Spnc_obs.Remark.enabled () then
              Spnc_obs.Remark.emit ~pass:"cse"
                ~loc:(if Loc.is_known op.Ir.loc then Loc.to_string op.Ir.loc else "")
                (Fmt.str "deduplicated %s with an earlier identical op" op.Ir.name);
            Rewrite.Replace ([], prior_results)
        | None ->
            Key.add seen op op.Ir.results;
            added := op :: !added;
            Rewrite.Keep)
