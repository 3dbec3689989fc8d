(** Constant folding driver.

    An op named [<dialect>.constant] with a ["value"] attribute defines a
    known constant.  For every other op whose dialect registered a folder
    ({!Dialect.op_info.fold}), the folder is consulted with the map of
    known-constant operands; a successful fold replaces the op by a fresh
    dialect constant.  Folded-over constants that become dead are cleaned
    up by the subsequent DCE inside {!Canonicalize}. *)

(* [n] from [i] on equals [s] from [j] on, up to the end of [s] *)
let rec equal_from n i s j =
  j = String.length s || (n.[i] = s.[j] && equal_from n (i + 1) s (j + 1))

let is_constant_op (op : Ir.op) =
  let n = op.Ir.name and s = "constant" in
  let l = String.length n and k = String.length s in
  l >= k
  && (l = k || n.[l - k - 1] = '.')
  && equal_from n (l - k) s 0
  && Ir.attr op "value" <> None

(** [run b m] folds constants in [m], minting new values from [b]. *)
let run (b : Builder.t) (m : Ir.modul) : Ir.modul =
  let consts : (int, Attr.t) Hashtbl.t = Hashtbl.create 256 in
  Rewrite.transform m ~rewrite:(fun op ->
      if is_constant_op op then begin
        (match (op.Ir.results, Ir.attr op "value") with
        | [ r ], Some v -> Hashtbl.replace consts r.Ir.vid v
        | _ -> ());
        Rewrite.Keep
      end
      else
        match Dialect.lookup op.Ir.name with
        | Some { Dialect.fold = Some folder; _ } when List.length op.Ir.results = 1
          -> (
            match folder op consts with
            | Some folded ->
                let r = Ir.result op in
                let dialect = Ir.dialect_of op in
                if Spnc_obs.Remark.enabled () then
                  Spnc_obs.Remark.emit ~pass:"constfold"
                    ~loc:(if Loc.is_known op.Ir.loc then Loc.to_string op.Ir.loc else "")
                    (Fmt.str "folded %s to constant %a" op.Ir.name Attr.pp folded);
                let cst =
                  Builder.op b
                    (dialect ^ ".constant")
                    ~results:[ r.Ir.vty ]
                    ~attrs:[ ("value", folded) ]
                    ~loc:op.Ir.loc ()
                in
                Hashtbl.replace consts (Ir.result cst).Ir.vid folded;
                Rewrite.Replace ([ cst ], [ Ir.result cst ])
            | None -> Rewrite.Keep)
        | _ -> Rewrite.Keep)
