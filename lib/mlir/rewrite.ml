(** Rebuild-style rewriting infrastructure.

    Passes over this IR do not mutate in place (the structures are
    immutable); instead they reconstruct blocks while threading a value
    substitution.  {!transform} implements the generic driver: every
    operation is visited in program order, its operands are substituted,
    its regions rebuilt recursively, and a client callback decides whether
    to keep it, replace it by new ops, or erase it.  A rebuild shares what
    it leaves alone: an op, block, region or module that the rewrite does
    not change is returned physically as it was, so a pass that changes
    nothing allocates nothing and returns its input. *)

type subst = Ir.value Ir.VMap.t

let subst_value (s : subst) (v : Ir.value) =
  match Ir.VMap.find_opt v s with Some v' -> v' | None -> v

type action =
  | Keep  (** emit the operand-substituted op unchanged *)
  | Replace of Ir.op list * Ir.value list
      (** emit these ops; map the original results to the given values *)
  | Erase  (** drop the op; it must have no results (or dead results) *)

(* The first [k] elements of [l], reversed onto [acc]. *)
let rec prefix k l acc =
  if k = 0 then acc else match l with x :: l -> prefix (k - 1) l (x :: acc) | [] -> acc

(* [map_same]'s walk: [k] elements of [l] came back unchanged so far *)
let rec same_from f l k = function
  | [] -> l
  | x :: rest ->
      let x' = f x in
      if x' == x then same_from f l (k + 1) rest
      else mapped_from f (x' :: prefix k l []) rest

and mapped_from f acc = function
  | [] -> List.rev acc
  | x :: rest -> mapped_from f (f x :: acc) rest

(** [map_same f l] is [List.map f l], or [l] itself when [f] returns
    every element physically unchanged.  [f] runs in list order.  Blocks
    and operand lists can be long, so neither this nor the rebuild below
    recurses once per element: a deep OCaml stack is scanned at every
    minor collection. *)
let map_same f l = same_from f l 0 l

(** [transform ?in_block ~rewrite m] rebuilds [m].  [rewrite] sees each op
    {e after} operand substitution and region rebuilding.  [in_block]
    wraps the rebuild of every nested block (default: run it), so a pass
    can scope state to a block. *)
let transform ?(in_block = fun k -> k ()) ~(rewrite : Ir.op -> action)
    (m : Ir.modul) : Ir.modul =
  let s = ref Ir.VMap.empty in
  let subst v = subst_value !s v in
  let rec update (op : Ir.op) =
    let operands = map_same subst op.Ir.operands in
    let regions = map_same rebuild_region op.Ir.regions in
    if operands == op.Ir.operands && regions == op.Ir.regions then op
    else { op with Ir.operands; regions }
  and rebuild_region (r : Ir.region) =
    let blocks = map_same (fun b -> in_block (fun () -> rebuild_block b)) r.Ir.blocks in
    if blocks == r.Ir.blocks then r else { Ir.blocks }
  and rebuild_block (b : Ir.block) =
    let bops = rebuild_ops b.Ir.bops in
    if bops == b.Ir.bops then b else { b with Ir.bops }
  and emit action (op : Ir.op) acc =
    match action with
    | Keep -> op :: acc
    | Replace (ops, new_results) ->
        List.iter2
          (fun old_r new_r -> s := Ir.VMap.add old_r new_r !s)
          op.Ir.results new_results;
        List.rev_append ops acc
    | Erase -> acc
  and rebuild_ops (ops : Ir.op list) =
    (* [ops] itself while every op is kept as it is; from the first change
       on, the rebuilt list, reversed *)
    let rec same k = function
      | [] -> ops
      | op :: rest -> (
          let op' = update op in
          match rewrite op' with
          | Keep when op' == op -> same (k + 1) rest
          | action -> changed (emit action op' (prefix k ops [])) rest)
    and changed acc = function
      | [] -> List.rev acc
      | op :: rest ->
          let op' = update op in
          changed (emit (rewrite op') op' acc) rest
    in
    same 0 ops
  in
  let mops = rebuild_ops m.Ir.mops in
  if mops == m.Ir.mops then m else { m with Ir.mops }

(* A growable mark per value id. *)
type marks = { mutable bits : Bytes.t }

let marked (u : marks) (v : Ir.value) =
  v.Ir.vid < Bytes.length u.bits && Bytes.unsafe_get u.bits v.Ir.vid <> '\000'

let mark (u : marks) (v : Ir.value) =
  let n = Bytes.length u.bits in
  if v.Ir.vid >= n then begin
    let bits = Bytes.make (max (2 * n) (v.Ir.vid + 1)) '\000' in
    Bytes.blit u.bits 0 bits 0 n;
    u.bits <- bits
  end;
  Bytes.unsafe_set u.bits v.Ir.vid '\001'

(** [dce m] removes pure operations whose results are all unused, to a
    fixpoint: an op whose only users are removed goes too, and so do the
    values that only ops nested in a removed op's regions read.  In a
    verified module every use follows its definition, so one backward
    sweep sees all uses of a value before its definition and reaches the
    fixpoint.  Returns [m] itself when nothing is dead. *)
let dce (m : Ir.modul) : Ir.modul =
  let used = { bits = Bytes.make 1024 '\000' } in
  (* the slot of a removed op *)
  let gone = { Ir.name = ""; operands = []; results = []; attrs = []; regions = []; loc = Loc.Unknown } in
  let is_used v = marked used v and use v = mark used v in
  let dead (op : Ir.op) =
    op.Ir.results <> []
    && Dialect.is_pure op.Ir.name
    && not (List.exists is_used op.Ir.results)
  in
  (* later ops first: a block is swept from its end, in an array *)
  let rec sweep_ops (ops : Ir.op list) =
    (* filled with [gone], not with a young op: a major-heap array made
       with a young fill forces a minor collection *)
    let a = Array.make (List.length ops) gone in
    List.iteri (fun i op -> a.(i) <- op) ops;
    let changed = ref false in
    for i = Array.length a - 1 downto 0 do
      let op = a.(i) in
      if dead op then begin
        a.(i) <- gone;
        changed := true
      end
      else begin
        let op' = sweep_op op in
        if op' != op then begin
          a.(i) <- op';
          changed := true
        end
      end
    done;
    if not !changed then ops
    else Array.fold_right (fun op acc -> if op == gone then acc else op :: acc) a []
  and sweep_op (op : Ir.op) =
    List.iter use op.Ir.operands;
    let regions = map_same sweep_region op.Ir.regions in
    if regions == op.Ir.regions then op else { op with Ir.regions }
  and sweep_region (r : Ir.region) =
    let blocks = map_same sweep_block r.Ir.blocks in
    if blocks == r.Ir.blocks then r else { Ir.blocks }
  and sweep_block (b : Ir.block) =
    let bops = sweep_ops b.Ir.bops in
    if bops == b.Ir.bops then b else { b with Ir.bops }
  in
  let mops = sweep_ops m.Ir.mops in
  if mops == m.Ir.mops then m else { m with Ir.mops }
