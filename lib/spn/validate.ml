(** Structural validity of Sum-Product Networks.

    A valid SPN (in the sense required for tractable inference) is
    {e smooth} (children of a sum node share the same scope) and
    {e decomposable} (children of a product node have pairwise disjoint
    scopes).  We additionally check weight normalization, leaf parameter
    sanity, and that all referenced variables are within
    [0 .. num_features-1]. *)

type issue = { node_id : int; message : string }

let pp_issue ppf i = Fmt.pf ppf "node %d: %s" i.node_id i.message

(* Scopes are bitsets over the model's distinct leaf variables (negative
   and out-of-range ones included, so their overlaps are found too), one
   row of [words] ints per unique node, numbered children first: the
   order of [Model.iter_unique]. *)
type scopes = {
  nodes : Model.node array;  (** the unique nodes, children first *)
  index : (int, int) Hashtbl.t;  (** node id -> its row *)
  words : int;
  bits : int array;  (** row [i] is [bits.(i * words) ..] *)
}

let scopes (t : Model.t) : scopes =
  let index = Hashtbl.create 1024 and order = ref [] in
  let vars = Hashtbl.create 64 in
  Model.iter_unique
    (fun nd ->
      Hashtbl.replace index nd.Model.id (Hashtbl.length index);
      order := nd :: !order;
      Option.iter
        (fun v ->
          if not (Hashtbl.mem vars v) then Hashtbl.add vars v (Hashtbl.length vars))
        (Model.var_of_leaf nd))
    t;
  (* filled with a constant node, not with a just-read one: a major-heap
     array made with a young fill forces a minor collection *)
  let nodes =
    Array.make (Hashtbl.length index) { Model.id = -1; desc = Model.Product [] }
  in
  List.iteri (fun i nd -> nodes.(Array.length nodes - 1 - i) <- nd) !order;
  let words = max 1 ((Hashtbl.length vars + Sys.int_size - 1) / Sys.int_size) in
  let bits = Array.make (Array.length nodes * words) 0 in
  Array.iteri
    (fun i (nd : Model.node) ->
      let row = i * words in
      let union c =
        let crow = Hashtbl.find index c.Model.id * words in
        for w = 0 to words - 1 do
          bits.(row + w) <- bits.(row + w) lor bits.(crow + w)
        done
      in
      match nd.Model.desc with
      | Model.Sum cs -> List.iter (fun (_, c) -> union c) cs
      | Model.Product cs -> List.iter union cs
      | Model.Gaussian { var; _ }
      | Model.Categorical { var; _ }
      | Model.Histogram { var; _ } ->
          let b = Hashtbl.find vars var in
          bits.(row + (b / Sys.int_size)) <- 1 lsl (b mod Sys.int_size))
    nodes;
  { nodes; index; words; bits }

(** [check ?weight_eps t] returns all structural issues of [t]. *)
let check ?(weight_eps = 1e-6) (t : Model.t) : issue list =
  let issues = ref [] in
  let add node_id fmt =
    Fmt.kstr (fun message -> issues := { node_id; message } :: !issues) fmt
  in
  let sc = scopes t in
  let words = sc.words and bits = sc.bits in
  let row (c : Model.node) = Hashtbl.find sc.index c.Model.id * words in
  let same_scope r r' =
    let rec go w = w = words || (bits.(r + w) = bits.(r' + w) && go (w + 1)) in
    go 0
  in
  (* the running union of a product's children so far *)
  let union = Array.make words 0 in
  Array.iter
    (fun (n : Model.node) ->
      let id = n.Model.id in
      match n.Model.desc with
      | Model.Sum cs ->
          let w_total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 cs in
          if Float.abs (w_total -. 1.0) > weight_eps then
            add id "sum weights total %.9f, expected 1.0" w_total;
          List.iter
            (fun (w, _) -> if w < 0.0 then add id "negative weight %g" w)
            cs;
          (* smoothness *)
          (match cs with
          | (_, first) :: rest ->
              let r0 = row first in
              List.iter
                (fun (_, c) ->
                  if not (same_scope r0 (row c)) then
                    add id "not smooth: child %d has different scope" c.Model.id)
                rest
          | [] -> add id "sum with no children")
      | Model.Product cs ->
          (* decomposability *)
          Array.fill union 0 words 0;
          List.iter
            (fun c ->
              let r = row c in
              let overlap = ref false in
              for w = 0 to words - 1 do
                if union.(w) land bits.(r + w) <> 0 then overlap := true;
                union.(w) <- union.(w) lor bits.(r + w)
              done;
              if !overlap then
                add id "not decomposable: child %d overlaps previous scope"
                  c.Model.id)
            cs;
          if cs = [] then add id "product with no children"
      | Model.Gaussian { var; stddev; _ } ->
          if stddev <= 0.0 then add id "gaussian stddev %g <= 0" stddev;
          if var < 0 || var >= t.Model.num_features then
            add id "gaussian variable %d out of range" var
      | Model.Categorical { var; probs } ->
          let total = Array.fold_left ( +. ) 0.0 probs in
          if Float.abs (total -. 1.0) > weight_eps then
            add id "categorical probabilities total %.9f" total;
          if var < 0 || var >= t.Model.num_features then
            add id "categorical variable %d out of range" var
      | Model.Histogram { var; breaks; densities } ->
          if var < 0 || var >= t.Model.num_features then
            add id "histogram variable %d out of range" var;
          Array.iteri
            (fun i b ->
              if i > 0 && b <= breaks.(i - 1) then
                add id "histogram breaks not strictly increasing at %d" i)
            breaks;
          let mass = ref 0.0 in
          Array.iteri
            (fun i d ->
              let width = float_of_int (breaks.(i + 1) - breaks.(i)) in
              mass := !mass +. (d *. width))
            densities;
          if Float.abs (!mass -. 1.0) > 1e-3 then
            add id "histogram mass %.9f, expected 1.0" !mass)
    sc.nodes;
  List.rev !issues

let is_valid t = check t = []

exception Invalid of issue list

(** [validate_exn t] raises {!Invalid} when [t] is ill-formed. *)
let validate_exn t = match check t with [] -> () | issues -> raise (Invalid issues)

let issues_to_string issues =
  Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "@.") pp_issue) issues
