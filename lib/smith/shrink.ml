(** IR-level delta debugger for failing generated programs
    (docs/FUZZING.md).

    Works on the HiSPN graph directly — op removal with re-verify.
    Two op-level reductions are tried, each followed by DCE (dropping
    the leaves the removal orphaned) and a verifier run (candidates
    that stop verifying are discarded):

    - {e forward}: delete an inner sum/product and route one of its
      operands to its uses;
    - {e narrow}: drop one operand of a sum/product with two or more
      operands (sum weights are renormalized so the op still verifies).

    Plus a data-level reduction removing evidence rows.  The greedy
    loop tries the smallest candidates first and keeps any on which
    [still_fails] holds, so the result is a locally-minimal program
    exhibiting the failure. *)

open Spnc_mlir
module Hi = Spnc_hispn.Ops

let count_ops (m : Ir.modul) = Ir.count_ops (fun _ -> true) m

(* Locate the graph block inside the single joint_query and rebuild the
   module around a transformed op list. *)
let map_graph_ops (m : Ir.modul) (f : Ir.op list -> Ir.op list option) :
    Ir.modul option =
  match m.Ir.mops with
  | [ query ] when query.Ir.name = Hi.joint_query_name -> (
      match query.Ir.regions with
      | [ { Ir.blocks = [ qblk ] } ] -> (
          match qblk.Ir.bops with
          | [ graph ] when graph.Ir.name = Hi.graph_name -> (
              match graph.Ir.regions with
              | [ { Ir.blocks = [ gblk ] } ] -> (
                  match f gblk.Ir.bops with
                  | None -> None
                  | Some bops' ->
                      let gblk' = { gblk with Ir.bops = bops' } in
                      let graph' =
                        {
                          graph with
                          Ir.regions = [ { Ir.blocks = [ gblk' ] } ];
                        }
                      in
                      let qblk' = { qblk with Ir.bops = [ graph' ] } in
                      let query' =
                        {
                          query with
                          Ir.regions = [ { Ir.blocks = [ qblk' ] } ];
                        }
                      in
                      Some { m with Ir.mops = [ query' ] })
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Substitute values through a vid map in the operand lists of [ops]. *)
let subst (map : Ir.value Ir.VMap.t) (ops : Ir.op list) : Ir.op list =
  let sub v = match Ir.VMap.find_opt v map with Some w -> w | None -> v in
  List.map
    (fun (o : Ir.op) -> { o with Ir.operands = List.map sub o.Ir.operands })
    ops

let is_inner (o : Ir.op) =
  o.Ir.name = Hi.sum_name || o.Ir.name = Hi.product_name

(* All one-step op-level reductions of [m], DCE'd; invalid candidates
   are filtered by the caller. *)
let op_candidates (m : Ir.modul) : Ir.modul list =
  let reductions ops =
    List.concat_map
      (fun (o : Ir.op) ->
        if not (is_inner o) then []
        else
          let r = Ir.result o in
          let without = List.filter (fun x -> x != o) ops in
          (* forward: replace the op by one of its operands *)
          let forwards =
            List.map
              (fun operand ->
                subst (Ir.VMap.singleton r operand) without)
              o.Ir.operands
          in
          (* narrow: drop one operand (renormalizing sum weights) *)
          let narrows =
            if List.length o.Ir.operands < 2 then []
            else
              List.concat
                (List.mapi
                   (fun j _ ->
                     let operands' =
                       List.filteri (fun i _ -> i <> j) o.Ir.operands
                     in
                     let attrs' =
                       if o.Ir.name = Hi.sum_name then
                         match Ir.dense_attr o "weights" with
                         | Some w ->
                             let w' =
                               Array.of_list
                                 (List.filteri
                                    (fun i _ -> i <> j)
                                    (Array.to_list w))
                             in
                             let total = Array.fold_left ( +. ) 0.0 w' in
                             if total <= 1e-9 then None
                             else
                               Some
                                 (Attr.Dict.set o.Ir.attrs "weights"
                                    (Attr.DenseF
                                       (Array.map
                                          (fun x -> x /. total)
                                          w')))
                         | None -> None
                       else Some o.Ir.attrs
                     in
                     match attrs' with
                     | None -> []
                     | Some attrs' ->
                         [
                           List.map
                             (fun x ->
                               if x == o then
                                 {
                                   o with
                                   Ir.operands = operands';
                                   attrs = attrs';
                                 }
                               else x)
                             ops;
                         ])
                   o.Ir.operands)
          in
          forwards @ narrows)
      ops
  in
  let current = ref None in
  ignore
    (map_graph_ops m (fun ops ->
         current := Some ops;
         None));
  match !current with
  | None -> []
  | Some ops ->
      List.filter_map
        (fun ops' -> Option.map Rewrite.dce (map_graph_ops m (fun _ -> Some ops')))
        (reductions ops)

let row_candidates (data : float array array) : float array array list =
  let n = Array.length data in
  if n <= 1 then []
  else
    List.init n (fun i ->
        Array.of_list
          (List.filteri (fun j _ -> j <> i) (Array.to_list data)))

(** [shrink ?max_steps ?rows_only ~still_fails m data] — greedy
    delta-debug: repeatedly take the first valid one-step reduction
    (op-level unless [rows_only], then row-level) on which [still_fails]
    holds. *)
let shrink ?(max_steps = 400) ?(rows_only = false) ~still_fails (m : Ir.modul)
    (data : float array array) : Ir.modul * float array array =
  let steps = ref 0 in
  let rec go m data =
    if !steps >= max_steps then (m, data)
    else
      let next_m =
        if rows_only then None
        else
          (* smallest candidates first: forwarding an op near the root
             drops whole subtrees, so large modules shrink in few steps *)
          let n = count_ops m in
          List.map (fun m' -> (count_ops m', m')) (op_candidates m)
          |> List.filter (fun (n', _) -> n' < n)
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
          |> List.find_map (fun (_, m') ->
                 incr steps;
                 if
                   !steps <= max_steps && Verifier.is_valid m'
                   && still_fails m' data
                 then Some m'
                 else None)
      in
      match next_m with
      | Some m' -> go m' data
      | None -> (
          let next_d =
            List.find_opt
              (fun data' ->
                incr steps;
                !steps <= max_steps && still_fails m data')
              (row_candidates data)
          in
          match next_d with Some data' -> go m data' | None -> (m, data))
  in
  go m data
