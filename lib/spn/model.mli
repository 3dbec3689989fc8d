(** The Sum-Product Network model — the DAG the compiler consumes.

    Mirrors SPFlow's in-memory representation (the paper's HiSPN dialect
    is designed to match it): weighted sum nodes, product nodes, and three
    univariate leaf kinds — Gaussian (continuous), Categorical and
    Histogram (discrete).

    Nodes carry a unique integer id, so structures are true DAGs:
    physically shared children (common in RAT-SPNs) are visited once by
    the id-memoized traversals below. *)

type node = { id : int; desc : desc }

and desc =
  | Sum of (float * node) list  (** weighted mixture; weights sum to 1 *)
  | Product of node list  (** factorization of independent scopes *)
  | Gaussian of { var : int; mean : float; stddev : float }
  | Categorical of { var : int; probs : float array }
  | Histogram of { var : int; breaks : int array; densities : float array }
      (** [breaks] has one more entry than [densities]; bucket [i] covers
          integer inputs in [[breaks.(i), breaks.(i+1))]. *)

type t = {
  root : node;
  num_features : int;
  name : string;  (** model name, used in module/kernel naming *)
}

(** [fresh_id ()] mints a process-unique node id (used by deserializers
    that construct nodes via {!mk}). *)
val fresh_id : unit -> int

(** [mk desc] wraps a descriptor with a fresh id.  Prefer the checked
    constructors below. *)
val mk : desc -> node

(** [sum children] builds a weighted sum node.
    @raise Invalid_argument on empty children or negative weights. *)
val sum : (float * node) list -> node

(** [sum_normalized children] rescales the weights to sum to 1.
    @raise Invalid_argument if the total weight is not positive. *)
val sum_normalized : (float * node) list -> node

(** @raise Invalid_argument on an empty child list. *)
val product : node list -> node

(** @raise Invalid_argument unless [stddev > 0]. *)
val gaussian : var:int -> mean:float -> stddev:float -> node

(** @raise Invalid_argument on empty or negative probabilities. *)
val categorical : var:int -> probs:float array -> node

(** @raise Invalid_argument unless [breaks] has exactly one more entry
    than [densities] and [densities] is non-empty. *)
val histogram : var:int -> breaks:int array -> densities:float array -> node

val make : ?name:string -> num_features:int -> node -> t

(** [children n] lists direct children (without weights). *)
val children : node -> node list

val is_leaf : node -> bool

(** [var_of_leaf n] is the variable a leaf models, [None] for inner nodes. *)
val var_of_leaf : node -> int option

(** [fold_unique f acc t] folds [f] over every unique node exactly once,
    children before parents. *)
val fold_unique : ('a -> node -> 'a) -> 'a -> t -> 'a

(** [iter_unique f t] visits every unique node exactly once, children
    first. *)
val iter_unique : (node -> unit) -> t -> unit

(** [node_count t] counts unique nodes (the paper's "operations"). *)
val node_count : t -> int

(** [nodes_postorder t] lists unique nodes, children before parents. *)
val nodes_postorder : t -> node list

(** [depth t] is the longest root-to-leaf path length in edges. *)
val depth : t -> int

(** [scope n] is the sorted list of variables appearing under [n].
    Assumes smoothness for sums; {!Validate.check} checks it. *)
val scope : node -> int list

val pp_desc_kind : Format.formatter -> node -> unit
