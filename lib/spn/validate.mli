(** Structural validity of Sum-Product Networks.

    A valid SPN (for tractable inference) is {e smooth} — children of a
    sum node share the same scope — and {e decomposable} — children of a
    product node have pairwise disjoint scopes.  Weight normalization,
    leaf parameter sanity and variable ranges are checked as well. *)

type issue = { node_id : int; message : string }

val pp_issue : Format.formatter -> issue -> unit

(** [check ?weight_eps t] returns all structural issues of [t] (empty for
    a valid model). *)
val check : ?weight_eps:float -> Model.t -> issue list

val is_valid : Model.t -> bool

exception Invalid of issue list

(** [validate_exn t] raises {!Invalid} when [t] is ill-formed. *)
val validate_exn : Model.t -> unit

val issues_to_string : issue list -> string
