(** Binary serialization of SPN models — the stand-in for the
    Cap'n-Proto-based interchange format the paper uses between SPFlow
    and the compiler (§IV-A1).

    Layout: magic, version, name, feature count, then the node table in
    children-first order (child references are table indices, so DAG
    sharing is preserved exactly), the root index, and a trailing CRC32.
    The reader validates magic, version, tags, reference order and the
    checksum, and returns [Error] diagnostics instead of raising. *)

val magic : string
val version : int

(** [crc32 s] — IEEE 802.3 CRC32 of [s] (exposed for tests). *)
val crc32 : string -> int32

(** [to_string t] serializes a model. *)
val to_string : Model.t -> string

(** [of_string s] deserializes a model, validating structure and CRC. *)
val of_string : string -> (Model.t, string) result

exception Malformed of string

(** @raise Malformed on invalid input. *)
val of_string_exn : string -> Model.t

val write_file : string -> Model.t -> unit
val read_file : string -> (Model.t, string) result

(** [read_model path] reads a model file: the binary format for a [.spn]
    suffix, the text DSL ({!Text}) otherwise.
    @raise Failure ["path: reason"] on a malformed binary file; the
    DSL parser's and [open_in]'s exceptions pass through. *)
val read_model : string -> Model.t
