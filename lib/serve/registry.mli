(** Multi-tenant model registry with a bounded LRU of hot engines.

    Models are registered by name (in-memory or a [.spn]/text path) and
    compiled lazily on first request through {!Spnc.Compiler}.  At most
    [cap] engines (compiled artifact + hot {!Spnc_runtime.Exec.t}
    handle) stay resident; the least recently used is evicted first,
    and nothing else keeps its kernel.  An evicted model's next request
    is a {!Spnc.Kcache} disk hit when [options.kernel_cache_dir] is set,
    otherwise a compile. *)

type source = Src_model of Spnc_spn.Model.t | Src_path of string

type engine = {
  eng_name : string;
  eng_compiled : Spnc.Compiler.compiled;
  eng_exec : Spnc_runtime.Exec.t;  (** hot handle — reused across batches *)
  eng_features : int;
  mutable eng_tick : int;  (** LRU clock stamp of the last touch *)
}

type t

val create : ?cap:int -> options:Spnc.Options.t -> unit -> t
(** [cap] defaults to [options.serve_engines_cap]; clamped to >= 1. *)

val register : t -> name:string -> source -> unit
(** Re-registering a name replaces the source and drops any resident
    engine for it. *)

val register_model : t -> name:string -> Spnc_spn.Model.t -> unit
val register_path : t -> name:string -> string -> unit
val mem : t -> string -> bool

val names : t -> string list
(** Registered model names, sorted. *)

val loaded : t -> string list
(** Names with a resident engine, sorted (tests/metrics). *)

val engine : t -> string -> (engine, string) result
(** The hot engine for a name — loading, compiling and LRU-evicting as
    needed.  [Error] on an unregistered name or failed load. *)

val flush_engines : t -> unit
(** Drop every resident engine; the next request reloads through
    {!Spnc.Compiler.compile} (tests). *)
