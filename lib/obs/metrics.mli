(** Process-wide metrics registry: named monotonic counters, gauges,
    and fixed-bucket latency histograms with percentile readout.

    Registration is interned and mutex-protected; the hot paths
    ([counter_incr], [histogram_observe]) are single atomic RMW
    operations — safe and non-blocking under any number of domains.

    Naming convention: dot-separated, layer-first —
    ["compiler.cache.disk_hits"], ["runtime.exec.call_seconds"],
    ["runtime.pool.rounds"]. *)

type counter
type gauge
type histogram

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val counter : string -> counter
(** Register (or look up) the counter with this name.
    @raise Invalid_argument if the name is taken by another kind. *)

val counter_incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : string -> gauge
val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

val histogram : string -> histogram
(** Latency histogram: geometric power-of-two buckets from 1 µs to
    ~8.4 s plus an overflow bucket. *)

val histogram_observe : histogram -> float -> unit
(** Record one sample, in seconds.  Negative samples clamp to 0. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
(** Total observed seconds (µs resolution). *)

val histogram_percentile : histogram -> float -> float
(** [histogram_percentile h 0.99] — upper bound of the bucket holding
    the q-th sample, in seconds.  Over-estimates by at most 2x, never
    under-reports.  0.0 when empty. *)

val histogram_buckets : histogram -> (float * int) list
(** [(upper_bound_seconds, count)] per bucket, ascending; the last
    upper bound is [infinity]. *)

val histogram_name : histogram -> string

val labeled : string -> (string * string) list -> string
(** [labeled "serve.queue_depth" [("model", "m3")]] —
    ["serve.queue_depth{model=\"m3\"}"].  Keys are sorted so the same
    label set always produces the same name regardless of pair order;
    quotes and backslashes in values are escaped.  An empty label list
    returns the base name unchanged. *)

val counter_l : string -> (string * string) list -> counter
(** [counter_l base labels] = [counter (labeled base labels)] — a
    per-label-set instrument family (e.g. per-model serve counters).
    Same interning/kind rules as {!counter}. *)

val gauge_l : string -> (string * string) list -> gauge
val histogram_l : string -> (string * string) list -> histogram

val all : unit -> (string * instrument) list
(** Every registered instrument, sorted by name. *)

val find : string -> instrument option

val reset : string -> unit
(** Zero one instrument in place (no-op if unregistered). *)

val reset_all : unit -> unit
(** Zero every instrument; registrations (and handles held by modules)
    stay valid. *)

val reset_for_tests : unit -> unit
(** Test-isolation alias for {!reset_all}: the registry is process-wide,
    so tests asserting on absolute instrument values must zero it in
    their setup or counts bleed across test cases. *)
