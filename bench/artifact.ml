(** The one writer of [bench_cpu], [bench_gpu] and [bench_serve]
    artifacts: schema [spnc-bench-v1] (docs/OBSERVABILITY.md, "The CI
    perf gate").

    {v
    { "schema": "spnc-bench-v1", "program": "bench_cpu", "scale": "small",
      "checks":  [ { "name": "vm-vs-jit avx2", "bit_identical": true } ],
      "entries": [ { "metric": "best_cpu.jit_seconds", "unit": "s",
                     "value": 0.0566, "kind": "measured", "better": "lower",
                     "bound": 0.25, "hard": 3 } ] }
    v}

    Every entry carries its own gate policy, so [bench_check] applies
    one rule set and names no metric:
    - [kind]: [measured] wall clock on this host, [modelled] by
      lib/machine or the GPU simulator, or a deterministic [count];
    - [better] and [bound] mean what they mean in BENCHMARK.json: a
      value worse than its baseline by more than [bound] (relative)
      WARNs.  The bound follows the kind: 0.25 for wall clock, 0.05
      for modelled numbers, 0 for counts;
    - [hard] is the blowup factor (3x) past which a value fails the
      gate against a baseline at the same scale, or [null]. *)

module Json = Spnc_obs.Json

type kind = Measured | Modelled | Count
type better = Lower | Higher

let blowup = 3.0

type t = {
  program : string;
  mutable checks : (string * bool) list;  (** newest first *)
  mutable entries : Json.t list;  (** newest first *)
}

let create program = { program; checks = []; entries = [] }

(** Bitwise equality of two output vectors: the identity every check
    asserts (engines, schedules and batching must not move one bit). *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let rec from i =
    i = Array.length a
    || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
       && from (i + 1)
  in
  from 0

let check t name identical = t.checks <- (name, identical) :: t.checks

(** [value] may be [nan] for "not measured"; it is written as [null]. *)
let entry t kind ?(better = Lower) ?(hard = false) ~unit metric value =
  let kind_s, bound =
    match kind with
    | Measured -> ("measured", 0.25)
    | Modelled -> ("modelled", 0.05)
    | Count -> ("count", 0.0)
  in
  t.entries <-
    Json.Obj
      [
        ("metric", Json.Str metric);
        ("unit", Json.Str unit);
        ("value", Json.Num value);
        ("kind", Json.Str kind_s);
        ( "better",
          Json.Str (match better with Lower -> "lower" | Higher -> "higher") );
        ("bound", Json.Num bound);
        ("hard", if hard then Json.Num blowup else Json.Null);
      ]
    :: t.entries

let write t path =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "spnc-bench-v1");
        ("program", Json.Str t.program);
        ("scale", Json.Str Workloads.scale_name);
        ( "checks",
          Json.List
            (List.rev_map
               (fun (name, ok) ->
                 Json.Obj
                   [ ("name", Json.Str name); ("bit_identical", Json.Bool ok) ])
               t.checks) );
        ("entries", Json.List (List.rev t.entries));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty doc));
  Fmt.pr "wrote %s@." path

(** Exit 1, naming each diverged check, unless every check held. *)
let exit_on_divergence t =
  match List.filter (fun (_, ok) -> not ok) t.checks with
  | [] -> ()
  | bad ->
      List.iter
        (fun (name, _) -> Fmt.epr "FAIL: %s: outputs diverged bitwise@." name)
        (List.rev bad);
      exit 1
