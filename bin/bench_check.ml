(** bench_check — the CI perf gate (docs/OBSERVABILITY.md).

    {v
    bench_check FRESH[=BASELINE] ...
    v}

    One rule set for every artifact it is given: the [spnc-bench-v1]
    artifacts of bench_cpu, bench_gpu and bench_serve, the pass-ordering
    leaderboard ([spnc-passorder-v1]) and the DSE report
    ([spnc-dse-v1]).  Each [spnc-bench-v1] entry carries its own policy
    (bench/artifact.ml), so the gate names no metric.

    {b Hard failures} (exit 1) — things that are never noise:
    - the fresh artifact is unreadable, malformed, or of another schema;
    - any [bit_identical] is [false], or none is [true] ([null] means
      "not measured");
    - an element of [checks], or an element of [entries] that is not a
      metric (a leaderboard ordering), has no [bit_identical];
    - the schema's [entries] list is empty;
    - a baseline [metric] is missing from the fresh artifact;
    - an entry whose baseline has a [hard] factor is worse than [hard]
      times its baseline value at the same [scale] — and, for a measured
      time, also more than 10 ms worse (tiny numbers triple on a cache
      hiccup);
    - a baseline is given without a fresh artifact.

    {b WARNs} (exit 0): a value worse than its baseline by more than its
    [bound]; a [scale] mismatch, which demotes [hard] to a WARN; a
    missing, unreadable or foreign baseline; a fresh metric the baseline
    lacks.  The baseline's entry sets the policy, so a bench that stops
    declaring a gate cannot lift it.  With nothing to check, exit 2. *)

module Json = Spnc_obs.Json

let usage = "bench_check FRESH[=BASELINE] ..."

(* a measured time must also be this much worse before a blowup fails *)
let floor_ms = 10.0

(* the schemas the gate reads, and whether each must carry [entries] *)
let schemas =
  [ ("spnc-bench-v1", true); ("spnc-passorder-v1", true); ("spnc-dse-v1", false) ]

let failures = ref 0
let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL: %s\n" s) fmt
let warn fmt = Printf.ksprintf (fun s -> Printf.printf "WARN: %s\n" s) fmt
let info fmt = Printf.ksprintf (fun s -> Printf.printf "  ok: %s\n" s) fmt
let field = Json.member
let str k j = Option.bind (field k j) Json.str
let items k j = Option.value ~default:[] (Option.bind (field k j) Json.list)

(* -- identity -------------------------------------------------------------- *)

(* every [bit_identical] in the document, with the object that holds it *)
let rec identity_bits j =
  match j with
  | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          (if k = "bit_identical" then [ (v, j) ] else []) @ identity_bits v)
        fields
  | Json.List l -> List.concat_map identity_bits l
  | _ -> []

let check_identity name j =
  let bits = identity_bits j in
  List.iter
    (fun (v, holder) ->
      match v with
      | Json.Bool true | Json.Null -> ()
      | Json.Bool false ->
          fail "%s: outputs diverged: %s" name (Json.to_string holder)
      | _ ->
          fail "%s: malformed bit_identical in %s" name (Json.to_string holder))
    bits;
  (match List.length (List.filter (fun (v, _) -> v = Json.Bool true) bits) with
  | 0 -> fail "%s: no bit_identical is true" name
  | n -> info "%s: %d identity bit(s) true" name n);
  (* an identity record without its bit would pass unnoticed *)
  List.iter
    (fun e ->
      if field "metric" e = None && field "bit_identical" e = None then
        fail "%s: no bit_identical in %s" name (Json.to_string e))
    (items "checks" j @ items "entries" j)

(* -- metric entries -------------------------------------------------------- *)

type entry = {
  metric : string;
  unit_ : string;
  value : float option;  (** [None]: not measured *)
  measured : bool;
  higher : bool;
  bound : float option;
  hard : float option;
}

let parse_entry e : (entry, string) result =
  let ( let* ) = Result.bind in
  let need k = Option.to_result ~none:k (str k e) in
  let opt_num k =
    match field k e with
    | None | Some Json.Null -> Ok None
    | Some (Json.Num x) -> Ok (Some x)
    | Some _ -> Error k
  in
  let* metric = need "metric" in
  let* unit_ = need "unit" in
  let* kind = need "kind" in
  let* better = need "better" in
  let* value = opt_num "value" in
  let* bound = opt_num "bound" in
  let* hard = opt_num "hard" in
  if not (List.mem kind [ "measured"; "modelled"; "count" ]) then Error "kind"
  else if not (List.mem better [ "lower"; "higher" ]) then Error "better"
  else
    Ok
      {
        metric;
        unit_;
        value;
        measured = kind = "measured";
        higher = better = "higher";
        bound;
        hard;
      }

(* the metric entries of [j]; [bad] reports each malformed one *)
let metric_entries ~bad j =
  List.filter_map
    (fun e ->
      if field "metric" e = None then None
      else
        match parse_entry e with
        | Ok x -> Some x
        | Error k ->
            bad (Printf.sprintf "malformed %s in %s" k (Json.to_string e));
            None)
    (items "entries" j)

(* [fresh] against [base], under [base]'s policy *)
let compare_entry name ~same_scale (fresh : entry) (base : entry) =
  match (fresh.value, base.value) with
  | None, _ | _, None -> info "%s %s: not measured" name base.metric
  | Some f, Some b -> (
      let line =
        Printf.sprintf "%s %s: %.6g %s vs baseline %.6g" name base.metric f
          base.unit_ b
      in
      (* how many times worse, and the relative worsening (> 0: worse) *)
      let factor =
        if not base.higher then f /. b else if f <= 0.0 then infinity else b /. f
      in
      let rel = (if base.higher then b -. f else f -. b) /. Float.abs b in
      let past_floor =
        match base.unit_ with
        | "s" when base.measured -> Float.abs (f -. b) *. 1e3 > floor_ms
        | "ms" when base.measured -> Float.abs (f -. b) > floor_ms
        | _ -> true
      in
      match base.hard with
      | Some h when b > 0.0 && factor > h && past_floor ->
          if same_scale then fail "%s (%.2fx worse, hard limit %gx)" line factor h
          else warn "%s (%.2fx worse; no hard limit across scales)" line factor
      | _ -> (
          match base.bound with
          | Some bound when b <> 0.0 && rel > bound ->
              warn "%s (%.0f%% worse, bound %.0f%%)" line (100.0 *. rel)
                (100.0 *. bound)
          | _ -> info "%s" line))

let compare_to_baseline name ~fresh ~fresh_entries baseline =
  let same_scale =
    match (str "scale" fresh, str "scale" baseline) with
    | a, b when a = b -> true
    | a, b ->
        let show = Option.value ~default:"none" in
        warn "%s: scale %s vs baseline %s — hard limits only WARN" name (show a)
          (show b);
        false
  in
  let base_entries =
    metric_entries ~bad:(warn "%s baseline: %s" name) baseline
  in
  List.iter
    (fun (b : entry) ->
      match
        List.find_opt (fun (f : entry) -> f.metric = b.metric) fresh_entries
      with
      | Some f -> compare_entry name ~same_scale f b
      | None ->
          fail "%s: metric %s is missing from the fresh artifact" name b.metric)
    base_entries;
  List.iter
    (fun (f : entry) ->
      if not (List.exists (fun (b : entry) -> b.metric = f.metric) base_entries)
      then warn "%s: %s is not in the baseline (new metric?)" name f.metric)
    fresh_entries

(* -- one artifact ---------------------------------------------------------- *)

let check_artifact name baseline_path =
  match Json.parse_file name with
  | Error e -> fail "%s: cannot read: %s" name e
  | Ok fresh -> (
      let schema = str "schema" fresh in
      match Option.bind schema (fun s -> List.assoc_opt s schemas) with
      | None ->
          fail "%s: schema %s is not one of %s" name
            (Option.value ~default:"(none)" schema)
            (String.concat ", " (List.map fst schemas))
      | Some needs_entries -> (
          check_identity name fresh;
          if needs_entries && items "entries" fresh = [] then
            fail "%s: entries list is empty or missing" name;
          let fresh_entries = metric_entries ~bad:(fail "%s: %s" name) fresh in
          match baseline_path with
          | None -> warn "%s: no baseline given — comparisons skipped" name
          | Some bp -> (
              match Json.parse_file bp with
              | Error e ->
                  warn "%s: cannot read baseline %s: %s — comparisons skipped"
                    name bp e
              | Ok baseline when str "schema" baseline <> schema ->
                  warn "%s: baseline %s has another schema — comparisons skipped"
                    name bp
              | Ok baseline ->
                  compare_to_baseline name ~fresh ~fresh_entries baseline)))

let () =
  let args = ref [] in
  Arg.parse [] (fun a -> args := a :: !args) usage;
  if !args = [] then begin
    prerr_endline ("bench_check: nothing to check; usage: " ^ usage);
    exit 2
  end;
  List.iter
    (fun arg ->
      match String.index_opt arg '=' with
      | None -> check_artifact arg None
      | Some 0 -> fail "baseline %s given without a fresh artifact" arg
      | Some i ->
          check_artifact (String.sub arg 0 i)
            (Some (String.sub arg (i + 1) (String.length arg - i - 1))))
    (List.rev !args);
  if !failures > 0 then begin
    Printf.printf "bench_check: %d hard failure(s)\n" !failures;
    exit 1
  end
  else print_endline "bench_check: OK (hard gates passed; WARNs are report-only)"
