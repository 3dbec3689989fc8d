(** bench_serve — closed-loop capacity of the dynamic-batching model
    server ({!Spnc_serve}), batched against unbatched, writing the
    [spnc-bench-v1] artifact [BENCH_serve.json] (see {!Artifact};
    docs/PERFORMANCE.md §7).  Open-loop latency, wire to wire, is
    [spnc_bench]'s serve workload.

    The harness is fully in-process (no sockets): a fleet of [--models]
    tiny tenant SPNs behind one {!Spnc_serve.Server}, driven by
    closed-loop single-row clients against an unbatched server
    ([max_batch=1]) and then against the batched server.
    Their capacity ratio is [batched_vs_unbatched_speedup].  Every ok
    response is bit-compared against a precomputed sequential
    {!Spnc.Compiler.execute} reference — batching must not change a
    single bit.

    Exit is nonzero when any response diverges bitwise. *)

module Serve = Spnc_serve.Server
module T = Spnc_serve.Types
module A = Artifact
module Rng = Spnc_data.Rng
module Options = Spnc.Options

let usage =
  "bench_serve [--models N] [--pool-rows N] [--duration S] [--clients N] \
   [--burst N] [--out FILE] [--metrics-out FILE]"

let n_models = ref 32
let pool_rows = ref 256
let duration = ref 1.0
let clients = ref 16
let burst = ref 128
let out_path = ref "BENCH_serve.json"
let metrics_path = ref "METRICS_serve.json"

let spec =
  [
    ("--models", Arg.Set_int n_models, "N Tenant models (default 32)");
    ( "--pool-rows",
      Arg.Set_int pool_rows,
      "N Precomputed input rows per model (default 256)" );
    ( "--duration",
      Arg.Set_float duration,
      "S Closed-loop capacity window, seconds (default 1.0)" );
    ( "--clients",
      Arg.Set_int clients,
      "N Closed-loop client threads (default 16)" );
    ( "--burst",
      Arg.Set_int burst,
      "N Pipelined requests per closed-loop client iteration (default 128)" );
    ("--out", Arg.Set_string out_path, "FILE Output JSON (default BENCH_serve.json)");
    ( "--metrics-out",
      Arg.Set_string metrics_path,
      "FILE Metrics snapshot path (default METRICS_serve.json)" );
  ]

(* tiny tenants: serving stresses per-request overhead, not kernel math,
   so the models stay small enough that a single-row evaluate is microseconds *)
let tiny_config =
  {
    Spnc_spn.Random_spn.default_config with
    num_features = 8;
    max_depth = 6;
  }

type tenant = {
  tn_name : string;
  tn_model : Spnc_spn.Model.t;
  tn_pool : float array array; (* pool_rows precomputed inputs *)
  tn_ref : float array; (* sequential Compiler.execute over the pool *)
}

(* [k] clients each keep [burst] single-row requests in flight
   (submit_async the whole burst, then settle it) for [duration];
   returns (ok-responses per second, ok responses that diverged from the
   reference).  Pipelined submission keeps the queues deep — a
   synchronous closed loop would measure notification latency instead
   of server capacity.  One request per model first so the engine LRU
   is warm before the clock starts. *)
let closed_loop server (tenants : tenant array) ~k ~seed : float * int =
  Array.iter
    (fun tn ->
      match Serve.submit server ~model:tn.tn_name (Array.sub tn.tn_pool 0 1) with
      | Ok _ -> ()
      | Error e ->
          Fmt.epr "warmup %s failed: %s@." tn.tn_name
            (T.reject_reason_to_string e.T.reason);
          exit 1)
    tenants;
  let ok = Atomic.make 0 and mismatches = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let stop_at = t0 +. !duration in
  let worker tid =
    let rng = Rng.create ~seed:(seed + tid) in
    let n_ok = ref 0 and n_bad = ref 0 in
    while Unix.gettimeofday () < stop_at do
      let picks =
        Array.init !burst (fun _ ->
            let tn = tenants.(Rng.int rng (Array.length tenants)) in
            let off = Rng.int rng (Array.length tn.tn_pool) in
            (tn, off))
      in
      let tickets =
        Array.map
          (fun (tn, off) ->
            Serve.submit_async server ~model:tn.tn_name
              (Array.sub tn.tn_pool off 1))
          picks
      in
      Array.iteri
        (fun j ticket ->
          let tn, off = picks.(j) in
          match Serve.await ticket with
          | Ok values ->
              incr n_ok;
              if not (A.same_bits values (Array.sub tn.tn_ref off 1)) then
                incr n_bad
          | Error _ -> ())
        tickets
    done;
    ignore (Atomic.fetch_and_add ok !n_ok);
    ignore (Atomic.fetch_and_add mismatches !n_bad)
  in
  let threads = List.init k (fun tid -> Thread.create worker tid) in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  (float_of_int (Atomic.get ok) /. dt, Atomic.get mismatches)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* tiny-model outputs underflow routinely; Clamp keeps them finite
     and deterministic without a per-request stderr warning *)
  let options =
    {
      Options.default with
      threads = 1;
      output_guard = Spnc_resilience.Guard.Clamp;
    }
  in
  Fmt.pr "generating %d tenant models...@." !n_models;
  let gen_rng = Rng.create ~seed:20226 in
  let tenants =
    Array.init !n_models (fun i ->
        let name = Printf.sprintf "tenant-%02d" i in
        let model =
          Spnc_spn.Random_spn.generate_sized gen_rng ~name tiny_config
            ~min_ops:120
        in
        let pool =
          Array.init !pool_rows (fun _ ->
              Array.init model.Spnc_spn.Model.num_features (fun _ ->
                  Rng.range gen_rng (-3.0) 3.0))
        in
        (* sequential whole-pool reference: per-row results are
           independent of batch composition, so any served slice must
           match this bitwise *)
        let compiled = Spnc.Compiler.compile ~options model in
        let tn_ref = Spnc.Compiler.execute compiled pool in
        { tn_name = name; tn_model = model; tn_pool = pool; tn_ref })
  in
  let a = A.create "bench_serve" in
  (* Each server compiles every tenant on its warm-up request, before
     its clock starts, so engine loads stay out of both windows. *)
  let capacity label opts ~seed =
    Fmt.pr "capacity (%s, %d clients, %.1fs)...@." label !clients !duration;
    let server = Serve.create ~options:opts () in
    Array.iter
      (fun tn -> Serve.register_model server ~name:tn.tn_name tn.tn_model)
      tenants;
    let rps, mismatches = closed_loop server tenants ~k:!clients ~seed in
    Serve.shutdown server;
    Fmt.pr "  %s: %.0f req/s@." label rps;
    if mismatches > 0 then
      Fmt.epr "MISMATCH: %d %s response(s) diverged bitwise@." mismatches label;
    A.check a (label ^ " responses vs sequential") (mismatches = 0);
    A.entry a A.Measured ~better:A.Higher ~unit:"1/s"
      (label ^ "_capacity_rps") rps;
    rps
  in
  let unbatched_rps =
    capacity "unbatched" { options with Options.serve_max_batch = 1 } ~seed:31
  in
  (* the snapshot then describes only the batched server *)
  Spnc_obs.Metrics.reset_all ();
  let batched_rps = capacity "batched" options ~seed:47 in
  let speedup = batched_rps /. unbatched_rps in
  Fmt.pr "batched/unbatched capacity: %.2fx@." speedup;
  A.entry a A.Measured ~better:A.Higher ~unit:"x" "batched_vs_unbatched_speedup"
    speedup;
  A.write a !out_path;
  Spnc_obs.Snapshot.write_file !metrics_path (Spnc_obs.Snapshot.take ());
  Fmt.pr "wrote %s@." !metrics_path;
  A.exit_on_divergence a
