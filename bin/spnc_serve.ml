(** spnc_serve — the multi-tenant SPN model server (docs/PERFORMANCE.md
    §"Serving").

    Subcommands:
    - [serve]: host a fleet of models over the line-JSON TCP protocol
      ({!Spnc_serve.Protocol}), with dynamic batching, bounded admission
      and EDF dispatch;
    - [check]: client-side smoke/verification driver — fire concurrent
      requests at a running server, bit-compare every ok response
      against local sequential {!Spnc.Compiler.execute}, and print the
      same ["mean log-likelihood: %.6f"] statistic [spnc_cli run] prints
      over the identical synthesized dataset (the CI serve-smoke job
      diffs the two). *)

open Cmdliner
module Serve = Spnc_serve.Server
module Proto = Spnc_serve.Protocol
module T = Spnc_serve.Types

let exit_failure_setup = 65 (* EX_DATAERR: bad models / bad flags *)

(* -- shared: model loading ----------------------------------------------------- *)

let model_name_of_path path = Filename.remove_extension (Filename.basename path)

let parse_model_spec spec =
  match String.index_opt spec '=' with
  | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | None -> (model_name_of_path spec, spec)

let dir_models dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".spn" || Filename.check_suffix f ".txt"
         then Some (model_name_of_path f, Filename.concat dir f)
         else None)

(* the same synthetic input stream [spnc_cli run] evaluates: a fresh
   seeded RNG per model, rows x features uniform in [-3, 3) — so the
   mean log-likelihood printed here and by the CLI must agree *)
let synthesize_rows ~seed ~rows ~features =
  let rng = Spnc_data.Rng.create ~seed in
  Array.init rows (fun _ ->
      Array.init features (fun _ -> Spnc_data.Rng.range rng (-3.0) 3.0))

(* -- serve --------------------------------------------------------------------- *)

let serve models_specs models_dir host port threads max_batch queue_cap
    global_queue_cap engines_cap dispatchers starvation_ms cache_dir cache_mb =
  let specs =
    List.map parse_model_spec models_specs
    @ (match models_dir with None -> [] | Some d -> dir_models d)
  in
  if specs = [] then begin
    Fmt.epr "spnc_serve: no models (use --model NAME=PATH or --models-dir)@.";
    exit exit_failure_setup
  end;
  let options =
    {
      Spnc.Options.default with
      threads;
      serve_max_batch = max_batch;
      serve_queue_cap = queue_cap;
      serve_global_queue_cap = global_queue_cap;
      serve_engines_cap = engines_cap;
      serve_dispatchers = dispatchers;
      serve_starvation_ms = starvation_ms;
      kernel_cache_dir = cache_dir;
      kernel_cache_mb = cache_mb;
    }
  in
  let server = Serve.create ~options () in
  List.iter (fun (name, path) -> Serve.register_path server ~name path) specs;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with Unix.Unix_error (e, _, _) ->
     Fmt.epr "spnc_serve: cannot bind %s:%d: %s@." host port
       (Unix.error_message e);
     exit exit_failure_setup);
  Unix.listen sock 64;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (* announce AFTER bind+listen so a launcher can poll for this line *)
  Fmt.pr "spnc_serve: listening on %s:%d (%d models)@." host actual_port
    (List.length specs);
  let stopping = ref false in
  let stop _ =
    if not !stopping then begin
      stopping := true;
      Serve.shutdown server;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      exit 0
    end
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec accept_loop () =
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ when !stopping -> ()
    | fd, _ ->
        ignore (Thread.create (Spnc_serve.Connection.serve server) fd);
        accept_loop ()
  in
  accept_loop ();
  0

(* -- check --------------------------------------------------------------------- *)

type check_outcome = {
  mutable ok : int;
  mutable shed : int;
  mutable expired : int;
  mutable failed : int;
  mutable mismatches : int;
}

let bits_equal a b =
  Array.length a = Array.length b
  && (let eq = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then eq := false)
        a;
      !eq)

let connect addr =
  match String.split_on_char ':' addr with
  | [ host; port ] ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, int_of_string port));
      fd
  | _ -> failwith (Printf.sprintf "bad --addr %S (want HOST:PORT)" addr)

let check model_specs addr rows per_request seed concurrency deadline_ms
    no_reference =
  let specs = List.map parse_model_spec model_specs in
  if specs = [] then begin
    Fmt.epr "spnc_serve check: need at least one MODEL=PATH argument@.";
    exit exit_failure_setup
  end;
  let models =
    List.map
      (fun (name, path) ->
        let m = Spnc_spn.Serialize.read_model path in
        (name, m, synthesize_rows ~seed ~rows ~features:m.Spnc_spn.Model.num_features))
      specs
  in
  (* one request = [per_request] consecutive rows of one model's stream;
     requests interleave across models round-robin so concurrent load
     mixes tenants *)
  let requests = ref [] in
  List.iter
    (fun (name, _, data) ->
      let n = Array.length data in
      let off = ref 0 in
      while !off < n do
        let take = min per_request (n - !off) in
        requests := (name, !off, Array.sub data !off take) :: !requests;
        off := !off + take
      done)
    models;
  let requests = Array.of_list (List.rev !requests) in
  let n_req = Array.length requests in
  let responses : T.response option array = Array.make n_req None in
  let next = Atomic.make 0 in
  let worker () =
    let fd = connect addr in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec pull () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n_req then begin
        let model, _, rows_slice = requests.(i) in
        let wr =
          {
            Proto.wr_id = i;
            wr_model = model;
            wr_rows = rows_slice;
            wr_deadline_ms = deadline_ms;
          }
        in
        output_string oc (Proto.encode_request wr);
        output_char oc '\n';
        flush oc;
        (* one request in flight per connection: a response with another
           id can only be a server bug, and counts as failed *)
        responses.(i) <-
          Some
            (match Proto.decode_response (input_line ic) with
            | Ok (id, resp) when id = i -> resp
            | Ok (id, _) ->
                Error
                  {
                    T.reason = T.Engine_failure;
                    detail = Printf.sprintf "response carries id %d" id;
                  }
            | Error e -> Error { T.reason = T.Engine_failure; detail = e });
        pull ()
      end
    in
    (try pull () with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let threads =
    List.init (max 1 concurrency) (fun _ -> Thread.create worker ())
  in
  List.iter Thread.join threads;
  (* local sequential per-request reference, same default options *)
  let references =
    if no_reference then []
    else
      List.map
        (fun (name, m, _) -> (name, Spnc.Compiler.compile m))
        models
  in
  let outcome = { ok = 0; shed = 0; expired = 0; failed = 0; mismatches = 0 } in
  Array.iteri
    (fun i (model, _, rows_slice) ->
      match responses.(i) with
      | None | Some (Error { T.reason = T.Engine_failure; _ }) ->
          outcome.failed <- outcome.failed + 1
      | Some (Error e) when T.is_overloaded e -> outcome.shed <- outcome.shed + 1
      | Some (Error { T.reason = T.Expired; _ }) ->
          outcome.expired <- outcome.expired + 1
      | Some (Error _) -> outcome.failed <- outcome.failed + 1
      | Some (Ok values) ->
          outcome.ok <- outcome.ok + 1;
          if not no_reference then begin
            let compiled = List.assoc model references in
            let expected = Spnc.Compiler.execute compiled rows_slice in
            if not (bits_equal values expected) then
              outcome.mismatches <- outcome.mismatches + 1
          end)
    requests;
  Fmt.pr "requests: %d ok: %d shed: %d expired: %d failed: %d mismatches: %d@."
    n_req outcome.ok outcome.shed outcome.expired outcome.failed
    outcome.mismatches;
  Fmt.pr "bit-identical: %b@." (outcome.mismatches = 0);
  (* per-model mean LL over the full stream, printed in the CLI's exact
     format when every slice of the model's stream came back ok *)
  List.iter
    (fun (name, _, data) ->
      let total = Array.length data in
      let vals = ref [] and got = ref 0 in
      Array.iteri
        (fun i (m, off, _) ->
          if m = name then
            match responses.(i) with
            | Some (Ok values) ->
                vals := (off, values) :: !vals;
                got := !got + Array.length values
            | _ -> ())
        requests;
      if !got = total && total > 0 then begin
        let sum =
          List.fold_left
            (fun acc (_, values) -> Array.fold_left ( +. ) acc values)
            0.0 !vals
        in
        Fmt.pr "model %s: mean log-likelihood: %.6f@." name
          (sum /. float_of_int total)
      end
      else Fmt.pr "model %s: mean log-likelihood: n/a (incomplete)@." name)
    models;
  if outcome.mismatches > 0 then 1 else 0

(* -- cmdliner ------------------------------------------------------------------ *)

let serve_cmd =
  let models =
    Arg.(
      value & opt_all string []
      & info [ "model" ] ~docv:"NAME=PATH" ~doc:"Register one model.")
  in
  let models_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "models-dir" ]
          ~doc:"Register every .spn/.txt model in a directory.")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ]) in
  let port =
    Arg.(value & opt int 7411 & info [ "port" ] ~doc:"TCP port (0 = ephemeral).")
  in
  let threads =
    Arg.(
      value & opt int 1
      & info [ "threads" ] ~doc:"Worker domains per engine (<= 0 auto).")
  in
  let max_batch =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.serve_max_batch
      & info [ "max-batch" ] ~doc:"Batch bound, rows.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.serve_queue_cap
      & info [ "queue-cap" ] ~doc:"Per-model admission bound, requests.")
  in
  let global_cap =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.serve_global_queue_cap
      & info [ "global-queue-cap" ] ~doc:"Process-wide admission bound.")
  in
  let engines_cap =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.serve_engines_cap
      & info [ "engines-cap" ] ~doc:"Resident hot-engine LRU size.")
  in
  let dispatchers =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.serve_dispatchers
      & info [ "dispatchers" ] ~doc:"Dispatcher domains.")
  in
  let starvation =
    Arg.(
      value
      & opt float Spnc.Options.default.Spnc.Options.serve_starvation_ms
      & info [ "starvation-ms" ] ~doc:"EDF starvation guard, milliseconds.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel-cache-dir" ] ~doc:"Persistent kernel cache directory.")
  in
  let cache_mb =
    Arg.(
      value
      & opt int Spnc.Options.default.Spnc.Options.kernel_cache_mb
      & info [ "kernel-cache-mb" ])
  in
  let chaos =
    Cmd.Env.info "SPNC_CHAOS"
      ~doc:
        "Arm fault injection (seed=S,rate=R[,points=a;b], \
         docs/RESILIENCE.md).  The serving layer's own point is \
         $(b,serve.batch_stall): a dispatch stalls 20 ms before it runs its \
         batch, as a slow batch would."
  in
  Cmd.v
    (Cmd.info "serve" ~envs:[ chaos ]
       ~doc:"Host SPN models with dynamic batching.")
    Term.(
      const serve $ models $ models_dir $ host $ port $ threads $ max_batch
      $ queue_cap $ global_cap $ engines_cap $ dispatchers $ starvation
      $ cache_dir $ cache_mb)

let check_cmd =
  let models =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"NAME=PATH" ~doc:"Models to exercise.")
  in
  let addr = Arg.(value & opt string "127.0.0.1:7411" & info [ "addr" ]) in
  let rows =
    Arg.(
      value & opt int 64
      & info [ "rows" ] ~doc:"Rows per model (matches spnc_cli run --rows).")
  in
  let per_request =
    Arg.(
      value & opt int 1
      & info [ "per-request" ] ~doc:"Rows per request (1 = single-row).")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ]) in
  let concurrency = Arg.(value & opt int 8 & info [ "concurrency" ]) in
  let deadline_ms =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ])
  in
  let no_reference =
    Arg.(
      value & flag
      & info [ "no-reference" ]
          ~doc:"Skip the local bit-identity reference (server options differ).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Fire concurrent requests and verify against local execution.")
    Term.(
      const check $ models $ addr $ rows $ per_request $ seed $ concurrency
      $ deadline_ms $ no_reference)

let main_cmd =
  Cmd.group
    (Cmd.info "spnc_serve" ~version:"dev"
       ~doc:"Dynamic-batching multi-tenant SPN model server.")
    [ serve_cmd; check_cmd ]

let () =
  Spnc_resilience.Fault.arm_from_env ();
  exit (Cmd.eval' main_cmd)
