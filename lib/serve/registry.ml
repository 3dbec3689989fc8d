(** Multi-tenant model registry with a bounded LRU of hot engines.

    Models are registered by name as either an in-memory
    {!Spnc_spn.Model.t} or a path (binary [.spn] or text DSL), and are
    loaded/compiled lazily on first request through {!Spnc.Compiler} —
    so a fleet of thousands of per-tenant models costs nothing until
    traffic arrives.

    A loaded {e engine} is the compiled artifact plus a hot
    {!Spnc_runtime.Exec.t} handle ({!Spnc.Compiler.load_exec}: JIT
    closures forced once, process-wide pool wired up).  At most [cap]
    engines stay resident; loading one more evicts the least-recently
    used, and with it the engine's kernel: this LRU is the process's
    only in-memory kernel cache.  An evicted model's next request is a
    persistent {!Spnc.Kcache} disk hit when [options.kernel_cache_dir]
    is set (the 23x cold-start lever), otherwise a compile. *)

module Metrics = Spnc_obs.Metrics

let m_loads = Metrics.counter "serve.engines.loads"
let m_evictions = Metrics.counter "serve.engines.evictions"
let m_loaded = Metrics.gauge "serve.engines.loaded"

type source = Src_model of Spnc_spn.Model.t | Src_path of string

type engine = {
  eng_name : string;
  eng_compiled : Spnc.Compiler.compiled;
  eng_exec : Spnc_runtime.Exec.t;
  eng_features : int;
  mutable eng_tick : int;  (** LRU clock stamp of the last touch *)
}

type t = {
  lock : Mutex.t;
  options : Spnc.Options.t;
  cap : int;
  sources : (string, source) Hashtbl.t;
  engines : (string, engine) Hashtbl.t;
  mutable clock : int;
}

let create ?cap ~options () =
  {
    lock = Mutex.create ();
    options;
    cap = max 1 (Option.value cap ~default:options.Spnc.Options.serve_engines_cap);
    sources = Hashtbl.create 64;
    engines = Hashtbl.create 64;
    clock = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t ~name source =
  locked t (fun () ->
      Hashtbl.replace t.sources name source;
      (* re-registering a name drops any resident engine for it *)
      if Hashtbl.mem t.engines name then begin
        Hashtbl.remove t.engines name;
        Metrics.gauge_set m_loaded (float_of_int (Hashtbl.length t.engines))
      end)

let register_model t ~name model = register t ~name (Src_model model)
let register_path t ~name path = register t ~name (Src_path path)
let mem t name = locked t (fun () -> Hashtbl.mem t.sources name)

let names t =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.sources []
      |> List.sort String.compare)

let loaded t =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.engines []
      |> List.sort String.compare)

let load_model = function
  | Src_model m -> m
  | Src_path path -> Spnc_spn.Serialize.read_model path

let evict_over_cap t =
  while Hashtbl.length t.engines > t.cap do
    let victim =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some v when v.eng_tick <= e.eng_tick -> acc
          | _ -> Some e)
        t.engines None
    in
    match victim with
    | None -> ()
    | Some v ->
        Hashtbl.remove t.engines v.eng_name;
        (* shared-pool handles make this a no-op; it is here so privately
           pooled engines would not leak domains *)
        Spnc_runtime.Exec.shutdown v.eng_exec;
        Metrics.counter_incr m_evictions
  done

(** [engine t name] — the hot engine for [name], loading (compile +
    {!Spnc.Compiler.load_exec}) and LRU-evicting as needed.  [Error] on
    an unregistered name or a failed load; loads are serialized under
    the registry lock. *)
let engine t name : (engine, string) result =
  locked t (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.engines name with
      | Some e ->
          e.eng_tick <- t.clock;
          Ok e
      | None -> (
          match Hashtbl.find_opt t.sources name with
          | None -> Error (Printf.sprintf "unknown model %S" name)
          | Some src -> (
              match
                let model = load_model src in
                let compiled = Spnc.Compiler.compile ~options:t.options model in
                let exec = Spnc.Compiler.load_exec compiled in
                {
                  eng_name = name;
                  eng_compiled = compiled;
                  eng_exec = exec;
                  eng_features = model.Spnc_spn.Model.num_features;
                  eng_tick = t.clock;
                }
              with
              | e ->
                  Hashtbl.replace t.engines name e;
                  Metrics.counter_incr m_loads;
                  evict_over_cap t;
                  Metrics.gauge_set m_loaded
                    (float_of_int (Hashtbl.length t.engines));
                  Ok e
              | exception exn -> Error (Printexc.to_string exn))))

(** Drop every resident engine (tests: forces the next request through
    {!Spnc.Compiler.compile}). *)
let flush_engines t =
  locked t (fun () ->
      Hashtbl.iter (fun _ e -> Spnc_runtime.Exec.shutdown e.eng_exec) t.engines;
      Hashtbl.reset t.engines;
      Metrics.gauge_set m_loaded 0.0)
