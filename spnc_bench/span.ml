(** Spans the benchmark records around its own calls into each layer's
    public functions, through the program's tracer ({!Spnc_obs.Trace}),
    and the per-layer ledger folded from them.

    A benchmark span carries [id] and [parent] arguments: a served
    request crosses two domains, so its nesting cannot be read off one
    domain's timeline.  A span that begins before its call — the wait
    for a response begins at submit, a request at its due time — carries
    its true start in a [start] argument.  Spans the program records
    itself (the compile stages and the JIT build, see
    [Compiler.compile_full]) have no id; each nests under the innermost
    span of its domain whose interval contains it.

    A root span is either an [op] (one measured operation: a call, a
    first result, a request) or a [setup].  A span's self time is its
    duration minus the time its children cover; the self time of an
    [op] root is the work no layer span claims, reported as
    [unattributed].  So, per operation, the layers' self times plus
    [unattributed] add up to the operation's traced total. *)

module Trace = Spnc_obs.Trace

let now = Unix.gettimeofday
let next_id = Atomic.make 1
let fresh () = Atomic.fetch_and_add next_id 1

(** Tracing on, with room for every span of a run: the ledger needs
    all of them. *)
let enable () =
  Trace.set_capacity (1 lsl 20);
  Trace.set_enabled true

(** [with_id ~parent ~layer name f] runs [f id], recorded as span [id]
    when tracing is on, so [f] can parent its own children.  [id] is
    fresh unless given; [args] is forced after [f] returns. *)
let with_id ?id ?start ?(rows = 0) ?(args = fun () -> []) ~parent ~layer name f =
  let id = match id with Some id -> id | None -> fresh () in
  Trace.with_span ~cat:layer name
    ~args:(fun () ->
      [ ("id", Trace.I id); ("parent", Trace.I parent); ("rows", Trace.I rows) ]
      @ (match start with Some t -> [ ("start", Trace.F t) ] | None -> [])
      @ args ())
    (fun () -> f id)

let timed ?start ?rows ?args ~parent ~layer name f =
  with_id ?start ?rows ?args ~parent ~layer name (fun _ -> f ())

type t = {
  id : int;
  parent : int;  (** 0 for a root *)
  layer : string;
  cat : string;  (** the tracer's category: [layer] for a benchmark span *)
  name : string;
  t0 : float;
  t1 : float;
  rows : int;  (** input rows the call processed; 0 when not row-based *)
  cache : string;  (** how the kernel cache answered a compile; "" otherwise *)
}

(* the module that implements each stage of [Compiler.compile] *)
let stage_layer = function
  | "hispn-translation" -> Some "hispn"
  | "canonicalize" -> Some "mlir"
  | "graph-partitioning" -> Some "partition"
  | "cpu-lowering" | "instruction-selection" | "llvm-optimization"
  | "register-allocation" ->
      Some "cpu"
  | "lower-to-lospn" | "lospn-optimization" | "bufferization"
  | "buffer-optimization" ->
      Some "lospn"
  | _ -> None

(* Every recorded span, program spans parented by containment.  Within a
   domain, spans nest (each is one call's extent), so a stack walk over
   the spans ordered by start, longer first, finds the innermost
   enclosing span. *)
let spans () =
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.phase = `Complete then
        Hashtbl.replace by_domain ev.Trace.tid
          (ev :: Option.value ~default:[] (Hashtbl.find_opt by_domain ev.Trace.tid)))
    (Trace.events ());
  let program_ids = ref 0 and layers = Hashtbl.create 4096 and out = ref [] in
  Hashtbl.iter
    (fun _ evs ->
      let stack = ref [] in
      List.iter
        (fun (ev : Trace.event) ->
          let arg k = List.assoc_opt k ev.Trace.args in
          let t1 = ev.Trace.ts +. ev.Trace.dur in
          stack := List.filter (fun (end_, _) -> end_ > ev.Trace.ts) !stack;
          let enclosing = match !stack with (_, id) :: _ -> id | [] -> 0 in
          let id, parent, layer =
            match (arg "id", arg "parent") with
            | Some (Trace.I id), Some (Trace.I parent) -> (id, parent, ev.Trace.cat)
            | _ ->
                decr program_ids;
                ( !program_ids,
                  enclosing,
                  match stage_layer ev.Trace.name with
                  | Some l when ev.Trace.cat = "compile" -> l
                  | _ when String.starts_with ~prefix:"jit-build" ev.Trace.name ->
                      "cpu.jit"
                  | _ -> Option.value ~default:"" (Hashtbl.find_opt layers enclosing) )
          in
          Hashtbl.replace layers id layer;
          stack := (t1, id) :: !stack;
          out :=
            {
              id;
              parent;
              layer;
              cat = ev.Trace.cat;
              name = ev.Trace.name;
              t0 = (match arg "start" with Some (Trace.F t) -> t | _ -> ev.Trace.ts);
              t1;
              rows = (match arg "rows" with Some (Trace.I r) -> r | _ -> 0);
              cache = (match arg "cache" with Some (Trace.S c) -> c | _ -> "");
            }
            :: !out)
        (List.sort
           (fun (a : Trace.event) (b : Trace.event) ->
             compare (a.Trace.ts, -.a.Trace.dur) (b.Trace.ts, -.b.Trace.dur))
           evs))
    by_domain;
  !out

let dur s = s.t1 -. s.t0

(** Self time of every span, and the root it belongs to. *)
let self_and_root spans =
  let by_id = Hashtbl.create 4096 and covered = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id), root s))
    spans

type ledger = {
  ops : int;
  total : float;  (** seconds, summed over [op] roots *)
  layers : (string * float) list;  (** self seconds per layer, largest first *)
  unattributed : float;  (** self seconds of the [op] roots *)
  selves : (t * float) list;  (** every span with its self time *)
}

let ledger () =
  let tbl = Hashtbl.create 16 in
  let ops = ref 0 and total = ref 0.0 and unattributed = ref 0.0 in
  let all = self_and_root (spans ()) in
  List.iter
    (fun (s, self, root) ->
      if root.layer = "op" then
        if s.parent = 0 then begin
          incr ops;
          total := !total +. dur s;
          unattributed := !unattributed +. self
        end
        else
          Hashtbl.replace tbl s.layer
            (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer)))
    all;
  let layers =
    List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
  in
  {
    ops = !ops;
    total = !total;
    layers;
    unattributed = !unattributed;
    selves = List.map (fun (s, self, _) -> (s, self)) all;
  }

(** Durations of the spans [keep] selects, in seconds. *)
let durations l keep =
  Array.of_list
    (List.filter_map (fun (s, _) -> if keep s then Some (dur s) else None) l.selves)

let named name s = s.name = name

(** Self times of the spans [keep] selects, in seconds. *)
let self_times l keep =
  Array.of_list
    (List.filter_map (fun (s, self) -> if keep s then Some self else None) l.selves)

(** Seconds per input row over the spans named [name]; [nan] when none
    processed rows. *)
let seconds_per_row l name =
  let secs, rows =
    List.fold_left
      (fun (secs, rows) (s, _) ->
        if s.name = name then (secs +. dur s, rows + s.rows) else (secs, rows))
      (0.0, 0) l.selves
  in
  if rows = 0 then nan else secs /. float_of_int rows

let pp_ledger ppf l =
  let per_op x = 1e3 *. x /. float_of_int (max 1 l.ops) in
  let share x = if l.total > 0.0 then 100.0 *. x /. l.total else 0.0 in
  Format.fprintf ppf "ledger over %d traced operations (self time per operation)@."
    l.ops;
  List.iter
    (fun (layer, x) ->
      Format.fprintf ppf "  %-16s %10.4f ms %6.2f%%@." layer (per_op x) (share x))
    (l.layers @ [ ("unattributed", l.unattributed) ]);
  let layers_sum = List.fold_left (fun a (_, x) -> a +. x) l.unattributed l.layers in
  Format.fprintf ppf "  %-16s %10.4f ms (layers + unattributed = %.4f ms)@." "total"
    (per_op l.total) (per_op layers_sum)
