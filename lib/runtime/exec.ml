(** Runtime component (paper §IV-B): loads a compiled kernel and executes
    it over input data, multi-threaded.

    The generated kernel itself is single-threaded; the runtime splits
    the input into chunks and processes the chunks on a persistent
    {!Pool} of OCaml 5 domains — "the runtime component ... will split
    the input data into multiple chunks and use multiple threads to
    process these chunks in parallel."  The user-provided batch size is
    an optimization hint and an upper bound on the chunk size; when
    running parallel, {!chunk_plan} shrinks chunks toward ~4 per worker
    (oversubscription, so a slow chunk is absorbed by the others).  A
    vectorized kernel has no scalar epilogue (DESIGN.md §4), so chunks
    are whole multiples of its SIMD width, and {!run_chunk} pads a
    segment's last, partial chunk with copies of its last real row.

    Streaming execution (docs/PERFORMANCE.md §4): the pool is created
    {e once} — at [load] time, or passed in by the caller (the compiler
    shares one process-wide pool) — and reused across every [execute]
    call, as are the per-worker contexts (JIT register frames + scratch).
    Nothing is spawned per call.

    Zero-copy parallelism (docs/PERFORMANCE.md §2): chunks are handed to
    the kernel as buffer {e views} — base offset + length into the
    shared flat input — instead of [Array.sub] copies, and single-slot
    results are written by the kernel directly into the shared output
    array.  Only a padded chunk is copied.

    Fault tolerance (docs/RESILIENCE.md): a kernel trap inside one chunk
    must not hang the batch or lose domains.  Workers run every chunk
    under an exception barrier; the first captured failure wins, the
    remaining chunks are cancelled, the round is drained, and exactly
    one {!Chunk_error} — carrying the chunk bounds, the exception text
    and its backtrace — surfaces to the caller. *)

module Jit = Spnc_cpu.Jit
module Vm = Spnc_cpu.Vm
module Obs_trace = Spnc_obs.Trace
module Obs_metrics = Spnc_obs.Metrics
module Fault = Spnc_resilience.Fault

(* Registered once at module init; the hot paths below only touch the
   atomics inside these handles. *)
let m_calls = Obs_metrics.counter "runtime.exec.calls"
let m_rows = Obs_metrics.counter "runtime.exec.rows"
let m_chunks = Obs_metrics.counter "runtime.exec.chunks"
let m_ctx_created = Obs_metrics.counter "runtime.exec.ctx_created"
let m_call_seconds = Obs_metrics.histogram "runtime.exec.call_seconds"
let m_retries = Obs_metrics.counter "runtime.exec.retries"
let m_deadline_exceeded = Obs_metrics.counter "runtime.exec.deadline_exceeded"

(* how close successful deadline-bearing calls come to their budget:
   p01 of this histogram trending toward 0 means deadlines are set too
   tight for the workload *)
let m_deadline_margin =
  Obs_metrics.histogram "runtime.exec.deadline_margin_seconds"

(* Shared serving vocabulary (docs/OBSERVABILITY.md): plain CLI runs and
   the spnc_serve batcher report into the SAME two instruments, so one
   dashboard covers both.  [rows_in_flight] counts rows admitted to the
   runtime (or queued in serve) but not yet returned; [queue_wait]
   records time spent waiting to execute — here the exec-lock wait, in
   serve the time a request sits in its model queue. *)
let m_rows_in_flight = Obs_metrics.gauge "runtime.exec.rows_in_flight"
let m_queue_wait = Obs_metrics.histogram "runtime.exec.queue_wait_seconds"

(* Per-worker execution context, allocated once per worker slot and
   reused across every chunk of every [execute] call. *)
type ctx = {
  state : Jit.state option;  (** JIT register frames (engine = Jit) *)
  mutable scratch : float array;
      (** pooled output backing for multi-slot kernels and padded
          chunks; grown on demand *)
  mutable padded : float array;
      (** pooled input backing for padded chunks; grown on demand *)
}

type t = {
  kernel : Spnc_cpu.Lir.modul;
  jit : Jit.kernel option;  (** compiled closures iff [engine = Jit] *)
  engine : Jit.engine;
  profile : Spnc_cpu.Profile.t option;
      (** per-node instruction profile; [Some] switches the VM engine to
          {!Vm.run_profiled} (the JIT bakes profiling in at compile time) *)
  out_cols : int;  (** slots per sample in the kernel output buffer *)
  batch_size : int;  (** chunk size hint / upper bound *)
  threads : int;
  width : int;  (** SIMD width: every kernel call sees a multiple of it *)
  pool : Pool.t option;  (** worker pool iff [threads > 1] *)
  owns_pool : bool;  (** [shutdown] tears the pool down iff set *)
  ctxs : ctx option array;  (** per-worker-slot contexts, lazily filled *)
  exec_lock : Mutex.t;
      (** contexts are reused across calls, so concurrent [execute] on
          one [t] must serialize *)
}

let normalize_threads n =
  if n <= 0 then max 1 (min 64 (Domain.recommended_domain_count ()))
  else min n 256

let chunk_plan ~rows ~threads ~batch_size ~width =
  let width = max 1 width in
  let chunk =
    if rows <= 0 || threads <= 1 then batch_size
    else
      (* ~4x oversubscription: aim for four chunks per worker so the
         shared claim counter can even out skewed chunk costs, but never
         exceed the user's batch-size hint *)
      min batch_size ((rows + (threads * 4) - 1) / (threads * 4))
  in
  (* whole SIMD groups, so only a segment's last chunk is ever padded *)
  max width (chunk / width * width)

let load ?(batch_size = 4096) ?(threads = 1) ?(engine = Jit.Jit) ?jit ?profile
    ?pool ~out_cols kernel =
  if batch_size <= 0 then invalid_arg "Exec.load: batch_size must be positive";
  let threads = normalize_threads threads in
  (* compile eagerly (and on the caller's domain): Jit.kernel is immutable
     and shared by all workers, only the per-worker state is mutable *)
  let jit =
    match engine with
    | Jit.Vm -> None
    | Jit.Jit ->
        Some
          (match jit with
          | Some k -> k
          | None -> Jit.compile ?profile kernel)
  in
  let pool, owns_pool =
    if threads <= 1 then (None, false)
    else
      match pool with
      | Some p -> (Some p, false)
      | None -> (Some (Pool.create ~size:threads), true)
  in
  {
    kernel;
    jit;
    engine;
    profile;
    out_cols;
    batch_size;
    threads;
    width =
      Array.fold_left (fun w f -> max w f.Spnc_cpu.Lir.vec_width) 1
        kernel.Spnc_cpu.Lir.funcs;
    pool;
    owns_pool;
    ctxs = Array.make (max 1 threads) None;
    exec_lock = Mutex.create ();
  }

let threads t = t.threads

let shutdown t = if t.owns_pool then Option.iter Pool.shutdown t.pool

type chunk_error = {
  chunk_lo : int;  (** first sample index of the failing chunk *)
  chunk_hi : int;  (** one past the last sample index *)
  message : string;  (** text of the captured exception *)
  backtrace : string;  (** backtrace captured inside the worker *)
  transient : bool;  (** retryable ({!Spnc_resilience.Fault.Transient}) *)
}

exception Chunk_error of chunk_error

type deadline_info = {
  deadline : float;  (** the absolute deadline, epoch seconds *)
  now : float;  (** when the overrun was detected *)
}

exception Deadline_exceeded of deadline_info

(* Capped exponential backoff before retrying a transient failure:
   1 ms, 2 ms, 4 ms, ... capped at 50 ms.  The cap keeps worst-case
   added latency bounded even with a generous retry budget. *)
let backoff_seconds attempt =
  Float.min 0.05 (0.001 *. Float.pow 2.0 (float_of_int (max 0 (attempt - 1))))

let () =
  Printexc.register_printer (function
    | Chunk_error e ->
        Some
          (Printf.sprintf "Exec.Chunk_error(samples [%d,%d)%s: %s)" e.chunk_lo
             e.chunk_hi
             (if e.transient then ", transient" else "")
             e.message)
    | Deadline_exceeded d ->
        Some
          (Printf.sprintf "Exec.Deadline_exceeded(over by %.3fs)"
             (d.now -. d.deadline))
    | _ -> None)

let make_ctx (t : t) : ctx =
  Obs_metrics.counter_incr m_ctx_created;
  { state = Option.map Jit.make_state t.jit; scratch = [||]; padded = [||] }

(* Worker slot -> context, created on first use and kept for the life of
   [t].  Slots are owned by exactly one worker within a round, so the
   per-index writes never race. *)
let get_ctx (t : t) w =
  match t.ctxs.(w) with
  | Some c -> c
  | None ->
      let c = make_ctx t in
      t.ctxs.(w) <- Some c;
      c

let run_engine (t : t) (ctx : ctx) ~buffers : unit =
  match (t.engine, t.jit, ctx.state) with
  | Jit.Jit, Some k, Some st -> Jit.run k st ~buffers
  | Jit.Vm, _, _ | _, None, _ | _, _, None -> (
      (* the JIT path above needs no dispatch here — profiling is baked
         into the closures at compile time; the VM interprets, so the
         profiled walker is a separate entry point *)
      match t.profile with
      | Some p -> Vm.run_profiled t.kernel p ~buffers
      | None -> Vm.run t.kernel ~buffers)

(* A caller-owned slice of a batch: [seg_rows] row-major samples in
   [seg_flat], results written into [seg_out] starting at [seg_out_pos].
   Segments let the serving batcher coalesce many small requests into
   one runtime call while each caller's results land directly in that
   caller's buffer — the scatter is the kernel write itself, no
   gather-then-blit. *)
type segment = {
  seg_flat : float array;
  seg_rows : int;
  seg_out : float array;
  seg_out_pos : int;
}

(* Execute one chunk [lo, hi) (row indices local to [seg]), writing the
   per-sample results into [seg.seg_out.(seg_out_pos + lo ..)]. *)
let run_chunk (t : t) (ctx : ctx) ~(seg : segment) ~num_features ~lo ~hi :
    unit =
  let rows = hi - lo in
  (* the kernel runs on whole SIMD groups: [krows] rows, [rows] real *)
  let krows = (rows + t.width - 1) / t.width * t.width in
  let input =
    if krows = rows then
      (* zero-copy: a window into the shared flat input, no Array.sub *)
      Vm.view seg.seg_flat ~off:(lo * num_features) ~rows ~cols:num_features
    else begin
      (* the partial last group: the real rows, then copies of the last
         one, in pooled per-worker scratch *)
      let need = krows * num_features in
      if Array.length ctx.padded < need then ctx.padded <- Array.make need 0.0;
      Array.blit seg.seg_flat (lo * num_features) ctx.padded 0
        (rows * num_features);
      for r = rows to krows - 1 do
        Array.blit seg.seg_flat ((hi - 1) * num_features) ctx.padded
          (r * num_features) num_features
      done;
      Vm.view ctx.padded ~off:0 ~rows:krows ~cols:num_features
    end
  in
  if t.out_cols = 1 && krows = rows then begin
    (* result slot 0 is transposed (the first [rows] entries), and with a
       single slot the output buffer IS slot 0 — so the kernel writes
       straight into the caller-visible output array *)
    let ob = Vm.view seg.seg_out ~off:(seg.seg_out_pos + lo) ~rows ~cols:1 in
    run_engine t ctx ~buffers:[ input; ob ]
  end
  else begin
    (* multi-slot kernels and padded groups need [krows * out_cols] of
       scratch; pool it per worker and re-zero the used prefix so every
       chunk still sees the fresh-buffer semantics kernels were written
       against *)
    let need = krows * t.out_cols in
    if Array.length ctx.scratch < need then ctx.scratch <- Array.make need 0.0
    else Array.fill ctx.scratch 0 need 0.0;
    let ob = Vm.view ctx.scratch ~off:0 ~rows:krows ~cols:t.out_cols in
    run_engine t ctx ~buffers:[ input; ob ];
    (* result slot 0 is transposed: the first [rows] entries *)
    Array.blit ctx.scratch 0 seg.seg_out (seg.seg_out_pos + lo) rows
  end

(* The shared execution core: chunk every segment, run the chunks on the
   pool (chunks never straddle a segment boundary, so each kernel write
   stays inside one caller's output view), retry transient failures,
   enforce the deadline.  Chunk-error bounds are reported as global row
   indices across the whole batch. *)
let run_segments ?deadline ?(retries = 0) (t : t) ~num_features
    (segs : segment array) : unit =
  let rows = Array.fold_left (fun acc s -> acc + s.seg_rows) 0 segs in
  if rows = 0 then ()
  else begin
    Obs_metrics.gauge_add m_rows_in_flight (float_of_int rows);
    Fun.protect
      ~finally:(fun () ->
        Obs_metrics.gauge_add m_rows_in_flight (-.float_of_int rows))
    @@ fun () ->
    let t_enter = Unix.gettimeofday () in
    Mutex.lock t.exec_lock;
    Obs_metrics.histogram_observe m_queue_wait
      (Unix.gettimeofday () -. t_enter);
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.exec_lock)
      (fun () ->
        let chunk =
          chunk_plan ~rows ~threads:t.threads ~batch_size:t.batch_size
            ~width:t.width
        in
        (* (segment index, local lo, local hi, global row base) *)
        let chunks =
          let acc = ref [] and base = ref 0 in
          Array.iteri
            (fun si s ->
              let lo = ref 0 in
              while !lo < s.seg_rows do
                let hi = min s.seg_rows (!lo + chunk) in
                acc := (si, !lo, hi, !base) :: !acc;
                lo := hi
              done;
              base := !base + s.seg_rows)
            segs;
          Array.of_list (List.rev !acc)
        in
        let n_chunks = Array.length chunks in
        (* first captured failure wins; set exactly once per round *)
        let failure : chunk_error option Atomic.t = Atomic.make None in
        let over () =
          match deadline with
          | None -> false
          | Some d -> Unix.gettimeofday () > d
        in
        let record lo hi e bt =
          let err =
            {
              chunk_lo = lo;
              chunk_hi = hi;
              message = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
              transient = Fault.is_transient e;
            }
          in
          ignore (Atomic.compare_and_set failure None (Some err))
        in
        let process_plain ctx (si, lo, hi, base) =
          match
            (* chaos: a stalled chunk exercises deadline cancellation, a
               failed chunk exercises the capture/retry path — both through
               the exact barrier real kernel traps take *)
            Fault.maybe_stall "pool.chunk_stall" ~seconds:0.002;
            Fault.maybe_transient "pool.chunk_fail";
            run_chunk t ctx ~seg:segs.(si) ~num_features ~lo ~hi
          with
          | () -> ()
          | exception ((Stack_overflow | Out_of_memory) as e) ->
              (* even fatal resource exhaustion must not escape a worker
                 domain (a raise would be lost inside the pool); record
                 it like any chunk failure *)
              record (base + lo) (base + hi) e (Printexc.get_raw_backtrace ())
          | exception e ->
              record (base + lo) (base + hi) e (Printexc.get_raw_backtrace ())
        in
        (* the enabled check is hoisted out of the span helper so the
           disabled path allocates nothing per chunk (<2% overhead
           budget on the sustained-serving bench) *)
        let process ctx ((_, lo, hi, base) as c) =
          if Obs_trace.enabled () then
            Obs_trace.with_span ~cat:"exec" "chunk"
              ~args:(fun () ->
                Obs_trace.[ ("lo", I (base + lo)); ("hi", I (base + hi)) ])
              (fun () -> process_plain ctx c)
          else process_plain ctx c
        in
        let run_round () =
          match t.pool with
          | None ->
              let ctx = get_ctx t 0 in
              Array.iter
                (fun c ->
                  if Atomic.get failure = None && not (over ()) then
                    process ctx c)
                chunks
          | Some _ when n_chunks <= 1 ->
              (* one chunk: skip the round protocol entirely *)
              process (get_ctx t 0) chunks.(0)
          | Some pool ->
              (* the stop poll is how in-flight rounds observe both a
                 captured failure and an expired deadline: workers check
                 it before every chunk, so cancellation latency is one
                 chunk, not one round *)
              Pool.run pool ~workers:t.threads
                ~stop:(fun () -> Atomic.get failure <> None || over ())
                ~num_tasks:n_chunks
                (fun ~worker i -> process (get_ctx t worker) chunks.(i))
        in
        (* the per-call span doubles as the latency-histogram clock *)
        let timed_round () =
          let (), call_seconds =
            Obs_trace.timed ~cat:"exec" "execute"
              ~args:(fun () ->
                Obs_trace.
                  [
                    ("rows", I rows);
                    ("segments", I (Array.length segs));
                    ("chunk", I chunk);
                    ("chunks", I n_chunks);
                    ("threads", I t.threads);
                  ])
              run_round
          in
          call_seconds
        in
        let total_seconds = ref 0.0 in
        let attempt = ref 0 in
        (* transient chunk failures retry the whole round (the output
           array is rewritten from scratch) under capped exponential
           backoff; anything else — and any deadline overrun — surfaces
           immediately.  Partial outputs never escape: the only [out]
           that returns is from a round that completed cleanly. *)
        let rec go () =
          Atomic.set failure None;
          total_seconds := !total_seconds +. timed_round ();
          if over () then begin
            Obs_metrics.counter_incr m_deadline_exceeded;
            let d = Option.get deadline in
            raise (Deadline_exceeded { deadline = d; now = Unix.gettimeofday () })
          end;
          match Atomic.get failure with
          | Some err when err.transient && !attempt < max 0 retries ->
              incr attempt;
              Obs_metrics.counter_incr m_retries;
              Unix.sleepf (backoff_seconds !attempt);
              go ()
          | Some err -> raise (Chunk_error err)
          | None -> ()
        in
        Fun.protect
          ~finally:(fun () ->
            (* call accounting happens whether the call succeeded or
               raised — failed calls are still load *)
            Obs_metrics.counter_incr m_calls;
            Obs_metrics.counter_incr ~by:rows m_rows;
            Obs_metrics.counter_incr ~by:n_chunks m_chunks;
            Obs_metrics.histogram_observe m_call_seconds !total_seconds)
          go;
        (match deadline with
        | Some d ->
            Obs_metrics.histogram_observe m_deadline_margin
              (d -. Unix.gettimeofday ())
        | None -> ()))
  end

let check_dims ~what ~rows ~num_features ~flat_len =
  if rows < 0 then
    invalid_arg (Printf.sprintf "Exec.%s: negative rows (%d)" what rows);
  if num_features <= 0 then
    invalid_arg
      (Printf.sprintf "Exec.%s: num_features must be positive (got %d)" what
         num_features);
  if flat_len <> rows * num_features then
    invalid_arg
      (Printf.sprintf
         "Exec.%s: input size mismatch (%d floats for %d rows x %d features)"
         what flat_len rows num_features)

let execute ?deadline ?retries (t : t) ~(flat : float array) ~rows
    ~num_features : float array =
  check_dims ~what:"execute" ~rows ~num_features ~flat_len:(Array.length flat);
  if rows = 0 then [||]
  else begin
    let out = Array.make rows 0.0 in
    run_segments ?deadline ?retries t ~num_features
      [| { seg_flat = flat; seg_rows = rows; seg_out = out; seg_out_pos = 0 } |];
    out
  end

let execute_segments ?deadline ?retries (t : t) ~num_features
    (segs : segment array) : unit =
  Array.iteri
    (fun i s ->
      check_dims
        ~what:(Printf.sprintf "execute_segments (segment %d)" i)
        ~rows:s.seg_rows ~num_features ~flat_len:(Array.length s.seg_flat);
      if
        s.seg_out_pos < 0
        || s.seg_out_pos + s.seg_rows > Array.length s.seg_out
      then
        invalid_arg
          (Printf.sprintf
             "Exec.execute_segments: segment %d output window [%d,%d) exceeds \
              buffer of %d"
             i s.seg_out_pos
             (s.seg_out_pos + s.seg_rows)
             (Array.length s.seg_out)))
    segs;
  let segs = Array.of_seq (Seq.filter (fun s -> s.seg_rows > 0)
                             (Array.to_seq segs)) in
  if Array.length segs > 0 then
    run_segments ?deadline ?retries t ~num_features segs

(** [execute_rows t rows_2d] — convenience over row-major samples.
    @raise Invalid_argument when the rows are ragged (unequal widths). *)
let execute_rows ?deadline ?retries (t : t) (rows_2d : float array array) :
    float array =
  let rows = Array.length rows_2d in
  if rows = 0 then [||]
  else begin
    let num_features = Array.length rows_2d.(0) in
    (* a ragged matrix would silently garble the flat buffer (or trap
       deep inside the VM); reject it here with the offending row *)
    Array.iteri
      (fun i row ->
        if Array.length row <> num_features then
          invalid_arg
            (Printf.sprintf
               "Exec.execute_rows: ragged input (row %d has %d features, \
                expected %d)"
               i (Array.length row) num_features))
      rows_2d;
    let flat = Array.concat (Array.to_list rows_2d) in
    execute ?deadline ?retries t ~flat ~rows ~num_features
  end
