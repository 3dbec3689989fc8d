(** One client connection: the caller's thread reads and submits, a
    writer thread drains the outbox that settle callbacks fill.

    [in_flight] counts requests read whose response the writer has not
    taken yet; the reader counts a request before submitting it, so a
    response that settles inline, before [submit_async] returns, is
    already counted.  The writer closes the descriptor only when the
    reader has stopped and nothing is in flight — the one close, after
    the last use of [fd] by either thread. *)

module T = Types

type t = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  changed : Condition.t;  (** a response was queued, or input ended *)
  outbox : (int * T.response) Queue.t;
  mutable in_flight : int;
  mutable reading : bool;
}

(* The settle callback: it runs on a dispatcher (or inline at
   admission), so it only queues — no I/O, nothing that raises. *)
let push c id resp =
  Mutex.lock c.lock;
  Queue.push (id, resp) c.outbox;
  Condition.signal c.changed;
  Mutex.unlock c.lock

let write_loop c =
  let buf = Buffer.create 4096 in
  let taken = Queue.create () in
  (* after a write error the peer is gone: keep taking responses so the
     reader's end of input still lets the loop finish, but drop them *)
  let broken = ref false in
  let rec drain () =
    Mutex.lock c.lock;
    while Queue.is_empty c.outbox && (c.reading || c.in_flight > 0) do
      Condition.wait c.changed c.lock
    done;
    Queue.transfer c.outbox taken;
    c.in_flight <- c.in_flight - Queue.length taken;
    Mutex.unlock c.lock;
    if not (Queue.is_empty taken) then begin
      if not !broken then begin
        Buffer.clear buf;
        Queue.iter
          (fun (id, resp) ->
            Buffer.add_string buf (Protocol.encode_response ~id resp);
            Buffer.add_char buf '\n')
          taken;
        let s = Buffer.contents buf in
        try ignore (Unix.write_substring c.fd s 0 (String.length s))
        with Unix.Unix_error _ -> broken := true
      end;
      Queue.clear taken;
      drain ()
    end
  in
  drain ();
  Unix.close c.fd

let serve server fd =
  let c =
    {
      fd;
      lock = Mutex.create ();
      changed = Condition.create ();
      outbox = Queue.create ();
      in_flight = 0;
      reading = true;
    }
  in
  let writer =
    try Thread.create write_loop c
    with e ->
      Unix.close fd;
      raise e
  in
  let ic = Unix.in_channel_of_descr fd in
  let rec read () =
    match input_line ic with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
    | line when String.trim line = "" -> read ()
    | line ->
        Mutex.lock c.lock;
        c.in_flight <- c.in_flight + 1;
        Mutex.unlock c.lock;
        (match Protocol.decode_request line with
        | Error e -> push c 0 (Error { T.reason = T.Bad_request; detail = e })
        | Ok wr ->
            let deadline =
              Option.map
                (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0))
                wr.Protocol.wr_deadline_ms
            in
            ignore
              (Server.submit_async server ~model:wr.Protocol.wr_model ?deadline
                 ~on_settle:(push c wr.Protocol.wr_id) wr.Protocol.wr_rows));
        read ()
  in
  read ();
  Mutex.lock c.lock;
  c.reading <- false;
  Condition.signal c.changed;
  Mutex.unlock c.lock;
  Thread.join writer
