(** One client connection of [spnc_serve]: newline-delimited JSON
    requests in ({!Protocol}), one response line per request out, in
    the order requests settle, each carrying its request's id.

    The calling thread is the connection's reader: it decodes each line
    and submits it with a settle callback that only pushes the response
    onto the connection's outbox.  One writer thread per connection
    encodes and writes everything queued, one write per drain.  No
    dispatcher ever blocks on the socket, and no thread is started per
    request. *)

val serve : Server.t -> Unix.file_descr -> unit
(** Serve [fd] until end of input, then return once every request read
    has been answered (or dropped after a write error) and [fd] is
    closed.  The writer owns [fd]: it closes it exactly once, after the
    reader has stopped, so no response is written to a closed — or
    reused — descriptor.  The process should ignore [SIGPIPE], or a
    peer that hangs up kills it. *)
