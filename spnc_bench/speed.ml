(** The host's speed, read from a fixed probe loop run between
    operations, and operation times scaled to one reference speed.

    Each core of the shared two-core host switches, every few seconds,
    between a fast speed and one 40-60% slower, independently of the
    other core; a process's CPU time slows with its wall time, so this is
    contention for the core, not stolen time.  A CPU-bound operation's
    wall time then says as much about the neighbours as about the code.
    The probe is this file's own code, so no change to the program moves
    it: a float stream over 128 KiB, a pointer chase over 256 KiB and
    branchy integer mixing.  It allocates nothing, so the program's heap
    cannot change its time either.  It runs before and after every timed
    operation, and the operation's time is scaled by [reference_s] over
    the mean of the two probes: its time at the speed at which the probe
    takes [reference_s], about the host's fast speed. *)

let stream = Array.make 16384 1.0

(* one cycle through 2^15 slots (Sattolo's shuffle), so that each load
   depends on the last and misses the first-level cache *)
let ring =
  let n = 1 lsl 15 in
  let a = Array.init n Fun.id in
  let s = ref 12345 in
  for i = n - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Seconds the probe loop takes now.  Its 384 KiB are read first,
    untimed, so that they sit in the core's second-level cache whatever
    the operation before it touched.  A probe over 1.25 MiB without
    that read took 1.9 ms run alone and 3.6 ms between rat-cold
    operations: its time depended on the program's memory use.  This
    one's p10 is within 3% either way. *)
let probe () =
  let warm = ref 0 in
  for i = 0 to Array.length ring - 1 do
    warm := !warm + ring.(i)
  done;
  let acc = ref 0.0 in
  for i = 0 to Array.length stream - 1 do
    acc := !acc +. stream.(i)
  done;
  let t0 = Span.now () in
  for rep = 1 to 40 do
    for i = 0 to Array.length stream - 1 do
      let x = (stream.(i) *. 0.9999) +. float_of_int rep in
      stream.(i) <- x;
      acc := !acc +. x
    done
  done;
  let p = ref 0 in
  for _ = 1 to 100_000 do
    p := ring.(!p)
  done;
  let x = ref (Sys.opaque_identity 88172645463325252) and c = ref 0 in
  for _ = 1 to 100_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    if !x land 3 = 0 then incr c else if !x land 5 = 1 then c := !c + 3
  done;
  ignore (Sys.opaque_identity (!warm, !acc, !p, !c));
  Span.now () -. t0

(* the probe's time on a fast core of the host (a 2.1 GHz Xeon) *)
let reference_s = 0.0032

type t = {
  mutable last : float;  (** the latest probe *)
  mutable probes : float list;
}

let start () =
  let p = probe () in
  { last = p; probes = [ p ] }

(** [scale t dt]: [dt] seconds, just measured, at the reference speed.
    Probes again; the host's speed is the mean of this probe and the one
    before. *)
let scale t dt =
  let p = probe () in
  let v = dt *. reference_s /. ((t.last +. p) /. 2.0) in
  t.last <- p;
  t.probes <- p :: t.probes;
  v

(** Every probe time so far. *)
let probes t = Array.of_list t.probes
