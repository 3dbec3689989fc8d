(** Summary statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0.0 a

(** Quartiles as Python's [statistics.quantiles(data, n=4)] computes
    them (the default "exclusive" method), so [--repeat] reports the
    same spread as any script that checks the benchmark.  Needs at least
    two samples. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)
