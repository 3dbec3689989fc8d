(** What one workload run reports: operations attempted and failed, and
    the metrics it measured. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** no correct result: error, shed, missing or wrong *)
  mutable wrong : int;  (** of [failed], a result that failed its check *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0 }

let count t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let count_checked t ~correct =
  count t ~ok:correct;
  if not correct then t.wrong <- t.wrong + 1

type t = {
  tally : tally;
  e2e : (string * float) list;  (** end-to-end metrics, measured untraced *)
  layer : (string * float) list;  (** per-layer metrics, from a traced run *)
}

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(** Within 1e-9 relative of the reference interpreter, and finite. *)
let close ~(expected : float array) (actual : float array) =
  Array.length expected = Array.length actual
  && Array.for_all2
       (fun e a ->
         Float.is_finite a && Float.abs (a -. e) <= 1e-9 *. Float.max 1.0 (Float.abs e))
       expected actual

(** Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())
