(** Binary serialization of SPN models.

    Stand-in for the Cap'n-Proto-based interchange format the paper uses
    between SPFlow and the compiler (§IV-A1).  Layout:

    {v
    magic "SPNB" | u16 version | str name | u32 num_features
    u32 node_count
    node*     -- children-first order; child references are table indices
    u32 root_index
    u32 crc32 of everything before it
    v}

    All integers little-endian.  Floats are IEEE-754 bit patterns.  The
    reader validates magic, version, tags, index ranges and the checksum,
    returning [Error] diagnostics rather than raising. *)

let magic = "SPNB"
let version = 1

(* -- CRC32 (IEEE 802.3), table-driven ------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) : int32 =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* -- Writer --------------------------------------------------------------- *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w_u16 buf v =
  w_u8 buf (v land 0xFF);
  w_u8 buf ((v lsr 8) land 0xFF)

let w_u32 buf v =
  w_u16 buf (v land 0xFFFF);
  w_u16 buf ((v lsr 16) land 0xFFFF)

let w_i32 buf v = w_u32 buf (v land 0xFFFFFFFF)

let w_f64 buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    w_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
  done

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let tag_sum = 1
let tag_product = 2
let tag_gaussian = 3
let tag_categorical = 4
let tag_histogram = 5

(** [to_string t] serializes a model. *)
let to_string (t : Model.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  w_u16 buf version;
  w_str buf t.Model.name;
  w_u32 buf t.Model.num_features;
  let nodes = Model.nodes_postorder t in
  let index_of = Hashtbl.create (List.length nodes) in
  List.iteri (fun i (n : Model.node) -> Hashtbl.replace index_of n.id i) nodes;
  w_u32 buf (List.length nodes);
  List.iter
    (fun (n : Model.node) ->
      match n.Model.desc with
      | Model.Sum cs ->
          w_u8 buf tag_sum;
          w_u32 buf (List.length cs);
          List.iter
            (fun (w, (c : Model.node)) ->
              w_f64 buf w;
              w_u32 buf (Hashtbl.find index_of c.id))
            cs
      | Model.Product cs ->
          w_u8 buf tag_product;
          w_u32 buf (List.length cs);
          List.iter
            (fun (c : Model.node) -> w_u32 buf (Hashtbl.find index_of c.id))
            cs
      | Model.Gaussian { var; mean; stddev } ->
          w_u8 buf tag_gaussian;
          w_u32 buf var;
          w_f64 buf mean;
          w_f64 buf stddev
      | Model.Categorical { var; probs } ->
          w_u8 buf tag_categorical;
          w_u32 buf var;
          w_u32 buf (Array.length probs);
          Array.iter (w_f64 buf) probs
      | Model.Histogram { var; breaks; densities } ->
          w_u8 buf tag_histogram;
          w_u32 buf var;
          w_u32 buf (Array.length densities);
          Array.iter (w_i32 buf) breaks;
          Array.iter (w_f64 buf) densities)
    nodes;
  w_u32 buf (Hashtbl.find index_of t.Model.root.id);
  let body = Buffer.contents buf in
  let crc = crc32 body in
  let out = Buffer.create (String.length body + 4) in
  Buffer.add_string out body;
  w_u32 out (Int32.to_int (Int32.logand crc 0xFFFFFFFFl) land 0xFFFFFFFF);
  Buffer.contents out

(* -- Reader --------------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

exception Malformed of string

let fail fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt

let r_u8 r =
  if r.pos >= String.length r.data then fail "truncated input (u8 at %d)" r.pos;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  let a = r_u8 r in
  let b = r_u8 r in
  a lor (b lsl 8)

let r_u32 r =
  let a = r_u16 r in
  let b = r_u16 r in
  a lor (b lsl 16)

let r_i32 r =
  let v = r_u32 r in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let r_f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let r_str r =
  let len = r_u32 r in
  if r.pos + len > String.length r.data then fail "truncated string";
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(** [of_string s] deserializes a model, validating structure and CRC. *)
let of_string (s : string) : (Model.t, string) result =
  try
    if String.length s < 10 then fail "input too short";
    (* checksum covers everything except the trailing 4 bytes *)
    let body = String.sub s 0 (String.length s - 4) in
    let r = { data = s; pos = String.length s - 4 } in
    let stored = r_u32 r in
    let computed = Int32.to_int (crc32 body) land 0xFFFFFFFF in
    if stored <> computed then fail "checksum mismatch";
    let r = { data = body; pos = 0 } in
    if String.sub body 0 4 <> magic then fail "bad magic";
    r.pos <- 4;
    let v = r_u16 r in
    if v <> version then fail "unsupported version %d" v;
    let name = r_str r in
    let num_features = r_u32 r in
    let count = r_u32 r in
    let nodes = Array.make count None in
    let node_at i =
      if i >= count then fail "child index %d out of range" i;
      match nodes.(i) with
      | Some n -> n
      | None -> fail "forward child reference to %d" i
    in
    for i = 0 to count - 1 do
      let tag = r_u8 r in
      let node =
        if tag = tag_sum then begin
          let n = r_u32 r in
          let cs =
            List.init n (fun _ ->
                let w = r_f64 r in
                let c = node_at (r_u32 r) in
                (w, c))
          in
          Model.mk (Model.Sum cs)
        end
        else if tag = tag_product then begin
          let n = r_u32 r in
          Model.mk (Model.Product (List.init n (fun _ -> node_at (r_u32 r))))
        end
        else if tag = tag_gaussian then begin
          let var = r_u32 r in
          let mean = r_f64 r in
          let stddev = r_f64 r in
          Model.mk (Model.Gaussian { var; mean; stddev })
        end
        else if tag = tag_categorical then begin
          let var = r_u32 r in
          let n = r_u32 r in
          Model.mk (Model.Categorical { var; probs = Array.init n (fun _ -> r_f64 r) })
        end
        else if tag = tag_histogram then begin
          let var = r_u32 r in
          let n = r_u32 r in
          let breaks = Array.init (n + 1) (fun _ -> r_i32 r) in
          let densities = Array.init n (fun _ -> r_f64 r) in
          Model.mk (Model.Histogram { var; breaks; densities })
        end
        else fail "unknown node tag %d" tag
      in
      nodes.(i) <- Some node
    done;
    let root = node_at (r_u32 r) in
    if r.pos <> String.length body then fail "trailing bytes after root index";
    Ok { Model.root; num_features; name }
  with Malformed msg -> Error msg

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> raise (Malformed e)

(** [write_file path t] / [read_file path] — file-level convenience. *)
let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let read_file path : (Model.t, string) result =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)

(** [read_model path] — a [.spn] binary model, or any other file as the
    text DSL. *)
let read_model path : Model.t =
  if Filename.check_suffix path ".spn" then
    match read_file path with
    | Ok m -> m
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  else
    let ic = open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Text.of_string content
