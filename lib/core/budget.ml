type t = {
  runs_patch : int;
  runs_seq : int;
  runs_spread : int;
  max_location : int;
  location_stride : int;
  distances_patch : int list;
  distances_seq : int list;
  distances_spread : int list;
  seq_max_len : int;
  max_spread : int;
  spread_step : int;
  noise_threshold : int;
}

let range lo hi step =
  let rec go d acc = if d > hi then List.rev acc else go (d + step) (d :: acc) in
  go lo []

(* The paper's ε = 3 corresponds to C = 1000; budgets scale it with
   their own C so a patch needs the same weak-behaviour *rate*. *)
let eps_for runs = Int.max 1 (3 * runs / 1000 + 1)

let default =
  let runs_patch = 60 in
  { runs_patch; runs_seq = 25; runs_spread = 40;
    max_location = 256; location_stride = 8;
    distances_patch = range 0 192 16;
    distances_seq = [ 32; 64; 96; 160 ];
    distances_spread = [ 32; 64; 96; 160 ];
    seq_max_len = 5; max_spread = 16; spread_step = 1;
    noise_threshold = eps_for runs_patch }

let paper =
  { runs_patch = 1000; runs_seq = 1000; runs_spread = 1000;
    max_location = 256; location_stride = 1;
    distances_patch = range 0 255 1;
    distances_seq = range 0 255 1;
    distances_spread = range 0 255 1;
    seq_max_len = 5; max_spread = 64; spread_step = 1;
    noise_threshold = 3 }

let quick =
  { runs_patch = 10; runs_seq = 6; runs_spread = 8;
    max_location = 128; location_stride = 16;
    distances_patch = [ 0; 64 ]; distances_seq = [ 64 ];
    distances_spread = [ 64 ];
    seq_max_len = 2; max_spread = 8; spread_step = 2;
    noise_threshold = 1 }

let scale_runs t f =
  let s n = Int.max 1 (int_of_float (float_of_int n *. f)) in
  { t with runs_patch = s t.runs_patch; runs_seq = s t.runs_seq;
    runs_spread = s t.runs_spread;
    noise_threshold = eps_for (s t.runs_patch) }

let of_flags ~full ~runs_scale =
  let b = if full then paper else default in
  if runs_scale = 1.0 then b else scale_runs b runs_scale

let to_json t =
  let ints ns = Json.List (List.map (fun n -> Json.Int n) ns) in
  Json.Assoc
    [ ("runs_patch", Json.Int t.runs_patch);
      ("runs_seq", Json.Int t.runs_seq);
      ("runs_spread", Json.Int t.runs_spread);
      ("max_location", Json.Int t.max_location);
      ("location_stride", Json.Int t.location_stride);
      ("distances_patch", ints t.distances_patch);
      ("distances_seq", ints t.distances_seq);
      ("distances_spread", ints t.distances_spread);
      ("seq_max_len", Json.Int t.seq_max_len);
      ("max_spread", Json.Int t.max_spread);
      ("spread_step", Json.Int t.spread_step);
      ("noise_threshold", Json.Int t.noise_threshold) ]

