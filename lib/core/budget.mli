(** Experiment budgets: how many executions each campaign point gets and
    how finely parameter spaces are sampled.

    The paper's campaigns total roughly half a billion executions per GPU;
    {!paper} reproduces those parameters exactly, while {!default} scales
    the grids down so the whole tuning pipeline runs in seconds per chip.
    Scaling only widens confidence intervals; the procedures are
    identical. *)

type t = {
  runs_patch : int;  (** C for patch finding *)
  runs_seq : int;  (** C for sequence finding *)
  runs_spread : int;  (** C for spread finding *)
  max_location : int;  (** L: scratchpad locations considered *)
  location_stride : int;  (** sampling stride over [0, L) *)
  distances_patch : int list;  (** sampled d values for patch finding *)
  distances_seq : int list;
  distances_spread : int list;
  seq_max_len : int;  (** N: maximum access-sequence length *)
  max_spread : int;  (** M: maximum spread / scratchpad regions *)
  spread_step : int;  (** sampling stride over spreads 1..M *)
  noise_threshold : int;  (** ε for ε-patches, scaled with runs_patch *)
}

val default : t
val paper : t
val quick : t
(** Tiny budget for unit tests. *)

val scale_runs : t -> float -> t
(** Multiply all per-point execution counts (and the noise threshold)
    by a factor, for CLI [--runs-scale]. *)

val of_flags : full:bool -> runs_scale:float -> t
(** The budget of the CLI's [--full] and [--runs-scale F] flags:
    {!paper} or {!default}, with per-point counts scaled by [F] unless
    it is 1. *)

val to_json : t -> Json.t
(** Every field, for run-ledger headers: a resumed campaign refuses a
    ledger whose recorded budget differs from the invocation's. *)
