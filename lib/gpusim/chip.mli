(** Simulated GPU chip profiles.

    One profile per GPU of Table 1 of the paper.  A profile fixes the
    memory-system behaviour of the simulator: partition geometry (which
    yields the chip's {e critical patch size}), the response of commit
    delays to contention, the contention generated by different access
    kinds and access-kind patterns (which yields the chip's most effective
    stressing sequence), quirks (the GTX 980's baseline MP leak), and the
    cost model used for the fence-cost benchmarks of Sec. 6.

    The parameters are calibrated so that each simulated chip reproduces
    the qualitative phenomena the paper reports for the physical chip; see
    DESIGN.md for the calibration rationale and EXPERIMENTS.md for the
    paper-vs-measured comparison. *)

type architecture = Fermi | Kepler | Maxwell

(** Contention response of a memory partition to stressing accesses. *)
type traffic = {
  w_ld : float;  (** base contention bump of a load *)
  w_st : float;  (** base contention bump of a store *)
  run_ld : float array;
      (** run-length factors for consecutive loads to one location;
          index [min run 5 - 1] *)
  run_st : float array;  (** likewise for stores (write-combining) *)
  trans_bonus : float;  (** bonus when the access kind changes *)
  flush_bonus : float;
      (** bonus for a store that follows a run of [k] loads, scaled by
          [min k flush_cap] (models dirty-writeback bursts) *)
  flush_cap : int;
  boundary_factor : float;
      (** scale applied to pattern-dependent terms across the stressing
          loop boundary; makes rotations of a sequence inequivalent, as
          observed in Sec. 3.3 *)
}

(** Weak-memory behaviour of the chip. *)
type weakness = {
  patch_size : int;  (** words per partition chunk: the critical patch size *)
  n_partitions : int;
  base_delay : float;  (** commit-deferral probability with no contention *)
  gain : float;  (** extra deferral probability at saturated contention *)
  max_delay : float;  (** hard cap, < 1, guaranteeing progress *)
  knee : float;  (** contention level giving half of [gain] *)
  decay_per_tick : float;  (** multiplicative contention decay *)
  queue_cap : int;  (** per-thread pending-operation capacity *)
  st_delay_w : float;  (** weight of contention-driven delay for stores *)
  ld_delay_w : float;  (** likewise for loads *)
  cross : float;
      (** fraction of read contention that also delays stores, and
          vice versa *)
  same_patch_leak : float;
      (** probability of ignoring same-partition FIFO order for one
          commit; non-zero only for the GTX 980 (Fig. 3c) *)
}

(** Cost model for runtime/energy benchmarking (Sec. 6). *)
type cost_model = {
  cycles_alu : int;
  cycles_mem : int;
  cycles_atomic : int;
  cycles_fence_base : int;  (** fixed pipeline cost of a fence *)
  cycles_fence_per_entry : int;  (** additional cost per drained entry *)
  parallelism : int;  (** notional cores: runtime = total cycles / this *)
  energy_alu : float;  (** energy units per operation *)
  energy_mem : float;
  energy_atomic : float;
  energy_fence : float;
  static_power : float;  (** energy units per runtime cycle *)
  nvml_supported : bool;  (** only K5200, Titan, K20, C2075 expose power *)
}

type t = {
  name : string;  (** short name used throughout the paper, e.g. "K20" *)
  full_name : string;
  architecture : architecture;
  released : int;
  warp_size : int;
  max_concurrent : int;  (** max threads resident at once (scaled down) *)
  l2_words : int;  (** scratchpad size used by the cache-str strategy *)
  traffic : traffic;
  weakness : weakness;
  cost : cost_model;
}

val architecture_name : architecture -> string

val partition : t -> int -> int
(** [partition chip addr] maps a global word address to its memory
    partition: [(addr / patch_size) mod n_partitions]. *)

val gtx980 : t
val k5200 : t
val titan : t
val k20 : t
val gtx770 : t
val c2075 : t
val c2050 : t

val all : t list
(** The seven chips in the order of Table 1. *)

val sequential : t
(** A fictional sequentially-consistent chip: no commit deferral, no
    reordering.  Used by tests as a strong-memory oracle and by
    applications to compute reference results. *)

val by_name : string -> t option
(** Case-insensitive lookup by short name: ("980", "K20", ...) or "SC"
    for {!sequential}. *)
