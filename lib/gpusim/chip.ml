type architecture = Fermi | Kepler | Maxwell

type traffic = {
  w_ld : float;
  w_st : float;
  run_ld : float array;
  run_st : float array;
  trans_bonus : float;
  flush_bonus : float;
  flush_cap : int;
  boundary_factor : float;
}

type weakness = {
  patch_size : int;
  n_partitions : int;
  base_delay : float;
  gain : float;
  max_delay : float;
  knee : float;
  decay_per_tick : float;
  queue_cap : int;
  st_delay_w : float;
  ld_delay_w : float;
  cross : float;
  same_patch_leak : float;
}

type cost_model = {
  cycles_alu : int;
  cycles_mem : int;
  cycles_atomic : int;
  cycles_fence_base : int;
  cycles_fence_per_entry : int;
  parallelism : int;
  energy_alu : float;
  energy_mem : float;
  energy_atomic : float;
  energy_fence : float;
  static_power : float;
  nvml_supported : bool;
}

type t = {
  name : string;
  full_name : string;
  architecture : architecture;
  released : int;
  warp_size : int;
  max_concurrent : int;
  l2_words : int;
  traffic : traffic;
  weakness : weakness;
  cost : cost_model;
}

let architecture_name = function
  | Fermi -> "Fermi"
  | Kepler -> "Kepler"
  | Maxwell -> "Maxwell"

let partition chip addr =
  let w = chip.weakness in
  addr / w.patch_size mod w.n_partitions

(* Shared structural defaults.  Individual chips override the parameters
   that distinguish them; the comments on each chip say which Table 2 /
   Fig. 3 phenomenon the overrides target. *)

let kepler_weakness =
  { patch_size = 32; n_partitions = 8; base_delay = 0.04; gain = 1.15;
    max_delay = 0.985; knee = 18.0; decay_per_tick = 0.985; queue_cap = 6;
    st_delay_w = 1.0; ld_delay_w = 1.0; cross = 0.3; same_patch_leak = 0.0 }

let fermi_weakness =
  { kepler_weakness with patch_size = 64; base_delay = 0.05; gain = 1.2 }

let maxwell_weakness =
  { kepler_weakness with patch_size = 64; base_delay = 0.035; gain = 1.1;
    same_patch_leak = 0.015 }

(* Kepler (Titan, K20): back-to-back stores build write-buffer (WAW)
   pressure, so the hump in [run_st] makes st-pairs attractive and the
   winning sequence the rotation class of "ld st2 ld" (Table 2). *)
let kepler_traffic =
  { w_ld = 1.0; w_st = 1.2;
    run_ld = [| 1.0; 0.6; 0.36; 0.2; 0.1 |];
    run_st = [| 1.0; 1.3; 0.2; 0.1; 0.05 |];
    trans_bonus = 0.2; flush_bonus = 0.9; flush_cap = 4;
    boundary_factor = 0.3 }

(* Fermi (C2075, C2050): transitions dominate, so strict ld/st alternation
   ("ld st") wins. *)
let fermi_traffic =
  { w_ld = 1.0; w_st = 1.0;
    run_ld = [| 1.0; 0.5; 0.25; 0.12; 0.05 |];
    run_st = [| 1.0; 0.5; 0.25; 0.12; 0.05 |];
    trans_bonus = 2.0; flush_bonus = 0.2; flush_cap = 4;
    boundary_factor = 0.5 }

(* Load-dominant profiles (980, K5200): sustained loads keep read-port
   pressure and a single store triggers a dirty-writeback burst, so the
   "ld4 st" rotation class wins; the flush cap picks the rotation. *)
let load_heavy_traffic ~flush_cap ~boundary_factor =
  { w_ld = 1.2; w_st = 0.5;
    run_ld = [| 1.0; 1.0; 1.0; 1.0; 0.12 |];
    run_st = [| 1.0; 0.3; 0.1; 0.1; 0.05 |];
    trans_bonus = 0.1; flush_bonus = 0.6; flush_cap; boundary_factor }

let modern_cost =
  { cycles_alu = 1; cycles_mem = 2; cycles_atomic = 8;
    cycles_fence_base = 12; cycles_fence_per_entry = 4; parallelism = 16;
    energy_alu = 0.5; energy_mem = 1.5; energy_atomic = 4.0;
    energy_fence = 6.0; static_power = 0.8; nvml_supported = false }

let kepler_cost =
  { modern_cost with cycles_atomic = 12; cycles_fence_base = 25;
    cycles_fence_per_entry = 6; energy_fence = 10.0; static_power = 1.0 }

let fermi_cost =
  { modern_cost with cycles_mem = 3; cycles_atomic = 20;
    cycles_fence_base = 60; cycles_fence_per_entry = 10; parallelism = 8;
    energy_mem = 2.5; energy_atomic = 8.0; energy_fence = 25.0;
    static_power = 1.6 }

let gtx980 =
  { name = "980"; full_name = "GTX 980"; architecture = Maxwell;
    released = 2014; warp_size = 4; max_concurrent = 64; l2_words = 2048;
    traffic = load_heavy_traffic ~flush_cap:4 ~boundary_factor:0.4;
    weakness = maxwell_weakness;
    cost = { modern_cost with nvml_supported = false } }

let k5200 =
  { name = "K5200"; full_name = "Quadro K5200"; architecture = Kepler;
    released = 2014; warp_size = 4; max_concurrent = 56; l2_words = 1536;
    traffic = load_heavy_traffic ~flush_cap:3 ~boundary_factor:0.1;
    weakness = kepler_weakness;
    cost = { kepler_cost with nvml_supported = true } }

let titan =
  { name = "Titan"; full_name = "GTX Titan"; architecture = Kepler;
    released = 2013; warp_size = 4; max_concurrent = 56; l2_words = 1536;
    traffic = kepler_traffic;
    weakness = { kepler_weakness with gain = 1.18 };
    cost = { kepler_cost with nvml_supported = true } }

let k20 =
  { name = "K20"; full_name = "Tesla K20"; architecture = Kepler;
    released = 2013; warp_size = 4; max_concurrent = 48; l2_words = 1280;
    traffic = kepler_traffic;
    weakness = kepler_weakness;
    cost = { kepler_cost with nvml_supported = true } }

let gtx770 =
  { name = "770"; full_name = "GTX 770"; architecture = Kepler;
    released = 2013; warp_size = 4; max_concurrent = 48; l2_words = 512;
    (* boundary_factor 1.0 favours the "st2 ld2" rotation (Table 2) and
       the chip's fence-placement quirk discussed in Sec. 5.2. *)
    traffic = { kepler_traffic with boundary_factor = 1.3 };
    weakness = { kepler_weakness with base_delay = 0.09 };
    cost = { kepler_cost with cycles_fence_base = 45;
             cycles_fence_per_entry = 9; energy_fence = 18.0;
             nvml_supported = false } }

let c2075 =
  { name = "C2075"; full_name = "Tesla C2075"; architecture = Fermi;
    released = 2011; warp_size = 4; max_concurrent = 40; l2_words = 512;
    traffic = fermi_traffic;
    weakness = fermi_weakness;
    cost = { fermi_cost with nvml_supported = true } }

let c2050 =
  { name = "C2050"; full_name = "Tesla C2050"; architecture = Fermi;
    released = 2010; warp_size = 4; max_concurrent = 40; l2_words = 512;
    traffic = { fermi_traffic with boundary_factor = 0.45 };
    weakness = { fermi_weakness with base_delay = 0.045 };
    cost = { fermi_cost with cycles_fence_base = 70;
             cycles_fence_per_entry = 11; nvml_supported = false } }

let all = [ gtx980; k5200; titan; k20; gtx770; c2075; c2050 ]

let sequential =
  { name = "SC"; full_name = "sequentially consistent reference";
    architecture = Maxwell; released = 0; warp_size = 4;
    max_concurrent = 64; l2_words = 2048;
    traffic = fermi_traffic;
    weakness =
      { patch_size = 32; n_partitions = 8; base_delay = 0.0; gain = 0.0;
        max_delay = 0.0; knee = 1.0; decay_per_tick = 0.9; queue_cap = 1;
        st_delay_w = 0.0; ld_delay_w = 0.0; cross = 0.0;
        same_patch_leak = 0.0 };
    cost = modern_cost }

let by_name name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun c -> String.lowercase_ascii c.name = target)
    (sequential :: all)
