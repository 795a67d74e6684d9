(* The simulator event tracer: ring-buffer bounds, the zero-overhead
   contract (no recording unless enabled or subscribed), subscriber
   plumbing, whole-launch integration, and the headline property that a
   campaign's merged plan-ordered trace is bit-identical across
   execution backends. *)

let ev tid = Gpusim.Trace.Barrier_wait { tid; block = 0 }

let test_disabled_by_default () =
  let t = Gpusim.Trace.create () in
  Alcotest.(check bool) "not active" false (Gpusim.Trace.active t);
  Alcotest.(check bool) "not enabled" false (Gpusim.Trace.enabled t);
  Gpusim.Trace.emit t ~tick:1 (ev 0);
  Alcotest.(check int) "emit without a buffer records nothing" 0
    (List.length (Gpusim.Trace.records t));
  Alcotest.(check int) "emitted stays 0" 0 (Gpusim.Trace.emitted t)

let test_ring_bounds () =
  let t = Gpusim.Trace.create () in
  Gpusim.Trace.enable ~capacity:8 t;
  Alcotest.(check bool) "active once enabled" true (Gpusim.Trace.active t);
  for i = 0 to 19 do
    Gpusim.Trace.emit t ~tick:i (ev i)
  done;
  let records = Gpusim.Trace.records t in
  Alcotest.(check int) "bounded by capacity" 8 (List.length records);
  Alcotest.(check (list int)) "keeps the newest, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun r -> r.Gpusim.Trace.tick) records);
  Alcotest.(check int) "emitted counts everything" 20 (Gpusim.Trace.emitted t);
  Alcotest.(check int) "dropped = emitted - kept" 12 (Gpusim.Trace.dropped t);
  Gpusim.Trace.clear t;
  Alcotest.(check int) "clear empties" 0
    (List.length (Gpusim.Trace.records t));
  Alcotest.(check bool) "clear keeps the buffer active" true
    (Gpusim.Trace.active t);
  Gpusim.Trace.disable t;
  Alcotest.(check bool) "disable deactivates" false (Gpusim.Trace.active t)

let test_bad_capacity_rejected () =
  let t = Gpusim.Trace.create () in
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.enable: capacity must be positive") (fun () ->
      Gpusim.Trace.enable ~capacity:0 t)

let test_subscribers () =
  let t = Gpusim.Trace.create () in
  let seen_a = ref [] and seen_b = ref [] in
  let sub seen =
    Gpusim.Trace.subscribe t (fun ~tick _ -> seen := tick :: !seen)
  in
  let a = sub seen_a in
  Alcotest.(check bool) "subscriber alone activates the sink" true
    (Gpusim.Trace.active t);
  Gpusim.Trace.emit t ~tick:1 (ev 0);
  let b = sub seen_b in
  Gpusim.Trace.emit t ~tick:2 (ev 0);
  Gpusim.Trace.unsubscribe t a;
  Gpusim.Trace.emit t ~tick:3 (ev 0);
  Alcotest.(check (list int)) "a saw ticks while subscribed" [ 2; 1 ] !seen_a;
  Alcotest.(check (list int)) "b saw ticks while subscribed" [ 3; 2 ] !seen_b;
  Alcotest.(check int) "no ring buffer: nothing retained" 0
    (List.length (Gpusim.Trace.records t));
  Gpusim.Trace.unsubscribe t b;
  Alcotest.(check bool) "last unsubscribe deactivates" false
    (Gpusim.Trace.active t)

(* ------------------------------------------------------------------ *)
(* Whole-launch integration                                             *)

let traced_run ?(chip = Gpusim.Chip.k20) ?(env = true) ~seed () =
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  let sim = Gpusim.Sim.create ~chip ~seed () in
  if env then Gpusim.Sim.set_environment sim (Test_util.sys_plus_env chip);
  (* Generous capacity so the whole run is retained: the event/metric
     agreement checks below assume a lossless trace. *)
  Gpusim.Trace.enable ~capacity:(1 lsl 20) (Gpusim.Sim.trace sim);
  ignore (app.Apps.App.run sim Apps.App.Original);
  Alcotest.(check int) "nothing dropped" 0
    (Gpusim.Trace.dropped (Gpusim.Sim.trace sim));
  Gpusim.Trace.records (Gpusim.Sim.trace sim)

let test_launch_events () =
  let records = traced_run ~seed:11 () in
  Alcotest.(check bool) "events were recorded" true (records <> []);
  (match records with
  | { Gpusim.Trace.event = Gpusim.Trace.Launch_begin { kernel; _ }; _ } :: _
    ->
    Alcotest.(check bool) "launch_begin names a kernel" true (kernel <> "")
  | _ -> Alcotest.fail "first event must be launch_begin");
  (match List.rev records with
  | { Gpusim.Trace.event = Gpusim.Trace.Launch_end { outcome; metrics; _ };
      _ }
    :: _ ->
    Alcotest.(check string) "last launch ends cleanly" "finished" outcome;
    Alcotest.(check bool) "launch_end carries metrics" true
      (List.mem_assoc "ticks" metrics)
  | _ -> Alcotest.fail "last event must be launch_end");
  let names =
    List.map (fun r -> Gpusim.Trace.event_name r.Gpusim.Trace.event) records
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "issue"; "commit"; "atomic_rmw"; "thread_done"; "contention" ];
  (* Device ticks never run backwards, so the emission-ordered ring is
     tick-sorted. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Gpusim.Trace.tick <= b.Gpusim.Trace.tick && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "ticks are non-decreasing" true (monotone records)

let test_reorder_events_on_weak_chip () =
  (* Under system stress on a weak chip, cbe-dot exhibits reorders.  The
     trace and the exported metrics must agree: each device reorder
     (plain commit overtaking, or an atomic bypassing pending stores)
     emits exactly one Reorder event, and the per-launch [reorder]
     metric counts the same population. *)
  let rec has_reorder seed tries =
    if tries = 0 then []
    else
      let records = traced_run ~seed () in
      if
        List.exists
          (fun r ->
            match r.Gpusim.Trace.event with
            | Gpusim.Trace.Reorder _ -> true
            | _ -> false)
          records
      then records
      else has_reorder (seed + 1) (tries - 1)
  in
  let records = has_reorder 1 30 in
  Alcotest.(check bool) "found a run with reorders" true (records <> []);
  let reorders, flagged_commits, metric_reorders =
    List.fold_left
      (fun (r, c, m) rec_ ->
        match rec_.Gpusim.Trace.event with
        | Gpusim.Trace.Reorder _ -> (r + 1, c, m)
        | Gpusim.Trace.Commit { reordered = true; _ } -> (r, c + 1, m)
        | Gpusim.Trace.Launch_end { metrics; _ } ->
          (r, c, m + List.assoc "reorder" metrics)
        | _ -> (r, c, m))
      (0, 0, 0) records
  in
  Alcotest.(check int) "metrics count the traced reorders" reorders
    metric_reorders;
  Alcotest.(check bool) "flagged commits are a subset of reorders" true
    (flagged_commits <= reorders)

let test_sequential_chip_never_reorders () =
  let records = traced_run ~chip:Gpusim.Chip.sequential ~env:false ~seed:3 () in
  Alcotest.(check int) "SC reference emits no reorder events" 0
    (List.length
       (List.filter
          (fun r ->
            match r.Gpusim.Trace.event with
            | Gpusim.Trace.Reorder _ -> true
            | Gpusim.Trace.Commit { reordered = true; _ } -> true
            | _ -> false)
          records))

(* ------------------------------------------------------------------ *)
(* Tracing leaves the execution as it was                               *)

(* One stressed application run with the trace ring on or off: the
   device's stress accesses and reorders, the app's outcome and the final
   global memory. *)
let stressed_run ~env ~app ~seed ~traced =
  let chip = Gpusim.Chip.k20 in
  let sim = Gpusim.Sim.create ~chip ~seed () in
  Gpusim.Sim.set_environment sim (Core.Environment.for_app env);
  if traced then Gpusim.Trace.enable (Gpusim.Sim.trace sim);
  let outcome = app.Apps.App.run sim Apps.App.Original in
  let mem = Gpusim.Sim.mem sim in
  ( Gpusim.Memsys.stress_accesses mem,
    Gpusim.Sim.reorders sim,
    outcome,
    Gpusim.Sim.read_array sim ~base:0 ~len:(Gpusim.Memsys.words mem) )

(* The launch loop samples contention for the trace every 64 ticks.  A
   sample that wrote the decayed pools back would put later decays on a
   different floating-point path; rand-str- / ls-bh-nf at seed 27 is a
   run where that used to change the execution. *)
let test_tracing_does_not_perturb () =
  let envs =
    Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip:Gpusim.Chip.k20)
  in
  let env label =
    List.find (fun e -> e.Core.Environment.label = label) envs
  in
  List.iter
    (fun (label, app_name, seeds) ->
      let app = Option.get (Apps.Registry.by_name app_name) in
      List.iter
        (fun seed ->
          let what = Printf.sprintf "%s %s seed %d: " label app_name seed in
          let s0, r0, o0, m0 =
            stressed_run ~env:(env label) ~app ~seed ~traced:false
          in
          let s1, r1, o1, m1 =
            stressed_run ~env:(env label) ~app ~seed ~traced:true
          in
          Alcotest.(check int) (what ^ "stress accesses") s0 s1;
          Alcotest.(check int) (what ^ "reorders") r0 r1;
          Alcotest.(check (result unit string)) (what ^ "outcome") o0 o1;
          Alcotest.(check bool) (what ^ "final memory") true (m0 = m1))
        seeds)
    [ ("rand-str-", "ls-bh-nf", [ 26; 27; 28 ]);
      ("sys-str+", "cbe-dot", [ 1; 2; 3 ]) ]

(* ------------------------------------------------------------------ *)
(* Cross-backend trace determinism                                      *)

(* A traced campaign: each job runs one application execution with the
   ring enabled and returns its records; the campaign's trace is the
   plan-ordered concatenation.  Same seed must give the identical merged
   trace whatever the backend, because every event carries only
   deterministic data (device ticks, thread ids, modelled contention) —
   never wall-clock or worker identity. *)
let traced_campaign ~backend ~seed =
  let chip = Gpusim.Chip.k20 in
  let env = Test_util.sys_plus_env chip in
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  Core.Exec.run ~backend ~seed
    ~f:(fun ~seed () ->
      let sim = Gpusim.Sim.create ~chip ~seed () in
      Gpusim.Sim.set_environment sim env;
      Gpusim.Trace.enable (Gpusim.Sim.trace sim);
      ignore (app.Apps.App.run sim Apps.App.Original);
      Gpusim.Trace.records (Gpusim.Sim.trace sim))
    (List.init 6 (fun _ -> ()))
  |> List.concat

let prop_trace_backend_determinism =
  QCheck.Test.make
    ~name:"merged plan-ordered trace: serial = parallel (jobs in {1,2,4})"
    ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let reference = traced_campaign ~backend:Core.Exec.Serial ~seed in
      reference <> []
      && List.for_all
           (fun jobs ->
             traced_campaign ~backend:(Core.Exec.backend_of_jobs jobs) ~seed
             = reference)
           [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Metrics structured export                                            *)

let test_metrics_to_assoc_round_trip () =
  let records = traced_run ~seed:17 () in
  let m = Gpusim.Metrics.create () in
  (* Accumulate every launch's exported metrics back into a Metrics.t;
     add/reset and to_assoc must agree with each other. *)
  let launches = ref 0 in
  List.iter
    (fun r ->
      match r.Gpusim.Trace.event with
      | Gpusim.Trace.Launch_end { metrics; _ } ->
        incr launches;
        let x = Gpusim.Metrics.create () in
        x.Gpusim.Metrics.ticks <- List.assoc "ticks" metrics;
        x.Gpusim.Metrics.n_load <- List.assoc "ld" metrics;
        x.Gpusim.Metrics.n_store <- List.assoc "st" metrics;
        x.Gpusim.Metrics.n_reorder <- List.assoc "reorder" metrics;
        Gpusim.Metrics.add m x
      | _ -> ())
    records;
  Alcotest.(check bool) "saw at least one launch_end" true (!launches > 0);
  let assoc = Gpusim.Metrics.to_assoc m in
  Alcotest.(check (list string)) "stable keys in stable order"
    [ "ticks"; "alu"; "ld"; "st"; "atomic"; "fence"; "drained"; "stall";
      "reorder"; "app_cycles"; "bitflip" ]
    (List.map fst assoc);
  Alcotest.(check bool) "accumulated ticks" true
    (List.assoc "ticks" assoc > 0);
  Alcotest.(check string) "pp renders to_assoc as k=v pairs"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) assoc))
    (Fmt.str "%a" Gpusim.Metrics.pp m);
  Gpusim.Metrics.reset m;
  Alcotest.(check bool) "reset zeroes every exported counter" true
    (List.for_all (fun (_, v) -> v = 0) (Gpusim.Metrics.to_assoc m))

let () =
  Alcotest.run "trace"
    [ ( "ring buffer",
        [ Alcotest.test_case "disabled by default" `Quick
            test_disabled_by_default;
          Alcotest.test_case "bounded ring" `Quick test_ring_bounds;
          Alcotest.test_case "bad capacity" `Quick test_bad_capacity_rejected;
          Alcotest.test_case "subscribers" `Quick test_subscribers ] );
      ( "launch integration",
        [ Alcotest.test_case "launch events" `Quick test_launch_events;
          Alcotest.test_case "reorders traced" `Quick
            test_reorder_events_on_weak_chip;
          Alcotest.test_case "SC never reorders" `Quick
            test_sequential_chip_never_reorders;
          Alcotest.test_case "tracing does not perturb" `Quick
            test_tracing_does_not_perturb ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_trace_backend_determinism ] );
      ( "metrics export",
        [ Alcotest.test_case "to_assoc round-trip" `Quick
            test_metrics_to_assoc_round_trip ] ) ]
