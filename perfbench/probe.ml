(* The in-process half of the gpuwmm benchmark.  [run.py] starts this
   program and reads one JSON object per line from its standard output:

     probe setup     --workload table5|tune
     probe run       --workload table5|tune --seed S --seconds T --trace 0|1
     probe reference --workload table5|tune --seed S
     probe ledgers   FILE...

   [setup] warms a fresh process up and exits; [run] warms up, prints a
   "ready" line, measures for T seconds and prints its samples, counts
   and digests; [reference] prints the output digest of one campaign;
   [ledgers] reloads run ledgers through [Runlog.load] and times the
   read path.

   Every layer is measured from outside the library: timers around calls
   into its public functions, the program's own observation points
   ([Telemetry] counters and spans, [Trace] subscriptions) and the OCaml
   runtime ([Gc.quick_stat], [Runtime_events]).  Nothing here changes
   what the library computes: the traced replicas re-run the same cells
   with the same seeds and must reproduce the untraced results. *)

module Json = Core.Json

let now = Unix.gettimeofday
let chip = Gpusim.Chip.k20

let emit fields =
  print_endline (Json.to_string (Json.Assoc fields));
  flush stdout

let digest_json j = Digest.to_hex (Digest.string (Json.to_string j))

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* GC: allocation from [Gc.quick_stat], pause time from the runtime's
   own event ring.  A pause is time a domain spends inside a collection
   phase; nested phases count once.                                     *)

type gc_counts = { words : float; minors : int; majors : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words; minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections }

let gc_diff a b =
  { words = b.words -. a.words; minors = b.minors - a.minors;
    majors = b.majors - a.majors }

module Gc_pause = struct
  let cursor = ref None
  let depth : (int, int * int64) Hashtbl.t = Hashtbl.create 8
  let pause_ns = ref 0L
  let lost = ref 0

  let counted (phase : Runtime_events.runtime_phase) =
    match phase with
    | EV_MINOR | EV_MAJOR_SLICE | EV_STW_LEADER
    | EV_STW_HANDLER | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR
    | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE
    | EV_EXPLICIT_GC_COMPACT ->
      true
    | _ -> false

  let ns ts = Runtime_events.Timestamp.to_int64 ts

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if counted phase then
          match Hashtbl.find_opt depth ring with
          | Some (d, t0) when d > 0 -> Hashtbl.replace depth ring (d + 1, t0)
          | _ -> Hashtbl.replace depth ring (1, ns ts))
      ~runtime_end:(fun ring ts phase ->
        if counted phase then
          match Hashtbl.find_opt depth ring with
          | Some (1, t0) ->
            pause_ns := Int64.add !pause_ns (Int64.sub (ns ts) t0);
            Hashtbl.replace depth ring (0, 0L)
          | Some (d, t0) when d > 1 -> Hashtbl.replace depth ring (d - 1, t0)
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (* Seconds of pause recorded so far (drains the ring first). *)
  let total_s () =
    (match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ());
    Int64.to_float !pause_ns /. 1e9
end

(* ------------------------------------------------------------------ *)
(* Exec: per-job spans recorded by the engine itself.                   *)

type exec_view = { jobs : int; run_s : float; wait_s : float }

let exec_view spans =
  List.fold_left
    (fun v (s : Core.Telemetry.span) ->
      { jobs = v.jobs + 1;
        run_s = v.run_s +. (s.ended_at -. s.started_at);
        wait_s = v.wait_s +. (s.started_at -. s.queued_at) })
    { jobs = 0; run_s = 0.0; wait_s = 0.0 }
    spans

let with_spans f =
  Core.Telemetry.set_spans true;
  let r = f () in
  let spans = Core.Telemetry.spans () in
  Core.Telemetry.set_spans false;
  (r, spans)

(* Wall time of the [Exec.run] calls labelled [label]: their first job
   queued until their last job ended; 0 when there is none. *)
let extent spans label =
  match
    List.filter (fun (s : Core.Telemetry.span) -> s.label = label) spans
  with
  | [] -> 0.0
  | l ->
    List.fold_left (fun m (s : Core.Telemetry.span) -> max m s.ended_at)
      neg_infinity l
    -. List.fold_left (fun m (s : Core.Telemetry.span) -> min m s.queued_at)
         infinity l

let exec_jobs_counter = Core.Telemetry.counter "exec.jobs"

(* ------------------------------------------------------------------ *)
(* Simulator statistics gathered around [Sim.with_sim]: device counters
   after every run, and — when traced — one [Trace] subscription per run
   timing each launch between [Launch_begin] and [Launch_end].          *)

type sim_stats = {
  mutable runs : int;
  mutable errors : int;
  mutable reset_s : float;  (* with_sim entry until the device is ready *)
  mutable run_s : float;  (* the run itself: host code plus launches *)
  mutable launches : int;
  mutable launch_s : float;
  mutable ticks : int;
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable fences : int;
  mutable drained : int;
  mutable reorders : int;
  mutable stress : int;
}

let sim_stats () =
  { runs = 0; errors = 0; reset_s = 0.0; run_s = 0.0; launches = 0;
    launch_s = 0.0; ticks = 0; loads = 0; stores = 0; atomics = 0;
    fences = 0; drained = 0; reorders = 0; stress = 0 }

let launch_observer st =
  let begun = ref 0.0 in
  fun ~tick:_ ev ->
    match ev with
    | Gpusim.Trace.Launch_begin _ -> begun := now ()
    | Gpusim.Trace.Launch_end { metrics; _ } ->
      st.launch_s <- st.launch_s +. (now () -. !begun);
      st.launches <- st.launches + 1;
      let get k = Option.value ~default:0 (List.assoc_opt k metrics) in
      st.ticks <- st.ticks + get "ticks";
      st.loads <- st.loads + get "ld";
      st.stores <- st.stores + get "st";
      st.atomics <- st.atomics + get "atomic";
      st.fences <- st.fences + get "fence";
      st.drained <- st.drained + get "drained"
    | _ -> ()

(* Borrow the recycled device the way the library's campaigns do, and
   account the borrow, the run and the device counters to [st]. *)
let observed_run st ~traced ?words ~seed run =
  let t0 = now () in
  Gpusim.Sim.with_sim ?words ~chip ~seed (fun sim ->
      let t1 = now () in
      if traced then
        ignore
          (Gpusim.Trace.subscribe (Gpusim.Sim.trace sim) (launch_observer st));
      let r = run sim in
      st.reset_s <- st.reset_s +. (t1 -. t0);
      st.run_s <- st.run_s +. (now () -. t1);
      st.runs <- st.runs + 1;
      st.reorders <- st.reorders + Gpusim.Sim.reorders sim;
      st.stress <- st.stress + Gpusim.Memsys.stress_accesses (Gpusim.Sim.mem sim);
      r)

let sim_json st =
  [ ("runs", Json.Int st.runs); ("errors", Json.Int st.errors);
    ("launches", Json.Int st.launches); ("launch_s", Json.Float st.launch_s);
    ("ticks", Json.Int st.ticks); ("loads", Json.Int st.loads);
    ("stores", Json.Int st.stores); ("atomics", Json.Int st.atomics);
    ("fences", Json.Int st.fences); ("fence_drained", Json.Int st.drained);
    ("reorders", Json.Int st.reorders);
    ("stress_accesses", Json.Int st.stress) ]

(* The simulated counts, which must repeat exactly for one seed. *)
let sim_counts st =
  Json.to_string
    (Json.List
       (List.map (fun n -> Json.Int n)
          [ st.runs; st.errors; st.launches; st.ticks; st.loads; st.stores;
            st.atomics; st.fences; st.drained; st.reorders; st.stress ]))

(* ------------------------------------------------------------------ *)
(* Measurement loop: repeat [unit] until [seconds] are spent, never
   starting a unit the time left cannot fit, but at least [min_units].  *)

(* The counts every run of a pass produces, traced or not. *)
let device_counts st =
  Json.to_string
    (Json.List
       (List.map (fun n -> Json.Int n)
          [ st.runs; st.errors; st.reorders; st.stress ]))

let measure ~seconds ~min_units unit =
  let t_start = now () in
  let rec go acc n =
    let estimate = median (List.map fst acc) in
    if n >= min_units && now () -. t_start +. estimate > seconds then
      List.rev acc
    else
      let t0 = now () in
      let r = unit () in
      go ((now () -. t0, r) :: acc) (n + 1)
  in
  go [] 0

let distinct l = List.length (List.sort_uniq compare l)

(* ------------------------------------------------------------------ *)
(* table5: the Sec. 4 campaign, one chip x 8 environments x 10 apps.     *)

let table5_runs = 30
let apps = Apps.Registry.all
let table5_envs () = Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip)

let table5_campaign ~runs ~seed =
  Core.Campaign.run ~backend:Core.Exec.Serial ~chips:[ chip ]
    ~environments_for:(fun _ -> table5_envs ())
    ~apps ~runs ~seed ()

(* One run per cell of the grid, at a fixed seed so that set-up costs the
   same whatever the workload seed: it fills the [with_sim] arena, the
   memoised stress kernels and the compiled-code cache. *)
let table5_warm_up () = ignore (table5_campaign ~runs:1 ~seed:0)

let rows_digest rows = digest_json (Core.Campaign.rows_to_json rows)

let cell_errors rows =
  List.concat_map
    (fun (r : Core.Campaign.row) ->
      List.map (fun (c : Core.Campaign.cell) -> c.errors) r.cells)
    rows

(* [Campaign.run]'s plan, re-run cell by cell through the same [Exec]
   engine with the same seeds, observing every run. *)
let table5_replica ~traced ~runs ~seed =
  let st = sim_stats () in
  let grid =
    List.concat_map
      (fun env -> List.map (fun app -> (env, app)) apps)
      (table5_envs ())
  in
  let errors =
    Core.Exec.run ~backend:Core.Exec.Serial ~label:"campaign"
      ~execs_per_job:runs ~seed
      ~f:(fun ~seed (env, (app : Apps.App.t)) ->
        let sim_env = Core.Environment.for_app env in
        let errors = ref 0 in
        for i = 0 to runs - 1 do
          observed_run st ~traced ~seed:(Gpusim.Rng.subseed seed i)
            (fun sim ->
              Gpusim.Sim.set_environment sim sim_env;
              match app.run sim Apps.App.Original with
              | Ok () -> ()
              | Error _ -> incr errors)
        done;
        st.errors <- st.errors + !errors;
        !errors)
      grid
  in
  (st, errors)

let table5_run ~seed ~seconds ~traced =
  let runs = table5_runs in
  if traced then Gc_pause.start ();
  table5_warm_up ();
  emit [ ("ready", Json.Bool true) ];
  let untraced () =
    let g0 = gc_counts () and p0 = Gc_pause.total_s () in
    let t0 = now () in
    let rows = table5_campaign ~runs ~seed in
    let dt = now () -. t0 in
    (dt, rows, gc_diff g0 (gc_counts ()), Gc_pause.total_s () -. p0)
  in
  let traced_pass () =
    let t0 = now () in
    let (st, errors), spans =
      with_spans (fun () -> table5_replica ~traced:true ~runs ~seed)
    in
    (st, errors, exec_view spans, now () -. t0)
  in
  let pairs =
    measure ~seconds ~min_units:2 (fun () ->
        let a = untraced () in
        let b = if traced then Some (traced_pass ()) else None in
        (a, b))
  in
  let results = List.map (fun (_, (a, _)) -> a) pairs in
  let _, rows0, _, _ = List.hd results in
  let digests = List.map (fun (_, rows, _, _) -> rows_digest rows) results in
  let errors = List.map (fun (_, rows, _, _) -> cell_errors rows) results in
  (* Simulated statistics of one more pass, observed run by run; the
     per-cell error counts must equal the campaign's. *)
  let replica_st, replica_errors =
    if traced then
      match List.hd pairs with
      | _, (_, Some (st, e, _, _)) -> (st, e)
      | _ -> assert false
    else table5_replica ~traced:false ~runs ~seed
  in
  let traced_fields =
    if not traced then []
    else
      let bs = List.filter_map (fun (_, (_, b)) -> b) pairs in
      let counts = List.map (fun (st, _, _, _) -> sim_counts st) bs in
      let cells = List.map (fun (_, e, _, _) -> e) bs in
      let b_s = List.map (fun (_, _, _, t) -> t) bs in
      let med f = median (List.map f bs) in
      [ ( "traced",
          Json.Assoc
            ([ ("pass_s", floats b_s);
               ("counts_distinct", Json.Int (distinct counts));
               ("cells_match",
                 Json.Bool (List.for_all (fun e -> e = List.hd errors) cells));
               ("launch_s", Json.Float (med (fun (st, _, _, _) -> st.launch_s)));
               ("run_s", Json.Float (med (fun (st, _, _, _) -> st.run_s)));
               ("reset_s", Json.Float (med (fun (st, _, _, _) -> st.reset_s)));
               ("exec_jobs", Json.Int (let _, _, ex, _ = List.hd bs in ex.jobs));
               ("exec_run_s", Json.Float (med (fun (_, _, ex, _) -> ex.run_s)));
               ("exec_wait_s",
                 Json.Float (med (fun (_, _, ex, _) ->
                     ex.wait_s /. float_of_int (max 1 ex.jobs)))) ]) );
        ("gc_pause_s", floats (List.map (fun (_, _, _, p) -> p) results));
        ("gc_lost_events", Json.Int !Gc_pause.lost) ]
  in
  emit
    ([ ("workload", Json.String "table5"); ("seed", Json.Int seed);
       ("pass_s", floats (List.map (fun (dt, _, _, _) -> dt) results));
       ("app_runs_per_pass",
         Json.Int (runs * List.length (cell_errors rows0)));
       ("digests", Json.List (List.map (fun d -> Json.String d) digests));
       ("errors_distinct", Json.Int (distinct errors));
       ("replica_match", Json.Bool (replica_errors = List.hd errors));
       ("sim", Json.Assoc (sim_json replica_st));
       ("sim_counts", Json.String (device_counts replica_st));
       ("gc_minor_words",
         floats (List.map (fun (_, _, g, _) -> g.words) results));
       ("gc_minor_collections",
         floats (List.map (fun (_, _, g, _) -> float_of_int g.minors) results));
       ("gc_major_collections",
         floats (List.map (fun (_, _, g, _) -> float_of_int g.majors) results));
       ("peak_rss_mb", Json.Float (peak_rss_mb ())) ]
    @ traced_fields)

(* ------------------------------------------------------------------ *)
(* tune: the Sec. 3 sweep on two domains.                               *)

let tune_backend = Core.Exec.Parallel 2
let tune_budget = Core.Budget.default

(* The full sweep's grid at a twentieth of its executions, at a fixed
   seed: the same stress kernels, compiled code and domain pool as a
   measured sweep. *)
let tune_warm_up () =
  ignore
    (Core.Tuning.run ~backend:tune_backend ~chip ~seed:0
       ~budget:(Core.Budget.scale_runs tune_budget 0.05) ())

let tune_digest (r : Core.Tuning.result) =
  digest_json (Core.Tuning.result_to_json { r with elapsed_s = 0.0 })

(* Litmus executions in one sweep: every Exec job runs its stage's
   [runs_*] executions.  Patch and spread job counts follow from the
   result; the sequence stage has the rest of the engine's jobs. *)
let tune_execs (r : Core.Tuning.result) ~jobs =
  let b = tune_budget in
  let patch = List.length r.patch.cells in
  let spread =
    List.length r.spreads.points
    * List.length Litmus.Test.idioms
    * List.length b.distances_spread
  in
  let seq = jobs - patch - spread in
  (patch * b.runs_patch) + (seq * b.runs_seq) + (spread * b.runs_spread)

(* A stage of [Tuning.run], as its finder labels its [Exec] runs. *)
let stage_label stage = Printf.sprintf "%s on %s" stage chip.Gpusim.Chip.name

let litmus_sample = 1000

(* A fixed sample of litmus executions under the tuned sys-str
   environment: [Runner.run_once] timed as called, then the same runs
   re-executed with a launch observer for the simulator's shape. *)
let litmus_probe ~seed (tuned : Core.Stress.tuned) =
  let env =
    Core.Environment.for_litmus
      (Core.Environment.make (Core.Stress.Sys tuned) ~randomise:false)
  in
  let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 64 } in
  let seeds =
    let g = Gpusim.Rng.create seed in
    List.init litmus_sample (fun _ -> Gpusim.Rng.bits30 g)
  in
  let t0 = now () in
  let outcomes =
    List.map (fun seed -> Litmus.Runner.run_once ~chip ~seed ~env inst) seeds
  in
  let run_once_s = (now () -. t0) /. float_of_int litmus_sample in
  let st = sim_stats () in
  let replayed =
    List.map
      (fun seed ->
        observed_run st ~traced:true ~words:2048 ~seed (fun sim ->
            Gpusim.Sim.set_environment sim env;
            let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
            let out = Gpusim.Sim.alloc sim 2 in
            Gpusim.Sim.write sim out (-1);
            Gpusim.Sim.write sim (out + 1) (-1);
            ignore
              (Gpusim.Sim.launch sim ~max_ticks:50_000 ~shared_words:1 ~grid:2
                 ~block:1 (Litmus.Test.kernel inst)
                 ~args:[ ("x", x); ("out", out) ]);
            (Gpusim.Sim.read sim out, Gpusim.Sim.read sim (out + 1))))
      seeds
  in
  let matches =
    List.for_all2
      (fun (o : Litmus.Runner.outcome) (r1, r2) -> o.r1 = r1 && o.r2 = r2)
      outcomes replayed
  in
  (run_once_s, st, matches)

let tune_run ~seed ~seconds ~traced =
  if traced then Gc_pause.start ();
  tune_warm_up ();
  emit [ ("ready", Json.Bool true) ];
  let untraced () =
    let g0 = gc_counts () and p0 = Gc_pause.total_s () in
    let j0 = Core.Telemetry.counter_value exec_jobs_counter in
    let t0 = now () in
    let r =
      Core.Tuning.run ~backend:tune_backend ~chip ~seed ~budget:tune_budget ()
    in
    let dt = now () -. t0 in
    let jobs = Core.Telemetry.counter_value exec_jobs_counter - j0 in
    (r, dt, jobs, gc_diff g0 (gc_counts ()), Gc_pause.total_s () -. p0)
  in
  let traced_pass () =
    let t0 = now () in
    let r, spans =
      with_spans (fun () ->
          Core.Tuning.run ~backend:tune_backend ~chip ~seed
            ~budget:tune_budget ())
    in
    let stage name = extent spans (stage_label name) in
    ( r,
      (stage "patch-finding", stage "sequence finding", stage "spread finding"),
      exec_view spans,
      now () -. t0 )
  in
  let pairs =
    measure ~seconds ~min_units:(if traced then 1 else 2) (fun () ->
        let a = untraced () in
        let b = if traced then Some (traced_pass ()) else None in
        (a, b))
  in
  let results = List.map (fun (_, (a, _)) -> a) pairs in
  let r0, _, jobs0, _, _ = List.hd results in
  let digests = List.map (fun (r, _, _, _, _) -> tune_digest r) results in
  let traced_fields =
    if not traced then []
    else
      let bs = List.filter_map (fun (_, (_, b)) -> b) pairs in
      let med f = median (List.map f bs) in
      let run_once_s, st, matches = litmus_probe ~seed r0.tuned in
      [ ( "traced",
          Json.Assoc
            [ ("pass_s", floats (List.map (fun (_, _, _, t) -> t) bs));
              ( "digests_match",
                Json.Bool
                  (List.for_all
                     (fun (r, _, _, _) -> tune_digest r = List.hd digests)
                     bs) );
              ("patch_s", Json.Float (med (fun (_, (p, _, _), _, _) -> p)));
              ("seq_s", Json.Float (med (fun (_, (_, s, _), _, _) -> s)));
              ("spread_s", Json.Float (med (fun (_, (_, _, s), _, _) -> s)));
              ("exec_jobs", Json.Int (let _, _, ex, _ = List.hd bs in ex.jobs));
              ("exec_run_s", Json.Float (med (fun (_, _, ex, _) -> ex.run_s)));
              ("exec_wait_s",
                Json.Float (med (fun (_, _, ex, _) ->
                    ex.wait_s /. float_of_int (max 1 ex.jobs))));
              ("litmus_run_once_s", Json.Float run_once_s);
              ("litmus_replay_match", Json.Bool matches);
              ("litmus", Json.Assoc (sim_json st)) ] );
        ("gc_pause_s", floats (List.map (fun (_, _, _, _, p) -> p) results));
        ("gc_lost_events", Json.Int !Gc_pause.lost) ]
  in
  emit
    ([ ("workload", Json.String "tune"); ("seed", Json.Int seed);
       ("pass_s", floats (List.map (fun (_, dt, _, _, _) -> dt) results));
       ("workers", Json.Int (Core.Exec.jobs_of_backend tune_backend));
       ("execs_per_pass", Json.Int (tune_execs r0 ~jobs:jobs0));
       ("digests", Json.List (List.map (fun d -> Json.String d) digests));
       ( "jobs_distinct",
         Json.Int (distinct (List.map (fun (_, _, j, _, _) -> j) results)) );
       ( "gc_minor_words",
         floats (List.map (fun (_, _, _, g, _) -> g.words) results) );
       ( "gc_minor_collections",
         floats
           (List.map (fun (_, _, _, g, _) -> float_of_int g.minors) results) );
       ( "gc_major_collections",
         floats
           (List.map (fun (_, _, _, g, _) -> float_of_int g.majors) results) );
       ("peak_rss_mb", Json.Float (peak_rss_mb ())) ]
    @ traced_fields)

(* ------------------------------------------------------------------ *)
(* Ledgers: the read path the fleet workload ends with.                 *)

let cells_digest (l : Core.Runlog.ledger) =
  digest_json
    (Json.List
       (List.map
          (fun (j : Core.Runlog.job) ->
            Json.Assoc
              [ ("phase", Json.String j.phase); ("i", Json.Int j.index);
                ("seed", Json.Int j.seed); ("errors", Json.Int j.errors);
                ("result", j.result) ])
          l.jobs))

(* The rows [gpuwmm merge] rebuilds from a ledger's job records. *)
let rows_of_jobs (l : Core.Runlog.ledger) =
  let names k =
    match Json.member k l.header.grid with
    | Some (Json.List xs) -> List.filter_map Json.to_str xs
    | _ -> []
  in
  let cells =
    List.filter_map
      (fun (j : Core.Runlog.job) ->
        Result.to_option (Core.Campaign.cell_of_json j.result))
      l.jobs
  in
  Core.Campaign.rows_of_cells ~chips:(names "chips") ~envs:(names "envs")
    ~apps_per_row:(List.length (names "apps")) cells

(* Load a ledger and rebuild its rows twice: from the result record and
   from the job records.  Both must agree. *)
let ledger_report path =
  let t0 = now () in
  let loaded = Core.Runlog.load path in
  let rows =
    match loaded with
    | Error e -> Error e
    | Ok l -> (
      match (l.result, rows_of_jobs l) with
      | Some (_, data), Ok rebuilt -> (
        match Core.Campaign.rows_of_json data with
        | Ok rows when rows_digest rows = rows_digest rebuilt -> Ok rows
        | Ok _ -> Error "result record disagrees with the job records"
        | Error e -> Error e)
      | None, _ -> Error "no result record"
      | _, Error e -> Error e)
  in
  let load_s = now () -. t0 in
  let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  match (loaded, rows) with
  | Ok l, Ok rows ->
    [ ("path", Json.String path); ("ok", Json.Bool true);
      ("load_s", Json.Float load_s); ("bytes", Json.Int bytes);
      ("jobs", Json.Int (List.length l.jobs));
      ("footer", Json.Bool (l.footer <> None)); ("torn", Json.Bool l.torn);
      ("quarantined",
        Json.Int (match l.footer with Some f -> f.quarantined | None -> 0));
      ("cells_digest", Json.String (cells_digest l));
      ("errors",
        Json.Int (List.fold_left ( + ) 0 (cell_errors rows))) ]
  | Error e, _ | _, Error e ->
    [ ("path", Json.String path); ("ok", Json.Bool false);
      ("error", Json.String e) ]

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name default =
    Option.value ~default (opt name args)
  in
  let workload = get "--workload" "" in
  let seed = int_of_string (get "--seed" "0") in
  let seconds = float_of_string (get "--seconds" "10") in
  let traced = get "--trace" "0" = "1" in
  match args with
  | "setup" :: _ -> (
    match workload with
    | "table5" ->
      table5_warm_up ();
      emit [ ("ready", Json.Bool true) ]
    | "tune" ->
      tune_warm_up ();
      emit [ ("ready", Json.Bool true) ]
    | w -> failwith ("unknown workload " ^ w))
  | "run" :: _ -> (
    match workload with
    | "table5" -> table5_run ~seed ~seconds ~traced
    | "tune" -> tune_run ~seed ~seconds ~traced
    | w -> failwith ("unknown workload " ^ w))
  | "reference" :: _ -> (
    match workload with
    | "table5" ->
      let rows = table5_campaign ~runs:table5_runs ~seed in
      let st, _ = table5_replica ~traced:false ~runs:table5_runs ~seed in
      emit
        [ ("digest", Json.String (rows_digest rows));
          ("sim_counts", Json.String (device_counts st)) ]
    | "tune" ->
      emit
        [ ("digest",
            Json.String
              (tune_digest
                 (Core.Tuning.run ~backend:tune_backend ~chip ~seed
                    ~budget:tune_budget ()))) ]
    | w -> failwith ("unknown workload " ^ w))
  | "ledgers" :: paths -> List.iter (fun p -> emit (ledger_report p)) paths
  | _ ->
    prerr_endline
      "usage: probe (setup|run|reference) --workload table5|tune [--seed S] \
       [--seconds T] [--trace 0|1] | probe ledgers FILE...";
    exit 2
