(* Allocation-discipline regression tests.

   The campaign hot path runs short litmus executions back to back on a
   recycled per-domain simulator ([Sim.with_sim]).  The refactor's
   contract is twofold:

   - recycling is observably identical to creating a fresh device per
     run (checked here against an inline fresh-device runner);
   - a single run stays within a committed minor-heap budget, so a
     change that reintroduces per-run device creation (a 65k-word global
     memory array per run) or list-based pending queues fails loudly. *)

let chip = Gpusim.Chip.k20

let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 8 }

(* The pre-arena runner: a fresh device per run, as [Litmus.Runner]
   used to do.  The oracle for recycling equivalence. *)
(* Mirrors [Litmus.Runner]'s device_words / litmus_max_ticks. *)
let run_once_fresh ~seed inst =
  let sim = Gpusim.Sim.create ~words:2048 ~chip ~seed () in
  let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
  let out = Gpusim.Sim.alloc sim 2 in
  Gpusim.Sim.write sim out (-1);
  Gpusim.Sim.write sim (out + 1) (-1);
  let result =
    Gpusim.Sim.launch sim ~max_ticks:50_000 ~grid:2
      ~block:1 (Litmus.Test.kernel inst)
      ~args:[ ("x", x); ("out", out) ]
  in
  let r1 = Gpusim.Sim.read sim out in
  let r2 = Gpusim.Sim.read sim (out + 1) in
  let timed_out =
    match result.Gpusim.Sim.outcome with
    | Gpusim.Sim.Finished -> false
    | Gpusim.Sim.Timeout | Gpusim.Sim.Trapped _ -> true
  in
  (r1, r2, timed_out)

let test_recycled_equals_fresh () =
  for seed = 1 to 500 do
    let o = Litmus.Runner.run_once ~chip ~seed inst in
    let r1, r2, timed_out = run_once_fresh ~seed inst in
    if (o.r1, o.r2, o.timed_out) <> (r1, r2, timed_out) then
      Alcotest.failf
        "seed %d: recycled sim gave (%d,%d,%b), fresh sim gave (%d,%d,%b)"
        seed o.r1 o.r2 o.timed_out r1 r2 timed_out
  done

let test_reset_equals_create () =
  (* Directly: a reset device behaves like a fresh one, including under
     an environment that draws randomness (stress + randomisation). *)
  let env =
    Core.Environment.for_litmus
      (Core.Environment.sys_plus
         ~tuned:(Core.Tuning.shipped ~chip:Gpusim.Chip.k20))
  in
  for seed = 1 to 100 do
    let fresh = Gpusim.Sim.create ~words:2048 ~chip ~seed () in
    let recycled = Gpusim.Sim.create ~words:2048 ~chip ~seed:(seed + 999) () in
    (* Dirty the recycled device with a different run first. *)
    ignore
      (Gpusim.Sim.launch recycled ~grid:2 ~block:1
         (Litmus.Test.kernel inst)
         ~args:
           [ ("x", Gpusim.Sim.alloc recycled (Litmus.Test.layout_words inst));
             ("out", Gpusim.Sim.alloc recycled 2) ]);
    Gpusim.Sim.reset recycled ~seed;
    let run sim =
      Gpusim.Sim.set_environment sim env;
      let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
      let out = Gpusim.Sim.alloc sim 2 in
      let r =
        Gpusim.Sim.launch sim ~grid:2 ~block:1 (Litmus.Test.kernel inst)
          ~args:[ ("x", x); ("out", out) ]
      in
      ( Gpusim.Sim.read sim out,
        Gpusim.Sim.read sim (out + 1),
        r.Gpusim.Sim.outcome = Gpusim.Sim.Finished,
        Gpusim.Sim.reorders sim )
    in
    let a = run fresh and b = run recycled in
    if a <> b then Alcotest.failf "seed %d: reset device diverged" seed
  done

(* The committed per-run minor-heap budget, in words.  Measured at
   ~410 words/run when the budget was last tightened (ring-buffer
   queues, recycled simulator, memoised kernel ASTs, per-sim compiled
   code cache, one-word shared arrays for the shared-memory-free litmus
   kernels, unboxed rng state and register file; ~820 before the last
   two); the ceiling leaves 1.5x headroom for compiler drift but fails
   on any structural regression — per-run kernel compilation alone
   costs several hundred words, and per-run device creation >2k words
   of arrays. *)
let per_run_budget_words = 620.0

let batch_runs = 400

let test_minor_words_budget () =
  (* Warm the arena, kernel compilation paths and any memo tables so the
     measured window sees only steady-state per-run cost. *)
  for seed = 1 to 50 do
    ignore (Litmus.Runner.run_once ~chip ~seed inst)
  done;
  let before = Gc.minor_words () in
  for seed = 1 to batch_runs do
    ignore (Litmus.Runner.run_once ~chip ~seed inst)
  done;
  let after = Gc.minor_words () in
  let per_run = (after -. before) /. float_of_int batch_runs in
  Printf.printf "alloc: %.0f minor words/run (budget %.0f)\n%!" per_run
    per_run_budget_words;
  if per_run > per_run_budget_words then
    Alcotest.failf
      "per-run minor allocation %.0f words exceeds the committed budget of \
       %.0f words — did a hot path start allocating per run again?"
      per_run per_run_budget_words

(* Application runs: a whole Table 5 cell row is thousands of these, and
   their cost is the simulator's tick loop, so the budget is per run of a
   fixed K20 / sys-str+ batch over every application.  Measured at ~24k
   words/run once the tick loop stopped allocating (unboxed rng state and
   register file, no per-step closures); it was ~1.44M words/run before,
   when every random draw boxed an Int64.  What remains is mostly
   per-launch set-up (thread records, register files) and pending
   entries. *)
let app_run_budget_words = 37_000.0

let app_batch_runs = 5

let app_batch ~runs ~seed =
  let env = Test_util.sys_plus_env chip in
  List.iter
    (fun (app : Apps.App.t) ->
      for i = 0 to runs - 1 do
        Gpusim.Sim.with_sim ~chip ~seed:(Gpusim.Rng.subseed seed i)
          (fun sim ->
            Gpusim.Sim.set_environment sim env;
            ignore (app.run sim Apps.App.Original))
      done)
    Apps.Registry.all

let test_app_run_budget () =
  app_batch ~runs:1 ~seed:0;
  let before = Gc.minor_words () in
  app_batch ~runs:app_batch_runs ~seed:7;
  let after = Gc.minor_words () in
  let per_run =
    (after -. before)
    /. float_of_int (app_batch_runs * List.length Apps.Registry.all)
  in
  Printf.printf "alloc: %.0f minor words/app run (budget %.0f)\n%!" per_run
    app_run_budget_words;
  if per_run > app_run_budget_words then
    Alcotest.failf
      "per-app-run minor allocation %.0f words exceeds the committed budget \
       of %.0f words — did the simulator's tick loop start allocating \
       again?"
      per_run app_run_budget_words

let () =
  Alcotest.run "alloc"
    [ ( "allocation discipline",
        [ Alcotest.test_case "recycled sim = fresh sim" `Quick
            test_recycled_equals_fresh;
          Alcotest.test_case "reset = create under environment" `Quick
            test_reset_equals_create;
          Alcotest.test_case "minor-words budget per litmus run" `Quick
            test_minor_words_budget;
          Alcotest.test_case "minor-words budget per app run" `Quick
            test_app_run_budget ] ) ]
