(* The durable job queue behind `gpuwmm serve`: event codec round-trip,
   journal torn-tail tolerance, the lease state machine (ordering,
   backoff boundaries), and the crash-replay property — cut the journal
   anywhere, revoke the in-flight leases the way a restarting daemon
   does, and the completed-shard set is exactly what the surviving
   events recorded. *)

let tmp_journal () =
  let f = Filename.temp_file "gpuwmm-queue" ".jsonl" in
  Sys.remove f;
  f

let with_journal f =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

let chip_names =
  "SC" :: List.map (fun c -> c.Gpusim.Chip.name) Gpusim.Chip.all

let app_names = List.map (fun a -> a.Apps.App.name) Apps.Registry.all

let env_labels =
  List.map
    (fun e -> e.Core.Environment.label)
    (Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip:Gpusim.Chip.k20))

(* Campaign specs of every kind, in the registries' spelling. *)
let campaign_gen : Core.Spec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let chip = oneofl chip_names in
  let app = oneofl app_names in
  let runs = int_range 1 500 in
  let budget =
    let* full = bool in
    let* runs_scale =
      oneof [ return 1.0; oneofl [ 0.1; 0.5; 2.0 ]; float_range 0.001 8.0 ]
    in
    return (Core.Budget.of_flags ~full ~runs_scale)
  in
  let chips =
    let* first = chip in
    let* rest = list_size (int_range 0 3) chip in
    return (first :: rest)
  in
  let* kind =
    oneof
      [ (let* chip = chip in
         let* env = oneofl env_labels in
         let* app = option app in
         let* runs = runs in
         return (Core.Spec.Test { chip; env; app; runs }));
        (let* chip = chip in
         let* budget = budget in
         return (Core.Spec.Tune { chip; budget }));
        (let* chip = chip in
         let* app = app in
         let* stability_runs = runs in
         return (Core.Spec.Harden { chip; app; stability_runs }));
        (let* number = int_range 1 6 in
         let* chips = chips in
         let* budget = budget in
         let* runs = runs in
         return (Core.Spec.Table { number; chips; budget; runs }));
        (let* number = int_range 3 5 in
         let* chips = chips in
         let* budget = budget in
         let* runs = runs in
         return (Core.Spec.Figure { number; chips; budget; runs })) ]
  in
  let* seed = int_range 0 10_000 in
  return { Core.Spec.kind; seed }

let spec_gen =
  let open QCheck.Gen in
  let* id = map (Printf.sprintf "job-%d") (int_range 1 99) in
  let* campaign = campaign_gen in
  let* workers = int_range 1 8 in
  let* priority = int_range (-5) 5 in
  let* max_attempts = int_range 1 5 in
  return { Core.Queue.id; campaign; workers; priority; max_attempts }

let event_gen : Core.Queue.event QCheck.Gen.t =
  let open QCheck.Gen in
  let ev (e : Core.Queue.event) = return e in
  let finite_pos = map (fun f -> Float.abs f) (float_bound_exclusive 1e6) in
  let id = map (Printf.sprintf "job-%d") (int_range 1 99) in
  let shard = int_range 1 8 in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let* t = finite_pos in
  oneof
    [ map (fun spec -> Core.Queue.Submitted { t; spec }) spec_gen;
      (let* i = id in
       let* k = shard in
       let* pid = int_range 2 99999 in
       let* attempt = int_range 1 5 in
       let* deadline = finite_pos in
       ev (Core.Queue.Leased { t; id = i; shard = k; pid; attempt; deadline }));
      (let* i = id in
       let* k = shard in
       let* degraded = bool in
       ev (Core.Queue.Shard_done { t; id = i; shard = k; degraded }));
      (let* i = id in
       let* k = shard in
       let* attempt = int_range 1 5 in
       let* reason = name in
       let* not_before = finite_pos in
       ev (Core.Queue.Requeued
            { t; id = i; shard = k; attempt; reason; not_before }));
      (let* i = id in
       let* k = shard in
       let* reason = name in
       ev (Core.Queue.Quarantined { t; id = i; shard = k; reason }));
      (let* i = id in
       let* status = oneofl [ "done"; "degraded"; "failed" ] in
       let* ledger = option name in
       ev (Core.Queue.Finished { t; id = i; status; ledger })) ]

let prop_event_round_trip =
  QCheck.Test.make ~name:"Queue: of_json (to_json ev) = Ok ev" ~count:500
    (QCheck.make event_gen)
    (fun ev ->
      (* Through the actual printer/parser pair, like the journal. *)
      match
        Core.Json.of_string (Core.Json.to_string (Core.Queue.event_to_json ev))
      with
      | Error _ -> false
      | Ok j -> Core.Queue.event_of_json j = Ok ev)

let test_campaign ?app ~chip ~runs seed =
  { Core.Spec.kind = Test { chip; env = "sys-str+"; app; runs }; seed }

let sample_spec =
  { Core.Queue.id = "job-1";
    campaign = test_campaign ~chip:"K20" ~app:"cbe-dot" ~runs:40 7;
    workers = 2; priority = 0; max_attempts = 3 }

let sample_events : Core.Queue.event list =
  [ Core.Queue.Submitted { t = 1.0; spec = sample_spec };
    Core.Queue.Leased
      { t = 2.0; id = "job-1"; shard = 1; pid = 42; attempt = 1;
        deadline = 32.0 };
    Core.Queue.Shard_done { t = 3.0; id = "job-1"; shard = 1; degraded = false }
  ]

(* A journal load as (events, torn). *)
let load path =
  Result.map
    (fun (l : _ Core.Journal.t) -> (l.records, l.torn))
    (Core.Queue.load path)

let test_journal_round_trip () =
  with_journal (fun path ->
      Alcotest.(check bool) "missing journal is empty" true
        (load path = Ok ([], false));
      List.iter (Core.Queue.append ~path) sample_events;
      Alcotest.(check bool) "events load, oldest first" true
        (load path = Ok (sample_events, false)))

let test_journal_torn_tail () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      (* Killed mid-write: the final line is half a record. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"ev\":\"lease\",\"t\":9";
      close_out oc;
      Alcotest.(check bool) "torn tail dropped, torn flag set" true
        (load path = Ok (sample_events, true)))

let test_journal_repair_after_torn () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"ev\":\"lease\",\"t\":9";
      close_out oc;
      (* The restarting daemon's discipline: load flags the torn tail,
         repair takes the fragment off disk, and only then do appends
         resume.  Without the repair the first append would bury the
         fragment as a fatal mid-file line. *)
      (match Core.Queue.load path with
      | Ok loaded ->
        Alcotest.(check bool) "torn flagged on load" true
          (loaded.records = sample_events && loaded.torn);
        Core.Journal.repair path loaded
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "repair drops the fragment on disk" true
        (load path = Ok (sample_events, false));
      let extra =
        Core.Queue.Finished
          { t = 4.0; id = "job-1"; status = "done"; ledger = None }
      in
      Core.Queue.append ~path extra;
      Alcotest.(check bool) "append after repair reloads cleanly" true
        (load path = Ok (sample_events @ [ extra ], false)))

let test_journal_append_no_trailing_newline () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      (* A write cut just before its '\n' leaves a *valid* last line
         with no trailing newline — load reports torn=false, so repair
         never runs; append itself must not glue onto it. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size - 1);
      Unix.close fd;
      Alcotest.(check bool) "newline-less valid tail still loads" true
        (load path = Ok (sample_events, false));
      let extra =
        Core.Queue.Finished
          { t = 4.0; id = "job-1"; status = "done"; ledger = None }
      in
      Core.Queue.append ~path extra;
      Alcotest.(check bool) "append starts a fresh line" true
        (load path = Ok (sample_events @ [ extra ], false)))

let test_journal_rejects_corrupt_middle () =
  with_journal (fun path ->
      Core.Queue.append ~path (List.hd sample_events);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not json at all\n";
      close_out oc;
      Core.Queue.append ~path (List.nth sample_events 1);
      (match Core.Queue.load path with
      | Error e ->
        Alcotest.(check bool) "error names the journal line" true
          (Test_util.contains e "line 2")
      | Ok _ -> Alcotest.fail "corrupt middle line must fail closed");
      (* Two blank lines before the corrupt one: the error names the
         physical line (4), not the count of non-blank lines, and the
         file. *)
      Sys.remove path;
      Core.Queue.append ~path (List.hd sample_events);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "\n\nnot json at all\n";
      close_out oc;
      Core.Queue.append ~path (List.nth sample_events 1);
      match Core.Queue.load path with
      | Error e ->
        Alcotest.(check bool) "error names the physical line" true
          (Test_util.contains e "line 4");
        Alcotest.(check bool) "error names the journal" true
          (Test_util.contains e path)
      | Ok _ -> Alcotest.fail "corrupt line after blanks must fail closed")

(* ------------------------------------------------------------------ *)
(* The lease state machine                                              *)

let submit ?(id = "job-1") ?(workers = 2) ?(priority = 0) st =
  Core.Queue.apply st
    (Core.Queue.Submitted
       { t = 0.0; spec = { sample_spec with Core.Queue.id; workers; priority } })

let test_next_lease_ordering () =
  let st = Core.Queue.empty in
  let st = submit ~id:"job-1" ~workers:2 st in
  let st = submit ~id:"job-2" ~workers:1 ~priority:5 st in
  (* Priority first... *)
  (match Core.Queue.next_lease ~now:10.0 st with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-2" -> ()
  | _ -> Alcotest.fail "high-priority job should lease first");
  (* ...then FIFO at equal priority, lowest shard index. *)
  let st =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 10.0; id = "job-2"; shard = 1; pid = 1; attempt = 1;
           deadline = 40.0 })
  in
  (match Core.Queue.next_lease ~now:10.0 st with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-1" -> ()
  | _ -> Alcotest.fail "earliest submission, lowest shard next");
  (* Backoff gates: a shard requeued with not_before in the future is
     invisible until the boundary passes; at exactly not_before it is
     leasable again. *)
  let st =
    Core.Queue.apply st
      (Core.Queue.Requeued
         { t = 11.0; id = "job-1"; shard = 1; attempt = 1; reason = "x";
           not_before = 20.0 })
  in
  (match Core.Queue.next_lease ~now:19.99 st with
  | Some (job, k) ->
    Alcotest.(check (pair string int))
      "backed-off shard skipped before its gate"
      ("job-1", 2)
      (job.Core.Queue.spec.Core.Queue.id, k)
  | None -> Alcotest.fail "shard 2 should still be leasable");
  let st2 =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 12.0; id = "job-1"; shard = 2; pid = 2; attempt = 1;
           deadline = 42.0 })
  in
  Alcotest.(check bool) "nothing leasable inside the backoff window" true
    (Core.Queue.next_lease ~now:19.99 st2 = None);
  match Core.Queue.next_lease ~now:20.0 st2 with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-1" -> ()
  | _ -> Alcotest.fail "at not_before the shard is leasable again"

let test_backoff_schedule () =
  let base = 0.5 in
  let b a = Core.Queue.backoff_s ~base ~seed:7 ~attempt:a in
  (* Deterministic per (seed, attempt). *)
  Alcotest.(check (float 0.0)) "deterministic" (b 1) (b 1);
  (* Jitter stays within [0.5, 1.5) of the exponential envelope. *)
  for a = 1 to 12 do
    let envelope = base *. float_of_int (1 lsl Int.min (a - 1) 6) in
    let v = Core.Queue.backoff_s ~base ~seed:3 ~attempt:a in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within the jittered envelope" a)
      true
      (v >= 0.5 *. envelope && v < 1.5 *. envelope)
  done;
  (* The exponent caps: attempt 20 cannot exceed 64x base with jitter. *)
  Alcotest.(check bool) "capped exponent" true
    (Core.Queue.backoff_s ~base ~seed:11 ~attempt:20 < base *. 64.0 *. 1.5);
  (* Different seeds decorrelate (thundering-herd protection). *)
  Alcotest.(check bool) "seed-jittered" true
    (Core.Queue.backoff_s ~base ~seed:1 ~attempt:3
    <> Core.Queue.backoff_s ~base ~seed:2 ~attempt:3)

let test_apply_ignores_junk () =
  (* Replay must survive any journal a crashed daemon left behind:
     events naming unknown jobs or out-of-range shards are dropped. *)
  let st = submit Core.Queue.empty in
  let junk : Core.Queue.event list =
    [ Core.Queue.Leased
        { t = 1.0; id = "job-404"; shard = 1; pid = 9; attempt = 1;
          deadline = 2.0 };
      Core.Queue.Shard_done
        { t = 1.0; id = "job-1"; shard = 99; degraded = false };
      Core.Queue.Quarantined
        { t = 1.0; id = "nope"; shard = 1; reason = "r" } ]
  in
  let st' = List.fold_left Core.Queue.apply st junk in
  Alcotest.(check bool) "junk events leave the state intact" true
    (st'.Core.Queue.jobs = st.Core.Queue.jobs);
  Alcotest.(check int) "no quarantine counted for unknown jobs" 0
    st'.Core.Queue.quarantines

(* ------------------------------------------------------------------ *)
(* Crash replay: cut the journal anywhere, revoke in-flight leases the
   way a restarting daemon does, drive the rest to completion — every
   durably recorded completion survives and the job still finishes.     *)

(* Simulate a daemon life: lease ripe shards, flip a seeded coin per
   lease (worker completes vs crashes-and-requeues), until every shard
   of the submitted jobs is Done.  Returns the full journal. *)
let simulate ~seed ~specs =
  let rng = Gpusim.Rng.create seed in
  let events = ref [] in
  let st = ref Core.Queue.empty in
  let emit ev =
    events := ev :: !events;
    st := Core.Queue.apply !st ev
  in
  List.iter (fun spec -> emit (Core.Queue.Submitted { t = 0.0; spec })) specs;
  let now = ref 1.0 in
  let all_done () =
    List.for_all
      (fun (j : Core.Queue.job) ->
        Array.for_all
          (function Core.Queue.Done _ -> true | _ -> false)
          j.Core.Queue.shards)
      !st.Core.Queue.jobs
  in
  while not (all_done ()) do
    now := !now +. 1.0;
    (match Core.Queue.next_lease ~now:!now !st with
    | Some (job, k) ->
      let id = job.Core.Queue.spec.Core.Queue.id in
      let attempt =
        match Core.Queue.shard_get job k with
        | Some (Core.Queue.Pending { attempt; _ }) -> attempt + 1
        | _ -> 1
      in
      emit
        (Core.Queue.Leased
           { t = !now; id; shard = k; pid = 100 + k; attempt;
             deadline = !now +. 30.0 });
      if Gpusim.Rng.float rng < 0.6 then
        emit (Core.Queue.Shard_done { t = !now; id; shard = k; degraded = false })
      else
        emit
          (Core.Queue.Requeued
             { t = !now; id; shard = k; attempt; reason = "killed";
               not_before = !now })
    | None ->
      (* Everything ripe is leased; in this simulation a lease always
         settles immediately, so this cannot happen. *)
      ());
  done;
  List.rev !events

(* What a restarting daemon does to a replayed state: every in-flight
   lease is revoked back to Pending (the real daemon additionally
   checks the shard ledger — here there are no ledgers, so a revoked
   lease is always "not complete"). *)
let revoke st =
  List.fold_left
    (fun st (j : Core.Queue.job) ->
      let id = j.Core.Queue.spec.Core.Queue.id in
      snd
        (Array.fold_left
           (fun (k, st) s ->
             ( k + 1,
               match s with
               | Core.Queue.Leased { attempt; _ } ->
                 Core.Queue.apply st
                   (Core.Queue.Requeued
                      { t = 0.0; id; shard = k; attempt;
                        reason = "lease revoked on restart"; not_before = 0.0 })
               | _ -> st ))
           (1, st) j.Core.Queue.shards))
    st st.Core.Queue.jobs

let done_set st =
  List.concat_map
    (fun (j : Core.Queue.job) ->
      snd
        (Array.fold_left
           (fun (k, acc) s ->
             ( k + 1,
               match s with
               | Core.Queue.Done _ -> (j.Core.Queue.spec.Core.Queue.id, k) :: acc
               | _ -> acc ))
           (1, []) j.Core.Queue.shards))
    st.Core.Queue.jobs
  |> List.sort compare

let prop_kill_anywhere_keeps_completions =
  QCheck.Test.make
    ~name:"Queue: kill at any journal prefix, revoke, and no durable \
           completion is lost"
    ~count:60
    QCheck.(make Gen.(pair (int_range 1 1000) (int_range 0 1_000_000)))
    (fun (seed, cut_seed) ->
      let specs =
        [ { sample_spec with Core.Queue.id = "job-1"; workers = 3 };
          { sample_spec with Core.Queue.id = "job-2"; workers = 2;
            priority = 1 } ]
      in
      let journal = simulate ~seed ~specs in
      let n = List.length journal in
      (* The cut point is derived, not sampled, so shrinking stays
         meaningful. *)
      let cut = cut_seed mod (n + 1) in
      let prefix = List.filteri (fun i _ -> i < cut) journal in
      let replayed = Core.Queue.replay prefix in
      let recovered = revoke replayed in
      (* 1. Every Shard_done durably in the prefix survives recovery. *)
      let durable =
        List.filter_map
          (function
            | Core.Queue.Shard_done { id; shard; _ } -> Some (id, shard)
            | _ -> None)
          prefix
        |> List.sort_uniq compare
      in
      let after = done_set recovered in
      List.for_all (fun d -> List.mem d after) durable
      (* 2. Recovery leaves no shard stuck in Leased. *)
      && List.for_all
           (fun (j : Core.Queue.job) ->
             Array.for_all
               (function Core.Queue.Leased _ -> false | _ -> true)
               j.Core.Queue.shards)
           recovered.Core.Queue.jobs
      (* 3. The recovered queue still drives to full completion. *)
      &&
      let final = ref recovered in
      let now = ref 1e6 in
      let guard = ref 0 in
      let all_done st =
        st.Core.Queue.jobs <> []
        && List.for_all
             (fun (j : Core.Queue.job) ->
               Array.for_all
                 (function Core.Queue.Done _ -> true | _ -> false)
                 j.Core.Queue.shards)
             st.Core.Queue.jobs
      in
      (if prefix <> [] && !final.Core.Queue.jobs <> [] then
         while (not (all_done !final)) && !guard < 10_000 do
           incr guard;
           now := !now +. 1.0;
           match Core.Queue.next_lease ~now:!now !final with
           | None -> guard := 10_000
           | Some (job, k) ->
             let id = job.Core.Queue.spec.Core.Queue.id in
             final :=
               Core.Queue.apply !final
                 (Core.Queue.Shard_done
                    { t = !now; id; shard = k; degraded = false })
         done);
      prefix = [] || !final.Core.Queue.jobs = [] || all_done !final)

let test_stats_partition () =
  let st = submit ~workers:4 Core.Queue.empty in
  let st =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 5.0; id = "job-1"; shard = 1; pid = 9; attempt = 1;
           deadline = 35.0 })
  in
  let st =
    Core.Queue.apply st
      (Core.Queue.Shard_done { t = 6.0; id = "job-1"; shard = 2; degraded = true })
  in
  let st =
    Core.Queue.apply st
      (Core.Queue.Quarantined { t = 7.0; id = "job-1"; shard = 3; reason = "r" })
  in
  let s = Core.Queue.stats ~now:10.0 st in
  Alcotest.(check (list int)) "states partition the shard set"
    [ 1; 1; 1; 1; 1; 0 ]
    [ s.Core.Queue.s_pending; s.Core.Queue.s_leased; s.Core.Queue.s_done;
      s.Core.Queue.s_quarantined; s.Core.Queue.s_active_jobs;
      s.Core.Queue.s_finished_jobs ];
  Alcotest.(check (float 1e-9)) "oldest lease age" 5.0
    s.Core.Queue.s_oldest_lease_age_s

(* ------------------------------------------------------------------ *)
(* Submission parsing                                                   *)

let test_submission_workers_bound () =
  let parse workers =
    Core.Serve.parse_submission ~default_max_attempts:3
      (Printf.sprintf {|{"chip": "K20", "runs": 1, "workers": %d}|} workers)
  in
  let bound = Core.Shard.max_shards in
  (match parse bound with
  | Ok spec ->
    Alcotest.(check int) "the largest shard count is accepted" bound
      spec.Core.Queue.workers
  | Error e -> Alcotest.failf "workers = %d refused: %s" bound e);
  match parse (bound + 1) with
  | Ok _ -> Alcotest.failf "workers = %d accepted" (bound + 1)
  | Error e ->
    Alcotest.(check bool) "the refusal names the bound" true
      (Test_util.contains e (string_of_int bound))

(* The names a client typed do not reach the grid: a lowercase chip and
   an uppercase application plan the grid `gpuwmm test --chip k20 --app
   cbe-ht` records, so the workers' ledgers validate against it. *)
let test_submission_canonical_names () =
  match
    Core.Serve.parse_submission ~default_max_attempts:3
      {|{"chip":"k20","app":"CBE-HT","runs":1,"seed":7,"workers":2}|}
  with
  | Error e -> Alcotest.failf "refused: %s" e
  | Ok spec ->
    Alcotest.(check string) "the CLI's grid"
      (Core.Json.to_string
         (Core.Spec.grid (test_campaign ~chip:"K20" ~app:"cbe-ht" ~runs:1 7)))
      (Core.Json.to_string (Core.Spec.grid spec.Core.Queue.campaign))

(* perfbench's fleet client posts exactly these five fields. *)
let test_submission_fleet_body () =
  match
    Core.Serve.parse_submission ~default_max_attempts:3
      {|{"chip": "K20", "env": "sys-str+", "runs": 10, "seed": 101, "workers": 2}|}
  with
  | Error e -> Alcotest.failf "refused: %s" e
  | Ok spec ->
    Alcotest.(check bool) "a test campaign of every application, defaults"
      true
      (spec
      = { Core.Queue.id = ""; campaign = test_campaign ~chip:"K20" ~runs:10 101;
          workers = 2; priority = 0; max_attempts = 3 })

(* Journal lines the previous daemon wrote, byte for byte: they replay
   to the same spec and re-encode to the same bytes. *)
let parent_submit_lines =
  [ {|{"ev":"submit","t":1792296757.0837941,"id":"job-1","kind":"test","chip":"K20","app":"cbe-ht","runs":1,"env":"sys-str+","seed":7,"workers":2,"priority":0,"max_attempts":3}|};
    {|{"ev":"submit","t":1792296757.1590791,"id":"job-2","kind":"test","chip":"K20","runs":2,"env":"sys-str+","seed":9,"workers":1,"priority":3,"max_attempts":2}|}
  ]

let test_parent_journal_replays () =
  let expected =
    [ { Core.Queue.id = "job-1";
        campaign = test_campaign ~chip:"K20" ~app:"cbe-ht" ~runs:1 7;
        workers = 2; priority = 0; max_attempts = 3 };
      { Core.Queue.id = "job-2"; campaign = test_campaign ~chip:"K20" ~runs:2 9;
        workers = 1; priority = 3; max_attempts = 2 } ]
  in
  List.iter2
    (fun line spec ->
      match Result.bind (Core.Json.of_string line) Core.Queue.event_of_json with
      | Ok (Core.Queue.Submitted { spec = got; t } as ev) ->
        Alcotest.(check bool) "the same spec" true (got = spec);
        Alcotest.(check (float 0.0)) "the same time" 1792296757.0 (Float.round t);
        Alcotest.(check string) "the same bytes" line
          (Core.Json.to_string (Core.Queue.event_to_json ev))
      | Ok _ -> Alcotest.fail "not a submission"
      | Error e -> Alcotest.failf "does not replay: %s" e)
    parent_submit_lines expected

(* ------------------------------------------------------------------ *)
(* Campaign specs                                                       *)

let through_text j =
  Result.get_ok (Core.Json.of_string (Core.Json.to_string j))

let prop_spec_argv =
  QCheck.Test.make ~name:"Spec: of_argv (to_argv s) = s" ~count:500
    (QCheck.make campaign_gen) (fun s ->
      Core.Spec.of_argv (Core.Spec.to_argv s) = Ok s)

let prop_spec_json =
  QCheck.Test.make ~name:"Spec: of_json (to_json s) = s" ~count:500
    (QCheck.make campaign_gen) (fun s ->
      Core.Spec.of_json (through_text (Core.Spec.to_json s)) = Ok s)

let prop_spec_header =
  QCheck.Test.make ~name:"Spec: of_header of s's ledger header = s"
    ~count:500 (QCheck.make campaign_gen) (fun s ->
      let h =
        Core.Runlog.make_header ~campaign:(Core.Spec.campaign s)
          ~seed:s.Core.Spec.seed
          ~grid:(through_text (Core.Spec.grid s))
          ()
      in
      Core.Spec.of_header h = Ok s)

(* A submitted test campaign in any letter case: the argv a shard
   worker is spawned with re-parses to the grid the supervisor
   validates its ledger against, and both spell the names as the
   registries do, as the CLI's --chip and --app parsers store them. *)
let prop_worker_argv_grid =
  let gen =
    let open QCheck.Gen in
    let case s =
      map
        (fun upper ->
          String.map
            (fun c ->
              if upper land (1 lsl (Char.code c mod 8)) <> 0 then
                Char.uppercase_ascii c
              else Char.lowercase_ascii c)
            s)
        (int_bound 255)
    in
    let* chip = oneofl chip_names >>= case in
    let* app = option (oneofl app_names >>= case) in
    let* runs = int_range 1 50 in
    let* workers = int_range 1 4 in
    let* k = int_range 1 workers in
    return (chip, app, runs, workers, k)
  in
  QCheck.Test.make ~name:"Spec: a worker's argv re-parses to the plan's grid"
    ~count:300 (QCheck.make gen) (fun (chip, app, runs, workers, k) ->
      let body =
        Core.Json.to_string
          (Core.Json.Assoc
             ([ ("chip", Core.Json.String chip); ("runs", Core.Json.Int runs);
                ("workers", Core.Json.Int workers) ]
             @ Option.fold ~none:[]
                 ~some:(fun a -> [ ("app", Core.Json.String a) ])
                 app))
      in
      match Core.Serve.parse_submission ~default_max_attempts:3 body with
      | Error e -> QCheck.Test.fail_reportf "refused %s: %s" body e
      | Ok spec ->
        let argv =
          Core.Procs.worker_argv ~exe:"gpuwmm" ~passthrough:[] spec ~k
            ~path:"l.jsonl"
        in
        (* The campaign's own flags: between the program and "-j". *)
        let rec campaign_flags = function
          | "-j" :: _ | [] -> []
          | a :: tl -> a :: campaign_flags tl
        in
        let registry =
          test_campaign ~runs
            ?app:
              (Option.map
                 (fun a -> (Option.get (Apps.Registry.by_name a)).Apps.App.name)
                 app)
            ~chip:(Option.get (Gpusim.Chip.by_name chip)).Gpusim.Chip.name
            42
        in
        (match Core.Spec.of_argv (campaign_flags (List.tl argv)) with
        | Ok worker ->
          Core.Spec.grid worker = Core.Spec.grid spec.Core.Queue.campaign
          && Core.Spec.grid worker = Core.Spec.grid registry
        | Error e -> QCheck.Test.fail_reportf "%s" e))

let () =
  Alcotest.run "serve-queue"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest prop_event_round_trip;
          Alcotest.test_case "journal round-trip" `Quick
            test_journal_round_trip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "repair then append after torn restart" `Quick
            test_journal_repair_after_torn;
          Alcotest.test_case "append after newline-less valid tail" `Quick
            test_journal_append_no_trailing_newline;
          Alcotest.test_case "corrupt middle line fails closed" `Quick
            test_journal_rejects_corrupt_middle ] );
      ( "state",
        [ Alcotest.test_case "lease ordering and backoff gates" `Quick
            test_next_lease_ordering;
          Alcotest.test_case "backoff schedule boundaries" `Quick
            test_backoff_schedule;
          Alcotest.test_case "junk events ignored" `Quick
            test_apply_ignores_junk;
          Alcotest.test_case "stats partition" `Quick test_stats_partition ]
      );
      ( "submit",
        [ Alcotest.test_case "workers bounded by Shard.max_shards" `Quick
            test_submission_workers_bound;
          Alcotest.test_case "names take the registries' spelling" `Quick
            test_submission_canonical_names;
          Alcotest.test_case "perfbench's fleet body parses" `Quick
            test_submission_fleet_body;
          Alcotest.test_case "the previous daemon's journal replays" `Quick
            test_parent_journal_replays ] );
      ( "spec",
        [ QCheck_alcotest.to_alcotest prop_spec_argv;
          QCheck_alcotest.to_alcotest prop_spec_json;
          QCheck_alcotest.to_alcotest prop_spec_header;
          QCheck_alcotest.to_alcotest prop_worker_argv_grid ] );
      ( "replay",
        [ QCheck_alcotest.to_alcotest prop_kill_anywhere_keeps_completions ]
      ) ]
