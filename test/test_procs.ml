(* The shard supervisor shared by `-j N` campaigns and `gpuwmm serve`,
   driven with stub workers (/bin/sh scripts) so no gpuwmm binary is
   needed: each stub invocation logs its argv and GPUWMM_RESPAWN, then
   plays the next scripted action — crash, exit 0 with or without a
   footer, exit 3, plain failure — against template shard ledgers. *)

let seed = 7

(* The campaign every stub shard ledger records. *)
let campaign =
  { Core.Spec.kind =
      Test { chip = "K20"; env = "sys-str+"; app = Some "cbe-dot"; runs = 1 };
    seed }

let temp_dir () =
  let d = Filename.temp_file "gpuwmm-procs" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d

let with_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ -> ()) (fun () ->
      f d)

(* A ledger shard k/n of the stub campaign, or of [spec]: header only
   (an interrupted prefix) or closed with a footer (complete). *)
let write_ledger ?(spec = campaign) ~path ~k ~n ~complete () =
  let h =
    Core.Runlog.make_header ~shard:(Printf.sprintf "%d/%d" k n)
      ~campaign:(Core.Spec.campaign spec) ~seed:spec.Core.Spec.seed
      ~grid:(Core.Spec.grid spec) ()
  in
  let sink = Core.Runlog.create ~deterministic:true ~path h in
  if complete then Core.Runlog.close sink else Core.Runlog.abort sink

(* $1 ledger, $2 the action script, $3/$4 partial/complete templates,
   $5 a complete ledger of another grid; invocation i plays the i-th
   action. *)
let script =
  {|path=$1; part=$3; full=$4; other=$5
echo "respawn=${GPUWMM_RESPAWN:-0} $*" >> "$path.calls"
n=$(wc -l < "$path.calls")
set -- $2
shift $((n - 1))
case "$1" in
  crash) cp "$part" "$path"; kill -9 $$ ;;
  junk) echo garbage > "$path"; kill -9 $$ ;;
  fullcrash) cp "$full" "$path"; kill -9 $$ ;;
  partial0) cp "$part" "$path"; exit 0 ;;
  done) cp "$full" "$path"; exit 0 ;;
  othergrid) cp "$other" "$path"; exit 0 ;;
  pidhang) echo $$ > "$path.pid"; exec sleep 30 ;;
  degraded) exit 3 ;;
  hang) exec sleep 30 ;;
  fds) ls -l /proc/$$/fd > "$path.fds"; cp "$full" "$path"; exit 0 ;;
  fdshang) ls -l /proc/$$/fd > "$path.fds"; exec sleep 30 ;;
  *) exit 1 ;;
esac|}

(* The worker argv of shard k, which plays [actions_of k]. *)
let plan_by_shard dir ~n ~actions_of =
  let other =
    { campaign with
      kind = Test { chip = "K20"; env = "sys-str+"; app = None; runs = 1 } }
  in
  for k = 1 to n do
    let t name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
    write_ledger ~path:(t "part") ~k ~n ~complete:false ();
    write_ledger ~path:(t "full") ~k ~n ~complete:true ();
    write_ledger ~spec:other ~path:(t "other") ~k ~n ~complete:true ()
  done;
  fun (_ : Core.Queue.spec) ~k ~path ->
    let t name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
    [ "/bin/sh"; "-c"; script; "stub"; path; actions_of k; t "part";
      t "full"; t "other" ]

let plan dir ~n ~actions = plan_by_shard dir ~n ~actions_of:(fun _ -> actions)

let shard_paths dir n =
  List.init n (fun i ->
      Filename.concat dir (Printf.sprintf "l.shard%d" (i + 1)))

let calls path =
  match open_in (path ^ ".calls") with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let terminal =
  Array.for_all (function
    | Core.Queue.Done _ | Core.Queue.Quarantined _ -> true
    | _ -> false)

(* A supervisor over a one-job queue, recording the events it emits. *)
let supervise ~max_attempts ~paths argv =
  let n = List.length paths in
  let spec =
    { Core.Queue.id = "job"; campaign; workers = n; priority = 0; max_attempts }
  in
  let st =
    ref
      (Core.Queue.apply Core.Queue.empty
         (Core.Queue.Submitted { t = 0.0; spec }))
  in
  let events = ref [] in
  let sup =
    Core.Procs.supervisor ~max_workers:n ~backoff_base_s:0.01 ~argv
      ~path_of:(fun _ k -> List.nth paths (k - 1))
      ~state:(fun () -> !st)
      ~emit:(fun ev ->
        events := ev :: !events;
        st := Core.Queue.apply !st ev)
      ()
  in
  (sup, st, events)

(* Run [f] on a fresh supervisor; stop its workers and close its
   descriptors after, so no test leaks either into the next. *)
let with_supervisor ~max_attempts ~paths argv f =
  let sup, st, events = supervise ~max_attempts ~paths argv in
  Fun.protect
    ~finally:(fun () ->
      Core.Procs.stop sup;
      Core.Procs.close sup)
    (fun () -> f sup st events)

(* Tick a supervisor over a one-job queue until every shard settles,
   recording the events it emits. *)
let drive ~max_attempts ~paths argv =
  with_supervisor ~max_attempts ~paths argv (fun sup st events ->
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec loop () =
        Core.Procs.tick sup;
        let shards = (List.hd !st.Core.Queue.jobs).Core.Queue.shards in
        if terminal shards then (shards, List.rev !events)
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "supervisor did not settle within 30 s"
        else begin
          Unix.sleepf 0.01;
          loop ()
        end
      in
      loop ())

let shard_states =
  Alcotest.testable
    (fun ppf (s : Core.Queue.shard_state) ->
      Fmt.string ppf
        (match s with
        | Core.Queue.Pending _ -> "pending"
        | Core.Queue.Leased _ -> "leased"
        | Core.Queue.Done { degraded } ->
          if degraded then "done(degraded)" else "done"
        | Core.Queue.Quarantined _ -> "quarantined"))
    (fun a b ->
      match (a, b) with
      | Core.Queue.Quarantined _, Core.Queue.Quarantined _ -> true
      | _ -> a = b)

let test_crash_requeued_then_resumed () =
  with_dir (fun dir ->
      let paths = shard_paths dir 2 in
      let shards, events =
        drive ~max_attempts:3 ~paths (plan dir ~n:2 ~actions:"crash done")
      in
      Alcotest.(check (array shard_states)) "both shards done"
        [| Core.Queue.Done { degraded = false };
           Core.Queue.Done { degraded = false } |]
        shards;
      List.iteri
        (fun i path ->
          let k = i + 1 in
          (match
             List.find_map
               (function
                 | Core.Queue.Requeued
                     { shard; t; attempt; reason; not_before; _ }
                   when shard = k ->
                   Some (t, attempt, reason, not_before)
                 | _ -> None)
               events
           with
          | None -> Alcotest.failf "shard %d never requeued" k
          | Some (t, attempt, reason, not_before) ->
            Alcotest.(check string) "crash reason" "killed by signal 9" reason;
            Alcotest.(check int) "first failed attempt" 1 attempt;
            Alcotest.(check (float 1e-6)) "Queue.backoff_s delay"
              (Core.Queue.backoff_s ~base:0.01
                 ~seed:(Gpusim.Rng.subseed seed k) ~attempt:1)
              (not_before -. t));
          match calls path with
          | [ first; second ] ->
            Alcotest.(check bool) "first attempt starts fresh" false
              (Test_util.contains first "--resume");
            Alcotest.(check bool) "respawn resumes its validated ledger" true
              (Test_util.contains second ("--resume " ^ path));
            Alcotest.(check bool) "respawn count in the environment" true
              (Test_util.contains second "respawn=1 ")
          | l -> Alcotest.failf "shard %d: %d invocations" k (List.length l))
        paths)

let test_unvalidated_ledger_not_resumed () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let shards, _ =
        drive ~max_attempts:3 ~paths (plan dir ~n:1 ~actions:"junk done")
      in
      Alcotest.(check (array shard_states)) "done"
        [| Core.Queue.Done { degraded = false } |] shards;
      match calls (List.hd paths) with
      | [ _; second ] ->
        Alcotest.(check bool) "a foreign ledger means a fresh start" false
          (Test_util.contains second "--resume")
      | l -> Alcotest.failf "%d invocations" (List.length l))

let test_exit_3_degraded () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let shards, _ =
        drive ~max_attempts:3 ~paths (plan dir ~n:1 ~actions:"degraded")
      in
      Alcotest.(check (array shard_states)) "exit 3 is done, degraded"
        [| Core.Queue.Done { degraded = true } |] shards)

let test_exit_0_without_footer_retried () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let shards, events =
        drive ~max_attempts:3 ~paths (plan dir ~n:1 ~actions:"partial0 done")
      in
      Alcotest.(check (array shard_states)) "done on the retry"
        [| Core.Queue.Done { degraded = false } |] shards;
      Alcotest.(check (list string)) "the footer-less exit 0 was requeued"
        [ "exited 0 but ledger incomplete" ]
        (List.filter_map
           (function
             | Core.Queue.Requeued { reason; _ } -> Some reason
             | _ -> None)
           events);
      Alcotest.(check int) "two invocations" 2
        (List.length (calls (List.hd paths))))

let test_grid_mismatch_named () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let shards, events =
        drive ~max_attempts:3 ~paths (plan dir ~n:1 ~actions:"othergrid done")
      in
      Alcotest.(check (array shard_states)) "done on the retry"
        [| Core.Queue.Done { degraded = false } |] shards;
      match
        List.filter_map
          (function
            | Core.Queue.Requeued { reason; _ } -> Some reason | _ -> None)
          events
      with
      | [ reason ] ->
        Alcotest.(check bool) "the reason names the grid mismatch" true
          (Test_util.contains reason "parameter grid mismatch");
        Alcotest.(check bool) "the reason names the ledger" true
          (Test_util.contains reason (List.hd paths))
      | l -> Alcotest.failf "%d requeues" (List.length l))

let test_complete_ledger_adopted_on_retry () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let shards, _ =
        drive ~max_attempts:3 ~paths (plan dir ~n:1 ~actions:"fullcrash")
      in
      Alcotest.(check (array shard_states)) "done without a respawn"
        [| Core.Queue.Done { degraded = false } |] shards;
      Alcotest.(check int) "one invocation" 1
        (List.length (calls (List.hd paths))))

let test_exhausted_attempts_quarantined () =
  with_dir (fun dir ->
      let paths = shard_paths dir 2 in
      let shards =
        Core.Procs.run ~paths
          ~argv:(plan dir ~n:2 ~actions:"fail fail fail")
          campaign
      in
      Alcotest.(check (array shard_states)) "the caller sees both failed"
        [| Core.Queue.Quarantined { reason = "" };
           Core.Queue.Quarantined { reason = "" } |]
        shards;
      List.iter
        (fun p ->
          Alcotest.(check int) "attempt budget spent"
            Core.Procs.default_max_attempts
            (List.length (calls p)))
        paths)

let test_first_attempt_never_adopts () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      let plan = plan dir ~n:1 ~actions:"fail" in
      (* A complete, validating ledger left by an earlier invocation. *)
      write_ledger ~path:(List.hd paths) ~k:1 ~n:1 ~complete:true ();
      let shards = Core.Procs.run ~paths ~argv:plan campaign in
      Alcotest.(check (array shard_states)) "not adopted as done"
        [| Core.Queue.Quarantined { reason = "" } |] shards;
      Alcotest.(check bool) "every attempt spawned fresh" true
        (List.for_all
           (fun c -> not (Test_util.contains c "--resume"))
           (calls (List.hd paths))))

exception Interrupted

(* A signal that makes Procs.run raise (as the CLI's SIGTERM handler
   does) must not orphan its workers. *)
let test_interrupt_stops_workers () =
  with_dir (fun dir ->
      let paths = shard_paths dir 2 in
      let pid_of path =
        match In_channel.with_open_bin (path ^ ".pid") In_channel.input_all with
        | s -> int_of_string_opt (String.trim s)
        | exception Sys_error _ -> None
      in
      let alive pid =
        match Unix.kill pid 0 with
        | () -> true
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
      in
      let previous =
        Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Interrupted))
      in
      let timer it =
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.0; it_value = it })
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            timer 0.0;
            Sys.set_signal Sys.sigalrm previous)
          (fun () ->
            timer 1.0;
            match
              Core.Procs.run ~paths ~argv:(plan dir ~n:2 ~actions:"pidhang")
                campaign
            with
            | _ -> `Returned
            | exception Interrupted -> `Interrupted)
      in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "the interrupt propagates" true
        (outcome = `Interrupted);
      if dt >= 5.0 then Alcotest.failf "stopping took %.1f s" dt;
      List.iter
        (fun path ->
          match pid_of path with
          | None -> Alcotest.failf "%s: the worker never started" path
          | Some pid ->
            Alcotest.(check bool)
              (Printf.sprintf "worker %d stopped and reaped" pid)
              false (alive pid))
        paths)

(* ------------------------------------------------------------------ *)
(* Waking the supervisor                                                *)

let shards_of st = (List.hd !st.Core.Queue.jobs).Core.Queue.shards

(* Seconds one [wait] with a 10 s timeout blocks.  A sleep-based wait
   would block all 10. *)
let timed_wait sup =
  let t0 = Unix.gettimeofday () in
  Core.Procs.wait ~timeout:10.0 sup;
  Unix.gettimeofday () -. t0

let test_worker_exit_wakes_wait () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      with_supervisor ~max_attempts:1 ~paths (plan dir ~n:1 ~actions:"done")
      @@ fun sup st _ ->
      Core.Procs.tick sup;
      Alcotest.(check int) "one worker leased" 1
        (List.length (Core.Procs.pids sup));
      let dt = timed_wait sup in
      if dt >= 5.0 then
        Alcotest.failf "wait blocked %.1f s past the worker's exit" dt;
      Core.Procs.tick sup;
      Alcotest.(check (array shard_states)) "the next tick settles it"
        [| Core.Queue.Done { degraded = false } |] (shards_of st);
      Alcotest.(check (list int)) "reaped" [] (Core.Procs.pids sup))

let test_poke_wakes_wait () =
  with_dir (fun dir ->
      let paths = shard_paths dir 1 in
      with_supervisor ~max_attempts:1 ~paths (plan dir ~n:1 ~actions:"hang")
      @@ fun sup st _ ->
      Core.Procs.tick sup;
      let poker =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            Core.Procs.poke sup)
      in
      let dt = timed_wait sup in
      Domain.join poker;
      if dt >= 5.0 then Alcotest.failf "wait blocked %.1f s past the poke" dt;
      Core.Procs.tick sup;
      (match (shards_of st).(0) with
      | Core.Queue.Leased _ -> ()
      | _ -> Alcotest.fail "the hanging worker lost its lease");
      let t0 = Unix.gettimeofday () in
      Core.Procs.stop sup;
      Alcotest.(check (list int)) "stop reaps the worker" []
        (Core.Procs.pids sup);
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 5.0 then
        Alcotest.failf "stop waited %.1f s for a SIGTERM'd worker" dt)

(* The inodes of the pipes an `ls -l /proc/PID/fd` listing names. *)
let pipe_inodes listing =
  let tag = "pipe:[" in
  let n = String.length listing and m = String.length tag in
  let rec go i acc =
    if i + m > n then List.sort_uniq compare acc
    else if String.sub listing i m = tag then
      let stop = String.index_from listing (i + m) ']' in
      go stop (String.sub listing (i + m) (stop - i - m) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let test_no_inherited_exit_fds () =
  with_dir (fun dir ->
      let paths = shard_paths dir 2 in
      (* Pipes the test process held before the supervisor existed
         (a test runner's own) are inherited by every worker alike. *)
      let before =
        pipe_inodes
          (String.concat "\n"
             (Array.to_list
                (Array.map
                   (fun fd ->
                     try Unix.readlink (Filename.concat "/proc/self/fd" fd)
                     with Unix.Unix_error _ -> "")
                   (Sys.readdir "/proc/self/fd"))))
      in
      let plan =
        plan_by_shard dir ~n:2 ~actions_of:(function
          | 1 -> "fdshang"
          | _ -> "fds")
      in
      let listing k = List.nth paths (k - 1) ^ ".fds" in
      let listed k =
        Sys.file_exists (listing k)
        && Test_util.contains (read_file (listing k)) "pipe:["
      in
      with_supervisor ~max_attempts:1 ~paths plan (fun sup st _ ->
          let deadline = Unix.gettimeofday () +. 30.0 in
          let rec settle () =
            Core.Procs.tick sup;
            let ready =
              (match (shards_of st).(1) with
              | Core.Queue.Done _ -> true
              | _ -> false)
              && listed 1
            in
            if ready then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "the stub workers never listed their descriptors"
            else begin
              Core.Procs.wait sup;
              settle ()
            end
          in
          settle ());
      let fresh k =
        List.filter
          (fun p -> not (List.mem p before))
          (pipe_inodes (read_file (listing k)))
      in
      let e1 = fresh 1 and e2 = fresh 2 in
      Alcotest.(check int) "worker 1 holds one pipe of ours: its exit pipe" 1
        (List.length e1);
      Alcotest.(check int) "worker 2 holds one pipe of ours: its exit pipe" 1
        (List.length e2);
      Alcotest.(check bool) "worker 2 does not hold worker 1's exit pipe"
        false (e1 = e2))

let () =
  Alcotest.run "procs"
    [ ( "supervisor",
        [ Alcotest.test_case "crash requeued with backoff, resumed" `Quick
            test_crash_requeued_then_resumed;
          Alcotest.test_case "unvalidated ledger not resumed" `Quick
            test_unvalidated_ledger_not_resumed;
          Alcotest.test_case "exit 3 is done, degraded" `Quick
            test_exit_3_degraded;
          Alcotest.test_case "exit 0 without footer retried" `Quick
            test_exit_0_without_footer_retried;
          Alcotest.test_case "grid-mismatched ledger names the mismatch"
            `Quick test_grid_mismatch_named;
          Alcotest.test_case "complete ledger adopted on retry" `Quick
            test_complete_ledger_adopted_on_retry;
          Alcotest.test_case "exhausted attempts quarantined" `Quick
            test_exhausted_attempts_quarantined;
          Alcotest.test_case "fresh run never adopts a stale ledger" `Quick
            test_first_attempt_never_adopts;
          Alcotest.test_case "an interrupt stops the workers" `Quick
            test_interrupt_stops_workers ] );
      ( "wake",
        [ Alcotest.test_case "a worker's exit wakes wait" `Quick
            test_worker_exit_wakes_wait;
          Alcotest.test_case "a poke from another domain wakes wait" `Quick
            test_poke_wakes_wait;
          Alcotest.test_case "no worker inherits another's exit pipe" `Quick
            test_no_inherited_exit_fds ] ) ]
