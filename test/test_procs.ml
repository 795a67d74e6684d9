(* The shard supervisor shared by `-j N` campaigns and `gpuwmm serve`,
   driven with stub workers (/bin/sh scripts) so no gpuwmm binary is
   needed: each stub invocation logs its argv and GPUWMM_RESPAWN, then
   plays the next scripted action — crash, exit 0 with or without a
   footer, exit 3, plain failure — against template shard ledgers. *)

let seed = 7
let grid = Core.Json.Assoc [ ("runs", Core.Json.Int 1) ]

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

(* A ledger shard k/n of the stub campaign: header only (an interrupted
   prefix) or closed with a footer (complete). *)
let write_ledger ~path ~k ~n ~complete =
  let h =
    Core.Runlog.make_header ~shard:(Printf.sprintf "%d/%d" k n)
      ~campaign:"stub" ~seed ~grid ()
  in
  let sink = Core.Runlog.create ~deterministic:true ~path h in
  if complete then Core.Runlog.close sink else Core.Runlog.abort sink

(* $1 ledger, $2 the action script, $3/$4 partial/complete templates;
   invocation i plays the i-th action. *)
let script =
  {|path=$1; part=$3; full=$4
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
  degraded) exit 3 ;;
  *) exit 1 ;;
esac|}

let plan dir ~n ~actions =
  for k = 1 to n do
    let t name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
    write_ledger ~path:(t "part") ~k ~n ~complete:false;
    write_ledger ~path:(t "full") ~k ~n ~complete:true
  done;
  { Core.Procs.campaign = "stub"; seed; grid;
    argv =
      (fun ~k ~path ->
        let t name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
        [ "/bin/sh"; "-c"; script; "stub"; path; actions; t "part"; t "full" ])
  }

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

(* Tick a supervisor over a one-job queue until every shard settles,
   recording the events it emits. *)
let drive ~max_attempts ~paths plan =
  let n = List.length paths in
  let spec =
    { Core.Queue.id = "job"; kind = "stub"; chip = ""; app = None; runs = 0;
      env = ""; seed; workers = n; priority = 0; max_attempts }
  in
  let st =
    ref
      (Core.Queue.apply Core.Queue.empty
         (Core.Queue.Submitted { t = 0.0; spec }))
  in
  let events = ref [] in
  let sup =
    Core.Procs.supervisor ~max_workers:n ~backoff_base_s:0.01
      ~plan_of:(fun _ -> plan)
      ~path_of:(fun _ k -> List.nth paths (k - 1))
      ~state:(fun () -> !st)
      ~emit:(fun ev ->
        events := ev :: !events;
        st := Core.Queue.apply !st ev)
      ()
  in
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
  loop ()

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
        Core.Procs.run ~paths (plan dir ~n:2 ~actions:"fail fail fail")
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
      write_ledger ~path:(List.hd paths) ~k:1 ~n:1 ~complete:true;
      let shards = Core.Procs.run ~paths plan in
      Alcotest.(check (array shard_states)) "not adopted as done"
        [| Core.Queue.Quarantined { reason = "" } |] shards;
      Alcotest.(check bool) "every attempt spawned fresh" true
        (List.for_all
           (fun c -> not (Test_util.contains c "--resume"))
           (calls (List.hd paths))))

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
          Alcotest.test_case "complete ledger adopted on retry" `Quick
            test_complete_ledger_adopted_on_retry;
          Alcotest.test_case "exhausted attempts quarantined" `Quick
            test_exhausted_attempts_quarantined;
          Alcotest.test_case "fresh run never adopts a stale ledger" `Quick
            test_first_attempt_never_adopts ] ) ]
