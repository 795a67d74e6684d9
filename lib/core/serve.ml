(* The `gpuwmm serve` daemon.

   One process, three concerns:

   - an HTTP face (Httpd.start_routes) that accepts campaign
     submissions and serves the queue and fleet state;
   - a durable queue (Queue): every transition is an append-only
     journal event, applied to an in-memory state under one mutex;
   - the shard supervisor (Procs.tick, the same one `test -j N` runs)
     that spawns `gpuwmm test --shard k/N` workers, reaps them, kills
     deadline overruns and heartbeat-dead workers, requeues failures
     with capped backoff and quarantines repeat offenders — here with
     a journaling [emit], so every transition is durable.  Between
     ticks the loop blocks in Procs.wait, which a worker's exit or a
     submission's Procs.poke ends early.

   Crash tolerance is structural rather than defensive: the daemon
   never needs to shut down cleanly, because restart = journal replay
   + fail-closed ledger inspection.  A shard is only ever believed
   complete when its ledger says so under the same validation as
   `--resume` — the journal is an optimisation log, the ledgers are the
   truth. *)

type config = {
  dir : string;
  addr : string;
  port : int;
  exe : string;
  max_workers : int;
  lease_s : float;
  backoff_base_s : float;
  max_attempts : int;
  until_idle : bool;
  quiet : bool;
}

let default =
  { dir = ".";
    addr = "127.0.0.1";
    port = 0;
    exe = Sys.executable_name;
    max_workers = 2;
    lease_s = 30.0;
    backoff_base_s = Procs.default_backoff_base_s;
    max_attempts = Procs.default_max_attempts;
    until_idle = false;
    quiet = false }

(* ------------------------------------------------------------------ *)
(* State-directory layout; the shard geometry is {!Procs.test_plan}.    *)

let ledger_path cfg id = Filename.concat cfg.dir (id ^ ".jsonl")
let shard_path cfg (spec : Queue.spec) k =
  Printf.sprintf "%s.shard%d" (ledger_path cfg spec.id) k
let journal_path cfg = Filename.concat cfg.dir "queue.jsonl"

(* The only way a shard is ever marked Done without the daemon having
   watched its worker exit — restart reconciliation. *)
let shard_outcome cfg (spec : Queue.spec) k =
  Procs.shard_outcome
    (Procs.test_plan ~exe:cfg.exe spec)
    ~n:spec.workers ~k ~path:(shard_path cfg spec k)

(* ------------------------------------------------------------------ *)
(* Submission parsing                                                   *)

let parse_submission ~default_max_attempts body : (Queue.spec, string) result
    =
  match Json.of_string body with
  | Error e -> Error (Printf.sprintf "body is not JSON: %s" e)
  | Ok j ->
    let str k d =
      match Json.member k j with
      | None -> Ok d
      | Some v -> (
        match Json.to_str v with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "field %s is not a string" k))
    in
    let int k d =
      match Json.member k j with
      | None -> Ok d
      | Some v -> (
        match Json.to_int v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "field %s is not an integer" k))
    in
    let ( let* ) = Result.bind in
    let* kind = str "kind" "test" in
    let* chip = str "chip" "" in
    let* app =
      match Json.member "app" j with
      | None -> Ok None
      | Some v -> (
        match Json.to_str v with
        | Some s -> Ok (Some s)
        | None -> Error "field app is not a string")
    in
    let* runs = int "runs" 100 in
    let* env = str "env" "sys-str+" in
    let* seed = int "seed" 42 in
    let* workers = int "workers" 2 in
    let* priority = int "priority" 0 in
    let* max_attempts = int "max_attempts" default_max_attempts in
    if kind <> "test" then
      Error (Printf.sprintf "unsupported campaign kind %S (only \"test\")" kind)
    else if chip = "" then Error "missing required field chip"
    else if runs < 1 then Error "runs must be >= 1"
    else if workers < 1 || workers > Shard.max_shards then
      (* Beyond the bound every shard worker would refuse its
         --shard k/N argv, only after the daemon spawned them all. *)
      Error (Printf.sprintf "workers must be in 1..%d" Shard.max_shards)
    else if max_attempts < 1 then Error "max_attempts must be >= 1"
    else
      match Gpusim.Chip.by_name chip with
      | None -> Error (Printf.sprintf "unknown chip %S" chip)
      | Some c -> (
        let envs =
          Environment.all ~tuned:(Tuning.shipped ~chip:c)
        in
        if not (List.exists (fun e -> e.Environment.label = env) envs) then
          Error (Printf.sprintf "unknown environment %S" env)
        else
          match app with
          | Some a when Apps.Registry.by_name a = None ->
            Error (Printf.sprintf "unknown application %S" a)
          | _ ->
            Ok
              { Queue.id = "";  (* assigned under the state mutex *)
                kind; chip; app; runs; env; seed; workers; priority;
                max_attempts })

(* ------------------------------------------------------------------ *)
(* JSON views                                                           *)

let shard_state_json (s : Queue.shard_state) =
  let open Json in
  match s with
  | Queue.Pending { attempt; not_before } ->
    Assoc
      ([ ("state", String "pending"); ("attempt", Int attempt) ]
      @ if not_before > 0.0 then [ ("not_before", Float not_before) ] else [])
  | Queue.Leased { pid; attempt; since; deadline } ->
    Assoc
      [ ("state", String "leased"); ("pid", Int pid); ("attempt", Int attempt);
        ("since", Float since); ("deadline", Float deadline) ]
  | Queue.Done { degraded } ->
    Assoc
      (("state", String "done")
      :: (if degraded then [ ("degraded", Bool true) ] else []))
  | Queue.Quarantined { reason } ->
    Assoc [ ("state", String "quarantined"); ("reason", String reason) ]

let job_json (j : Queue.job) =
  let open Json in
  let s = j.spec in
  let sdone =
    Array.fold_left
      (fun acc st -> match st with Queue.Done _ -> acc + 1 | _ -> acc)
      0 j.shards
  in
  let status =
    match j.finished with
    | Some st -> st
    | None -> if sdone = 0 && Array.for_all
                   (function Queue.Pending _ -> true | _ -> false) j.shards
              then "queued" else "running"
  in
  Assoc
    ([ ("id", String s.id); ("kind", String s.kind); ("chip", String s.chip) ]
    @ (match s.app with Some a -> [ ("app", String a) ] | None -> [])
    @ [ ("runs", Int s.runs); ("env", String s.env); ("seed", Int s.seed);
        ("workers", Int s.workers); ("priority", Int s.priority);
        ("max_attempts", Int s.max_attempts); ("status", String status);
        ("shards_done", Int sdone) ]
    @ (match j.ledger with Some l -> [ ("ledger", String l) ] | None -> [])
    @ [ ("shards", List (Array.to_list (Array.map shard_state_json j.shards)))
      ])

let queue_json ~now st =
  let open Json in
  let q = Queue.stats ~now st in
  Assoc
    [ ("pending", Int q.Queue.s_pending); ("leased", Int q.Queue.s_leased);
      ("done", Int q.Queue.s_done);
      ("quarantined", Int q.Queue.s_quarantined);
      ("active_jobs", Int q.Queue.s_active_jobs);
      ("finished_jobs", Int q.Queue.s_finished_jobs);
      ("retries", Int st.Queue.retries);
      ("quarantines", Int st.Queue.quarantines);
      ("oldest_lease_age_s", Float q.Queue.s_oldest_lease_age_s) ]

let queue_prometheus ~now st =
  let q = Queue.stats ~now st in
  let b = Buffer.create 512 in
  let gauge name v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" name name v)
  in
  gauge "gpuwmm_queue_depth" q.Queue.s_pending;
  gauge "gpuwmm_queue_leased" q.Queue.s_leased;
  gauge "gpuwmm_queue_shards_done" q.Queue.s_done;
  gauge "gpuwmm_queue_shards_quarantined" q.Queue.s_quarantined;
  gauge "gpuwmm_queue_active_jobs" q.Queue.s_active_jobs;
  gauge "gpuwmm_queue_finished_jobs" q.Queue.s_finished_jobs;
  Buffer.add_string b
    (Printf.sprintf
       "# TYPE gpuwmm_queue_retries_total counter\n\
        gpuwmm_queue_retries_total %d\n"
       st.Queue.retries);
  Buffer.add_string b
    (Printf.sprintf
       "# TYPE gpuwmm_queue_quarantined_total counter\n\
        gpuwmm_queue_quarantined_total %d\n"
       st.Queue.quarantines);
  Buffer.add_string b
    (Printf.sprintf
       "# TYPE gpuwmm_queue_oldest_lease_age_seconds gauge\n\
        gpuwmm_queue_oldest_lease_age_seconds %g\n"
       q.Queue.s_oldest_lease_age_s);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)

let run cfg =
  (try Unix.mkdir cfg.dir 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let journal = journal_path cfg in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        if not cfg.quiet then begin
          print_string ("serve: " ^ s ^ "\n");
          flush stdout
        end)
      fmt
  in
  match Queue.load journal with
  | Error e ->
    (* Fail closed, like --resume: a corrupt journal means operator
       attention, not a silent fresh queue that forgets submissions. *)
    prerr_endline ("gpuwmm serve: corrupt queue journal: " ^ e);
    1
  | Ok loaded ->
    if loaded.Journal.torn then begin
      (* The fragment must come off disk before the first append, or it
         becomes a fatal mid-file malformed line on the next restart. *)
      Journal.repair journal loaded;
      log "dropped a torn trailing journal line (crash mid-write)"
    end;
    let st = ref (Queue.replay loaded.Journal.records) in
    let mu = Mutex.create () in
    let locked f =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
    in
    let emit ev =
      (* Callers hold [mu].  Journal first, memory second: a crash
         between the two replays the event on restart; the other order
         could act on state that was never made durable. *)
      Queue.append ~path:journal ev;
      st := Queue.apply !st ev
    in
    let stopping = Atomic.make false in
    (* --- restart reconciliation ---------------------------------- *)
    let reconcile () =
      let now = Unix.gettimeofday () in
      List.iter
        (fun (job : Queue.job) ->
          if job.finished = None then
            Array.iteri
              (fun i sstate ->
                let k = i + 1 in
                match sstate with
                | Queue.Leased { attempt; _ } -> (
                  (* The lease's worker belonged to the previous daemon
                     process.  Its ledger is the only witness: complete
                     ledger means the work survived the crash, anything
                     else means the lease is revoked and the shard goes
                     back to the queue. *)
                  match shard_outcome cfg job.spec k with
                  | Some degraded ->
                    emit
                      (Queue.Shard_done
                         { t = now; id = job.spec.id; shard = k; degraded })
                  | None ->
                    if attempt >= job.spec.max_attempts then
                      emit
                        (Queue.Quarantined
                           { t = now; id = job.spec.id; shard = k;
                             reason = "lease revoked on restart; attempts \
                                       exhausted" })
                    else
                      emit
                        (Queue.Requeued
                           { t = now; id = job.spec.id; shard = k; attempt;
                             reason = "lease revoked on restart";
                             not_before = now }))
                | Queue.Pending _ -> (
                  (* The daemon may have died between a worker's clean
                     exit and the Shard_done append; the ledger closes
                     that window too. *)
                  match shard_outcome cfg job.spec k with
                  | Some degraded ->
                    emit
                      (Queue.Shard_done
                         { t = now; id = job.spec.id; shard = k; degraded })
                  | None -> ())
                | Queue.Done _ | Queue.Quarantined _ -> ())
              job.shards)
        !st.Queue.jobs
    in
    let sup =
      Procs.supervisor ~lease_s:cfg.lease_s ~log:(log "%s")
        ~max_workers:cfg.max_workers ~backoff_base_s:cfg.backoff_base_s
        ~plan_of:(Procs.test_plan ~exe:cfg.exe)
        ~path_of:(shard_path cfg)
        ~state:(fun () -> !st)
        ~emit ()
    in
    let finish_ready_jobs ~now () =
      List.iter
        (fun (job : Queue.job) ->
          if job.finished = None then begin
            let terminal =
              Array.for_all
                (function
                  | Queue.Done _ | Queue.Quarantined _ -> true
                  | Queue.Pending _ | Queue.Leased _ -> false)
                job.shards
            in
            if terminal then
              let quarantined =
                Array.exists
                  (function Queue.Quarantined _ -> true | _ -> false)
                  job.shards
              in
              if quarantined then begin
                log "job %s failed: quarantined shard(s), nothing merged"
                  job.spec.id;
                emit
                  (Queue.Finished
                     { t = now; id = job.spec.id; status = "failed";
                       ledger = None })
              end
              else begin
                let out = ledger_path cfg job.spec.id in
                let shards =
                  List.init job.spec.workers (fun i ->
                      shard_path cfg job.spec (i + 1))
                in
                match Merge.merge ~out shards with
                | Ok o ->
                  let degraded =
                    o.Merge.quarantined > 0
                    || Array.exists
                         (function
                           | Queue.Done { degraded } -> degraded | _ -> false)
                         job.shards
                  in
                  let status = if degraded then "degraded" else "done" in
                  log "job %s finished %s: %d job record(s) merged into %s"
                    job.spec.id status o.Merge.jobs out;
                  emit
                    (Queue.Finished
                       { t = now; id = job.spec.id; status;
                         ledger = Some out })
                | Error e ->
                  log "job %s merge failed: %s" job.spec.id e;
                  emit
                    (Queue.Finished
                       { t = now; id = job.spec.id; status = "failed";
                         ledger = None })
              end
          end)
        !st.Queue.jobs
    in
    let tick () =
      locked (fun () ->
          Procs.tick sup;
          (* Merge campaigns whose shards all reached a terminal state. *)
          finish_ready_jobs ~now:(Unix.gettimeofday ()) ())
    in
    (* --- HTTP face ------------------------------------------------ *)
    let handler (req : Httpd.request) =
      match (req.Httpd.meth, req.Httpd.path) with
      | "POST", "/submit" -> (
        match
          parse_submission ~default_max_attempts:cfg.max_attempts
            req.Httpd.body
        with
        | Error e -> Httpd.respond ~status:400 (e ^ "\n")
        | Ok spec ->
          let resp =
            locked (fun () ->
                let taken id = Queue.find !st id <> None in
                let rec fresh n =
                  let id = Printf.sprintf "job-%d" n in
                  if taken id then fresh (n + 1) else id
                in
                let id = fresh (List.length !st.Queue.jobs + 1) in
                let spec = { spec with Queue.id } in
                emit
                  (Queue.Submitted { t = Unix.gettimeofday (); spec });
                (* Lease it now, not at the lease loop's next ceiling. *)
                Procs.poke sup;
                log "job %s submitted: %s %s runs=%d seed=%d workers=%d \
                     priority=%d"
                  id spec.Queue.chip spec.Queue.env spec.Queue.runs
                  spec.Queue.seed spec.Queue.workers spec.Queue.priority;
                Json.to_string
                  (Json.Assoc
                     [ ("id", Json.String id);
                       ("workers", Json.Int spec.Queue.workers);
                       ("status", Json.String "queued") ]))
          in
          Httpd.respond ~content_type:"application/json" (resp ^ "\n"))
      | ("GET" | "HEAD"), "/jobs" ->
        let body =
          locked (fun () ->
              Json.to_string
                (Json.Assoc
                   [ ( "jobs",
                       Json.List (List.map job_json !st.Queue.jobs) ) ]))
        in
        Httpd.respond ~content_type:"application/json" (body ^ "\n")
      | ("GET" | "HEAD"), "/status" ->
        let now = Unix.gettimeofday () in
        let queue, hb_paths =
          locked (fun () ->
              ( queue_json ~now !st,
                List.concat_map
                  (fun (job : Queue.job) ->
                    if job.finished = None then
                      List.init job.spec.workers (fun i ->
                          Heartbeat.hb_path
                            (shard_path cfg job.spec (i + 1)))
                    else [])
                  !st.Queue.jobs ))
        in
        let fleet = Fleetview.load ~now hb_paths in
        let body =
          Json.to_string
            (Json.Assoc
               [ ("queue", queue); ("fleet", Fleetview.render_json fleet) ])
        in
        Httpd.respond ~content_type:"application/json" (body ^ "\n")
      | ("GET" | "HEAD"), "/metrics" ->
        let now = Unix.gettimeofday () in
        let queue_text, hb_paths =
          locked (fun () ->
              ( queue_prometheus ~now !st,
                List.concat_map
                  (fun (job : Queue.job) ->
                    if job.finished = None then
                      List.init job.spec.workers (fun i ->
                          Heartbeat.hb_path
                            (shard_path cfg job.spec (i + 1)))
                    else [])
                  !st.Queue.jobs ))
        in
        let fleet = Fleetview.load ~now hb_paths in
        Httpd.respond
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Telemetry.prometheus (Telemetry.snapshot ())
          ^ Fleetview.prometheus fleet ^ queue_text)
      | ("GET" | "HEAD"), "/healthz" -> Httpd.respond "ok\n"
      | _ -> Httpd.respond ~status:404 "not found\n"
    in
    let server =
      try Some (Httpd.start_routes ~addr:cfg.addr ~port:cfg.port handler)
      with Unix.Unix_error (e, _, _) ->
        prerr_endline
          ("gpuwmm serve: cannot bind " ^ cfg.addr ^ ": "
         ^ Unix.error_message e);
        None
    in
    match server with
    | None -> 1
    | Some server ->
      (* The poke wakes an idle lease loop, which otherwise blocks until
         the next submission. *)
      List.iter
        (fun s ->
          try
            Sys.set_signal s
              (Sys.Signal_handle
                 (fun _ ->
                   Atomic.set stopping true;
                   Procs.poke sup))
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      (* The banner is machine-read (CI parses the port out of it), so
         it prints even under --quiet. *)
      Printf.printf "gpuwmm serve: listening on http://%s:%d (state in %s)\n"
        cfg.addr (Httpd.port server) cfg.dir;
      flush stdout;
      locked reconcile;
      let queue_drained () =
        locked (fun () ->
            !st.Queue.jobs <> []
            && List.for_all
                 (fun (j : Queue.job) -> j.finished <> None)
                 !st.Queue.jobs)
      in
      while
        (not (Atomic.get stopping))
        && not (cfg.until_idle && queue_drained ())
      do
        tick ();
        if
          (not (Atomic.get stopping))
          && not (cfg.until_idle && queue_drained ())
        then Procs.wait sup
      done;
      (* Graceful stop: SIGTERM the workers so their own handlers flush
         a resumable ledger prefix and a final heartbeat, reap them as
         they exit, then force the stragglers after 5 s.  No requeue
         events are written — the next start's reconciliation revokes
         the leases, which keeps "crash" and "orderly stop" on the same
         recovery path. *)
      let workers = Procs.pids sup in
      if workers <> [] then
        log "stopping: signalling %d worker(s)" (List.length workers);
      Procs.stop sup;
      Httpd.stop server;
      if not cfg.until_idle then 0
      else
        locked (fun () ->
            (* Degraded/failed campaigns surface in the drain exit code
               with the same semantics as a degraded campaign run. *)
            let drained =
              !st.Queue.jobs <> []
              && List.for_all
                   (fun (j : Queue.job) -> j.finished <> None)
                   !st.Queue.jobs
            in
            if
              drained
              && List.exists
                   (fun (j : Queue.job) -> j.finished <> Some "done")
                   !st.Queue.jobs
            then 3
            else 0)
