(* Process-level fan-out for sharded campaigns.

   OCaml 5 domains share one stop-the-world minor collector, so for
   allocation-heavy simulation the domain pool stops scaling almost
   immediately (bench: speedup_j2 < 1).  The escape hatch is processes:
   the CLI re-executes itself once per shard ([--shard k/N]), each child
   a plain single-domain run with its own heap, and the parent
   reassembles the shard ledgers.  This module owns the mechanics —
   the shard geometry, GC budgeting, and the one supervisor (spawn,
   reap, lease deadlines, heartbeat liveness, fail-closed completion,
   backoff and quarantine) that both `-j N` campaigns and the serve
   daemon run over a Queue state — using nothing beyond stdlib [Unix].

   Why this is safe with domains: [Unix.create_process] forks and execs
   immediately, so the child never runs OCaml code in the forked image
   (fork without exec is unsafe once domains have been spawned). *)

let shard_paths ?log ~n () =
  List.init n (fun i ->
      let k = i + 1 in
      match log with
      | Some l -> Printf.sprintf "%s.shard%d" l k
      | None ->
        let f = Filename.temp_file "gpuwmm-shard" ".jsonl" in
        (* temp_file creates the file; a stale empty ledger would fail
           the child's header parse on --resume paths, so remove it and
           let the child create it. *)
        Sys.remove f;
        f)

(* Each worker gets [1/n] of the default per-domain minor heap (floored
   at 1 MiB) unless the operator pinned GPUWMM_GC, so a process-sharded
   campaign keeps roughly the single-process memory budget. *)
let child_env ~n =
  let base = Unix.environment () in
  let has_gc =
    Array.exists (fun kv -> String.length kv >= 10 && String.sub kv 0 10 = "GPUWMM_GC=") base
  in
  if has_gc then base
  else
    let words = Int.max 262144 (Exec.default_minor_heap_words / Int.max 1 n) in
    Array.append base [| Printf.sprintf "GPUWMM_GC=%d" words |]

(* OCaml numbers the portable signals with internal negative codes
   (Sys.sigkill is -7); translate to the numbers people grep dmesg and
   `kill -l` for before they reach a log line.  Signals 1-15 have the
   same numbers everywhere; SIGCHLD/SIGCONT/SIGSTOP/SIGTSTP follow the
   Linux x86-64 table (17/18/19/20) and map differently on macOS/BSD
   (e.g. SIGCHLD is 20 there) — we only deploy on Linux. *)
let posix_signal s =
  if s >= 0 then s
  else if s = Sys.sighup then 1
  else if s = Sys.sigint then 2
  else if s = Sys.sigquit then 3
  else if s = Sys.sigill then 4
  else if s = Sys.sigabrt then 6
  else if s = Sys.sigfpe then 8
  else if s = Sys.sigkill then 9
  else if s = Sys.sigusr1 then 10
  else if s = Sys.sigsegv then 11
  else if s = Sys.sigusr2 then 12
  else if s = Sys.sigpipe then 13
  else if s = Sys.sigalrm then 14
  else if s = Sys.sigterm then 15
  else if s = Sys.sigchld then 17
  else if s = Sys.sigcont then 18
  else if s = Sys.sigstop then 19
  else if s = Sys.sigtstp then 20
  else s

let describe_exit = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" (posix_signal s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" (posix_signal s)

(* ------------------------------------------------------------------ *)
(* Campaign geometry                                                    *)

type plan = {
  campaign : string;
  seed : int;
  grid : Json.t;
  argv : k:int -> path:string -> string list;
}

(* The `gpuwmm test` shard: the worker argv and the parameter grid its
   ledger header records.  Both the `-j N` driver and the serve daemon
   spawn exactly this, so a merged ledger is byte-identical to a
   single-process run and resume validation accepts either's shards. *)
let test_plan ~exe (spec : Queue.spec) =
  let apps =
    match spec.app with
    | Some a -> [ a ]
    | None -> List.map (fun a -> a.Apps.App.name) Apps.Registry.all
  in
  let strs l = Json.List (List.map (fun s -> Json.String s) l) in
  { campaign = spec.kind;
    seed = spec.seed;
    grid =
      Json.Assoc
        [ ("chips", strs [ spec.chip ]); ("envs", strs [ spec.env ]);
          ("apps", strs apps); ("runs", Json.Int spec.runs) ];
    argv =
      (fun ~k ~path ->
        [ exe; "test";
          "--chip"; spec.chip;
          "--runs"; string_of_int spec.runs;
          "--env"; spec.env;
          "--seed"; string_of_int spec.seed;
          "-j"; "1"; "-q";
          "--shard"; Printf.sprintf "%d/%d" k spec.workers;
          "--log"; path ]
        @ match spec.app with Some a -> [ "--app"; a ] | None -> []) }

(* A shard ledger that loads and passes the same validation `--resume`
   applies (shard, campaign, seed, grid). *)
let validated plan ~n ~k ~path =
  match Runlog.load path with
  | Error _ -> None
  | Ok l -> (
    match
      Runlog.validate_resume
        ~shard:(Printf.sprintf "%d/%d" k n)
        l ~path ~campaign:plan.campaign ~seed:plan.seed ~grid:plan.grid
    with
    | Ok () -> Some l
    | Error _ -> None)

(* Fail-closed completeness: a shard counts as done only when its ledger
   validates and carries a footer (interrupted runs have none). *)
let shard_outcome plan ~n ~k ~path =
  match validated plan ~n ~k ~path with
  | Some { Runlog.footer = Some f; _ } -> Some (f.Runlog.quarantined > 0)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* The supervisor                                                       *)

(* A leased worker: its pid and the read end of its exit pipe.  The
   worker holds the only write end, so the read end hits EOF when the
   worker exits; [exited] records that EOF (and that [exit_r] is
   closed). *)
type child = { pid : int; exit_r : Unix.file_descr; mutable exited : bool }

type t = {
  max_workers : int;
  lease_s : float;
  backoff_base_s : float;
  plan_of : Queue.spec -> plan;
  path_of : Queue.spec -> int -> string;
  state : unit -> Queue.state;
  emit : Queue.event -> unit;
  log : string -> unit;
  children : (string * int, child) Hashtbl.t;
      (* the lease per (job id, shard) owned by THIS process; journal
         pids from a previous daemon life are not ours to waitpid *)
  poke_r : Unix.file_descr;  (* self-pipe behind [poke]; close-on-exec *)
  poke_w : Unix.file_descr;
}

let supervisor ?(lease_s = infinity) ?(log = ignore) ~max_workers
    ~backoff_base_s ~plan_of ~path_of ~state ~emit () =
  let poke_r, poke_w = Unix.pipe ~cloexec:true () in
  (* Non-blocking both ways: a burst of pokes must never block the
     poker on a full pipe, nor [wait]'s read an emptied one. *)
  Unix.set_nonblock poke_r;
  Unix.set_nonblock poke_w;
  { max_workers; lease_s; backoff_base_s; plan_of; path_of; state; emit; log;
    children = Hashtbl.create 16; poke_r; poke_w }

let pids t = Hashtbl.fold (fun _ c acc -> c.pid :: acc) t.children []

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let forget t key =
  (match Hashtbl.find_opt t.children key with
  | Some c when not c.exited -> close_quietly c.exit_r
  | _ -> ());
  Hashtbl.remove t.children key

(* Reap a child if it has exited.  EOF on its exit pipe means the worker
   is already exiting (only it holds the write end, and a worker never
   closes descriptors it does not know of), so a blocking [waitpid]
   returns at once; without the EOF only [WNOHANG] may be asked. *)
let rec reap c =
  match Unix.waitpid (if c.exited then [] else [ Unix.WNOHANG ]) c.pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap c

let outcome t (spec : Queue.spec) k =
  shard_outcome (t.plan_of spec) ~n:spec.workers ~k ~path:(t.path_of spec k)

let fail_shard t ~now (spec : Queue.spec) k ~attempt ~reason =
  if attempt >= spec.max_attempts then begin
    t.log
      (Printf.sprintf "job %s shard %d/%d quarantined after %d attempt(s): %s"
         spec.id k spec.workers attempt reason);
    t.emit (Queue.Quarantined { t = now; id = spec.id; shard = k; reason })
  end
  else begin
    let backoff =
      Queue.backoff_s ~base:t.backoff_base_s
        ~seed:(Gpusim.Rng.subseed spec.seed k) ~attempt
    in
    t.log
      (Printf.sprintf "job %s shard %d/%d failed (%s); retry %d/%d in %.1fs"
         spec.id k spec.workers reason attempt (spec.max_attempts - 1)
         backoff);
    t.emit
      (Queue.Requeued
         { t = now; id = spec.id; shard = k; attempt; reason;
           not_before = now +. backoff })
  end

let settle_exit t ~now (spec : Queue.spec) k ~attempt status =
  forget t (spec.id, k);
  match status with
  | Unix.WEXITED 0 -> (
    (* Trust but verify: exit 0 with an incomplete ledger (disk full,
       torn footer) must not mark the shard done. *)
    match outcome t spec k with
    | Some degraded ->
      t.emit (Queue.Shard_done { t = now; id = spec.id; shard = k; degraded })
    | None ->
      fail_shard t ~now spec k ~attempt
        ~reason:"exited 0 but ledger incomplete")
  | Unix.WEXITED 3 ->
    (* Degraded-but-whole, the exit-code-3 contract: quarantined jobs
       inside, ledger mergeable. *)
    t.emit
      (Queue.Shard_done { t = now; id = spec.id; shard = k; degraded = true })
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
    fail_shard t ~now spec k ~attempt ~reason:(describe_exit status)

let kill_lease t ~now (spec : Queue.spec) k ~pid ~attempt ~reason =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget t (spec.id, k);
  fail_shard t ~now spec k ~attempt ~reason

let spawn_lease t ~now (job : Queue.job) k =
  let spec = job.spec in
  let path = t.path_of spec k in
  let plan = t.plan_of spec in
  let attempt =
    match Queue.shard_get job k with
    | Some (Queue.Pending { attempt; _ }) -> attempt + 1
    | _ -> 1
  in
  (* A crashed worker resumes from whatever ledger prefix survived, but
     only when that prefix still validates — a half-written header or a
     foreign file means a fresh start, not a wedged respawn loop. *)
  let argv =
    plan.argv ~k ~path
    @
    if validated plan ~n:spec.workers ~k ~path <> None then
      [ "--resume"; path ]
    else []
  in
  let env = child_env ~n:spec.workers in
  let env =
    (* The respawn count rides into the worker's heartbeats, so `gpuwmm
       status` shows which shards crashed. *)
    if attempt > 1 then
      Array.append env [| Printf.sprintf "GPUWMM_RESPAWN=%d" (attempt - 1) |]
    else env
  in
  (* The exit pipe: close-on-exec except for the write end, which only
     this worker inherits — the parent closes its copy right after the
     spawn, before any other lease's spawn can inherit it. *)
  let exit_r, exit_w = Unix.pipe ~cloexec:true () in
  Unix.clear_close_on_exec exit_w;
  match
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close exit_w)
      (fun () ->
        Unix.create_process_env (List.hd argv) (Array.of_list argv) env
          devnull devnull devnull)
  with
  | pid ->
    Hashtbl.replace t.children (spec.id, k) { pid; exit_r; exited = false };
    t.log
      (Printf.sprintf "job %s shard %d/%d leased to pid %d (attempt %d/%d)"
         spec.id k spec.workers pid attempt spec.max_attempts);
    t.emit
      (Queue.Leased
         { t = now; id = spec.id; shard = k; pid; attempt;
           deadline = now +. t.lease_s })
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close exit_r;
    fail_shard t ~now spec k ~attempt
      ~reason:("spawn failed: " ^ Unix.error_message e)

let tick t =
  let now = Unix.gettimeofday () in
  (* 1. Reap exited workers. *)
  Hashtbl.iter
    (fun (id, k) c ->
      match reap c with
      | None -> ()
      | Some status -> (
        match Queue.find (t.state ()) id with
        | Some job -> (
          match Queue.shard_get job k with
          | Some (Queue.Leased { attempt; _ }) ->
            settle_exit t ~now job.spec k ~attempt status
          | _ -> forget t (id, k))
        | None -> forget t (id, k))
      | exception Unix.Unix_error _ -> forget t (id, k))
    (Hashtbl.copy t.children);
  (* 2. Enforce lease deadlines and heartbeat liveness. *)
  List.iter
    (fun (job : Queue.job) ->
      if job.finished = None then
        Array.iteri
          (fun i sstate ->
            let k = i + 1 in
            match sstate with
            | Queue.Leased { pid; attempt; deadline; _ }
              when Hashtbl.mem t.children (job.spec.id, k) -> (
              if now > deadline then
                kill_lease t ~now job.spec k ~pid ~attempt
                  ~reason:
                    (Printf.sprintf "lease expired after %.0fs" t.lease_s)
              else
                (* Heartbeat staleness as a second liveness signal:
                   catches a worker that is alive for waitpid but
                   wedged.  Guarded to real timestamps — deterministic
                   beats carry t = 0 and would always classify Dead —
                   and to the leased pid, so a stale stream from a
                   previous attempt is not charged to this one. *)
                match
                  Heartbeat.latest (Heartbeat.hb_path (t.path_of job.spec k))
                with
                | Some r
                  when r.Heartbeat.t > 0.0 && r.Heartbeat.pid = pid
                       && Heartbeat.classify ~now r = Heartbeat.Dead ->
                  kill_lease t ~now job.spec k ~pid ~attempt
                    ~reason:"heartbeat dead"
                | _ -> ())
            | _ -> ())
          job.shards)
    (t.state ()).Queue.jobs;
  (* 3. Hand out leases up to the worker budget. *)
  let rec assign () =
    if Hashtbl.length t.children < t.max_workers then
      match Queue.next_lease ~now (t.state ()) with
      | None -> ()
      | Some (job, k) ->
        (* The ledger may already hold this shard complete (e.g. requeued
           after a crash that actually landed the footer); recognise it
           instead of re-running. *)
        (match outcome t job.spec k with
        | Some degraded ->
          t.emit
            (Queue.Shard_done
               { t = now; id = job.spec.id; shard = k; degraded })
        | None -> spawn_lease t ~now job k);
        assign ()
  in
  assign ()

(* ------------------------------------------------------------------ *)
(* Waiting for the next event                                           *)

(* The longest [wait] blocks by default: the cadence of the checks that
   no descriptor announces — lease deadlines, heartbeat liveness and
   requeued shards' backoff gates. *)
let ceiling_s = 0.1

(* Nothing for the ceiling to pace: no live worker and no shard of an
   open job short of Done or Quarantined.  Only a poke (a submission)
   or a signal can make work then.  [state] may be read racily from
   here (the daemon's HTTP domain submits under its own lock); a stale
   read misses only a submission whose poke is already on its way. *)
let idle t =
  Hashtbl.length t.children = 0
  && List.for_all
       (fun (j : Queue.job) ->
         j.finished <> None
         || Array.for_all
              (function
                | Queue.Done _ | Queue.Quarantined _ -> true
                | Queue.Pending _ | Queue.Leased _ -> false)
              j.shards)
       (t.state ()).Queue.jobs

let wait ?timeout t =
  let timeout =
    match timeout with
    | Some s -> Float.max 0.0 s
    | None -> if idle t then -1.0 (* no timeout *) else ceiling_s
  in
  let live =
    Hashtbl.fold
      (fun _ c acc -> if c.exited then acc else c :: acc)
      t.children []
  in
  let fds = t.poke_r :: List.map (fun c -> c.exit_r) live in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
    (* A descriptor past FD_SETSIZE: degrade to a plain sleep.  Any
       other error (EBADF: a closed exit pipe still listed) is a bug
       and propagates. *)
    Unix.sleepf (if timeout < 0.0 then ceiling_s else timeout)
  | ready, _, _ ->
    let buf = Bytes.create 64 in
    List.iter
      (fun fd ->
        let n =
          try Unix.read fd buf 0 (Bytes.length buf)
          with Unix.Unix_error _ -> 0
        in
        match List.find_opt (fun c -> c.exit_r = fd) live with
        | Some c when n = 0 ->
          c.exited <- true;
          close_quietly fd
        | _ ->
          (* Poke bytes, or bytes a worker wrote to its inherited
             descriptor: only EOF means a worker exited. *)
          ())
      ready

let poke t =
  try ignore (Unix.single_write t.poke_w (Bytes.make 1 'p') 0 1)
  with Unix.Unix_error _ -> ()  (* EAGAIN: a wake-up is already pending *)

let forget_all t =
  Hashtbl.iter
    (fun _ c -> if not c.exited then close_quietly c.exit_r)
    t.children;
  Hashtbl.reset t.children

(* How long [stop] waits for SIGTERM'd workers before SIGKILL. *)
let grace_s = 5.0

(* The poke pipe outlives [stop]: a signal handler may still poke. *)
let stop t =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    (pids t);
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec drain () =
    Hashtbl.iter
      (fun key c ->
        match reap c with
        | None -> ()
        | Some _ | (exception Unix.Unix_error _) -> forget t key)
      (Hashtbl.copy t.children);
    let left = deadline -. Unix.gettimeofday () in
    if Hashtbl.length t.children > 0 && left > 0.0 then begin
      wait ~timeout:(Float.min ceiling_s left) t;
      drain ()
    end
  in
  drain ();
  (* Force the stragglers. *)
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (pids t);
  forget_all t

let close t =
  forget_all t;
  close_quietly t.poke_r;
  close_quietly t.poke_w

let default_max_attempts = 3
let default_backoff_base_s = 0.5

let cleanup paths =
  let rm p = try Sys.remove p with Sys_error _ -> () in
  List.iter
    (fun p ->
      rm p;
      (* Observability sidecars ride along with shard ledgers. *)
      rm (Heartbeat.hb_path p);
      rm (p ^ ".spans.json"))
    paths

(* The one-job driver behind `-j N`: an in-memory queue with no journal
   and no lease deadline, ticked after every [wait] until every shard
   settles. *)
let run ~paths plan =
  (* A fresh campaign never adopts shard ledgers or heartbeats an
     earlier invocation left at these paths. *)
  cleanup paths;
  let n = List.length paths in
  let paths = Array.of_list paths in
  let spec =
    { Queue.id = plan.campaign; kind = plan.campaign; chip = ""; app = None;
      runs = 0; env = ""; seed = plan.seed; workers = n; priority = 0;
      max_attempts = default_max_attempts }
  in
  let st = ref (Queue.apply Queue.empty (Queue.Submitted { t = 0.0; spec })) in
  let t =
    supervisor ~log:Exec.info ~max_workers:n
      ~backoff_base_s:default_backoff_base_s
      ~plan_of:(fun _ -> plan)
      ~path_of:(fun _ k -> paths.(k - 1))
      ~state:(fun () -> !st)
      ~emit:(fun ev -> st := Queue.apply !st ev)
      ()
  in
  let hb_paths = Array.to_list (Array.map Heartbeat.hb_path paths) in
  let rec loop last_line =
    tick t;
    let shards = (List.hd !st.Queue.jobs).Queue.shards in
    if
      Array.for_all
        (function Queue.Done _ | Queue.Quarantined _ -> true | _ -> false)
        shards
    then shards
    else begin
      let now = Unix.gettimeofday () in
      let last_line =
        if now -. last_line < 1.0 then last_line
        else begin
          let fleet = Fleetview.load ~now hb_paths in
          if fleet.Fleetview.workers <> [] then
            Exec.info (Fleetview.summary_line fleet);
          now
        end
      in
      wait t;
      loop last_line
    end
  in
  (* Nothing else can poke this supervisor, so its pipes go with it.
     An interrupt leaves the workers to their own signal handlers, as
     before. *)
  Fun.protect ~finally:(fun () -> close t) (fun () -> loop 0.0)

(* Union resume cache over whatever shard ledgers made it to disk.  A
   shard that exhausted its attempts may be unreadable or half-written;
   its jobs simply stay uncached and re-run in the parent under the
   parent's own supervision, which is the crash-reaping story: no shard
   failure mode can lose a campaign, only slow it down. *)
let merged_cache paths =
  let ledgers =
    List.filter_map
      (fun p ->
        match Runlog.load p with
        | Ok l -> Some l
        | Error e ->
          Exec.info
            (Printf.sprintf "shard ledger unreadable (%s); its jobs re-run" e);
          None)
      paths
  in
  Runlog.cache_of_ledgers ledgers
