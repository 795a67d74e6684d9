(** Process-level fan-out for sharded campaigns: the one shard
    supervisor behind both [gpuwmm test -j N] / [table 5 -j N] and the
    [gpuwmm serve] daemon.

    OCaml 5 domains share a stop-the-world minor collector, so the
    domain pool does not scale for allocation-heavy simulation; worker
    {e subprocesses} (self-exec with [--shard k/N]) each get their own
    runtime.  The supervisor works over a {!Queue.state}: it spawns a
    worker per leased shard, reaps it when its exit wakes {!wait},
    kills lease-deadline overruns and heartbeat-dead workers,
    recognises completion only from a validated ledger, requeues
    failures with {!Queue.backoff_s} and quarantines a shard that
    spends its attempt budget.  Every
    transition goes through the caller's [emit]: the daemon journals
    then applies, the [-j N] driver ({!run}) only applies.

    Uses stdlib [Unix] only.  Safe in the presence of domains because
    [Unix.create_process] forks and execs atomically. *)

val shard_paths : ?log:string -> n:int -> unit -> string list
(** Ledger path per shard [1..n]: [LOG.shard<k>] next to a requested
    [--log] (durable, uploadable artifacts), fresh temp files
    otherwise. *)

(** {1 Campaign geometry} *)

(** What a shard worker runs and what its ledger must record. *)
type plan = {
  campaign : string;  (** ledger header campaign kind *)
  seed : int;
  grid : Json.t;  (** the parameter grid {!Runlog.validate_resume} checks *)
  argv : k:int -> path:string -> string list;
      (** shard [k]'s worker argv writing ledger [path], [argv.(0)]
          included (it is also the program spawned) *)
}

val test_plan : exe:string -> Queue.spec -> plan
(** The [gpuwmm test] campaign of a spec, sharded [spec.workers] ways:
    [exe test --chip .. --shard k/N --log path] and its grid. *)

val shard_outcome : plan -> n:int -> k:int -> path:string -> bool option
(** Fail-closed completeness of shard [k/n]'s ledger at [path]:
    [Some degraded] when it loads, carries a footer and passes
    {!Runlog.validate_resume} against the plan ([degraded] = some job
    was quarantined), [None] otherwise. *)

(** {1 The supervisor} *)

type t

val supervisor :
  ?lease_s:float ->
  ?log:(string -> unit) ->
  max_workers:int ->
  backoff_base_s:float ->
  plan_of:(Queue.spec -> plan) ->
  path_of:(Queue.spec -> int -> string) ->
  state:(unit -> Queue.state) ->
  emit:(Queue.event -> unit) ->
  unit ->
  t
(** A supervisor over the queue [state ()], which must reflect every
    event passed to [emit].  [lease_s] (default: no deadline) bounds a
    lease's wall clock; [log] receives one line per lease, retry and
    quarantine. *)

val tick : t -> unit
(** One supervision step:
    + reap exited workers — exit 0 with a {!shard_outcome} is
      [Shard_done], exit 3 is [Shard_done] degraded, anything else
      (including exit 0 without a valid footer) fails the attempt;
    + kill leases past their deadline or whose worker's heartbeat
      classifies [Dead], failing the attempt;
    + lease ripe shards ({!Queue.next_lease}) up to [max_workers] live
      workers.  A retried shard whose ledger is already complete is
      recorded done without a spawn; otherwise the worker is spawned
      with {!child_env}, [GPUWMM_RESPAWN] = failed attempts, and
      [--resume <ledger>] when the ledger prefix validates.

    A failed attempt is [Requeued] after {!Queue.backoff_s} (seeded by
    the job seed and shard), or [Quarantined] once it was the
    [max_attempts]-th. *)

val pids : t -> int list
(** Workers this supervisor spawned and has not reaped yet. *)

val wait : ?timeout:float -> t -> unit
(** Block until a worker this supervisor leased exits, {!poke} is
    called, a signal interrupts the wait, or [timeout] passes.  Each
    worker is spawned holding the only write end of its own exit pipe,
    which reaches EOF when it exits; nothing polls.  The default
    timeout is the 0.1 s ceiling that paces lease deadlines, heartbeat
    liveness and backoff gates, and none at all while there is nothing
    for it to pace (no live worker, no open shard short of done or
    quarantined).  Call {!tick} after it returns. *)

val poke : t -> unit
(** Wake a concurrent or the next {!wait}, e.g. after a submission.
    Safe from any domain and from a signal handler, also after
    {!stop}; never blocks. *)

val stop : t -> unit
(** Graceful shutdown: SIGTERM every live worker, reap them for up to
    5 s woken by their exits, then SIGKILL and reap the stragglers.
    Records no events. *)

val close : t -> unit
(** Release the supervisor's descriptors: the poke pipe and the exit
    pipes of workers not yet reaped, which are forgotten, not signalled
    (see {!stop}).  Neither {!wait} nor {!poke} may follow. *)

val default_max_attempts : int
(** [3]: the attempt budget of every [-j N] shard and the serve
    daemon's default per submission. *)

val default_backoff_base_s : float
(** [0.5]: the {!Queue.backoff_s} base of [-j N] retries and the serve
    daemon's default. *)

val run : paths:string list -> plan -> Queue.shard_state array
(** Supervise one campaign sharded [List.length paths] ways, shard [k]
    writing the [k]-th path, over an in-memory queue (no journal, no
    lease deadline) with {!default_max_attempts} and
    {!default_backoff_base_s}, {!wait}ing between ticks until every
    shard is [Done] or [Quarantined]; the result holds shard [k] at
    index [k-1].  Files an
    earlier invocation left at [paths] (ledgers and sidecars, see
    {!cleanup}) are removed first, so a fresh campaign never adopts
    them.  Lease, retry and quarantine lines and a
    {!Fleetview.summary_line} about once a second go through
    {!Exec.info}. *)

val merged_cache : string list -> Runlog.cache
(** Union resume cache over the shard ledgers that load (torn tails
    dropped, unreadable ledgers skipped with a notice) — the parent's
    final pass replays cached jobs and re-executes only what the
    workers failed to flush. *)

val cleanup : string list -> unit
(** Best-effort removal of shard ledgers and their observability
    sidecars ([.hb] heartbeats, [.spans.json] traces). *)
