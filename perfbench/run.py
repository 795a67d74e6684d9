#!/usr/bin/env python3
"""The gpuwmm benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table5|tune|fleet --seed N \
        --seconds S --trace 0|1

It builds the CLI and the in-process probe (perfbench/probe.ml) from
source, warms up, measures the workload for S seconds, checks every output
against the reference digests in perfbench/reference.json, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics.  The line before it holds
the host stamp, the sample counts and every check.  METRICS.md says what
each metric measures and which end-to-end metric it should move.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table5", "tune", "fleet")

# Reference digests are recorded for this many workload seeds; --seed N
# runs workload seed N mod REFERENCE_SEEDS.
REFERENCE_SEEDS = 64

# Set-up is timed this many times per untraced run; setup_s is the median.
# A table5 set-up takes about 0.15 s and a daemon's about 6 ms, so their
# medians need more samples than tune's 0.6 s.
SETUPS = {"table5": 15, "tune": 9, "fleet": 31}

# A traced run fails unless its layer times, each measured on its own,
# add up to its wall time within this share.
LAYER_SUM_TOLERANCE = 0.05

# The fleet campaign: K20, sys-str+, all ten applications.
FLEET_CHIP, FLEET_ENV, FLEET_RUNS, FLEET_WORKERS = "K20", "sys-str+", 10, 2
FLEET_APPS = 10


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build


def build(root):
    for need in ("dune-project", "bin/gpuwmm_cli.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"{need} is missing: run from a gpuwmm checkout")
    cmd = ["dune", "build", "--root", ".", "bin/gpuwmm_cli.exe",
           "perfbench/probe.exe"]
    # No shared dune cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                        stderr=sys.stderr, stdin=subprocess.DEVNULL).returncode
    if rc != 0:
        raise BenchError(f"build failed: {' '.join(cmd)} exited {rc}")
    exe = os.path.join(root, "_build", "default")
    return (os.path.join(exe, "bin", "gpuwmm_cli.exe"),
            os.path.join(exe, "perfbench", "probe.exe"))


def clean_env(work, deterministic):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("GPUWMM_", "OCAML"))}
    env["OCAML_RUNTIME_EVENTS_DIR"] = work
    if deterministic:
        env["GPUWMM_LEDGER_DETERMINISTIC"] = "1"
    return env


# ----------------------------------------------------------- statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def rate(work, times):
    """Work per second over every measured unit of the run: the whole
    run's throughput.  Unlike a median of units it moves smoothly when
    unit times are quantised, as the daemon's 0.1 s lease tick makes
    them on the serve path, and Procs' 0.1 s reaping poll on the jobs
    path."""
    return work * len(times) / sum(times)


def timing(xs):
    """Median plus the highest percentile with at least ten samples
    beyond it, when the sample count allows one."""
    out = {"n": len(xs), "median": median(xs)}
    p = int(100 * (1 - 10 / len(xs))) if xs else 0
    if p > 50:
        out[f"p{p}"] = statistics.quantiles(xs, n=100)[p - 1]
    return out


# ----------------------------------------------------------- host stamp


def read_steal():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_stamp():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "loadavg": list(os.getloadavg()), "steal": read_steal()}


# ------------------------------------------------------- processes


class Children:
    """Every process the benchmark starts, stopped and reaped on exit."""

    def __init__(self):
        self.procs = []

    def popen(self, argv, **kw):
        p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, **kw)
        self.procs.append(p)
        return p

    def stop(self, p, timeout=15):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def stop_all(self):
        for p in self.procs:
            self.stop(p, timeout=5)


def read_json_line(p, what):
    line = p.stdout.readline()
    if not line:
        raise BenchError(f"{what}: no output (exit {p.wait()})")
    return json.loads(line)


# ------------------------------------------------ in-process workloads


def probe_workload(ctx, workload):
    """table5 and tune: the probe measures, run.py checks and reduces."""
    probe, seed, traced = ctx["probe"], ctx["wseed"], ctx["traced"]
    env = clean_env(ctx["work"], deterministic=False)
    setups = []
    if not traced:
        # Throwaway processes set up, then the measuring one.
        for _ in range(SETUPS[workload] - 1):
            t0 = time.perf_counter()
            p = ctx["children"].popen(
                [probe, "setup", "--workload", workload],
                stdout=subprocess.PIPE, env=env, text=True)
            read_json_line(p, "probe setup")
            setups.append(time.perf_counter() - t0)
            if p.wait() != 0:
                raise BenchError(f"probe setup exited {p.returncode}")
    t0 = time.perf_counter()
    p = ctx["children"].popen(
        [probe, "run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(ctx["seconds"]), "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, env=env, text=True)
    read_json_line(p, "probe run")
    setups.append(time.perf_counter() - t0)
    out = read_json_line(p, "probe run")
    rc = p.wait()
    checks = {"probe_exit_0": rc == 0}
    ref = ctx["reference"].get(workload, {}).get(str(seed))
    digests = out["digests"]
    bad = sum(1 for d in digests if d != (ref or digests[0]))
    checks["reference_digest"] = ref is not None and bad == 0
    checks["passes_repeat_exactly"] = len(set(digests)) == 1
    attempted, failed = len(digests), bad
    if workload == "table5":
        checks["error_counts_repeat_exactly"] = out["errors_distinct"] == 1
        ref_counts = json.loads(
            ctx["reference"]["table5_sim"].get(str(seed), "[]"))
        counts = json.loads(out["sim_counts"])
        if traced:
            # An active trace sink is meant to leave the simulation as it
            # was; this is how far the traced run's counts moved.
            out["count_drift"] = sum(abs(a - b)
                                     for a, b in zip(counts, ref_counts))
        else:
            checks["device_counts_match_reference"] = counts == ref_counts
        checks["replica_cells_match"] = out["replica_match"]
        attempted += 1
        failed += 0 if out["replica_match"] else 1
        runs = out["app_runs_per_pass"]
    else:
        checks["exec_jobs_repeat_exactly"] = out["jobs_distinct"] == 1
        runs = out["execs_per_pass"]
    if traced:
        tr = out["traced"]
        attempted += len(tr["pass_s"])
        if workload == "table5":
            ok = tr["cells_match"] and tr["counts_distinct"] == 1
            checks["traced_cells_match"] = tr["cells_match"]
            checks["traced_counts_repeat_exactly"] = tr["counts_distinct"] == 1
        else:
            ok = tr["digests_match"] and tr["litmus_replay_match"]
            checks["traced_digests_match"] = tr["digests_match"]
            checks["litmus_replay_match"] = tr["litmus_replay_match"]
        failed += 0 if ok else len(tr["pass_s"])
        # A full runtime-events ring drops events, and gc.pause_s with them.
        checks["gc_events_complete"] = out["gc_lost_events"] == 0
    if rc != 0:
        failed += 1
    samples = {"campaign_s": timing(out["pass_s"]), "setup_s": timing(setups)}
    e2e = {"setup_s": median(setups), "campaign_s": median(out["pass_s"]),
           "execs_per_s": rate(runs, out["pass_s"]),
           "peak_rss_mb": out["peak_rss_mb"]}
    layers = {}
    if traced:
        layers = probe_layers(workload, out)
        checks["layer_sum_within_tolerance"] = layer_sum_ok(
            layers["trace.layer_sum_share"])
    return e2e, layers, attempted, failed, checks, samples


def layer_sum_ok(share):
    return abs(share - 1) <= LAYER_SUM_TOLERANCE


def gc_layers(out, runs, wall, width):
    pause = median(out.get("gc_pause_s", []))
    return {
        "gc.minor_words_per_run": median(out["gc_minor_words"]) / runs,
        "gc.minor_collections": median(out["gc_minor_collections"]),
        "gc.major_collections": median(out["gc_major_collections"]),
        "gc.pause_s": pause,
        "gc.pause_share": pause / (wall * width) if wall else 0.0,
    }


def sim_layers(sim):
    return {
        "sim.launches": sim["launches"],
        "sim.launch_s": sim["launch_s"],
        "sim.ticks": sim["ticks"],
        "sim.ns_per_tick": 1e9 * sim["launch_s"] / sim["ticks"]
        if sim["ticks"] else 0.0,
        "memsys.loads": sim["loads"],
        "memsys.stores": sim["stores"],
        "memsys.atomics": sim["atomics"],
        "memsys.fences": sim["fences"],
        "memsys.fence_drained": sim["fence_drained"],
        "memsys.reorders": sim["reorders"],
        "memsys.stress_accesses": sim["stress_accesses"],
    }


def probe_layers(workload, out):
    tr = out["traced"]
    wall = median(tr["pass_s"])
    untraced = median(out["pass_s"])
    m = {"trace.overhead_ratio": wall / untraced}
    if workload == "table5":
        sim = out["sim"]
        m.update(sim_layers(sim))
        # Every with_sim call is timed in two parts: the device borrow
        # (reset_s) and the run (run_s, launches plus host code).
        host = tr["run_s"] - tr["launch_s"]
        m.update({
            "sim.launch_s": tr["launch_s"],
            "sim.ns_per_tick": 1e9 * tr["launch_s"] / sim["ticks"],
            "apps.runs": sim["runs"],
            "apps.errors": sim["errors"],
            "apps.run_s": tr["run_s"],
            "apps.host_s": host,
            "sim.reset_s": tr["reset_s"],
            "exec.jobs": tr["exec_jobs"],
            "exec.run_s": tr["exec_run_s"],
            "exec.queue_wait_s": tr["exec_wait_s"],
            "exec.busy_share": tr["exec_run_s"] / wall,
            "exec.outside_s": wall - tr["exec_run_s"],
        })
        # Time inside with_sim calls against the pass's wall time; what is
        # missing is Exec, the environments and the replica's own loop.
        parts = tr["reset_s"] + tr["launch_s"] + host
        m["trace.layer_sum_share"] = parts / wall
        m["trace.count_drift"] = out["count_drift"]
        m.update(gc_layers(out, out["app_runs_per_pass"], untraced, 1))
    else:
        lit = tr["litmus"]
        m.update(sim_layers(lit))
        m.update({
            "litmus.run_once_us": 1e6 * tr["litmus_run_once_s"],
            "tune.patch_s": tr["patch_s"],
            "tune.seq_s": tr["seq_s"],
            "tune.spread_s": tr["spread_s"],
            "exec.jobs": tr["exec_jobs"],
            "exec.run_s": tr["exec_run_s"],
            "exec.queue_wait_s": tr["exec_wait_s"],
            "exec.busy_share": tr["exec_run_s"] / (wall * out["workers"]),
            "exec.outside_s": wall * out["workers"] - tr["exec_run_s"],
        })
        # Each stage is the extent of its labelled Exec spans; what is
        # missing is the finders' own work between their Exec runs.
        stages = tr["patch_s"] + tr["seq_s"] + tr["spread_s"]
        m["trace.layer_sum_share"] = stages / wall
        m.update(gc_layers(out, out["execs_per_pass"], untraced, out["workers"]))
    return m


# --------------------------------------------------------------- fleet


def http(port, method, path, body=None, timeout=5):
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                 data=body, method=method)
    with urllib.request.urlopen(req, timeout=timeout) as r:
        return r.status, r.read().decode()


def read_jsonl(path):
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return []


class Daemon:
    """One `gpuwmm serve` daemon; started() measures spawn until /healthz."""

    def __init__(self, ctx, state):
        self.ctx, self.state = ctx, state
        os.makedirs(state, exist_ok=True)
        t0 = time.perf_counter()
        with open(os.path.join(state, "daemon.err"), "w") as err:
            # Quiet, the daemon prints only its banner on stdout.
            self.p = ctx["children"].popen(
                [ctx["cli"], "serve", "--dir", state, "--listen", "0",
                 "--workers", str(FLEET_WORKERS), "-q"],
                stdout=subprocess.PIPE, stderr=err, env=ctx["env"], text=True)
        banner = self.p.stdout.readline()
        if "listening on http://" not in banner:
            raise BenchError(f"gpuwmm serve: no banner (exit {self.p.wait()})")
        self.port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                if http(self.port, "GET", "/healthz", timeout=1)[0] == 200:
                    break
            except OSError:
                pass
            self._alive(t0, 30)
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0
        self.journal = os.path.join(state, "queue.jsonl")
        self.offset = 0
        self.events = []

    def _alive(self, t0, limit):
        if self.p.poll() is not None:
            raise BenchError(f"gpuwmm serve exited {self.p.returncode}")
        if time.perf_counter() - t0 > limit:
            raise BenchError(f"gpuwmm serve: no answer in {limit} s")

    def submit(self, seed):
        body = json.dumps({"chip": FLEET_CHIP, "env": FLEET_ENV,
                           "runs": FLEET_RUNS, "seed": seed,
                           "workers": FLEET_WORKERS}).encode()
        status, text = http(self.port, "POST", "/submit", body)
        if status != 200:
            raise BenchError(f"submit refused: {status} {text}")
        return json.loads(text)["id"]

    def poll(self):
        """Read the journal lines appended since the last poll."""
        with open(self.journal, "rb") as f:
            f.seek(self.offset)
            chunk = f.read()
        end = chunk.rfind(b"\n") + 1
        self.offset += end
        new = [json.loads(l) for l in chunk[:end].splitlines() if l.strip()]
        self.events += new
        return new

    def wait_finished(self, job_id, limit):
        t0 = time.perf_counter()
        while True:
            for ev in self.poll():
                if ev.get("ev") == "finish" and ev.get("id") == job_id:
                    return ev
            self._alive(t0, limit)
            time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0


def jobs_campaign(ctx, ledger, seed, spans):
    argv = [ctx["cli"], "test", "--chip", FLEET_CHIP, "--env", FLEET_ENV,
            "--runs", str(FLEET_RUNS), "--seed", str(seed),
            "-j", str(FLEET_WORKERS), "--log", ledger, "-q"]
    if spans:
        argv.append("--spans")
    t_wall = time.time()
    t0 = time.perf_counter()
    p = ctx["children"].popen(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, env=ctx["env"])
    rc = p.wait()
    return rc, time.perf_counter() - t0, t_wall, time.time()


def spans_busy(path):
    """Seconds inside Exec jobs, from a worker's --spans sidecar."""
    with open(path) as f:
        evs = json.load(f)["traceEvents"]
    return sum(e["dur"] for e in evs if e.get("ph") == "X") / 1e6


def ledger_busy(path):
    """Seconds inside Exec jobs, from a shard ledger's job records."""
    return sum(r.get("dur_s", 0.0) for r in read_jsonl(path)
               if r.get("rec") == "job")


def procs_layers(ledger, t_start, t_end):
    """Spawn, work and tail of one `test -j N` campaign, from the workers'
    heartbeat sidecars and --spans files.  The timed worker is the one
    that finishes last, which sets the campaign's wall time."""
    shards = [f"{ledger}.shard{k}" for k in range(1, FLEET_WORKERS + 1)]
    beats = [read_jsonl(s + ".hb") for s in shards]
    if not all(beats):
        return None
    last = max(range(len(shards)), key=lambda k: beats[k][-1]["t"])
    try:
        busy = spans_busy(shards[last] + ".spans.json")
    except (OSError, ValueError, KeyError):
        return None
    words = sum(b[-1].get("minor_words", 0.0) for b in beats)
    jobs = sum(beat.get("counters", {}).get("exec.jobs", 0)
               for b in beats for beat in b)
    spawn = beats[last][0]["t"] - t_start
    tail = t_end - beats[last][-1]["t"]
    return {"exec_jobs": jobs, "spawn_s": spawn, "busy_s": busy,
            "tail_s": tail, "parts_s": spawn + busy + tail,
            "wall_s": t_end - t_start, "minor_words": words,
            "minors": sum(b[-1].get("minor_collections", 0) for b in beats),
            "majors": sum(b[-1].get("major_collections", 0) for b in beats)}


def serve_layers(events, job_id, t_client, seen, served):
    """The serve path's phases from the journal, the critical shard's
    heartbeats and its ledger: submitted, leased, worker up, Exec jobs,
    worker done, shard recorded, merged, seen by the client."""
    mine = [e for e in events if e.get("id") == job_id]
    t = lambda kind: [e["t"] for e in mine if e["ev"] == kind]
    submit, lease, done, fin = t("submit"), t("lease"), t("done"), t("finish")
    retried = len(t("requeue")) + len(t("quarantine"))
    if not (submit and lease and done and fin and served):
        return None, retried
    crit = max((e for e in mine if e["ev"] == "done"), key=lambda e: e["t"])
    k = crit["shard"]
    leased = max(e["t"] for e in mine
                 if e["ev"] == "lease" and e["shard"] == k)
    shard = f"{served}.shard{k}"
    beats = read_jsonl(shard + ".hb")
    if not beats:
        return None, retried
    busy = ledger_busy(shard)
    parts = ((leased - submit[0]) + (beats[0]["t"] - leased) + busy
             + (crit["t"] - beats[-1]["t"]) + (fin[0] - crit["t"])
             + (seen - fin[0]))
    return {"queue_wait_s": min(lease) - submit[0],
            "lease_s": max(done) - min(lease),
            "merge_s": fin[0] - max(done),
            "notify_s": seen - fin[0],
            "worker_busy_s": busy,
            "parts_s": parts, "wall_s": seen - t_client}, retried


def fleet_workload(ctx):
    seed, traced, work = ctx["wseed"], ctx["traced"], ctx["work"]
    # Timestamps in heartbeats are zeroed in deterministic mode, so only
    # the untraced run checks byte identity; both check cell digests.
    ctx["env"] = clean_env(work, deterministic=not traced)
    checks, failed, attempted = {}, 0, 0
    setups = []
    spawns = 1 if traced else SETUPS["fleet"]
    for k in range(spawns):
        d = Daemon(ctx, os.path.join(work, f"serve{k}"))
        setups.append(d.setup_s)
        if k < spawns - 1:
            ctx["children"].stop(d.p)
            if d.p.returncode != 0:
                raise BenchError(f"gpuwmm serve exited {d.p.returncode}")
    daemon = d
    jobs_s, serve_s, plain_s = [], [], []
    ledgers = {}  # path -> campaign seed
    procs, serves, layer_fail = [], [], 0
    identical = True
    journal_before = 0
    t_start = time.perf_counter()
    i = 0
    while True:
        # The paths take turns, one campaign at a time.  Each pair runs the
        # next campaign seed: one seed's few slow application runs would
        # otherwise set the whole run's speed.
        serve_turn = i % 2 == 1
        est = median(serve_s if serve_turn else jobs_s)
        if i >= 4 and time.perf_counter() - t_start + est > ctx["seconds"]:
            break
        campaign_seed = (seed + i // 2) % REFERENCE_SEEDS
        i += 1
        if not serve_turn:
            # Path 1: `gpuwmm test -j N --log`, process fan-out and merge.
            # Traced, it writes --spans, and runs once more without them
            # to price that.
            for spans in (False, True) if traced else (False,):
                ledger = os.path.join(work, f"jobs{i}{'s' * spans}.jsonl")
                rc, dt, t_wall, t_end = jobs_campaign(ctx, ledger,
                                                      campaign_seed, spans)
                attempted += 1
                if rc != 0:
                    failed += 1
                    checks["jobs_exit_0"] = False
                (jobs_s if spans or not traced else plain_s).append(dt)
                ledgers[ledger] = campaign_seed
            if traced:
                pl = procs_layers(ledger, t_wall, t_end)
                if pl is None:
                    layer_fail += 1
                else:
                    procs.append(pl)
            continue
        # Path 2: the daemon, submit until the Finished event is seen.
        t_client = time.time()
        t0 = time.perf_counter()
        job_id = daemon.submit(campaign_seed)
        fin = daemon.wait_finished(job_id, limit=120)
        seen = time.time()
        serve_s.append(time.perf_counter() - t0)
        attempted += 1
        served = fin.get("ledger")
        sl, retried = serve_layers(daemon.events, job_id, t_client, seen,
                                   served)
        size = os.path.getsize(daemon.journal)
        if sl is not None:
            sl["journal_bytes"] = size - journal_before
            serves.append(sl)
        elif traced:
            layer_fail += 1
        journal_before = size
        ok = fin.get("status") == "done" and retried == 0 and served
        if ok and not traced:
            with open(ledger, "rb") as a, open(served, "rb") as b:
                same = a.read() == b.read()
            identical &= same
            ok = same
        if not ok:
            failed += 1
        if served:
            ledgers[served] = campaign_seed
    peak = daemon.peak_rss_mb()
    ctx["children"].stop(daemon.p)
    checks["daemon_exit_0"] = daemon.p.returncode == 0
    checks["serve_done_without_retries"] = all(
        e["ev"] not in ("requeue", "quarantine") for e in daemon.events)
    if not traced:
        checks["serve_ledger_byte_identical_to_jobs"] = identical
    # Every merged ledger reloads through Runlog.load to the same cells.
    p = ctx["children"].popen([ctx["probe"], "ledgers"] + list(ledgers),
                              stdout=subprocess.PIPE, text=True,
                              env=clean_env(work, False))
    reports = [json.loads(line) for line in p.stdout]
    checks["ledger_probe_exit_0"] = p.wait() == 0
    ref = ctx["reference"]["fleet"]
    good = [r for r in reports if r["ok"] and r["footer"] and not r["torn"]
            and r["quarantined"] == 0
            and r["cells_digest"] == ref.get(str(ledgers[r["path"]]))]
    checks["ledgers_reload_to_reference"] = (
        len(good) == len(ledgers) == len(reports))
    failed += len(ledgers) - len(good)
    samples = {"jobs_campaign_s": timing(jobs_s),
               "serve_campaign_s": timing(serve_s), "setup_s": timing(setups)}
    # The two paths are gated apart: campaign_s is the `test -j N` path
    # (mean seconds per campaign), execs_per_s the daemon's (app runs per
    # second from submit to the Finished event).
    e2e = {"setup_s": median(setups), "campaign_s": 1 / rate(1, jobs_s),
           "execs_per_s": rate(FLEET_RUNS * FLEET_APPS, serve_s),
           "peak_rss_mb": peak}
    layers = {}
    if traced:
        if layer_fail:
            checks["layer_observations_present"] = False
            failed += layer_fail
        jm, sm = median(jobs_s), median(serve_s)
        pm = lambda k: median([x[k] for x in procs])
        sv = lambda k: median([x[k] for x in serves])
        runs = FLEET_RUNS * FLEET_APPS
        layers = {
            "fleet.jobs_campaign_s": jm,
            "fleet.serve_campaign_s": sm,
            "procs.spawn_s": pm("spawn_s"),
            "procs.worker_busy_s": pm("busy_s"),
            "serve.worker_busy_s": sv("worker_busy_s"),
            "procs.tail_s": pm("tail_s"),
            "serve.queue_wait_s": sv("queue_wait_s"),
            "serve.lease_s": sv("lease_s"),
            "serve.merge_s": sv("merge_s"),
            "serve.notify_s": sv("notify_s"),
            "serve.journal_bytes": sv("journal_bytes"),
            "runlog.ledger_bytes": median([r["bytes"] for r in reports
                                           if r["ok"]]),
            "runlog.load_s": median([r["load_s"] for r in reports
                                     if r["ok"]]),
            "gc.minor_words_per_run": pm("minor_words") / runs,
            "gc.minor_collections": pm("minors"),
            "gc.major_collections": pm("majors"),
            "exec.jobs": pm("exec_jobs"),
            "apps.runs": runs,
            "apps.errors": median([r["errors"] for r in reports if r["ok"]]),
        }
        # On each path the worker that finishes last is timed inside its
        # Exec jobs, so its time outside them is what the share can miss.
        total = lambda xs, k: sum(x[k] for x in xs)
        shares = {path: total(xs, "parts_s") / total(xs, "wall_s")
                  for path, xs in (("jobs", procs), ("serve", serves))}
        checks["layer_sum_within_tolerance"] = all(
            layer_sum_ok(v) for v in shares.values())
        samples["layer_sum_share"] = shares
        layers["trace.layer_sum_share"] = (
            (total(procs, "parts_s") + total(serves, "parts_s"))
            / (total(procs, "wall_s") + total(serves, "wall_s")))
        layers["trace.overhead_ratio"] = jm / median(plain_s)
    return e2e, layers, attempted, failed, checks, samples


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        cli, probe = build(root)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f)
    except (BenchError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    children = Children()
    ctx = {"cli": os.path.abspath(cli), "probe": os.path.abspath(probe),
           "work": work, "seconds": args.seconds, "traced": bool(args.trace),
           "wseed": args.seed % REFERENCE_SEEDS, "reference": reference,
           "children": children}
    host0 = host_stamp()
    try:
        if args.workload == "fleet":
            result = fleet_workload(ctx)
        else:
            result = probe_workload(ctx, args.workload)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    e2e, layers, attempted, failed, checks, samples = result
    host1 = host_stamp()
    host = dict(host0, loadavg_end=host1["loadavg"],
                steal_delta=host1["steal"] - host0["steal"])
    del host["steal"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "workload_seed": ctx["wseed"], "host": host,
                      "samples": samples, "checks": checks}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
