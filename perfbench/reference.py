#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the output digest of every
workload for workload seeds 0 .. REFERENCE_SEEDS-1.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/reference.py [table5] [tune] [fleet]

Named workloads are regenerated and the others kept; none names all.

table5 and tune record the probe's digest of one campaign's result,
and table5 also the device counts of its cells re-run one by one;
fleet records the cell digest of a single-process `gpuwmm test --log`
ledger, which every merged ledger of the same campaign must reproduce.
"""

import json
import os
import subprocess
import sys
import tempfile

import run


def line(argv, env):
    out = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE,
                         stdin=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    cli, probe = run.build(os.getcwd())
    path = os.path.join(run.HERE, "reference.json")
    ref = {}
    if os.path.exists(path):
        with open(path) as f:
            ref = json.load(f)
    for w in workloads:
        ref[w] = {}
    if "table5" in workloads:
        ref["table5_sim"] = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as work:
        env = run.clean_env(work, deterministic=True)
        for seed in range(run.REFERENCE_SEEDS):
            for w in ("table5", "tune"):
                if w not in workloads:
                    continue
                out = line(
                    [probe, "reference", "--workload", w, "--seed", str(seed)],
                    env)
                ref[w][str(seed)] = out["digest"]
                if "sim_counts" in out:
                    ref[w + "_sim"][str(seed)] = out["sim_counts"]
            if "fleet" in workloads:
                ledger = os.path.join(work, f"fleet{seed}.jsonl")
                subprocess.run(
                    [cli, "test", "--chip", run.FLEET_CHIP, "--env",
                     run.FLEET_ENV, "--runs", str(run.FLEET_RUNS), "--seed",
                     str(seed), "-j", "1", "--log", ledger, "-q"],
                    env=env, check=True, stdout=subprocess.DEVNULL,
                    stdin=subprocess.DEVNULL)
                ref["fleet"][str(seed)] = line([probe, "ledgers", ledger],
                                               env)["cells_digest"]
            print(f"seed {seed}: done", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
