#!/usr/bin/env python3
"""Build locus_bench from this checkout and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
metrics are the end_to_end ones BENCHMARK.json lists (--trace 0) or its
per_layer ones (--trace 1, the traced replay). Everything else the
benchmark prints comes before that line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchmark", "locus_bench.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./benchmark/locus_bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail("benchmark exited with %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    have = {**result["layers"], **result["trace"]} if args.trace else result["metrics"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            fail("%s does not report %s" % (args.workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": result["correct"] and run.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
