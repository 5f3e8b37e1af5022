#!/usr/bin/env python3
"""Diff locus-bench's simulated numbers between two checkouts.

    python3 bench/simdiff.py --parent DIR [--workloads W[,W...]]
    python3 bench/simdiff.py --baseline FILE [--workloads W[,W...]]
    python3 bench/simdiff.py --write-baseline FILE [--workloads W[,W...]]

Builds benchmark/locus_bench.exe in DIR and in the tree this script
lives in, runs every workload (or only those --workloads names, in the
order given) at seeds 1 and 2 with --seconds 1
--traced on both, and prints each simulated number that moved: parent -> change, with the ratio.
With --baseline the old side is FILE, a committed set of the same numbers
(bench/baseline/sim.json), and only this tree is built and run;
--write-baseline runs this tree and writes its numbers to FILE, replacing
only the workloads run.

Every mode also runs the seeded E-series experiments of bench/main.exe
that print no host time (E1-E6, E8-E22 and e24smoke; not E7, whose
table has a host-ms column, nor E23, e24 or micro) and its micro-counts
subcommand (micro's rows that count allocated words), and compares
their stdout: with --parent against the parent's, with --baseline
against the <experiment>.txt files and counts.txt beside FILE, naming
each output that differs and its first differing line; --write-baseline
rewrites those files.
Simulated numbers are
`correct`, `attempted`, `failed`, every end-to-end metric except the
host ones (host_ops_per_s, setup_s, heap_peak_mb), every `layers` entry,
and the simulated boundary counts and means of the trace (`*.calls`,
`*.sim_ms_mean`). The simulator is deterministic, so any difference is
a behaviour change, never noise.

Exits 0 when nothing moved, 1 when something did, 2 on a build or run
failure. Runs go one at a time to keep memory small.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["read_hot", "scan_cold", "write_commit", "dir_churn", "partition_heal"]
HOST_METRICS = {"host_ops_per_s", "setup_s", "heap_peak_mb"}
EXPERIMENTS = ["e1", "e2", "e3", "e4", "e5", "e6", "e8", "e9", "e10", "e11", "e12", "e13",
               "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e24smoke"]
# Each compared harness output: its baseline file's stem and the harness
# argument that prints it.
OUTPUTS = [(e, e) for e in EXPERIMENTS] + [("counts", "micro-counts")]
SEEDS = [1, 2]
SECONDS = "1"
EXE = os.path.join("_build", "default", "benchmark", "locus_bench.exe")
HARNESS = os.path.join("_build", "default", "bench", "main.exe")
CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("simdiff: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", root, "./benchmark/locus_bench.exe",
                        "./bench/main.exe"], stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed in " + root)


def simulated(root, workload, seed):
    cmd = [os.path.join(root, EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--traced"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail("%s exited with %d" % (" ".join(cmd), r.returncode))
    res = json.loads(lines[-1])
    out = {k: res[k] for k in ("correct", "attempted", "failed")}
    for name, m in res["metrics"].items():
        if name not in HOST_METRICS:
            out[name] = m["value"]
    for name, m in res["layers"].items():
        out["layers." + name] = m["value"]
    for name, m in res["trace"].items():
        if name.endswith(".calls") or name.endswith(".sim_ms_mean"):
            out["trace." + name] = m["value"]
    return out


def experiment(root, arg):
    """The harness's stdout for [arg], run in a scratch directory:
    experiments leave BENCH_<name>.json in the current one."""
    with tempfile.TemporaryDirectory() as cwd:
        r = subprocess.run([os.path.join(root, HARNESS), arg], cwd=cwd,
                           stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("%s %s exited with %d" % (HARNESS, arg, r.returncode))
    return r.stdout


def experiment_file(baseline, name):
    return os.path.join(os.path.dirname(os.path.abspath(baseline)), name + ".txt")


def diff_experiments(old):
    """Compare each harness output in this tree with [old name arg];
    print the first differing line of each that differs. Returns how many
    differ."""
    differ = 0
    for name, arg in OUTPUTS:
        a, b = old(name, arg).splitlines(), experiment(CHANGE, arg).splitlines()
        if a == b:
            continue
        differ += 1
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        print("%s: differs at line %d" % (name, line + 1))
        print("  - %s" % (a[line] if line < len(a) else "(end of output)"))
        print("  + %s" % (b[line] if line < len(b) else "(end of output)"))
    print("experiments and counts: %s" % ("%d of %d differ" % (differ, len(OUTPUTS)) if differ
                                          else "%d identical" % len(OUTPUTS)))
    sys.stdout.flush()
    return differ


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read baseline %s: %s" % (path, e))


def write_baseline(path, workloads):
    build(CHANGE)
    base = load(path) if os.path.exists(path) else {}
    for w in workloads:
        base[w] = {str(seed): simulated(CHANGE, w, seed) for seed in SEEDS}
    with open(path, "w") as f:
        json.dump(base, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, arg in OUTPUTS:
        with open(experiment_file(path, name), "w") as f:
            f.write(experiment(CHANGE, arg))
    print("simdiff: wrote %s (%s) and %d harness outputs" % (path, ",".join(workloads),
                                                             len(OUTPUTS)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    old_side = ap.add_mutually_exclusive_group(required=True)
    old_side.add_argument("--parent", help="checkout to compare against")
    old_side.add_argument("--baseline", metavar="FILE", help="baseline file to compare against")
    old_side.add_argument("--write-baseline", metavar="FILE",
                          help="write this tree's numbers to FILE instead of comparing")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workloads to run (default: all five)")
    args = ap.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or not workloads:
        fail("unknown workload %s (one of %s)" % (",".join(unknown) or "list",
                                                  ",".join(WORKLOADS)))
    if args.write_baseline:
        write_baseline(args.write_baseline, workloads)
        return
    if args.parent:
        parent = os.path.abspath(args.parent)
        build(parent)

        def old(w, seed):
            return simulated(parent, w, seed)

        def old_experiment(name, arg):
            return experiment(parent, arg)
    else:
        base = load(args.baseline)
        missing = [w for w in workloads if w not in base]
        if missing:
            fail("%s has no %s" % (args.baseline, ",".join(missing)))

        def old(w, seed):
            return base[w][str(seed)]

        def old_experiment(name, arg):
            try:
                with open(experiment_file(args.baseline, name)) as f:
                    return f.read()
            except OSError as e:
                fail("cannot read baseline %s" % e)
    build(CHANGE)
    moved = 0
    for w in workloads:
        for seed in SEEDS:
            a = old(w, seed)
            b = simulated(CHANGE, w, seed)
            rows = []
            for key in sorted(set(a) | set(b)):
                va, vb = a.get(key), b.get(key)
                if va == vb:
                    continue
                if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                        and not isinstance(va, bool) and va != 0:
                    ratio = "x%.3f" % (vb / va)
                else:
                    ratio = ""
                rows.append("  %-44s %14s -> %-14s %s" % (key, repr(va), repr(vb), ratio))
            print("%s seed %d: %s" % (w, seed, "%d moved" % len(rows) if rows else "identical"))
            for row in rows:
                print(row)
            moved += len(rows)
            sys.stdout.flush()
    differ = diff_experiments(old_experiment)
    summary = []
    if moved:
        summary.append("%d numbers moved" % moved)
    if differ:
        summary.append("%d harness outputs differ" % differ)
    print("simdiff: %s" % (", ".join(summary) or "nothing moved"))
    sys.exit(1 if summary else 0)


if __name__ == "__main__":
    main()
