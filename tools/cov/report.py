#!/usr/bin/env python3
"""Match-arm coverage report, as `make coverage` prints it.

usage: report.py [--check FILE | --write FILE] TIER1_DIR REST_DIR

Each directory holds the files the cov_rt runtime writes at exit, one
"file index line reached" row per instrumented arm. Prints each file's
arms reached by tier-1 alone (TIER1_DIR) and by everything (both
directories), the totals, and then every arm nothing reached, with its
source line.

With --check, FILE holds each file's count of arms nothing reached, as
--write leaves it; the report then exits 1 when any file's count rose,
printing that file's unreached arms (the new ones among them).
"""
import argparse
import os
import sys


def load(dirs):
    """(file, index) -> (line, reached) over every run in [dirs]."""
    arms = {}
    for d in dirs:
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name)) as f:
                for row in f:
                    path, index, line, reached = row.split()
                    key = (path, int(index))
                    seen = key in arms and arms[key][1]
                    arms[key] = (int(line), seen or reached == "true")
    return arms


def read_counts(path):
    """file -> unreached count, from a --write file."""
    counts = {}
    with open(path) as f:
        for row in f:
            if row.strip() and not row.startswith("#"):
                name, n = row.split()
                counts[name] = int(n)
    return counts


def write_counts(path, unreached):
    with open(path, "w") as f:
        f.write("# arms nothing reached, per file (make coverage-write)\n")
        for name in sorted(unreached):
            f.write(f"{name} {len(unreached[name])}\n")


def check_counts(path, unreached):
    """Each file whose count rose above [path]'s, with its unreached arms."""
    baseline = read_counts(path)
    risen = 0
    for name in sorted(unreached):
        was, now = baseline.get(name, 0), len(unreached[name])
        if now > was:
            risen += 1
            print(f"\n{name}: {was} -> {now} arms nothing reached:")
            for arm in unreached[name]:
                print(f"  {arm}")
    if risen:
        print(f"\ncoverage: FAIL ({risen} file(s) with more unreached arms than {path};"
              " reach or delete them, or rewrite it with `make coverage-write`)")
        return 1
    print(f"\ncoverage: OK (no file has more unreached arms than {path})")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", metavar="FILE")
    ap.add_argument("--write", metavar="FILE")
    ap.add_argument("tier1_dir")
    ap.add_argument("rest_dir")
    args = ap.parse_args()
    tier1 = load([args.tier1_dir])
    everything = load([args.tier1_dir, args.rest_dir])
    files = sorted({path for path, _ in everything})
    print(f"{'file':<32} {'arms':>5} {'tier-1':>7} {'all':>5}")
    totals = [0, 0, 0]
    for path in files:
        keys = [k for k in everything if k[0] == path]
        row = [
            len(keys),
            sum(1 for k in keys if tier1.get(k, (0, False))[1]),
            sum(1 for k in keys if everything[k][1]),
        ]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path:<32} {row[0]:>5} {row[1]:>7} {row[2]:>5}")
    print(f"{'total':<32} {totals[0]:>5} {totals[1]:>7} {totals[2]:>5}")
    print("\nunreached by everything:")
    sources = {}
    unreached = {}
    for path, index in sorted(everything, key=lambda k: (k[0], everything[k][0], k[1])):
        line, reached = everything[(path, index)]
        if reached:
            continue
        if path not in sources:
            with open(path) as f:
                sources[path] = f.read().split("\n")
        arm = f"{path}:{line}: {sources[path][line - 1].strip()}"
        unreached.setdefault(path, []).append(arm)
        print(arm)
    if args.write:
        write_counts(args.write, unreached)
        print(f"\ncoverage: wrote {args.write}")
    if args.check:
        return check_counts(args.check, unreached)
    return 0


if __name__ == "__main__":
    sys.exit(main())
