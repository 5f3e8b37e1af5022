#!/usr/bin/env python3
"""Match-arm coverage report, as `make coverage` prints it.

usage: report.py TIER1_DIR REST_DIR

Each directory holds the files the cov_rt runtime writes at exit, one
"file index line reached" row per instrumented arm. Prints each file's
arms reached by tier-1 alone (TIER1_DIR) and by everything (both
directories), the totals, and then every arm nothing reached, with its
source line.
"""
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


def main():
    tier1_dir, rest_dir = sys.argv[1:3]
    tier1, everything = load([tier1_dir]), load([tier1_dir, rest_dir])
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
    for path, index in sorted(everything, key=lambda k: (k[0], everything[k][0], k[1])):
        line, reached = everything[(path, index)]
        if reached:
            continue
        if path not in sources:
            with open(path) as f:
                sources[path] = f.read().split("\n")
        print(f"{path}:{line}: {sources[path][line - 1].strip()}")


if __name__ == "__main__":
    main()
