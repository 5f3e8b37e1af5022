.PHONY: all build test bench bench-smoke soak soak-smoke simdiff baseline baseline-write loc unused coverage coverage-write coverage-run check lint fmt clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# A fast slice of the harness as a CI gate: the open protocol (E1), both
# pathname-resolution experiments (E13 baseline, E19 fast path), update
# propagation (E14, which asserts that every copy holds the committed
# bytes), the RPC transport under loss (E17), the bulk-transfer sweep
# (E20), the open-lease sweep (E21), the site-count sweep (E22), the
# fault-soak smoke (E23), the small-world flood (e24smoke), and the
# event-core micro suite must run to completion. Their PASS/FAIL cells
# are human-read; this asserts the experiments themselves stay runnable,
# and these checks abort their experiment: E1's message counts must equal
# the paper's (and an open plus whole read of a 2-page file the CSS
# stores must be 6 messages at window 1, 2 at window 8, where the open
# carries the pages), E14's copies must converge to the committed bytes
# and each additional copy must cost exactly 4 messages at window 1
# (notify, read round trip, report) and 2 at window 8 (a notify carrying
# the commit, report), and so must each additional initial copy of a new
# file (at window 1 a designation, a read round trip and a report; at
# window 8 a designation carrying the new inode and a report) over the
# create's base of 7 such costs, the root directory's commit reaching its
# 7 other copies,
# E19's resolutions with the name cache and the server-side lookup both
# on must each cost exactly 2 messages with a cold name cache and 0 warm,
# the leaf stored away from the lookup site included (its type comes from
# its directory entry: no where-stored and no stat after the lookup), and
# after a merge the first name in a directory the site had used must cost
# 2 messages and a second name 0 (the first lookup re-warms the page),
# E17 must recover every injected loss, and a lost reply to an open and
# to a commit that carries the write must each leave the handler run once
# and the write done, with no write message,
# E20's inline 32-page remote read must send exactly as
# many messages as its write sends before the commit at every window (a
# full window per round trip; above window 1 the open carries the first
# window as the commit carries the last), E20's 8-page remote whole-file
# write plus its commit must be one round trip at window 8 (0 write,
# 2 commit, 0 truncate messages) and 16 write + 2 commit messages at
# window 1, and a 12-page one one write round trip and a commit
# carrying the 4-page tail, E21's partition and merge must
# send no close for the leases a site holds across them and a re-open
# after the merge must read the committed bytes, E21's eviction at
# capacity must cost each evicting cold open at most 2 messages and no
# close.us message (the evicted lease's close rides the open), E21's break
# of a read lease the CSS serves must add exactly 2 messages to the write
# that breaks it, the acknowledged break's call and reply (no close.us,
# close.ss or page.invalidate: the break is the close), the holder's own
# write of that file must cost what its next write costs, no lease.break
# and no close.us (its modify open is the break), and E22's reads must
# return the file's bytes and the per-client read cost at 512 sites must
# stay within 1.25x of 8 sites', and e24smoke's read oracle must find no read that
# returned a body no write sent (wrong) or a body older than the last
# committed one (stale).
# E20 onward also leave BENCH_<experiment>.json behind for machine
# comparison (micro records the heap's events/sec and words/event; the
# full-scale flood dashboard is `-- e24`).
bench-smoke:
	@dune exec bench/main.exe -- e1 e13 e14 e17 e19 e20 e21 e22 e23 e24smoke micro > /dev/null
	@echo "bench-smoke: OK (e1 e13 e14 e17 e19 e20 e21 e22 e23 e24smoke micro ran clean)"

# Deterministic fault soak (DESIGN.md section 12, EXPERIMENTS.md E23).
# soak-smoke is the CI gate: a handful of seeds, bounded ops, seconds not
# minutes; the subcommand exits non-zero on any invariant violation and
# prints a shrunken one-line repro for every failing seed. The full sweep
# is `make soak` (50 seeds x 2000 ops); `make check` runs it after the
# smoke, which fails faster.
soak-smoke:
	@dune exec bench/main.exe -- soak --seeds 8 --ops 500
	@echo "soak-smoke: OK (8 seeds, zero invariant violations)"

soak:
	dune exec bench/main.exe -- soak --seeds 50 --ops 2000

# Simulated-number diff against another checkout: every locus-bench
# workload at seeds 1 and 2, traced; prints each simulated metric that
# moved, exits 0 when none did. Without PARENT it compares the working
# tree against HEAD, unpacked with `git archive` into a temporary
# directory (under $TMPDIR) that is removed afterwards. WORKLOADS, a
# comma-separated list, runs only those workloads (default: all five),
# e.g. WORKLOADS=partition_heal while iterating on one of them.
# Usage: make simdiff [PARENT=<dir>] [WORKLOADS=<w>[,<w>...]]
SIMDIFF_WORKLOADS = $(if $(WORKLOADS),--workloads "$(WORKLOADS)")
simdiff:
	@if [ -n "$(PARENT)" ]; then \
		python3 bench/simdiff.py --parent "$(PARENT)" $(SIMDIFF_WORKLOADS); \
	else \
		dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		git archive HEAD | tar x -C "$$dir" && \
		python3 bench/simdiff.py --parent "$$dir" $(SIMDIFF_WORKLOADS); \
	fi

# The simulated-number gate: the numbers `simdiff` collects (every workload
# at seeds 1 and 2, --seconds 1, --traced) for this tree against the
# committed bench/baseline/sim.json, the stdout of the seeded E-series
# experiments (E1-E6, E8-E22, e24smoke) against bench/baseline/<e>.txt, and
# micro's counted rows (`bench/main.exe micro-counts`: words allocated on
# the remote read path, by an evicting cache insert, by a directory
# re-index and by a build, by a remote write plus commit, and per event by
# the event heap and the engine) against bench/baseline/counts.txt.
# It fails, printing every key that moved, baseline -> this tree, and each
# output that differs with its first differing line. A change that
# moves either on purpose rewrites the files in the same diff with
# `make baseline-write` and says why. WORKLOADS limits either target's
# workloads; the experiments always run (under a second).
SIM_BASELINE = bench/baseline/sim.json
baseline:
	@python3 bench/simdiff.py --baseline $(SIM_BASELINE) $(SIMDIFF_WORKLOADS)

baseline-write:
	python3 bench/simdiff.py --write-baseline $(SIM_BASELINE) $(SIMDIFF_WORKLOADS)

# Source size: the .ml + .mli line count of lib/, bench/ and test/, the
# figures a change that deletes code quotes before and after. With PARENT,
# each line gives that checkout's count, this tree's and the difference.
# Usage: make loc [PARENT=<dir>]
loc:
	@count() { find $$1 \( -name '*.ml' -o -name '*.mli' \) -type f -exec cat {} + | wc -l; }; \
	if [ -n "$(PARENT)" ]; then printf '%-6s %7s %7s %7s\n' '' parent change diff; fi; \
	for d in lib bench test; do \
		n=$$(count $$d); \
		if [ -n "$(PARENT)" ]; then \
			p=$$(cd "$(PARENT)" && count $$d); \
			printf '%-6s %7d %7d %+7d\n' "$$d/" "$$p" "$$n" "$$((n - p))"; \
		else \
			printf '%-6s %6d\n' "$$d/" "$$n"; \
		fi; \
	done

# Exports nothing else reads: each `val` of a lib/ interface that no .ml in
# lib/, bench/, test/, bin/ or benchmark/ other than its own module's
# names, printed as Module.name. A name is matched as a whole word, so a
# same-named value elsewhere hides one. `make check` fails on any name it
# prints.
unused:
	@for mli in $$(find lib -name '*.mli' | sort); do \
		ml=$${mli%i}; \
		mod=$$(basename "$$ml" .ml | sed 's/^./\U&/'); \
		for v in $$(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$$mli"); do \
			grep -rlw --include='*.ml' -- "$$v" lib bench test bin benchmark | grep -qvx "$$ml" \
				|| echo "$$mod.$$v"; \
		done; \
	done

# Match-arm coverage: builds the tree with every lib/ library rewritten by
# tools/cov's cov_ppx into its own build directory ($(COV)), runs tier-1
# (`dune runtest`, with a fixed QCHECK_SEED), then E1-E23, e24smoke,
# micro-counts, the full soak and the five benchmark workloads at seeds 1
# and 2 (2 s, traced), and prints each file's reached/total match arms for
# tier-1 and for everything, then every arm nothing reached with its
# source line. The runs are deterministic. `make coverage` then fails when
# any file has more unreached arms than bench/baseline/coverage.txt
# records, printing that file's unreached arms; `make coverage-write`
# rewrites the file. It takes about 25 s, so it is not part of
# `make check`.
COV = _coverage
COV_OUT = $(CURDIR)/$(COV)/out
COV_BASELINE = bench/baseline/coverage.txt
COV_EXPERIMENTS = e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19 \
	e20 e21 e22 e23 e24smoke
coverage: coverage-run
	@python3 tools/cov/report.py --check $(COV_BASELINE) $(COV_OUT)/tier1 $(COV_OUT)/rest

coverage-write: coverage-run
	@python3 tools/cov/report.py --write $(COV_BASELINE) $(COV_OUT)/tier1 $(COV_OUT)/rest

coverage-run:
	@rm -rf $(COV_OUT) && mkdir -p $(COV_OUT)/tier1 $(COV_OUT)/rest $(COV_OUT)/run
	@dune build --build-dir $(COV) --instrument-with cov_ppx
	@COV_DIR=$(COV_OUT)/tier1 QCHECK_SEED=1 \
		dune runtest --build-dir $(COV) --instrument-with cov_ppx --force \
		> $(COV_OUT)/tier1.log 2>&1 || { tail -40 $(COV_OUT)/tier1.log; exit 1; }
	@cd $(COV_OUT)/run && export COV_DIR=$(COV_OUT)/rest && \
		bench=$(CURDIR)/$(COV)/default/bench/main.exe && \
		$$bench $(COV_EXPERIMENTS) > /dev/null && \
		$$bench micro-counts > /dev/null && \
		$$bench soak --seeds 50 --ops 2000 > /dev/null && \
		for w in read_hot scan_cold write_commit dir_churn partition_heal; do \
			for s in 1 2; do \
				$(CURDIR)/$(COV)/default/benchmark/locus_bench.exe \
					--workload $$w --seed $$s --seconds 2 --traced > /dev/null || exit 1; \
			done; \
		done

# Warning-as-error gate: a cold build must produce no compiler output at
# all. dune only prints warnings when it (re)compiles, so the gate cleans
# first; any surviving warning fails the target.
lint:
	@dune clean
	@out=$$(dune build 2>&1); \
	if [ -n "$$out" ]; then \
		printf '%s\n' "$$out"; \
		echo "lint: FAIL (build is not warning-clean)"; \
		exit 1; \
	else \
		echo "lint: OK (cold build is warning-clean)"; \
	fi

# Everything a change must pass before review: warning-clean build, no
# export only its own module names, tests, the experiment smoke, the soak
# smoke and then the full soak (50 seeds x 2000 ops, a few seconds), no
# simulated number moved from the committed baseline, and (when
# ocamlformat is installed) formatting.
check: lint
	@out=$$($(MAKE) --no-print-directory -s unused); \
	if [ -n "$$out" ]; then \
		printf '%s\n' "$$out"; \
		echo "unused: FAIL (exports no other module names)"; \
		exit 1; \
	else \
		echo "unused: OK (every lib/ export is named outside its module)"; \
	fi
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) soak-smoke
	$(MAKE) soak
	$(MAKE) baseline
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping dune build @fmt"; \
	fi

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
