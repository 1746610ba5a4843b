# Convenience targets; `make check` is what CI runs.
#
# Smokes that write files (--dump) put them in one `mktemp -d` directory
# per target, removed when the recipe's shell exits, so concurrent runs
# never share a path.

.PHONY: all build test check smoke-parallel-scavenge explore-smoke fault-smoke steal-smoke server-smoke dpor-smoke gc-smoke cluster-smoke bench clean

all: build

build:
	dune build

test:
	dune runtest

# A quick E10 run with the strict sanitizer: every parallel collection is
# claim/chunk-checked and followed by a full heap verification, so a
# protocol regression fails the build rather than skewing the numbers.
smoke-parallel-scavenge:
	dune exec bench/main.exe -- parallel-scavenge --quick --sanitize=strict

# Schedule exploration with a small seed budget: the published MS
# configuration must explore clean under the strict sanitizer, and each
# deliberately broken configuration must yield a shrunk counterexample
# whose replayed trace reproduces the failure.
explore-smoke:
	dune exec bin/mst.exe -- explore --config=ms --seeds=8 --quick
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	dune exec bin/mst.exe -- explore --config=bs-unlocked --seeds=4 --quick \
	  --expect-violation --dump "$$d/explore-unlocked"; \
	dune exec bin/mst.exe -- explore --config=ctx-unbracketed --seeds=4 --quick \
	  --expect-violation --dump "$$d/explore-ctx"

# Seeded fault campaigns with the strict sanitizer: every crash must be
# survived by failover, every degraded collection must verify, the
# deadlock hunt must detect a crashed lock holder via the watchdog and
# shrink its fault plan to a file that replays to the identical report.
fault-smoke:
	dune exec bin/mst.exe -- faults --campaign=crash --seeds=4 --quick
	dune exec bin/mst.exe -- faults --campaign=gc --seeds=4 --quick
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	dune exec bin/mst.exe -- faults --deadlock --quick --seeds=12 \
	  --dump "$$d/deadlock.plan"; \
	dune exec bin/mst.exe -- faults --replay="$$d/deadlock.plan" \
	  --expect-deadlock --quick

# E16 work stealing: a strict-sanitized stealing run on a busy workload,
# a 50-seed differential exploration against the locked scheduler's
# observables, and the deliberately unguarded steal protocol that the
# sanitizer must catch on every seed.
steal-smoke:
	dune exec bin/mst.exe -- eval -p 4 --state busy --scheduler=stealing \
	  --sanitize=strict \
	  "| s | s := 0. 1 to: 200 do: [:i | s := s + i]. s"
	dune exec bin/mst.exe -- explore --config=stealing --seeds=50 --quick
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	dune exec bin/mst.exe -- explore --config=steal-unlocked --seeds=4 --quick \
	  --expect-violation --dump "$$d/explore-steal"

# E17 image server: a strict-sanitized closed-loop serve on the calendar
# engine, run differentially so the scan engine must agree on every
# request-level observable, plus a calendar-engine schedule exploration
# checked against the scan engine's observables on every seed.
server-smoke:
	dune exec bin/mst.exe -- serve -p 8 --sessions 4 --workers 2 \
	  --requests 2 --think-ms 100 --sanitize=strict --differential
	dune exec bin/mst.exe -- explore --config=calendar --seeds=8 --quick

# E20 systematic exploration (strict sanitizer, bounded workload): the
# published configuration must stay clean under a DPOR budget with
# pruning stats, both deliberately broken configurations must be caught
# with no seed involved, and zero-execution invocations (--seeds 0,
# --budget 0) must exit 2 instead of reporting vacuous success.
dpor-smoke:
	dune exec bin/mst.exe -- explore --config=ms --dpor --stats --quick \
	  --budget=12
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	dune exec bin/mst.exe -- explore --config=ctx-unbracketed --dpor --quick \
	  --budget=4 --expect-violation --dump "$$d/dpor-ctx"; \
	dune exec bin/mst.exe -- explore --config=steal-unlocked --dpor --quick \
	  --budget=4 --expect-violation --dump "$$d/dpor-steal"
	dune exec bin/mst.exe -- explore --quick --seeds=0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: --seeds 0 must exit 2"; exit 1; }
	dune exec bin/mst.exe -- explore --quick --dpor --budget=0 2>/dev/null; \
	  test $$? -eq 2 || { echo "FAIL: --dpor --budget 0 must exit 2"; exit 1; }

# E18 incremental old-space collection: a strict-sanitized garbage-heavy
# run with the collector on (every cycle completion re-verifies the whole
# heap), the pause-distribution bench whose p95 major slice must respect
# the budget, a differential exploration against a collector-free
# reference, and the barrier-disabled configuration the sanitizer must
# catch on every seed.
gc-smoke:
	dune exec bin/mst.exe -- eval -p 4 --state busy --major --sanitize=strict \
	  '| keep | keep := Array new: 64. 1 to: 4000 do: [:i | keep at: i \\ 64 + 1 put: (Array new: 16)]. 6 factorial'
	dune exec bench/main.exe -- e18-gc --quick
	dune exec bin/mst.exe -- explore --config=major --seeds=4 --quick
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	dune exec bin/mst.exe -- explore --config=major-nobarrier --seeds=4 --quick \
	  --expect-violation --dump "$$d/explore-major"

# E19 replicated image cluster: three replicas over a durable command
# log with one injected crash — the victim must rejoin from a checkpoint
# and reproduce the reference fingerprint; the torn-checkpoint scenario
# must fall back past the damaged file; the deliberately-divergent
# replica (one dropped log entry) must be caught by the detector; the
# replica fault campaign (torn checkpoint, crash mid-replay, double
# crash) must record zero incorrect outcomes.  Checkpoints go to fresh
# directories under $TMPDIR, here the target's own temporary directory.
cluster-smoke:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; export TMPDIR="$$d"; \
	dune exec bin/mst.exe -- cluster --requests=24 --crash-seed=5 \
	  --expect-rejoin; \
	dune exec bin/mst.exe -- cluster --requests=24 --crash-seed=5 \
	  --scenario=torn-checkpoint --expect-rejoin; \
	dune exec bin/mst.exe -- cluster --requests=12 --skip-lsn=3 \
	  --expect-divergence; \
	dune exec bin/mst.exe -- faults --campaign=replica --seeds=2 --quick

# Ends by checking that nothing above rewrote a committed BENCH_*.json:
# quick bench modes only print, so a dirty file means a smoke wrote one.
check:
	dune build
	dune runtest
	$(MAKE) smoke-parallel-scavenge
	$(MAKE) explore-smoke
	$(MAKE) fault-smoke
	$(MAKE) steal-smoke
	$(MAKE) server-smoke
	$(MAKE) dpor-smoke
	$(MAKE) gc-smoke
	$(MAKE) cluster-smoke
	@test -z "$$(git status --porcelain -- 'BENCH_*.json')" || { \
	  echo "FAIL: make check modified committed BENCH_*.json:"; \
	  git status --porcelain -- 'BENCH_*.json'; exit 1; }

# The full reproduction harness (slow); `make bench-quick` for a pass
# with reduced repetitions.
bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

clean:
	dune clean
