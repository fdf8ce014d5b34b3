# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test fmt goldens bench bench-json bench-file perf perf-trace perf-smoke test-backends test-disks test-shards test-async test-async-stress faults serve-smoke telemetry-smoke soak cluster loc clean

all: build

build:
	dune build

# Tier-1 gate: build + full test suite (includes the golden I/O-cost diff).
test:
	dune build && dune runtest

# Formatting gate. dune-project enables formatting for dune files, which the
# container can always check; ocamlformat-based .ml formatting activates
# automatically if an .ocamlformat file is added and ocamlformat is installed.
fmt:
	dune build @fmt

# Regenerate test/golden/costs.expected deterministically (fixed seed) and
# bless the result. Run after any intentional change to I/O costs.
goldens:
	dune build @golden --auto-promote

bench:
	dune exec bench/main.exe

# Line counts (.ml + .mli) of the trees whose size ROADMAP.md tracks per
# change: lib/em, all of lib/, bin/ + bench/, and test/.
loc:
	@for d in lib/em lib "bin bench" test; do \
	  printf '%-10s %6d\n' "$$d" \
	    $$(find $$d \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l); \
	done

# Bounded small-geometry sweep of every bench section; writes the
# machine-readable BENCH_{table1,figures,ablations,timing}.json artifacts at
# the repo root and fails if any Table-1 measured/predicted ratio exceeds the
# blessed ceilings. CI runs this on every push.
bench-json:
	dune exec bench/main.exe -- --small --json \
	  --check-ratios test/golden/ratios.expected

# Same bounded sweep, but with every machine that doesn't pin its backend
# running on real disk blocks (EM_BACKEND steers Ctx.create's default).
# Counted I/Os — and therefore the ratio gate — are identical to the sim
# run; only wall-clock differs.  The timing section additionally reports
# sim/file/cached columns regardless of EM_BACKEND.
bench-file:
	EM_BACKEND=file dune exec bench/main.exe -- --small --json \
	  --check-ratios test/golden/ratios.expected

# The repository benchmark (BENCHMARK.json, perfbench/README.md): every
# workload over seeds 1-10, each end-to-end metric's median and quartile
# spread.  perf-trace prints the per-layer view instead, over seeds 1-2.
perf:
	python3 perfbench/spread.py

perf-trace:
	python3 perfbench/spread.py --trace 1 --seeds 1-2

# One-second run of every benchmark workload; fails unless each run exits 0
# and its last line reports a correct result with no failed request.
perf-smoke:
	@for w in batch-paper sort-file serve-durable cluster-partition; do \
	  dune exec --no-print-directory ./perfbench/perfbench.exe -- \
	    --workload $$w --seed 1 --seconds 1 --trace 0 > _build/perf-smoke.out \
	  && tail -n 1 _build/perf-smoke.out | python3 -c \
	    'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
	  || { echo "perf-smoke: $$w did not finish correct with 0 failed"; exit 1; }; \
	done
	@echo "perf-smoke: every workload correct, none failed."

# Tier-1 suite re-run on multi-disk machines (the disks matrix).  Work must
# be D-invariant — identical outputs, I/Os and comparisons — so every gate,
# golden costs included, passes unchanged; only round counts compress.
test-disks:
	EM_DISKS=4 dune runtest --force
	EM_DISKS=8 dune runtest --force

# Tier-1 suite re-run with every default-sized cluster sharded (the shards
# matrix).  Outputs are P-invariant, and the shard-local supersteps run on
# domains with their traces replayed in shard order, so every gate passes
# unchanged.
test-shards:
	EM_SHARDS=4 dune runtest --force
	EM_SHARDS=8 dune runtest --force

# Tier-1 suite re-run on each non-default backend (the backend matrix).
test-backends:
	EM_BACKEND=file dune runtest --force
	EM_BACKEND=cached dune runtest --force
	EM_BACKEND=cached:file dune runtest --force

# Tier-1 suite re-run with asynchronous file I/O (the async matrix leg).
# Async moves wall-clock time, never work: outputs, counted I/Os, rounds,
# traces and every golden must be byte-identical, so the whole suite —
# golden cost diff included — passes unchanged with the domain pool on.
test-async:
	EM_ASYNC=1 EM_BACKEND=file dune runtest --force

# The async race battery on a long leash: the determinism matrix plus the
# qcheck stress property (interleaved reader/writer pipelines over a
# private pool with worker-side latency jitter) at 50 iterations.
test-async-stress:
	EM_ASYNC_STRESS_ITERS=50 dune exec test/test_main.exe -- test async

# Fault-injection smoke: one recoverable run per algorithm family, plus a
# crash-restart run.  Each exits non-zero on an unexpected failure (exit 2:
# verification, exit 3: unrecovered typed fault).
faults:
	dune exec bin/em_repro.exe -- faults sort -n 20000 --fault-p 0.01 \
	  --fault-kinds transient-read,transient-write,bit-corruption,torn-write --verify-writes
	dune exec bin/em_repro.exe -- faults multiselect -n 20000 -k 12 --fault-p 0.02
	dune exec bin/em_repro.exe -- faults splitters -n 20000 -k 16 --fault-seed 7
	dune exec bin/em_repro.exe -- faults sort -n 20000 --restartable --crash-every 800

# Serve-mode smoke: pipe the fixed query script through `em_repro serve` on
# a pinned machine (sim backend, D = 1, fixed seed) and diff the NDJSON
# transcript against the golden.  Every emitted number is a simulated cost
# except inside "wall":{...} objects (the only wall-clock compartment), which
# the sed below empties before the byte-diff.  Regenerate after an
# intentional cost change with:
#   dune exec bin/em_repro.exe -- serve -n 20000 --mem 4096 --block 64 \
#     --backend sim --disks 1 --seed 42 < test/golden/serve.script \
#     | sed -E 's/"wall":\{[^}]*\}/"wall":{}/g' > test/golden/serve.expected
# The second run replays the script with a flight dir and a 64-event trace
# ring: its transcript must match the same golden, and its shutdown
# post-mortem must hold between 1 and 64 trace events.
serve-smoke:
	dune exec bin/em_repro.exe -- serve -n 20000 --mem 4096 --block 64 \
	  --backend sim --disks 1 --seed 42 \
	  < test/golden/serve.script \
	  | sed -E 's/"wall":\{[^}]*\}/"wall":{}/g' \
	  | diff test/golden/serve.expected -
	rm -rf _build/flight-smoke
	dune exec bin/em_repro.exe -- serve -n 20000 --mem 4096 --block 64 \
	  --backend sim --disks 1 --seed 42 --flight-dir _build/flight-smoke --trace-ring 64 \
	  < test/golden/serve.script \
	  | sed -E 's/"wall":\{[^}]*\}/"wall":{}/g' \
	  | diff test/golden/serve.expected -
	python3 -c 'import glob, json, sys; \
	  d = json.load(open(sorted(glob.glob("_build/flight-smoke/postmortem-*.json"))[-1]))["postmortem"]; \
	  n = len(d["trace_events"]); \
	  sys.exit(not (d["reason"] == "shutdown" and 1 <= n <= 64))' \
	  || { echo "serve-smoke: shutdown post-mortem must hold 1..64 trace events"; exit 1; }
	@echo "serve-smoke: transcript matches the golden; --trace-ring bounds the post-mortem."

# Telemetry smoke: same pinned serve run streaming --telemetry frames to a
# file; the frames' "cost" objects are byte-deterministic, so after emptying
# each frame's "wall":{...} compartment the stream diffs against its golden.
# Regenerate with:
#   dune exec bin/em_repro.exe -- serve -n 20000 --mem 4096 --block 64 \
#     --backend sim --disks 1 --seed 42 --telemetry /tmp/telemetry.ndjson \
#     < test/golden/serve.script > /dev/null \
#   && sed -E 's/"wall":\{[^}]*\}/"wall":{}/g' /tmp/telemetry.ndjson \
#     > test/golden/telemetry.expected
telemetry-smoke:
	dune exec bin/em_repro.exe -- serve -n 20000 --mem 4096 --block 64 \
	  --backend sim --disks 1 --seed 42 \
	  --telemetry _build/telemetry-smoke.ndjson \
	  < test/golden/serve.script > /dev/null
	sed -E 's/"wall":\{[^}]*\}/"wall":{}/g' _build/telemetry-smoke.ndjson \
	  | diff test/golden/telemetry.expected -
	@echo "telemetry-smoke: frame stream matches the golden."

# Chaos-soak smoke: a seeded adversarial query stream on a pinned small
# machine with 2 scheduled kill/restore cycles, diffed against a golden
# transcript (every number is a simulated cost, so the report is
# byte-deterministic).  The binary itself enforces the soak gate: exit 2 if
# the restored session's answers diverge from the crash-free oracle's, 3 if
# total I/Os exceed the k-crash overhead bound.  Regenerate after an
# intentional cost change with:
#   dune exec bin/em_repro.exe -- soak -n 20000 --queries 40 --kills 2 \
#     --mem 4096 --block 64 --backend sim --disks 1 --seed 42 \
#     > test/golden/soak.expected
# --flight-dir leaves one post-mortem JSON per scheduled kill (stderr-only
# notices, so the golden stdout transcript is unchanged); CI uploads them.
soak:
	dune exec bin/em_repro.exe -- soak -n 20000 --queries 40 --kills 2 \
	  --mem 4096 --block 64 --backend sim --disks 1 --seed 42 \
	  --flight-dir flight-artifacts \
	  | diff test/golden/soak.expected -
	@echo "soak: transcript matches the golden (answers + k-crash bound hold)."

# Cluster smoke: the same sharded partition on P=1 and P=4 machines, diffed
# as one transcript against a golden.  Every number is a simulated cost
# (counted I/Os, comparisons, communication rounds/words), so the output is
# byte-deterministic; the P=1 half shows an empty communication ledger and
# the binary itself exits 2 if either run's merged output diverges from the
# sorted oracle — the "shards change communication, never work" gate in its
# smallest form.  Regenerate after an intentional cost change with:
#   ( dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
#       --shards 1 --mem 1024 --block 32 --seed 42 ; \
#     dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
#       --shards 4 --mem 1024 --block 32 --seed 42 ) \
#     > test/golden/cluster.expected
cluster:
	( dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
	    --shards 1 --mem 1024 --block 32 --seed 42 ; \
	  dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
	    --shards 4 --mem 1024 --block 32 --seed 42 ) \
	| diff test/golden/cluster.expected -
	@echo "cluster: transcript matches the golden (P=1 and P=4 agree)."

clean:
	dune clean
