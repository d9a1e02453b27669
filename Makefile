# Convenience targets around dune.

.PHONY: all build test test-quick chaos bench bench-runtime bench-perf perf-smoke perf-gate execute serve-smoke serve-chaos clean fmt

all: build

build:
	dune build

# Tier-1: the full test suite (slow differential-validation and
# determinism tests included).
test:
	dune build && dune runtest

# Quick tests only (skips the Slow alcotest cases).
test-quick:
	dune exec test/test_main.exe -- -q

# Chaos suite: every benchmark x platform x fault plan through the full
# flow; asserts each run ends in a validated solution or a typed error.
# CHAOS_SUBSET=n keeps every n-th case for a quicker smoke run.
chaos:
	dune build @chaos

# Paper evaluation artifacts (figures + Table I).
bench:
	dune exec bench/main.exe

# Measured host execution of the partitioned benchmarks on OCaml 5
# domains (E8).
bench-runtime:
	dune exec bench/main.exe -- runtime

# Compile-side perf of the parallelizer itself (E10): baseline vs. the
# memoized, warm-started, domain-parallel solve engine; writes
# BENCH_parallelize.json.
bench-perf:
	dune exec bench/main.exe -- perf

# Quick CI subset of bench-perf.
perf-smoke:
	dune exec bench/main.exe -- perf-smoke

# Perf-regression gate: rerun the smoke subset and compare it against
# the committed baseline (±25%, override with BENCH_TOLERANCE_PCT).
# After an intentional perf change: make perf-smoke &&
# cp BENCH_parallelize.json ci/bench_baseline.json and commit.
# Also asserts every ILP acceleration toggle builds and runs: one smoke
# benchmark per toggle-off configuration through the CLI.
perf-gate: perf-smoke
	./ci/check_bench.sh ci/bench_baseline.json BENCH_parallelize.json
	@for t in presolve symmetry cuts; do \
	  ./_build/default/bin/mpsoc_par.exe bench mult_10 \
	    -p platform-a-accel --ilp-time-limit 0.5 --$$t false >/dev/null \
	    && echo "toggle-smoke: --$$t false ok" \
	    || { echo "toggle-smoke: --$$t false FAILED"; exit 1; }; \
	done

# Server-mode smoke: start the serve daemon, replay 3 benchmarks via
# loadgen (report in serve-load.json), then SIGTERM and require a
# clean drain (exit 0).
serve-smoke: build
	@rm -f serve-smoke.sock; \
	./_build/default/bin/mpsoc_par.exe serve --socket serve-smoke.sock \
	  --jobs 2 --ilp-time-limit 0.5 & pid=$$!; \
	for i in $$(seq 1 100); do test -S serve-smoke.sock && break; sleep 0.1; done; \
	./_build/default/bin/mpsoc_par.exe loadgen mult_10 compress boundary_value \
	  --socket serve-smoke.sock --qps 1 -c 2 -n 9 --report serve-load.json \
	  || { kill $$pid; exit 1; }; \
	./_build/default/bin/mpsoc_par.exe observe --socket serve-smoke.sock \
	  --json --count 1 > serve-stats.json || { kill $$pid; exit 1; }; \
	jq -e '.stats_schema == "mpsoc-par/stats/v1" and .counters.completed >= 9 and .latency.all.total.count >= 9 and ((.statuses.internal // 0) == 0)' \
	  serve-stats.json >/dev/null || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
	  && echo "serve-smoke: clean drain, live stats probed" \
	  || { echo "serve-smoke: drain failed"; exit 1; }

# Server-level chaos: the daemon under a mixed clean/faulted load.
# Every 3rd request arms a fault plan on the executor worker (a worker
# crash at the serve.exec probe, plus solver- and runtime-level raises);
# the supervised pool must answer every request with a typed response,
# restart crashed workers (>= 1 restart observed in the server metrics),
# keep the clean requests' digests consistent, and still drain cleanly
# on SIGTERM (exit 0).  SERVE_CHAOS_N=n scales the request count.
serve-chaos: build
	@rm -f serve-chaos.sock; n=$${SERVE_CHAOS_N:-45}; \
	./_build/default/bin/mpsoc_par.exe serve --socket serve-chaos.sock \
	  --jobs 1 --executors 2 --restart-budget 64 --ilp-time-limit 0.5 \
	  --flight serve-chaos.flight.jsonl \
	  --metrics serve-chaos-metrics.json & pid=$$!; \
	for i in $$(seq 1 100); do test -S serve-chaos.sock && break; sleep 0.1; done; \
	./_build/default/bin/mpsoc_par.exe loadgen mult_10 \
	  --socket serve-chaos.sock --qps 0 -c 3 -n $$n \
	  --fault-spec serve.exec@1=raise --fault-spec simplex.pivot@1=raise \
	  --fault-spec pool.spawn@1=raise --fault-every 3 \
	  --report serve-chaos-load.json \
	  || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
	  || { echo "serve-chaos: drain failed"; exit 1; }; \
	jq -e '.transport_errors == 0 and .digests_consistent == true' \
	  serve-chaos-load.json >/dev/null; \
	jq -e '.server.executor_restarts >= 1' serve-chaos-metrics.json >/dev/null; \
	jq -s -e '[.[].kind] | contains(["executor.crash"]) and contains(["executor.restart"])' \
	  serve-chaos.flight.jsonl >/dev/null \
	  || { echo "serve-chaos: flight recorder dump missing crash/restart"; exit 1; }; \
	echo "serve-chaos: $$n requests ($$(jq .faulted_requests serve-chaos-load.json) faulted), >=1 restart, flight dump ok, clean drain"

# Differential validation of every suite benchmark on two presets via
# the CLI (the acceptance check of the execution runtime).
execute: build
	@for b in $$(./_build/default/bin/mpsoc_par.exe list | awk '/^benchmarks:/{f=1;next} /^$$/{f=0} f{print $$1}'); do \
	  for p in platform-a-accel platform-b-accel; do \
	    ./_build/default/bin/mpsoc_par.exe execute $$b -p $$p --validate \
	      | grep -q 'validation: OK' \
	      && echo "ok   $$b $$p" || { echo "FAIL $$b $$p"; exit 1; }; \
	  done; \
	done

clean:
	dune clean

fmt:
	dune fmt
