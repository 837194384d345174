#!/usr/bin/env bash
# Repo health check: lint + tier-1 tests.
#
# Usage: scripts/check.sh [extra pytest args...]
#
# The lint step is `ruff check` where ruff is installed; the execution
# environment is offline and the test toolchain does not bundle it, so
# there scripts/lint_fallback.py (stdlib only: unused imports, line
# length, trailing whitespace) gates the same trees instead.
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples scripts
else
    echo "== lint fallback (ruff not installed) =="
    python scripts/lint_fallback.py src tests benchmarks examples scripts
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q "$@"

# Chaos smoke: one supervised corpus build under random worker SIGKILL
# + an injected stall must converge to bit-identical vectors with no
# leaked shm segments or worker processes (DESIGN.md §14). Time-bounded
# so a scheduler hang fails the gate instead of wedging it.
if [ "${REPRO_SKIP_CHAOS:-0}" != "1" ]; then
    echo "== chaos smoke (supervised scheduler) =="
    PYTHONPATH=src timeout 300 python scripts/chaos_smoke.py

    # Distributed chaos smoke: coordinator + two real node agents on
    # one shared queue, one SIGKILLed mid-lease, one frozen past its
    # lease and woken as a fenced zombie. Must converge bit-identical
    # to an inline build, reject every stale-epoch store, and sweep
    # away all queue/heartbeat/shm artifacts (docs/scheduling.md).
    echo "== distributed chaos smoke (multi-node queue) =="
    PYTHONPATH=src timeout 300 python scripts/distributed_smoke.py
fi

# Perf smokes for the three gates the end-to-end ledger cannot express
# (BENCH_obs / BENCH_engine / BENCH_ensemble.json); the graph plane's
# cost is on the ledger (`fabric.premat_s`, `graph.shm.*` on
# `smoke-fabric`) and has no smoke of its own. Skip with
# REPRO_SKIP_BENCH=1 when iterating on unrelated code.
#
# Telemetry-overhead smoke: a full-observability corpus build must
# stay within 15% of a dark build (DESIGN.md §12).
if [ "${REPRO_SKIP_BENCH:-0}" != "1" ]; then
    echo "== telemetry overhead smoke =="
    PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py -x -q

    # Engine perf smoke: the synchronous pull step — the one fused
    # evaluation, taken from the frontier's active fraction — keeps its
    # ≥2× dense-frontier win over the callback path (the same program
    # with its shape declarations cleared) and stays bit-identical to
    # it, on PageRank and Jacobi it stays under its
    # `fused_step_over_floor` ceiling — wall per iteration in
    # bare-NumPy gather passes, a yardstick the callback arm cannot
    # move (DESIGN.md §13) — and the default strict health monitor
    # costs the dense PageRank pull arm no more than 1.25× its
    # monitor-off wall (`monitor_overhead` in BENCH_engine.json;
    # DESIGN.md §8).
    echo "== engine kernel perf smoke =="
    PYTHONPATH=src python -m pytest \
        benchmarks/test_engine_throughput.py::test_bench_engine_kernels \
        -x -q

    # Ensemble search perf smoke: the search engine keeps its ≥5× win
    # over the selection oracle (tests/ensemble_oracle.py) on the
    # n=2000 spread curve and does not lose to it on the n=215
    # coverage beam, with scores equal to 1e-9 and identical index
    # tuples (DESIGN.md §15). Set REPRO_BENCH_LARGE=1 for the n=10k arm.
    echo "== ensemble search perf smoke =="
    PYTHONPATH=src python -m pytest benchmarks/test_bench_ensemble.py \
        -x -q
fi
