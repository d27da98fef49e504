#!/usr/bin/env bash
# The full local gate, and the one list of checks CI runs: domain lint ->
# whole-program scan -> generic lint -> typing -> goldens -> e2e
# benchmark smoke -> runner determinism -> tests.  The tests include
# every meter's smoke (tests/test_meters.py) and every oracle.
#
#   scripts/check.sh          # everything (tier-1 includes the soak tests)
#   scripts/check.sh --fast   # deselect the soak tests that are no oracle
#                             # (the system soak); the oracles' 2 000- and
#                             # 3 000-example properties still run
#
# ruff and mypy are optional in minimal images; they run when importable
# and are reported as skipped otherwise (the configured baselines in
# pyproject.toml must stay clean wherever the tools exist).

set -u
cd "$(dirname "$0")/.."
export PYTHONPATH=src

fast=0
[ "${1:-}" = "--fast" ] && fast=1

failures=0

step() {
    echo "==> $1"
    shift
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $*"
        failures=$((failures + 1))
    fi
}

step "repro lint (determinism/kernel/observability)" \
    python -m repro lint src/repro

step "repro scan (interprocedural durability/generator/lockset proofs)" \
    python -m repro scan src/repro

if python -c "import ruff" 2>/dev/null; then
    step "ruff (generic lint baseline)" python -m ruff check src/repro
else
    echo "==> ruff: not installed, skipping (baseline in pyproject.toml)"
fi

if python -c "import mypy" 2>/dev/null; then
    step "mypy (typing baseline)" python -m mypy src/repro
else
    echo "==> mypy: not installed, skipping (baseline in pyproject.toml)"
fi

# All seven goldens, twice: the kernel's conventions (delegated calls,
# posted bursts, fast paths) may change no simulated byte, with or
# without the runtime sanitizer's bookkeeping.
step "golden fixtures (all seven, byte-identical)" \
    python -m repro.bench.golden
step "golden fixtures under the runtime sanitizer" \
    env REPRO_SANITIZE=1 python -m repro.bench.golden

# The benchmark the PR pipeline runs, at smoke size (~10 s): exits
# non-zero on a correctness failure or a broken entry point.  Read-only
# use of benchmarks/e2e; its output dir is git-ignored.
step "e2e benchmark smoke (benchmarks/e2e/run.py --smoke)" \
    python3 benchmarks/e2e/run.py --smoke

# The run-matrix executor: jobs=1 output must be byte-identical to jobs=4.
step "runner determinism (jobs 1 vs 4)" \
    python -m repro.bench.runner --check-determinism --jobs 4

# --fast keeps the oracle-marked soak passes: each holds a changed path to
# the one it replaced, so it runs whole, once, in this same call.
if [ "$fast" = 1 ]; then
    step "tier-1 tests (fast: no soak but the oracles')" \
        python -m pytest -x -q -m "not soak or oracle" tests/
else
    step "tier-1 tests" python -m pytest -x -q tests/
fi

if [ "$failures" -gt 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all gates passed"
