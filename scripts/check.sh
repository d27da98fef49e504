#!/usr/bin/env bash
# The full local gate: domain lint -> whole-program scan -> generic
# lint -> typing -> goldens -> e2e benchmark smoke -> byte-path, LSM,
# gateway, recovery, device and memory cost smokes -> tests.
#
#   scripts/check.sh          # everything (tier-1 includes the soak tests)
#   scripts/check.sh --fast   # deselect the soak tests (the system soak,
#                             # the 3 000-example byte-path and WAL-recovery
#                             # and the 2 000-example firmware-pacing,
#                             # memory-backing and live-page oracle
#                             # properties)
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

# The byte path's own cost meter, at smoke size (< 1 s): checks the
# landed bytes, the TLP counts and the entries/deposits ceilings (one per
# record, two once it overflows the WC buffer), then prices BaWAL's
# append_batch + commit above it and a replicated stream's above that.
step "byte-path cost smoke (scripts/byte_path_cost.py --smoke)" \
    python3 scripts/byte_path_cost.py --smoke

# The LSM engine's bloom-filter work (< 1 s): a merge that probes
# filters, a lookup that digests twice or probes a second L1 run, or a
# filter built for a table no GET reached breaks a ceiling and exits
# non-zero.
step "LSM cost smoke (scripts/lsm_cost.py --smoke)" \
    python3 scripts/lsm_cost.py --smoke

# The gateway wire path's copies and allocations per GET (< 1 s): a
# decoder that re-buffers whole frames, an Enum.__call__ in the codec or
# an Event built per lane pass breaks a ceiling and exits non-zero.
step "gateway cost smoke (scripts/gateway_cost.py --smoke)" \
    python3 scripts/gateway_cost.py --smoke

# What one BaWAL.recover asks of the device (~1 s): a scan that reads
# slots the log never reached, or a server.recover() that costs the sum
# of its shards' scans, breaks a ceiling and exits non-zero.
step "recovery cost smoke (scripts/recover_cost.py --smoke)" \
    python3 scripts/recover_cost.py --smoke

# One BA_PIN / BA_FLUSH / TRIM / BaWAL.start() on a bare platform (< 2 s):
# wrong landed bytes, or a never-written 1 MiB pin above 4 kernel events,
# breaks a ceiling and exits non-zero.
step "device cost smoke (scripts/device_cost.py --smoke)" \
    python3 scripts/device_cost.py --smoke

# Host memory, one fresh child per row (~2 s): 4 096 SETs of 64 B leaving
# more than 512 KiB of a node's 8 MiB BA-buffer resident, or a compacted
# LSM whose NAND keeps page images nothing maps, or a gateway recover()
# holding more than its values and three segments, breaks a ceiling and
# exits non-zero.
step "memory cost smoke (scripts/memory_cost.py --smoke)" \
    python3 scripts/memory_cost.py --smoke

if [ "$fast" = 1 ]; then
    step "tier-1 tests (fast: no soak)" python -m pytest -x -q -m "not soak" tests/
else
    step "tier-1 tests" python -m pytest -x -q tests/
fi

if [ "$failures" -gt 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all gates passed"
