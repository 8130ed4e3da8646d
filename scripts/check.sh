#!/bin/sh
# Full local gate: lint + tier-1 tests + benchmark self-tests +
# zero-allocation perf smoke + parallel smoke + fault suite + watchdog
# and busy-pool smoke + engine permutation smoke + calibration smoke +
# examples.
#
# One command that runs everything CI checks, in the order that fails
# fastest: the lint gate (scripts/lint.sh: ruff, or on minimal images
# a byte-compile fallback plus scripts/unused_imports.py, ruff's F401
# unused-import rule in the stdlib), then the tier-1 pytest suite, then the
# benchmark's own self-tests on tiny inputs (bench/test_bench.py: a
# library change that deletes or renames a name bench/ imports fails
# here, not in a later benchmark run), then the tests/perf smoke pass
# (zero-allocation steady-state and warm-start overhead asserts, plus
# the cost-plane assert that the bound runs and a plan-cache miss
# succeed while row_compute_cycles refuses more than three rows and
# x_miss_cost refuses per-row counts, i.e. price CSR kernels from
# exact per-thread totals; speed itself is measured only by
# bench/run.py), then the measured-parallel
# smoke gate (real thread-pool execution at nthreads=2 asserting the
# measured per-thread CPU-time imbalance sanity), then the full
# fault-injection suite with *warnings promoted to errors* (a stray
# RuntimeWarning inside a recovery path is a silent NaN leak), then the
# hang-injection watchdog smoke proving a hung worker is timed out and
# degraded within the deadline budget instead of blocking the caller,
# together with the busy-pool smoke proving a parallel apply run by a
# worker of its own pool finishes instead of waiting forever for a free
# worker, then the composable-engine smoke: a permutation matrix through
# the full guard+supervision stack on 2 threads (warnings as errors)
# plus the CLI engine-spec round-trip check and a guarded supervised
# `repro-spmv run` (its exit status is the bit-identity check against
# serial CSR; its stack line must show the guard), then the calibration
# smoke: `repro-spmv calibrate --quick` writes a host MachineProfile,
# a CalibratedModel plan folds it into the cache key, and the pytest
# smoke asserts execute spans carry predicted/measured Gflop/s and
# model_error_pct with refine() shrinking the error, and finally every
# examples/*.py script runs end to end (a deleted or renamed public
# name an example still uses fails here). Exit status is the first
# failing stage's.
set -eu

cd "$(dirname "$0")/.."

echo "check: stage 1/10 lint"
sh scripts/lint.sh

echo "check: stage 2/10 tier-1 tests"
PYTHONPATH=src python -m pytest -x -q --ignore=tests/perf

echo "check: stage 3/10 benchmark self-tests"
PYTHONPATH=src python -m pytest -q bench/

echo "check: stage 4/10 perf smoke (zero-alloc + warm-start overhead)"
PYTHONPATH=src python -m pytest -x -q tests/perf

echo "check: stage 5/10 measured-parallel smoke (nthreads=2)"
PYTHONPATH=src python -m pytest -x -q -m perf_smoke tests/perf/test_parallel_smoke.py

echo "check: stage 6/10 fault suite (warnings as errors)"
PYTHONPATH=src python -m pytest -x -q -W error::RuntimeWarning tests/faults

echo "check: stage 7/10 hang-injection watchdog + busy-pool smoke"
PYTHONPATH=src python -m pytest -x -q -k "watchdog or busy_pool" \
    tests/faults/test_parallel_faults.py tests/parallel/test_plane.py

echo "check: stage 8/10 engine permutation smoke (guard+supervision, 2 threads)"
PYTHONPATH=src python -m pytest -x -q -W error::RuntimeWarning \
    -k permutation_smoke_guard_supervision_two_threads \
    tests/engine/test_permutations.py
PYTHONPATH=src python -m repro.cli plan smallfem --explain \
    | grep -q "engine-spec round-trip: ok" \
    || { echo "check: engine-spec round-trip FAILED" >&2; exit 1; }
run_out="$(PYTHONPATH=src python -m repro.cli run smallfem \
    --engine-spec guard,threads=2,supervise)" \
    || { echo "check: guarded supervised run FAILED" >&2; exit 1; }
printf '%s\n' "$run_out" | grep -q "^stack: .*guard -> kernel\[" \
    || { echo "check: guarded supervised stack FAILED" >&2; exit 1; }

echo "check: stage 9/10 calibration smoke (quick profile + calibrated plan)"
calib_tmp="$(mktemp -d)"
trap 'rm -rf "$calib_tmp"' EXIT
PYTHONPATH=src python -m repro.cli calibrate --quick \
    -o "$calib_tmp/profile.json"
PYTHONPATH=src python -m repro.cli plan smallfem \
    --profile "$calib_tmp/profile.json" \
    | grep -q "cost_model=calibrated:" \
    || { echo "check: calibrated plan FAILED" >&2; exit 1; }
PYTHONPATH=src python -m pytest -x -q tests/model/test_calibration_smoke.py

echo "check: stage 10/10 examples (each examples/*.py exits 0)"
for example in examples/*.py; do
    PYTHONPATH=src python "$example" > /dev/null \
        || { echo "check: $example FAILED" >&2; exit 1; }
done

echo "check: all stages passed"
