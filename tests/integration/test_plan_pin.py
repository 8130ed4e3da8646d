"""Cost-plane pin: every plan for the named suite stays what it was.

For each matrix of the named suite at scale 0.25 and each simulated
platform (KNC, KNL, Broadwell), a fresh ``AdaptiveSpMV`` without a
plan cache plans the matrix. The detected classes and the kernel name
must equal the recorded ones exactly; the charged decision and setup
seconds and the simulated Gflop/s must match to ``rtol=1e-9``, which
leaves room for last-bit differences between numpy versions.

The fixture ``fixtures/plan_pin.json`` is the record. Regenerate it
only when a change is meant to move a plan, and say why::

    PYTHONPATH=src python tests/integration/test_plan_pin.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AdaptiveSpMV
from repro.machine import PLATFORMS
from repro.matrices import load_suite

SCALE = 0.25
FIXTURE = Path(__file__).parent / "fixtures" / "plan_pin.json"


def plan_records() -> dict:
    """Plan every suite matrix on every platform; key ``platform/name``."""
    suite = list(load_suite(scale=SCALE))
    records = {}
    for codename, machine in PLATFORMS.items():
        for spec, csr in suite:
            op = AdaptiveSpMV(machine, plan_cache=False).optimize(csr)
            plan = op.plan
            records[f"{codename}/{spec.name}"] = {
                "classes": sorted(c.value for c in plan.classes),
                "kernel_name": plan.kernel_name,
                "decision_seconds": plan.decision_seconds,
                "setup_seconds": plan.setup_seconds,
                "gflops": op.simulate().gflops,
            }
    return records


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return plan_records()


def test_plan_pin_covers_same_cases(recorded, current):
    assert sorted(current) == sorted(recorded)


@pytest.mark.parametrize("field", ["classes", "kernel_name"])
def test_plan_pin_names_exact(recorded, current, field):
    diffs = {
        key: (want[field], current[key][field])
        for key, want in recorded.items()
        if current[key][field] != want[field]
    }
    assert not diffs


@pytest.mark.parametrize(
    "field", ["decision_seconds", "setup_seconds", "gflops"]
)
def test_plan_pin_numbers(recorded, current, field):
    keys = sorted(recorded)
    want = np.array([recorded[k][field] for k in keys])
    got = np.array([current[k][field] for k in keys])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0,
                               err_msg=f"{field} moved")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    records = plan_records()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)) + "\n}\n")
    print(f"wrote {FIXTURE}")
