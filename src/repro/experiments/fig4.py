"""Experiment E2 — paper Fig. 4.

Baseline CSR performance and the per-class upper bounds (P_MB, P_ML,
P_IMB, P_CMP, P_peak) on KNC for the named suite, exposing per-matrix
bottleneck diversity.
"""

from __future__ import annotations

from ..core import classify_from_bounds, format_classes
from ..machine import KNC, MachineSpec
from ..matrices import load_suite
from ..model import AnalyticModel
from .common import ExperimentTable

__all__ = ["run"]


def run(machine: MachineSpec = KNC, scale: float = 1.0,
        names: tuple[str, ...] | None = None) -> ExperimentTable:
    """Regenerate Fig. 4 (bounds landscape) on ``machine``."""
    table = ExperimentTable(
        experiment_id="fig4",
        title=f"CSR baseline vs per-class bounds on {machine.codename} (Gflop/s)",
        headers=(
            "matrix", "P_CSR", "P_MB", "P_ML", "P_IMB", "P_CMP", "P_peak",
            "classes",
        ),
    )
    model = AnalyticModel(machine)
    for spec, csr in load_suite(scale=scale, names=names):
        b = model.bounds(csr)
        table.add(
            spec.name,
            float(b.p_csr), float(b.p_mb), float(b.p_ml),
            float(b.p_imb), float(b.p_cmp), float(b.p_peak),
            format_classes(classify_from_bounds(b)),
        )
    distinct = len(set(table.column("classes")))
    table.note(
        f"{distinct} distinct class sets across the suite "
        "(bottleneck diversity, the premise of Section III)"
    )
    return table
