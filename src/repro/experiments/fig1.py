"""Experiment E1 — paper Fig. 1.

Speedup (slowdown) of each single software optimization applied to the
CSR SpMV baseline on KNC, across the named suite. The paper's point:
every optimization helps some matrices and *hurts* others, which is
what justifies an adaptive optimizer.
"""

from __future__ import annotations

from ..kernels import baseline_kernel, single_optimization_kernels
from ..machine import KNC, MachineSpec
from ..matrices import load_suite
from ..model import AnalyticModel
from .common import ExperimentTable

__all__ = ["run"]


def run(machine: MachineSpec = KNC, scale: float = 1.0,
        names: tuple[str, ...] | None = None) -> ExperimentTable:
    """Regenerate Fig. 1 on ``machine`` (paper uses KNC)."""
    model = AnalyticModel(machine)
    base = baseline_kernel()
    singles = single_optimization_kernels()

    table = ExperimentTable(
        experiment_id="fig1",
        title=(
            "Speedup of single optimizations over baseline CSR "
            f"on {machine.codename}"
        ),
        headers=("matrix", *singles.keys()),
    )
    slowdown_seen = {name: False for name in singles}
    speedup_seen = {name: False for name in singles}
    for spec, csr in load_suite(scale=scale, names=names):
        r0 = model.run(base, base.preprocess(csr))
        row = [spec.name]
        for name, kernel in singles.items():
            r = model.run(kernel, kernel.preprocess(csr))
            s = r.gflops / r0.gflops
            row.append(float(s))
            if s < 0.98:
                slowdown_seen[name] = True
            if s > 1.05:
                speedup_seen[name] = True
        table.add(*row)

    mixed = [
        n for n in singles if slowdown_seen[n] and speedup_seen[n]
    ]
    table.note(
        "optimizations with BOTH speedups and slowdowns (the paper's "
        f"motivation for adaptivity): {', '.join(mixed) if mixed else 'none'}"
    )
    return table
