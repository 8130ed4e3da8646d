"""Experiments E7-E9 — paper Fig. 7 (a: KNC, b: KNL, c: Broadwell).

The full SpMV performance landscape per platform: MKL CSR, MKL
Inspector-Executor (not on KNC), our baseline CSR, the feature-guided
and profile-guided optimizers, and the oracle — plus the detected
classes per matrix and the average speedups over MKL CSR the paper
headlines (KNC 2.72x/2.63x, KNL 6.73x/6.48x with I-E at 4.89x,
Broadwell 2.02x/1.86x with I-E at 1.49x).
"""

from __future__ import annotations

from ..baselines import InspectorExecutor, mkl_csr_kernel
from ..core import AdaptiveSpMV, format_classes, oracle_search
from ..kernels import baseline_kernel
from ..machine import MachineSpec, get_platform
from ..matrices import load_suite
from ..model import AnalyticModel
from .common import (
    ExperimentTable,
    geometric_mean,
    trained_feature_classifier,
)

__all__ = ["run"]


def run(
    platform: str | MachineSpec,
    scale: float = 1.0,
    names: tuple[str, ...] | None = None,
    train_count: int = 210,
    include_oracle: bool = True,
) -> ExperimentTable:
    """Regenerate one Fig. 7 panel."""
    machine = (
        get_platform(platform) if isinstance(platform, str) else platform
    )
    model = AnalyticModel(machine)
    mkl = mkl_csr_kernel()
    base = baseline_kernel()
    has_ie = machine.codename != "knc"
    ie = InspectorExecutor(machine) if has_ie else None

    feat_clf = trained_feature_classifier(machine, train_count=train_count)
    prof_opt = AdaptiveSpMV(machine, classifier="profile")
    feat_opt = AdaptiveSpMV(machine, classifier=feat_clf)

    headers = ["matrix", "MKL"]
    if has_ie:
        headers.append("MKL I-E")
    headers += ["baseline", "feat", "prof"]
    if include_oracle:
        headers.append("oracle")
    headers += ["classes(prof)", "classes(feat)"]

    table = ExperimentTable(
        experiment_id=f"fig7-{machine.codename}",
        title=f"SpMV performance landscape on {machine.codename} (Gflop/s)",
        headers=tuple(headers),
    )

    speedups = {"feat": [], "prof": [], "ie": []}
    for spec, csr in load_suite(scale=scale, names=names):
        r_mkl = model.run(mkl, mkl.preprocess(csr))
        row: list = [spec.name, float(r_mkl.gflops)]
        if has_ie:
            r_ie = ie.optimize(csr).result
            row.append(float(r_ie.gflops))
            speedups["ie"].append(r_ie.gflops / r_mkl.gflops)
        r_base = model.run(base, base.preprocess(csr))
        row.append(float(r_base.gflops))

        op_f = feat_opt.optimize(csr)
        r_f = op_f.simulate()
        row.append(float(r_f.gflops))
        speedups["feat"].append(r_f.gflops / r_mkl.gflops)

        op_p = prof_opt.optimize(csr)
        r_p = op_p.simulate()
        row.append(float(r_p.gflops))
        speedups["prof"].append(r_p.gflops / r_mkl.gflops)

        if include_oracle:
            row.append(float(oracle_search(csr, machine).gflops))
        row.append(format_classes(op_p.plan.classes))
        row.append(format_classes(op_f.plan.classes))
        table.add(*row)

    table.note(
        f"average speedup over MKL CSR: prof {geometric_mean(speedups['prof']):.2f}x, "
        f"feat {geometric_mean(speedups['feat']):.2f}x"
        + (
            f", MKL I-E {geometric_mean(speedups['ie']):.2f}x"
            if has_ie else " (Inspector-Executor not available on KNC)"
        )
    )
    prof_col = table.column("classes(prof)")
    feat_col = table.column("classes(feat)")
    agree = sum(p == f for p, f in zip(prof_col, feat_col))
    table.note(
        f"classifier agreement on the suite: {agree}/{len(prof_col)} "
        "exact class-set matches (profile vs feature)"
    )
    paper = {
        "knc": "paper: prof 2.72x, feat 2.63x over MKL CSR",
        "knl": "paper: prof 6.73x, feat 6.48x, I-E 4.89x over MKL CSR",
        "broadwell": "paper: prof 2.02x, feat 1.86x, I-E 1.49x over MKL CSR",
    }
    table.note(paper[machine.codename])
    return table
