"""Experiment E4 — paper Table II.

The feature definitions with their extraction complexity classes, plus
a measured scaling check: extraction wall-time of the O(1)/O(N)/O(NNZ)
feature groups across matrix sizes must scale with the advertised
complexity (this is the one experiment where *real* wall-clock is the
observable, since feature extraction is genuinely executed here, not
simulated).
"""

from __future__ import annotations

from ..kernels.microbench import time_callable
from ..matrices import FEATURE_COMPLEXITY, FEATURE_NAMES
from ..matrices.features import extract_features
from ..matrices.generators import random_uniform
from .common import ExperimentTable

__all__ = ["run", "extraction_scaling"]


def run() -> ExperimentTable:
    """Regenerate Table II (feature inventory)."""
    table = ExperimentTable(
        experiment_id="table2",
        title="Sparse matrix features used for classification",
        headers=("feature", "complexity"),
    )
    for name in FEATURE_NAMES:
        table.add(name, FEATURE_COMPLEXITY[name])
    return table


def extraction_scaling(
    sizes: tuple[int, ...] = (20_000, 40_000, 80_000),
    nnz_per_row: float = 16.0,
    repeats: int = 3,
) -> ExperimentTable:
    """Measure full-feature extraction time across matrix sizes.

    The paper's point is that all features are extractable in at most
    one pass over the nonzeros; the measured times should grow at most
    linearly in NNZ.
    """
    table = ExperimentTable(
        experiment_id="table2-scaling",
        title="Feature extraction wall time vs matrix size",
        headers=("rows", "nnz", "seconds"),
    )
    times = []
    for n in sizes:
        csr = random_uniform(n, nnz_per_row=nnz_per_row, seed=7)
        best = time_callable(
            lambda: extract_features(csr).as_array(), repeats=repeats,
            warmup=0,
        ).best_seconds
        times.append(best)
        table.add(n, csr.nnz, float(best))
    # Linear-scaling note: time ratio should not exceed ~2x the size ratio.
    ratio = times[-1] / max(times[0], 1e-12)
    size_ratio = sizes[-1] / sizes[0]
    table.note(
        f"time ratio {ratio:.1f}x over a {size_ratio:.1f}x size span "
        "(at most linear in NNZ)"
    )
    return table
