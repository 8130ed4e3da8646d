"""Hyperparameter grid search (paper Section III-C).

The thresholds of the profile-guided classifier "have been tuned using
grid search, which simply performs an exhaustive search through the
specified hyperparameter space for a combination of values that
maximizes some performance metric. We choose to maximize the average
performance gain of the corresponding optimizations on a large set of
matrices."

:func:`tune_profile_thresholds` reproduces exactly that: for each
threshold combination, classify every corpus matrix, build the selected
kernel, simulate it, and score the geometric-mean speedup over the
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ..formats import CSRMatrix
from ..machine import MachineSpec
from ..model import AnalyticModel, PerformanceBounds
from ..matrices.features import extract_features
from .pool import OptimizationPool
from .profile_classifier import ProfileThresholds, classify_from_bounds

__all__ = ["GridPoint", "GridSearchResult", "tune_profile_thresholds"]


@dataclass(frozen=True)
class GridPoint:
    """One evaluated threshold combination."""

    thresholds: ProfileThresholds
    mean_speedup: float          # geometric mean over the corpus
    n_classified: int            # matrices with a nonempty class set


@dataclass(frozen=True)
class GridSearchResult:
    """Full sweep outcome, best first."""

    points: tuple[GridPoint, ...]

    @property
    def best(self) -> GridPoint:
        return self.points[0]


def tune_profile_thresholds(
    matrices: Sequence[CSRMatrix],
    machine: MachineSpec,
    t_ml_grid: Sequence[float] = (1.05, 1.15, 1.25, 1.35, 1.5),
    t_imb_grid: Sequence[float] = (1.04, 1.14, 1.24, 1.34, 1.5),
    t_mb_grid: Sequence[float] = (0.75,),
    nthreads: int | None = None,
    pool: OptimizationPool | None = None,
) -> GridSearchResult:
    """Exhaustive threshold search maximizing mean optimization gain.

    Bounds are measured once per matrix (the expensive part) and reused
    across the whole grid; so are the per-configuration kernel
    simulations, memoized by selected-optimization tuple.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("corpus is empty")
    pool = pool or OptimizationPool()
    model = AnalyticModel(machine, nthreads)

    bounds: list[PerformanceBounds] = [model.bounds(m) for m in matrices]
    features = [
        extract_features(m, llc_bytes=machine.llc_bytes,
                         line_elems=machine.line_elems)
        for m in matrices
    ]
    base_gflops = [b.p_csr for b in bounds]

    # Memoize kernel simulations per (matrix index, optimization tuple).
    memo: dict[tuple[int, tuple[str, ...]], float] = {}

    def speedup(i: int, opts: tuple[str, ...]) -> float:
        if not opts:
            return 1.0
        key = (i, opts)
        if key not in memo:
            from ..kernels import merged_pool_kernel

            kernel = merged_pool_kernel(opts)
            result = model.run(kernel, kernel.preprocess(matrices[i]))
            memo[key] = result.gflops / base_gflops[i]
        return memo[key]

    points: list[GridPoint] = []
    for t_ml, t_imb, t_mb in product(t_ml_grid, t_imb_grid, t_mb_grid):
        th = ProfileThresholds(t_ml=t_ml, t_imb=t_imb, t_mb=t_mb)
        gains = np.empty(len(matrices))
        n_classified = 0
        for i in range(len(matrices)):
            classes = classify_from_bounds(bounds[i], th)
            opts = pool.select(classes, features[i])
            if opts:
                n_classified += 1
            gains[i] = speedup(i, opts)
        points.append(
            GridPoint(
                thresholds=th,
                mean_speedup=float(np.exp(np.mean(np.log(gains)))),
                n_classified=n_classified,
            )
        )
    points.sort(key=lambda p: -p.mean_speedup)
    return GridSearchResult(points=tuple(points))
