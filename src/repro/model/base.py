"""The :class:`CostModel` protocol and its shared data types.

A cost model answers one question for a ``(matrix, format, kernel
variant, nthreads)`` tuple: *how fast should this run, and why?* The
protocol exposes

* :meth:`CostModel.run` — a full simulated execution returning a
  :class:`~repro.machine.engine.RunResult` (makespan, per-thread times,
  Gflop/s, bandwidth);
* :meth:`CostModel.predict` — the same execution wrapped in a
  :class:`Prediction` with the bandwidth/latency/imbalance
  decomposition pulled out;
* :meth:`CostModel.bounds` — the paper's per-class upper bounds
  (:class:`PerformanceBounds`, Section III-B);
* :meth:`CostModel.signature` — the model's content signature,
  recorded on plan IR and folded into plan-cache keys (the profile
  digest for a calibrated model, so recalibration invalidates stale
  plans).

Two implementations exist: :class:`~repro.model.analytic.AnalyticModel`
(the pure simulator, absorbing the previously scattered estimators) and
:class:`~repro.model.calibrated.CalibratedModel` (analytic scaled by a
host-measured :class:`~repro.model.profile.MachineProfile`, closing the
predict → measure → refine loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..machine import RunResult

__all__ = [
    "CostModel",
    "Prediction",
    "PerformanceBounds",
    "PROFILING_ITERATIONS",
    "profiling_seconds",
    "prediction_error_pct",
]

#: The paper times 64 SpMV iterations per micro-benchmark "to get valid
#: timing measurements" (Section IV-D).
PROFILING_ITERATIONS = 64


@dataclass(frozen=True)
class PerformanceBounds:
    """Baseline performance and per-class upper bounds (Gflop/s)."""

    p_csr: float
    p_mb: float
    p_ml: float
    p_imb: float
    p_cmp: float
    p_peak: float
    baseline: RunResult
    machine_codename: str

    def as_dict(self) -> dict[str, float]:
        return {
            "P_CSR": self.p_csr,
            "P_MB": self.p_mb,
            "P_ML": self.p_ml,
            "P_IMB": self.p_imb,
            "P_CMP": self.p_cmp,
            "P_peak": self.p_peak,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        vals = " ".join(f"{k}={v:.2f}" for k, v in self.as_dict().items())
        return f"<bounds [{self.machine_codename}] {vals} Gflop/s>"


@dataclass(frozen=True)
class Prediction:
    """One cost-model prediction with its decomposition pulled out.

    ``decomposition`` carries the per-thread maxima of the three
    first-order time terms the time model overlaps (``compute_s``,
    ``bandwidth_s``, ``latency_s``) plus the selected bandwidth level,
    so a consumer can see *which* term bounds the makespan without
    reverse-engineering the ``RunResult`` breakdown arrays.
    """

    kernel_name: str
    nthreads: int
    seconds: float
    gflops: float
    imbalance: float
    per_thread_seconds: np.ndarray = field(repr=False)
    decomposition: dict = field(default_factory=dict)
    result: RunResult = field(repr=False, default=None)

    @classmethod
    def from_result(cls, result: RunResult) -> "Prediction":
        decomp = {}
        for key in ("compute_s", "bandwidth_s", "latency_s"):
            term = result.breakdown.get(key)
            if term is not None:
                decomp[key] = float(np.max(term))
        if "bandwidth_level_gbs" in result.breakdown:
            decomp["bandwidth_level_gbs"] = float(
                result.breakdown["bandwidth_level_gbs"]
            )
        return cls(
            kernel_name=result.kernel_name,
            nthreads=int(result.nthreads),
            seconds=float(result.seconds),
            gflops=float(result.gflops),
            imbalance=float(result.imbalance),
            per_thread_seconds=result.thread_seconds,
            decomposition=decomp,
            result=result,
        )

    def dominant_term(self) -> str:
        """Which first-order term bounds the makespan."""
        terms = {
            k: v for k, v in self.decomposition.items()
            if k in ("compute_s", "bandwidth_s", "latency_s")
        }
        if not terms:
            return "unknown"
        return max(terms, key=terms.get)


@runtime_checkable
class CostModel(Protocol):
    """What every cost model exposes (structural protocol)."""

    machine: object
    kind: str

    def run(self, kernel, data, partition=None, *,
            nthreads: int | None = None) -> RunResult:
        """Predict one full execution as a ``RunResult``."""
        ...  # pragma: no cover - protocol

    def predict(self, kernel, data, partition=None, *,
                nthreads: int | None = None) -> Prediction:
        """Predict with the decomposition pulled out."""
        ...  # pragma: no cover - protocol

    def bounds(self, csr) -> PerformanceBounds:
        """The paper's per-class upper bounds for ``csr``."""
        ...  # pragma: no cover - protocol

    def signature(self) -> str:
        """Full content signature (plan IR and plan-cache keys)."""
        ...  # pragma: no cover - protocol


def profiling_seconds(bounds: PerformanceBounds, csr,
                      iterations: int = PROFILING_ITERATIONS) -> float:
    """Online profiling cost of the profile-guided classifier.

    Three kernels are timed on the target matrix (baseline, P_ML and
    P_CMP micro-kernels), ``iterations`` runs each; ``P_MB``/``P_peak``
    are analytic and ``P_IMB`` is a by-product of the baseline run.
    """
    flops = 2.0 * csr.nnz
    per_iter = sum(
        flops / (p * 1e9) for p in (bounds.p_csr, bounds.p_ml, bounds.p_cmp)
    )
    return iterations * per_iter


def prediction_error_pct(predicted: float, measured: float) -> float:
    """Relative model error in percent, ``100*|pred - meas| / meas``.

    The one definition every telemetry surface (execute spans, bench
    rows, ``CalibratedModel.refine``) shares. Returns ``inf`` for a
    zero/invalid measurement rather than raising — telemetry must not
    take down the run it instruments.
    """
    if not measured or not np.isfinite(measured):
        return float("inf")
    return float(100.0 * abs(predicted - measured) / measured)
