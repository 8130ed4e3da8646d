"""The calibrated cost model: analytic predictions × measured profile.

:class:`CalibratedModel` wraps the analytic simulator and multiplies
every predicted time by the per-kernel scale factor of a host-measured
:class:`~repro.model.profile.MachineProfile`, so predictions land in
host wall-time units. With an identity profile (all scales 1.0) it is
**bit-identical** to :class:`~repro.model.analytic.AnalyticModel` —
the scaled path is never entered and the exact analytic
``RunResult`` object is returned (a regression test pins this).

The model also owns the online half of the paper's feedback loop:
execute spans report ``(predicted, measured)`` second pairs back via
:meth:`observe`, and :meth:`refine` folds the accumulated ratios into
the profile's scale factors — shrinking ``model_error_pct`` on the
next run and, because the profile signature changes, invalidating any
plan cached against the stale calibration.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..machine import MachineSpec, RunResult
from .analytic import AnalyticModel
from .base import prediction_error_pct
from .profile import MachineProfile

__all__ = ["CalibratedModel"]


def _scaled_result(result: RunResult, scale: float) -> RunResult:
    """``result`` with every time stretched by ``scale``.

    Flops and bytes are invariant, so Gflop/s and bandwidth divide by
    the scale; the breakdown's time arrays stretch with the threads
    (the bandwidth *level* is a rate and stays put).
    """
    breakdown = dict(result.breakdown)
    for key in ("compute_s", "bandwidth_s", "latency_s"):
        if key in breakdown:
            breakdown[key] = breakdown[key] * scale
    return replace(
        result,
        seconds=result.seconds * scale,
        thread_seconds=result.thread_seconds * scale,
        breakdown=breakdown,
    )


class CalibratedModel(AnalyticModel):
    """Analytic model scaled by a host-measured machine profile."""

    kind = "calibrated"

    def __init__(self, machine: MachineSpec, profile: MachineProfile,
                 nthreads: int | None = None):
        if profile.machine_name != machine.name:
            raise ValueError(
                f"profile was calibrated for {profile.machine_name!r}, "
                f"not {machine.name!r}; recalibrate with "
                f"`repro-spmv calibrate --platform {machine.name}`"
            )
        super().__init__(machine, nthreads)
        self.profile = profile
        #: kernel name -> list of (predicted_seconds, measured_seconds)
        #: pairs accumulated by :meth:`observe` since the last refine.
        self._observations: dict[str, list[tuple[float, float]]] = {}

    # -- scaled predictions --------------------------------------------

    def scale_for(self, kernel_name: str) -> float:
        return self.profile.scale_for(kernel_name)

    def run(self, kernel, data, partition=None, *,
            nthreads: int | None = None) -> RunResult:
        base = super().run(kernel, data, partition, nthreads=nthreads)
        scale = self.scale_for(base.kernel_name)
        if scale == 1.0:
            # Bit-identity with the analytic model under an identity
            # profile: return the exact analytic result object.
            return base
        return _scaled_result(base, scale)

    def _bandwidth_for(self, working_set_bytes: float) -> float:
        return (
            super()._bandwidth_for(working_set_bytes)
            * self.profile.bandwidth_scale
        )

    # -- online refinement ---------------------------------------------

    def observe(self, kernel_name: str, predicted_seconds: float,
                measured_seconds: float) -> None:
        """Record one predicted-vs-measured pair from an execute span.

        Non-finite or non-positive samples are dropped — a degraded
        (serial-fallback) or failed measurement must not poison the
        calibration.
        """
        if (
            predicted_seconds <= 0.0
            or measured_seconds <= 0.0
            or not np.isfinite(predicted_seconds)
            or not np.isfinite(measured_seconds)
        ):
            return
        self._observations.setdefault(kernel_name, []).append(
            (float(predicted_seconds), float(measured_seconds))
        )

    @property
    def observation_count(self) -> int:
        return sum(len(v) for v in self._observations.values())

    def refine(self, alpha: float = 0.8) -> dict:
        """Fold accumulated observations into the profile scales.

        For each observed kernel the median ``measured / predicted``
        ratio is computed and the scale moves toward it in the log
        domain: ``scale *= ratio ** alpha`` (``alpha=1`` corrects
        fully; lower values damp timing noise). Returns a report
        ``{kernel: {ratio, scale, error_before_pct, samples}}`` and
        clears the observation buffer. The profile signature changes
        whenever any scale moves, so stale cached plans stop matching.
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        report: dict[str, dict] = {}
        for name, pairs in self._observations.items():
            ratio = float(np.median([m / p for p, m in pairs]))
            old = self.scale_for(name)
            new = float(old * ratio ** alpha)
            self.profile.kernel_scales[name] = new
            report[name] = {
                "samples": len(pairs),
                "ratio": ratio,
                "scale": new,
                "error_before_pct": float(np.median([
                    prediction_error_pct(p, m) for p, m in pairs
                ])),
            }
        self._observations.clear()
        return report

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Plans decided under this calibration are keyed by the
        profile digest, so recalibration (or :meth:`refine`)
        invalidates them."""
        return f"calibrated:{self.profile.signature()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = "default" if self.nthreads is None else self.nthreads
        return (
            f"<CalibratedModel {self.machine.name} nthreads={t} "
            f"profile={self.profile.signature()[:12]}>"
        )
