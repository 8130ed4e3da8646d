"""Unified cost-model subsystem (predict → measure → refine).

One protocol (:class:`~repro.model.base.CostModel`), two
implementations:

* :class:`AnalyticModel` — the pure simulator: the per-thread time
  model (:meth:`AnalyticModel.run`, the one simulator entry point),
  the per-class bound derivation and, through the kernels' cost
  planes, the micro-kernel cost assembly;
* :class:`CalibratedModel` — analytic × a host-measured
  :class:`MachineProfile` (``repro-spmv calibrate``), with online
  :meth:`~CalibratedModel.refine` fed by execute-span telemetry.

The module is also the canonical home of content hashing
(:func:`matrix_fingerprint`, :func:`mapping_signature`,
:func:`body_checksum`) and of the checksummed atomic JSON envelope
every persisted artifact shares.
"""

from .analytic import AnalyticModel
from .base import (
    PROFILING_ITERATIONS,
    CostModel,
    PerformanceBounds,
    Prediction,
    prediction_error_pct,
    profiling_seconds,
)
from .calibrated import CalibratedModel
from .profile import (
    PROFILE_SCHEMA_VERSION,
    MachineProfile,
    calibrate,
    measure_parallel,
)
from .signature import (
    body_checksum,
    canonical_body,
    mapping_signature,
    matrix_fingerprint,
    read_checksummed,
    write_checksummed,
)

__all__ = [
    "CostModel",
    "Prediction",
    "PerformanceBounds",
    "AnalyticModel",
    "CalibratedModel",
    "MachineProfile",
    "PROFILE_SCHEMA_VERSION",
    "PROFILING_ITERATIONS",
    "calibrate",
    "measure_parallel",
    "profiling_seconds",
    "prediction_error_pct",
    "matrix_fingerprint",
    "canonical_body",
    "body_checksum",
    "mapping_signature",
    "write_checksummed",
    "read_checksummed",
]
