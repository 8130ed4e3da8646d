"""Host-measured machine profiles and the ``calibrate`` workflow.

A :class:`MachineProfile` is the bridge between the analytical
simulator and the machine the code actually runs on: a set of scale
factors measured by running STREAM-style bandwidth, gather-latency and
per-kernel microbenchmarks through the *real* zero-allocation and
parallel execution planes. :class:`~repro.model.calibrated.
CalibratedModel` multiplies analytic predictions by these scales, so
predictions land in host wall-time units and the predict → measure →
refine loop (execute-span telemetry feeding
:meth:`~repro.model.calibrated.CalibratedModel.refine`) can converge.

Profiles persist with the same checksummed atomic envelope as the plan
cache (:func:`repro.model.signature.write_checksummed`), and their
content signature folds into plan-cache keys — recalibrating a host
invalidates every plan tuned against the stale profile.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .signature import body_checksum, read_checksummed, write_checksummed

__all__ = ["PROFILE_SCHEMA_VERSION", "MachineProfile", "calibrate",
           "measure_parallel"]

#: Version of the persisted profile layout.
PROFILE_SCHEMA_VERSION = 1

#: Matrices per calibration suite (name -> generator call), sized so the
#: full suite stresses both the in-cache and streaming regimes.
_QUICK_MATRICES = (("banded-2k", "banded", dict(n=2000, nnz_per_row=9)),)
_FULL_MATRICES = (
    ("banded-20k", "banded", dict(n=20000, nnz_per_row=9)),
    ("scattered-4k", "random_uniform", dict(n=4000, nnz_per_row=16.0)),
    ("powerlaw-4k", "power_law", dict(n=4000, avg_deg=10.0)),
)


@dataclass
class MachineProfile:
    """Measured scale factors relating a simulated machine to a host.

    ``kernel_scales`` maps kernel names to ``measured / predicted``
    wall-time ratios; ``bandwidth_scale`` relates the host's measured
    streaming bandwidth to the simulated machine's sustainable
    bandwidth (it scales the analytic ``P_MB``/``P_peak`` bounds).
    ``measured`` keeps the raw host numbers (bandwidth GB/s, gather
    latency ns, per-cell timings) for reporting; they do not affect
    predictions and are excluded from :meth:`signature`.
    """

    machine_name: str
    bandwidth_scale: float = 1.0
    kernel_scales: dict[str, float] = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    host: str = ""
    quick: bool = False
    samples: int = 0

    @classmethod
    def identity(cls, machine_name: str) -> "MachineProfile":
        """The do-nothing profile: CalibratedModel(identity) must be
        bit-identical to AnalyticModel."""
        return cls(machine_name=machine_name)

    @property
    def is_identity(self) -> bool:
        return self.bandwidth_scale == 1.0 and not self.kernel_scales

    @property
    def default_scale(self) -> float:
        """Scale for kernels the calibration never timed: the median of
        the known scales (robust to one outlier kernel), 1.0 when none
        were measured."""
        if not self.kernel_scales:
            return 1.0
        return float(np.median(list(self.kernel_scales.values())))

    def scale_for(self, kernel_name: str) -> float:
        return float(self.kernel_scales.get(kernel_name,
                                            self.default_scale))

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Content digest over everything that changes predictions.

        Raw measurements, host name and sample counts are excluded:
        two profiles that predict identically share a signature (and
        therefore plan-cache keys)."""
        return body_checksum({
            "machine": self.machine_name,
            "bandwidth_scale": float(self.bandwidth_scale),
            "kernel_scales": {
                k: float(v) for k, v in sorted(self.kernel_scales.items())
            },
        })

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "machine_name": self.machine_name,
            "bandwidth_scale": float(self.bandwidth_scale),
            "kernel_scales": {
                k: float(v) for k, v in sorted(self.kernel_scales.items())
            },
            "measured": self.measured,
            "host": self.host,
            "quick": bool(self.quick),
            "samples": int(self.samples),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineProfile":
        version = payload.get("schema_version")
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported machine-profile schema {version!r} "
                f"(this build reads {PROFILE_SCHEMA_VERSION})"
            )
        return cls(
            machine_name=payload["machine_name"],
            bandwidth_scale=float(payload.get("bandwidth_scale", 1.0)),
            kernel_scales={
                k: float(v)
                for k, v in payload.get("kernel_scales", {}).items()
            },
            measured=dict(payload.get("measured", {})),
            host=payload.get("host", ""),
            quick=bool(payload.get("quick", False)),
            samples=int(payload.get("samples", 0)),
        )

    def save(self, path) -> None:
        """Atomic checksummed write (same envelope as the plan cache)."""
        write_checksummed(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "MachineProfile":
        """Inverse of :meth:`save`; raises ``ValueError`` on a
        corrupted or incompatible file."""
        return cls.from_dict(read_checksummed(path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MachineProfile {self.machine_name} "
            f"bw_scale={self.bandwidth_scale:.3g} "
            f"kernels={len(self.kernel_scales)} "
            f"sig={self.signature()[:12]}>"
        )


# -- host microbenchmarks ----------------------------------------------


def _stream_bandwidth_gbs(elems: int, repeats: int, warmup: int) -> float:
    """STREAM-triad-style host bandwidth in GB/s.

    ``a := alpha*c; a += b`` over float64 arrays: per element one read
    of ``c``, one write + one read-modify-write of ``a`` and one read
    of ``b`` — 40 nominal bytes. Absolute fidelity does not matter;
    the same accounting is used every calibration, so the *scale* it
    induces is consistent.
    """
    from ..kernels.microbench import time_callable

    b = np.full(elems, 1.5)
    c = np.full(elems, 0.5)
    a = np.empty(elems)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    timing = time_callable(triad, repeats=repeats, warmup=warmup)
    return 40.0 * elems / timing.median_seconds / 1e9


def _gather_latency_ns(elems: int, repeats: int, warmup: int,
                       seed: int = 7) -> float:
    """Exposed per-element cost of a random gather on the host (ns)."""
    from ..kernels.microbench import time_callable

    rng = np.random.default_rng(seed)
    x = rng.random(elems)
    idx = rng.permutation(elems).astype(np.intp)
    out = np.empty(elems)

    def gather():
        np.take(x, idx, out=out, mode="clip")

    timing = time_callable(gather, repeats=repeats, warmup=warmup)
    return 1e9 * timing.median_seconds / elems


def _calibration_matrices(quick: bool):
    from ..matrices import generators

    suite = _QUICK_MATRICES if quick else _FULL_MATRICES
    return [
        (name, getattr(generators, fn)(**kwargs))
        for name, fn, kwargs in suite
    ]


def _calibration_kernels(quick: bool):
    from ..kernels import baseline_kernel, merged_pool_kernel

    kernels = [baseline_kernel()]
    names = (
        ("compression",) if quick
        else ("compression", "prefetching", "unrolling", "auto-sched")
    )
    for name in names:
        kernels.append(merged_pool_kernel((name,)))
    return kernels


def calibrate(machine, *, quick: bool = False,
              nthreads: int | None = None,
              repeats: int | None = None) -> MachineProfile:
    """Measure a :class:`MachineProfile` for ``machine`` on this host.

    Three families of microbenchmarks, all with warmed caches and
    median-of-k timing (:func:`repro.kernels.microbench.time_callable`):

    1. STREAM-style triad → host streaming bandwidth → the profile's
       ``bandwidth_scale`` against the simulated machine's sustainable
       bandwidth;
    2. a random-permutation gather → exposed memory latency per element
       (recorded for reporting);
    3. per-kernel SpMV runs through the real zero-allocation plane
       (:class:`~repro.engine.executor.KernelExecutor` + warm
       :class:`~repro.memory.Workspace`, ``out=`` buffers) plus one
       baseline run through the real parallel plane at 2 threads —
       each cell's median wall time over the analytic prediction gives
       that kernel's scale (geometric mean across matrices).

    ``quick=True`` shrinks the suite to one matrix, two kernels and
    fewer repeats — the CI smoke configuration.
    """
    # Imported lazily: the profile module must stay importable without
    # dragging the whole execution stack in at import time.
    from ..engine import ExecutorSpec, build_executor
    from ..kernels.microbench import time_callable
    from ..memory import Workspace
    from ..parallel import ParallelConfig
    from .analytic import AnalyticModel

    k = repeats if repeats is not None else (3 if quick else 7)
    warmup = 1 if quick else 2
    stream_elems = 1 << 20 if quick else 1 << 22
    gather_elems = 1 << 18 if quick else 1 << 20

    t0 = time.perf_counter()
    analytic = AnalyticModel(machine, nthreads)

    bandwidth_gbs = _stream_bandwidth_gbs(stream_elems, k, warmup)
    gather_ns = _gather_latency_ns(gather_elems, k, warmup)
    # Scale against the streaming (largest-working-set) regime.
    simulated_bw = machine.bandwidth_for_working_set(float("inf"))
    bandwidth_scale = bandwidth_gbs * 1e9 / simulated_bw

    kernel_scales: dict[str, float] = {}
    cells: dict[str, dict] = {}
    samples = 0
    ratios: dict[str, list[float]] = {}
    for matrix_name, csr in _calibration_matrices(quick):
        x = np.ones(csr.ncols)
        out = np.empty(csr.nrows)
        for kernel in _calibration_kernels(quick):
            data = kernel.preprocess(csr)
            executor = build_executor(
                csr, ExecutorSpec(), kernel=kernel, data=data,
                workspace=Workspace(),
            )
            timing = time_callable(
                lambda: executor.apply(x, out=out),
                repeats=k, warmup=warmup,
            )
            predicted = analytic.run(kernel, data).seconds
            ratio = timing.median_seconds / predicted
            ratios.setdefault(kernel.name, []).append(ratio)
            cells[f"{kernel.name}@{matrix_name}"] = {
                "measured_seconds": timing.median_seconds,
                "predicted_seconds": predicted,
                "ratio": ratio,
            }
            samples += 1
    for name, rs in ratios.items():
        kernel_scales[name] = float(np.exp(np.mean(np.log(rs))))

    # One pass through the real parallel plane (recorded, not scaled:
    # run() keys scales by kernel name, and the parallel makespan folds
    # thread-pool effects the serial scale must not absorb).
    parallel_cell: dict | None = None
    matrix_name, csr = _calibration_matrices(quick)[0]
    from ..kernels import baseline_kernel

    base = baseline_kernel()
    par = build_executor(
        csr,
        ExecutorSpec(parallel=ParallelConfig(nthreads=2,
                                             schedule="balanced-nnz")),
        kernel=base,
    )
    x = np.ones(csr.ncols)
    timing = time_callable(lambda: par.apply(x), repeats=k, warmup=warmup)
    predicted = analytic.run(base, base.preprocess(csr),
                             nthreads=2).seconds
    parallel_cell = {
        "matrix": matrix_name,
        "nthreads": 2,
        "measured_seconds": timing.median_seconds,
        "predicted_seconds": predicted,
        "ratio": timing.median_seconds / predicted,
    }

    return MachineProfile(
        machine_name=machine.name,
        bandwidth_scale=float(bandwidth_scale),
        kernel_scales=kernel_scales,
        measured={
            "stream_bandwidth_gbs": bandwidth_gbs,
            "gather_latency_ns": gather_ns,
            "cells": cells,
            "parallel": parallel_cell,
            "calibration_seconds": time.perf_counter() - t0,
        },
        host=platform.node() or "unknown-host",
        quick=quick,
        samples=samples,
    )


def measure_parallel(model, kernel, csr, nthreads: int, *,
                     schedule: str | None = None,
                     chunk_rows: int | None = None, repeats: int = 3,
                     data=None, guard: bool = False,
                     supervision=None,
                     deadline_seconds: "float | str | None" = None,
                     tracer=None):
    """Run ``kernel`` for real on ``nthreads`` pool threads under
    supervision and set the run beside ``model``'s prediction.

    ``build_executor`` builds the stack from ``guard`` and
    ``supervision`` (a :class:`~repro.engine.SupervisionSpec`, default
    ``SupervisionSpec()``), whose deadline a ``deadline_seconds`` other
    than None replaces (``"auto"``:
    :meth:`~repro.model.AnalyticModel.suggest_deadline`).

    Returns ``(result, measurement, supervision)``: ``result`` is
    ``model``'s :class:`~repro.machine.engine.RunResult` at
    ``nthreads``; ``measurement`` the fastest of ``repeats``
    :class:`~repro.parallel.plane.ParallelMeasurement` runs (``None``
    when every repeat degraded to the serial fallback); ``supervision``
    the last repeat's :class:`~repro.engine.supervision.
    SupervisionReport`, the ladder it walked.

    With a ``tracer``, one ``execute`` span records the prediction,
    the measured imbalance and Gflop/s and ``model_error_pct``. A model
    with ``observe`` (:class:`~repro.model.CalibratedModel`) receives
    the predicted and measured seconds for its next ``refine()``.
    """
    from ..engine import ExecutorSpec, SupervisionSpec, build_executor
    from ..parallel import ParallelConfig
    from .base import prediction_error_pct

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if isinstance(deadline_seconds, str) and deadline_seconds != "auto":
        raise ValueError(
            "deadline_seconds must be a number, None, or 'auto'"
        )
    t0 = time.perf_counter()
    if data is None:
        data = kernel.preprocess(csr)
    result = model.run(kernel, data, nthreads=nthreads)
    supervision = supervision or SupervisionSpec()
    if deadline_seconds == "auto":
        deadline_seconds = model.suggest_deadline(kernel, data,
                                                  nthreads=nthreads)
    if deadline_seconds is not None:
        supervision = replace(supervision, deadline_seconds=deadline_seconds)
    sup = build_executor(
        csr,
        ExecutorSpec(
            guard=guard,
            parallel=ParallelConfig(
                nthreads=nthreads,
                schedule=schedule or getattr(kernel, "schedule",
                                             "balanced-nnz"),
                chunk_rows=chunk_rows),
            supervision=supervision,
        ),
        kernel=kernel,
    )
    x = np.ones(csr.ncols)
    best = report = None
    for _ in range(repeats):
        sup.apply(x)
        report = sup.last_report
        m = sup.last_measurement
        if m is not None and (best is None
                              or m.wall_seconds < best.wall_seconds):
            best = m
    attributes = dict(
        result.summary(),
        cost_model=model.signature(),
        predicted_gflops=float(result.gflops),
        predicted_imbalance=result.imbalance,
        supervision=report.summary(),
    )
    if best is not None:
        measured_gflops = (2.0 * csr.nnz / best.wall_seconds / 1e9
                           if best.wall_seconds > 0 else 0.0)
        attributes.update(
            measured=best.summary(),
            measured_imbalance=best.imbalance,
            measured_wall_imbalance=best.wall_imbalance,
            parallel_nthreads=best.nthreads,
            parallel_schedule=best.schedule,
            measured_gflops=float(measured_gflops),
            model_error_pct=float(
                prediction_error_pct(result.gflops, measured_gflops)),
        )
        observe = getattr(model, "observe", None)
        if observe is not None:
            observe(kernel.name, result.seconds, best.wall_seconds)
    if tracer is not None:
        tracer.record("execute", wall_seconds=time.perf_counter() - t0,
                      **attributes)
    return result, best, report
