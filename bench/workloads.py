"""The four closed-loop workloads.

Each workload generates its inputs from the seed, runs one caller in a
closed loop (the next call starts when the previous one returned) until
a deadline, and records per-call samples. This is a library, not a
server, so there is no open loop.

Only the calls into the library are timed. Output checks and the
interleaved scipy floor calls run with the timer stopped.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from harness import Reference, median, percentile, within

#: every this-many-th loop output is checked against scipy, plus the
#: last one; every output is checked for non-finite values.
CHECK_EVERY = 64
#: one scipy floor call per this many CG matvecs.
FLOOR_EVERY = 4
CG_TOL = 1e-8
CG_TRUE_RESIDUAL = 1e-7


class Recorder:
    """Samples and counts of one timed loop."""

    def __init__(self) -> None:
        self.apply_s: list[float] = []   # each timed executor call
        self.scipy_s: list[float] = []   # each timed floor call
        #: executor call over the floor call right after it
        self.pair_ratio: list[float] = []
        #: per operation: its executor calls times a floor call timed
        #: next to them, the denominator of ``op_floor_ratio``
        self.op_floor_s: list[float] = []
        self.op_s: list[float] = []      # each unit operation
        self.setup_s: list[float] = []   # plan-churn: cold arrivals
        self.iterations: list[int] = []  # stencil-cg: per solve
        self.flops = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other: "Recorder") -> None:
        for name in ("apply_s", "scipy_s", "pair_ratio", "op_floor_s", "op_s",
                     "setup_s", "iterations", "errors"):
            getattr(self, name).extend(getattr(other, name))
        self.flops += other.flops
        self.attempted += other.attempted
        self.failed += other.failed


def _library():
    """Import the package lazily so ``run.py`` controls where from."""
    import repro
    from repro.matrices import generators

    return repro, generators


class Workload:
    """One workload: inputs, stack, cold setup and the timed loop."""

    name = ""
    #: tail percentile reported as ``apply_ms_tail``: the highest one
    #: with at least ten samples beyond it at the configured run length.
    tail_pct = 99.0
    #: cold setups timed for ``setup_s`` (their median).
    cold_setups = 5
    #: the optimizer the loop plans through, when it keeps one.
    optimizer = None

    def cold_setup(self):
        """Generated matrix -> fresh optimizer (cold cache) ->
        ``optimize`` -> ``executor()`` -> first applied result."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed calls before the loop."""

    def loop(self, trace, deadline: float, rec: Recorder) -> None:
        raise NotImplementedError

    def subject(self):
        """``(csr, machine, spec, operand)`` the per-layer section
        measures; ``operand`` is 1-D for single-RHS workloads."""
        raise NotImplementedError

    def planning_matrices(self):
        """Matrices the pipeline-stage timings run over."""
        return [self.subject()[0]]

    def end_to_end(self, rec: Recorder, setup_s: float,
                   setup_peak_mb: float) -> tuple[dict, dict]:
        """``(metrics, details)`` of one untraced loop.

        The timed metrics are relative to the interleaved scipy floor
        calls, because host drift moves both alike; the absolute
        numbers go to the details."""
        p50 = median(rec.apply_s)
        tail, beyond = percentile(rec.apply_s, self.tail_pct)
        floor_p50 = median(rec.scipy_s)
        floor_tail, _ = percentile(rec.scipy_s, self.tail_pct)
        timed = sum(rec.op_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "setup_peak_mb": (setup_peak_mb, "MiB"),
            "floor_ratio": (median(rec.pair_ratio), "x"),
            "tail_floor_ratio": (tail / floor_tail, "x"),
            "op_floor_ratio": (timed / sum(rec.op_floor_s), "x"),
        }
        details = {
            "apply_ms_p50": 1e3 * p50,
            "apply_ms_tail": 1e3 * tail,
            "apply_tail_pct": self.tail_pct,
            "apply_samples": len(rec.apply_s),
            "apply_samples_beyond_tail": beyond,
            "floor_ms_p50": 1e3 * floor_p50,
            "floor_ms_tail": 1e3 * floor_tail,
            "floor_samples": len(rec.scipy_s),
            "gflops": rec.flops / timed / 1e9,
            "ops_per_s": len(rec.op_s) / timed,
            "ops": len(rec.op_s),
            "timed_s": timed,
        }
        return metrics, details


class _SpMVLoop(Workload):
    """Single executor calls, each followed by one scipy ``S @ x``."""

    rhs = 1

    def _build(self, csr, spec, seed: int) -> None:
        repro, _ = _library()
        self.repro = repro
        self.csr = csr
        self.spec = spec
        self.machine = repro.KNL
        rng = np.random.default_rng(seed + 1)
        shape = (csr.ncols,) if self.rhs == 1 else (csr.ncols, self.rhs)
        self.operands = [rng.standard_normal(shape) for _ in range(2)]
        self.ref = Reference(csr)
        self.tols = [self.ref.tolerance(x) for x in self.operands]
        self.flops_per_call = 2.0 * csr.nnz * self.rhs

    def _call(self, ex):
        return ex.apply if self.rhs == 1 else ex.apply_multi

    def cold_setup(self):
        opt = self.repro.AdaptiveSpMV(self.machine, spec=self.spec)
        op = opt.optimize(self.csr)
        ex = op.executor()
        out = np.empty((self.csr.nrows,) + self.operands[0].shape[1:])
        self._call(ex)(self.operands[0], out=out)
        self.ex, self.out = ex, out
        return ex

    def warm_up(self) -> None:
        call = self._call(self.ex)
        for i in range(max(2, 20 // self.rhs)):
            call(self.operands[i % 2], out=self.out)
            self.ref.S @ self.operands[i % 2]

    def loop(self, trace, deadline: float, rec: Recorder) -> None:
        call, out, S = self._call(self.ex), self.out, self.ref.S
        clock = time.perf_counter
        unchecked = None  # (reference, tolerance) of the last output
        for i in itertools.count():
            if clock() >= deadline:
                break
            k = i % 2
            x = self.operands[k]
            rec.attempted += 1
            t0 = clock()
            try:
                with trace.span("workload.op"):
                    with trace.span("engine.apply"):
                        call(x, out=out)
            except Exception as exc:  # a failed call is counted, not fatal
                rec.fail(f"{type(exc).__name__}: {exc}")
                unchecked = None
                continue
            t1 = clock()
            with trace.span("floor.scipy"):
                y_ref = S @ x
            t2 = clock()
            rec.apply_s.append(t1 - t0)
            rec.op_s.append(t1 - t0)
            rec.scipy_s.append(t2 - t1)
            rec.pair_ratio.append((t1 - t0) / (t2 - t1))
            rec.op_floor_s.append(t2 - t1)
            rec.flops += self.flops_per_call
            unchecked = (y_ref, self.tols[k])
            if not np.isfinite(out).all():
                rec.fail("non-finite output")
                unchecked = None
            elif i % CHECK_EVERY == 0:
                if not within(out, *unchecked):
                    rec.fail(f"call {i} outside the error bound")
                unchecked = None
        if unchecked is not None and not within(out, *unchecked):
            rec.fail("last call outside the error bound")

    def subject(self):
        return self.csr, self.machine, self.spec, self.operands[0]


class GraphSpMV(_SpMVLoop):
    """Skewed power-law rows on the full robust stack: time goes to the
    kernel gather, the split format and every engine layer. The only
    workload on the parallel, supervision and guard layers together."""

    name = "graph-spmv"

    def __init__(self, seed: int, quick: bool):
        repro, gen = _library()
        spec = repro.ExecutorSpec(
            guard=True,
            parallel=repro.ParallelConfig(2, "balanced-nnz"),
            supervision=repro.SupervisionSpec(),
            workspace="thread-local",
        )
        n = 3000 if quick else 64000
        self._build(gen.power_law(n, avg_deg=12, seed=seed), spec, seed)


class ScatteredBatch(_SpMVLoop):
    """Scattered rows, 16 right-hand sides per call on the bare serial
    stack: the multi-RHS tiled gather, with the engine layers idle, so
    an engine change should not move it."""

    name = "scattered-batch"
    rhs = 16
    tail_pct = 90.0

    def __init__(self, seed: int, quick: bool):
        repro, gen = _library()
        if quick:
            self.rhs = 4
        n = 3000 if quick else 64000
        self._build(gen.random_uniform(n, 16, seed=seed),
                    repro.ExecutorSpec(), seed)


class _TimedOperator:
    """The ``shape``/``matvec(x, out=)`` adapter CG drives: a thin layer
    over ``executor.apply`` that times every call. Every
    ``FLOOR_EVERY``-th call is followed by one timed scipy ``S @ x`` on
    the same ``x``, interleaved with the solve and kept out of its
    time."""

    def __init__(self, ex, S, trace, rec: Recorder):
        self.ex, self.S, self.trace, self.rec = ex, S, trace, rec
        self.shape = ex.shape
        self.calls = 0
        self.floors: list[float] = []

    def matvec(self, x, out=None):
        clock = time.perf_counter
        t0 = clock()
        with self.trace.span("engine.apply"):
            y = self.ex.apply(x, out=out)
        t1 = clock()
        self.rec.apply_s.append(t1 - t0)
        self.calls += 1
        if self.calls % FLOOR_EVERY == 0:
            with self.trace.span("floor.scipy"):
                self.S @ x
            floor = clock() - t1
            self.rec.scipy_s.append(floor)
            self.rec.pair_ratio.append((t1 - t0) / floor)
            self.floors.append(floor)
        return y


class StencilCG(Workload):
    """CG on the 2-D Poisson operator to a stated accuracy: the solver
    loop and the delta-compressed format, setup amortised over ~750
    iterations."""

    name = "stencil-cg"

    def __init__(self, seed: int, quick: bool):
        repro, gen = _library()
        self.repro = repro
        self.machine = repro.BROADWELL
        self.spec = repro.ExecutorSpec(guard=True, workspace="shared")
        self.csr = gen.poisson2d(16 if quick else 256)
        rng = np.random.default_rng(seed + 1)
        self.b = rng.standard_normal(self.csr.nrows)
        self.ref = Reference(self.csr)

    def cold_setup(self):
        opt = self.repro.AdaptiveSpMV(self.machine, spec=self.spec)
        op = opt.optimize(self.csr)
        self.ex = op.executor()
        self.ex.apply(self.b, out=np.empty(self.csr.nrows))
        return self.ex

    def warm_up(self) -> None:
        y = np.empty(self.csr.nrows)
        for _ in range(20):
            self.ex.apply(self.b, out=y)
            self.ref.S @ self.b

    def loop(self, trace, deadline: float, rec: Recorder) -> None:
        from repro.solvers import cg

        clock = time.perf_counter
        S, b = self.ref.S, self.b
        bnorm = float(np.linalg.norm(b))
        while clock() < deadline:
            rec.attempted += 1
            operator = _TimedOperator(self.ex, S, trace, rec)
            t0 = clock()
            try:
                with trace.span("workload.op"):
                    result = cg(operator, b, tol=CG_TOL)
            except Exception as exc:  # a failed solve is counted, not fatal
                rec.fail(f"{type(exc).__name__}: {exc}")
                continue
            rec.op_s.append(clock() - t0 - sum(operator.floors))
            rec.op_floor_s.append(result.iterations
                                  * median(operator.floors))
            rec.iterations.append(int(result.iterations))
            rec.flops += 2.0 * self.csr.nnz * result.iterations
            residual = float(np.linalg.norm(b - S @ result.x)) / bnorm
            if not (result.converged and residual <= CG_TRUE_RESIDUAL):
                rec.fail(f"solve residual {residual:.3e}, "
                         f"converged={result.converged}")

    def end_to_end(self, rec, setup_s, setup_peak_mb):
        metrics, details = super().end_to_end(rec, setup_s, setup_peak_mb)
        solve_s = median(rec.op_s)
        details.update(solve_s=solve_s, tts_s=setup_s + solve_s,
                       iterations=rec.iterations)
        return metrics, details

    def subject(self):
        return self.csr, self.machine, self.spec, self.b


class PlanChurn(Workload):
    """Many structures through one optimizer: planning and setup dominate
    while kernels do little. The working set is twice the plan cache, so
    cache policy and fingerprinting show."""

    name = "plan-churn"
    #: setup_s is the median over the loop's cold arrivals instead.
    cold_setups = 0

    KINDS = ("banded", "random_uniform", "power_law", "short_rows",
             "fem_like", "with_dense_rows")
    STRUCTURES = 64
    ARRIVALS_EACH = 16
    APPLIES = 10
    RESCALED_SHARE = 0.25
    #: the structure (power_law, largest size) that stands for the
    #: workload in the single-matrix measurements.
    REPRESENTATIVE = 14

    def __init__(self, seed: int, quick: bool):
        repro, gen = _library()
        self.repro = repro
        self.machine = repro.KNL
        self.spec = repro.ExecutorSpec()
        sizes = (200, 400, 800) if quick else (4000, 8000, 16000)
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=self.STRUCTURES)
        # Kind and size cycle deterministically, so every seed sees the
        # same mix; the seed picks contents, values and arrival order.
        self.bases, self.rescaled = [], []
        for i in range(self.STRUCTURES):
            n = sizes[(i // len(self.KINDS)) % len(sizes)]
            csr = _structure(gen, self.KINDS[i % len(self.KINDS)], n,
                             int(seeds[i]))
            self.bases.append(csr)
            self.rescaled.append(repro.CSRMatrix(
                csr.rowptr, csr.colind,
                csr.values * rng.uniform(0.5, 2.0), csr.shape,
                trusted=True))
        order = rng.permutation(
            np.repeat(np.arange(self.STRUCTURES), self.ARRIVALS_EACH))
        seen: set[int] = set()
        self.arrivals = []
        for s in order.tolist():
            flip = s in seen and rng.random() < self.RESCALED_SHARE
            seen.add(s)
            self.arrivals.append((s, flip))
        self.xs = {n: rng.standard_normal(n)
                   for n in sorted({c.ncols for c in self.bases})}
        self.position = 0
        self.optimizer = repro.AdaptiveSpMV(self.machine)

    def cold_setup(self):
        csr = self.bases[self.REPRESENTATIVE]
        op = self.repro.AdaptiveSpMV(self.machine).optimize(csr)
        ex = op.executor()
        ex.apply(self.xs[csr.ncols], out=np.empty(csr.nrows))
        return ex

    def warm_up(self) -> None:
        # A structure outside the working set, on its own optimizer:
        # warms code paths without touching the loop's cache.
        _, gen = _library()
        csr = gen.random_uniform(self.bases[0].nrows, 8, seed=1)
        op = self.repro.AdaptiveSpMV(self.machine).optimize(csr)
        op.executor().apply(self.xs[csr.ncols])

    def loop(self, trace, deadline: float, rec: Recorder) -> None:
        clock = time.perf_counter
        opt = self.optimizer
        while clock() < deadline:
            s, flip = self.arrivals[self.position % len(self.arrivals)]
            self.position += 1
            A = self.rescaled[s] if flip else self.bases[s]
            x = self.xs[A.ncols]
            first = np.empty(A.nrows)
            y = np.empty(A.nrows)
            rec.attempted += 1
            samples = []
            try:
                t0 = clock()
                with trace.span("workload.op", structure=s):
                    with trace.span("core.optimize") as span:
                        op = opt.optimize(A)
                        state = _cache_state(op.plan)
                        span.set(cache=state)
                    with trace.span("engine.build"):
                        ex = op.executor()
                    with trace.span("engine.apply"):
                        ex.apply(x, out=first)
                    t1 = clock()
                    for _ in range(self.APPLIES - 1):
                        ta = clock()
                        with trace.span("engine.apply"):
                            ex.apply(x, out=y)
                        samples.append(clock() - ta)
                t2 = clock()
            except Exception as exc:  # a failed arrival is counted
                rec.fail(f"{type(exc).__name__}: {exc}")
                continue
            if state == "miss":
                rec.setup_s.append(t1 - t0)
            rec.apply_s.extend(samples)
            rec.op_s.append(t2 - t0)
            rec.flops += 2.0 * A.nnz * self.APPLIES
            ref = Reference(A)
            ref.S @ x
            tf = clock()
            with trace.span("floor.scipy"):
                y_ref = ref.S @ x
            floor = clock() - tf
            rec.scipy_s.append(floor)
            rec.pair_ratio.append(median(samples) / floor)
            rec.op_floor_s.append(self.APPLIES * floor)
            if not (np.isfinite(y).all() and np.isfinite(first).all()):
                rec.fail("non-finite output")
            elif not within(first, y_ref, ref.tolerance(x)):
                rec.fail(f"structure {s} first apply outside the bound")

    def end_to_end(self, rec, setup_s, setup_peak_mb):
        metrics, details = super().end_to_end(
            rec, median(rec.setup_s), setup_peak_mb)
        cache = self.optimizer.plan_cache
        details.update(
            matrices_per_s=details["ops_per_s"],
            cold_arrivals=len(rec.setup_s),
            cache_hits=cache.hits, cache_misses=cache.misses,
            cache_evictions=cache.evictions,
        )
        return metrics, details

    def subject(self):
        csr = self.bases[self.REPRESENTATIVE]
        return csr, self.machine, self.spec, self.xs[csr.ncols]

    def planning_matrices(self):
        # One of each kind at each size.
        return self.bases[: len(self.KINDS) * 3]


def _cache_state(plan) -> str:
    """``miss`` (planned), ``values`` (structure hit, values changed so
    the format was rebuilt) or ``hit`` (served outright)."""
    if not plan.cache_hit:
        return "miss"
    return "hit" if plan.setup_seconds == 0.0 else "values"


def _structure(gen, kind: str, n: int, seed: int):
    if kind == "banded":
        return gen.banded(n, nnz_per_row=9, jitter=1.0, seed=seed)
    if kind == "random_uniform":
        return gen.random_uniform(n, 16, seed=seed)
    if kind == "power_law":
        return gen.power_law(n, avg_deg=12, seed=seed)
    if kind == "short_rows":
        return gen.short_rows(n, seed=seed)
    if kind == "fem_like":
        return gen.fem_like(n, seed=seed)
    return gen.with_dense_rows(gen.random_uniform(n, 8, seed=seed),
                               n_dense=4, dense_nnz=n // 4, seed=seed)


WORKLOADS = {w.name: w for w in (GraphSpMV, StencilCG, ScatteredBatch,
                                 PlanChurn)}
