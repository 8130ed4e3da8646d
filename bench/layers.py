"""Per-layer numbers of the traced run, grouped by ``repro`` module.

Every measurement here is a span the benchmark opens around a call into
one layer's public functions; spans inside the package are not used.
Byte counts are computed from array sizes, never measured.
"""

from __future__ import annotations

import time

import numpy as np

from harness import bootstrap_median_ci, median, timed

#: per-layer metric -> unit; the order is the report order.
UNITS = {
    "pipeline.analyze_ms": "ms",
    "pipeline.classify_ms": "ms",
    "pipeline.select_ms": "ms",
    "pipeline.transform_ms": "ms",
    "core.fingerprint_ms": "ms",
    "core.cache_hit_rate": "ratio",
    "core.optimize_hit_ms": "ms",
    "formats.preprocess_ms": "ms",
    "formats.bytes_per_nnz": "B",
    "kernels.apply_ms": "ms",
    "kernels.gflops": "GF/s",
    "kernels.bytes_per_apply": "B",
    "kernels.flops_per_byte": "flop/B",
    "kernels.bw_frac": "ratio",
    "floor.scipy_ms": "ms",
    "engine.guard_overhead_ms": "ms",
    "engine.parallel_overhead_ms": "ms",
    "engine.supervision_overhead_ms": "ms",
    "engine.workspace_overhead_ms": "ms",
    "engine.trace_overhead_ms": "ms",
    "engine.stack_overhead_ms": "ms",
    "memory.steady_allocs": "count",
    "memory.steady_peak_kb": "KiB",
    "memory.ws_hit_rate": "ratio",
    "memory.ws_bytes_held": "B",
    "parallel.cpu_imbalance": "ratio",
    "parallel.wall_imbalance": "ratio",
    "parallel.speedup_t2": "x",
    "sched.partition_ms": "ms",
    "loop.applies_per_op": "count",
    "loop.apply_share": "ratio",
    "loop.self_ms_per_apply": "ms",
    "trace.overhead_ms": "ms",
}

#: engine overhead -> (stack, stack it is measured against).
ENGINE_PAIRS = {
    "guard": ("guard", "bare"),
    "parallel": ("parallel", "bare"),
    "supervision": ("supervision", "parallel"),
    "workspace": ("workspace", "bare"),
    "trace": ("trace", "bare"),
    "stack": ("stack", "bare"),
}

STAGES = ("analyze", "classify", "select", "transform")


def _reps(fn, budget_s: float, lo: int, hi: int) -> int:
    """How many calls of ``fn`` fit in ``budget_s`` (one probe call)."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-6)
    return int(min(max(budget_s / once, lo), hi))


def format_nbytes(data) -> int:
    """Bytes of the execution format one apply streams (computed)."""
    if data.decomposed is not None:
        parts = [data.short_delta or data.decomposed.short]
        long_rows = data.long_part_csr()
        if long_rows is not None:
            parts.append(long_rows)
    elif data.delta is not None:
        parts = [data.delta]
    else:
        parts = [data.csr]
    return int(sum(p.total_nbytes() for p in parts))


class LayerProbe:
    """The per-layer section for one workload's subject matrix."""

    def __init__(self, wl, trace, host: dict, seed: int, quick: bool):
        import repro

        self.repro = repro
        self.wl = wl
        self.trace = trace
        self.host = host
        self.seed = seed
        self.quick = quick
        self.reps = 2 if quick else 5
        self.budget_s = 0.05 if quick else 1.0
        self.csr, self.machine, self.spec, self.operand = wl.subject()
        # The planned kernel without the guard, as a bare stack runs it.
        plain = repro.AdaptiveSpMV(self.machine).optimize(self.csr)
        self.kernel, self.data = plain.kernel, plain.data
        x = self.operand if self.operand.ndim == 1 else self.operand[:, 0]
        self.x = np.ascontiguousarray(x)
        self.metrics: dict[str, float] = {}
        self.details: dict = {}

    def run(self, traced, plain) -> tuple[dict, dict]:
        for section in (self.pipeline, self.core, self.formats,
                        self.kernels, self.engine, self.memory,
                        self.parallel):
            section()
        self.loop(traced, plain)
        missing = set(UNITS) - set(self.metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {missing}")
        return ({k: (float(self.metrics[k]), UNITS[k]) for k in UNITS},
                self.details)

    # -- sections --------------------------------------------------------

    def pipeline(self) -> None:
        from repro.core.pool import DEFAULT_POOL
        from repro.core.profile_classifier import ProfileGuidedClassifier
        from repro.model import AnalyticModel
        from repro.pipeline import PipelineContext, default_planning_stages
        from repro.pipeline.tracer import Span as StageSpan

        model = AnalyticModel(self.machine)
        classifier = ProfileGuidedClassifier(self.machine, model=model)
        for csr in self.wl.planning_matrices():
            for _ in range(self.reps):
                ctx = PipelineContext(
                    csr=csr, machine=self.machine, classifier=classifier,
                    classifier_kind="profile-guided", pool=DEFAULT_POOL,
                    guard=self.spec.guard, spec=self.spec, model=model)
                for stage in default_planning_stages():
                    timed(self.trace, f"pipeline.{stage.name}",
                          lambda: stage.run(ctx, StageSpan(stage.name)))
        for name in STAGES:
            self.metrics[f"pipeline.{name}_ms"] = 1e3 * median(
                self.trace.durations(f"pipeline.{name}"))

    def core(self) -> None:
        from repro import matrix_fingerprint

        for csr in self.wl.planning_matrices():
            for _ in range(self.reps):
                timed(self.trace, "core.fingerprint",
                      lambda: matrix_fingerprint(csr))
        self.metrics["core.fingerprint_ms"] = 1e3 * median(
            self.trace.durations("core.fingerprint"))
        opt = self.wl.optimizer
        if opt is None:
            opt = self.repro.AdaptiveSpMV(self.machine, spec=self.spec)
        if not self.trace.durations("core.optimize", cache="hit"):
            # The loop served no repeat arrival: time repeats of the
            # subject matrix.
            opt.optimize(self.csr)
            for _ in range(self.reps):
                timed(self.trace, "core.optimize",
                      lambda: opt.optimize(self.csr), cache="hit")
        cache = opt.plan_cache
        self.metrics["core.cache_hit_rate"] = (
            cache.hits / max(cache.hits + cache.misses, 1))
        self.metrics["core.optimize_hit_ms"] = 1e3 * median(
            self.trace.durations("core.optimize", cache="hit"))

    def formats(self) -> None:
        for _ in range(self.reps):
            timed(self.trace, "formats.preprocess",
                  lambda: self.kernel.preprocess(self.csr))
        self.metrics["formats.preprocess_ms"] = 1e3 * median(
            self.trace.durations("formats.preprocess"))
        self.metrics["formats.bytes_per_nnz"] = (
            format_nbytes(self.data) / self.csr.nnz)

    def kernels(self) -> None:
        from repro.engine import build_executor

        bare = build_executor(self.csr, kernel=self.kernel, data=self.data)
        operand = self.operand
        rhs = 1 if operand.ndim == 1 else operand.shape[1]
        call = bare.apply if rhs == 1 else bare.apply_multi
        out = np.empty((self.csr.nrows,) + operand.shape[1:])
        S = self.csr.to_scipy()
        n = _reps(lambda: call(operand, out=out), self.budget_s, 5, 200)
        kernel_s, scipy_s = [], []
        for _ in range(n):
            kernel_s.append(timed(self.trace, "kernels.apply",
                                  lambda: call(operand, out=out)))
            scipy_s.append(timed(self.trace, "floor.scipy",
                                 lambda: S @ operand))
        apply_s = median(kernel_s)
        flops = 2.0 * self.csr.nnz * rhs
        nbytes = (format_nbytes(self.data)
                  + 8.0 * (self.csr.ncols + self.csr.nrows) * rhs)
        self.metrics.update({
            "kernels.apply_ms": 1e3 * apply_s,
            "kernels.gflops": flops / apply_s / 1e9,
            "kernels.bytes_per_apply": nbytes,
            "kernels.flops_per_byte": flops / nbytes,
            "kernels.bw_frac": (nbytes / apply_s
                                / (self.host["triad_gbps"] * 1e9)),
            "floor.scipy_ms": 1e3 * median(scipy_s),
        })
        self.details["kernels_samples"] = n

    def _stacks(self) -> dict:
        from repro import ExecutorSpec, ParallelConfig, SupervisionSpec
        from repro.engine import build_executor

        two = ParallelConfig(2, "balanced-nnz")
        specs = {
            "bare": ExecutorSpec(),
            "guard": ExecutorSpec(guard=True),
            "parallel": ExecutorSpec(parallel=two),
            "supervision": ExecutorSpec(parallel=two,
                                        supervision=SupervisionSpec()),
            "workspace": ExecutorSpec(workspace="shared"),
            "trace": ExecutorSpec(trace=True),
            "stack": self.spec,
        }
        self.details["stacks"] = {k: s.signature() for k, s in specs.items()}
        return {k: build_executor(self.csr, s, kernel=self.kernel,
                                  data=self.data)
                for k, s in specs.items()}

    def engine(self) -> None:
        """Single-layer stacks against bare, round-robin in a seeded
        order per round; each overhead is the median of per-round
        differences with a bootstrap CI."""
        stacks = self._stacks()
        outs = {k: np.empty(self.csr.nrows) for k in stacks}
        for name, ex in stacks.items():
            ex.apply(self.x, out=outs[name])
        rounds = 20 if self.quick else 200
        rng = np.random.default_rng(self.seed)
        names = list(stacks)
        samples = {k: [] for k in stacks}
        for _ in range(rounds):
            for i in rng.permutation(len(names)):
                name = names[i]
                ex, out = stacks[name], outs[name]
                samples[name].append(timed(
                    self.trace, "engine.apply",
                    lambda: ex.apply(self.x, out=out), stack=name))
        ci = {}
        for layer, (stack, base) in ENGINE_PAIRS.items():
            diffs = 1e3 * (np.asarray(samples[stack])
                           - np.asarray(samples[base]))
            lo, hi = bootstrap_median_ci(diffs, seed=self.seed)
            value = float(np.median(diffs))
            self.metrics[f"engine.{layer}_overhead_ms"] = value
            ci[layer] = {"median_ms": value, "ci95_ms": [lo, hi],
                         "resolved": bool(lo > 0.0 or hi < 0.0),
                         "rounds": rounds, "against": base}
        self.details["engine"] = ci

    def memory(self) -> None:
        from repro.experiments.bench_batched import measure_steady_allocs

        ex = self.wl.cold_setup()
        operand = self.operand
        call = ex.apply if operand.ndim == 1 else ex.apply_multi
        out = np.empty((self.csr.nrows,) + operand.shape[1:])
        for _ in range(self.reps):
            call(operand, out=out)
        allocs = measure_steady_allocs(lambda: call(operand, out=out))
        arena = ex.arena
        self.metrics.update({
            "memory.steady_allocs": allocs["count"],
            "memory.steady_peak_kb": allocs["peak_bytes"] / 1024.0,
            "memory.ws_hit_rate": arena.hit_rate,
            "memory.ws_bytes_held": arena.bytes_held(),
        })

    def parallel(self) -> None:
        from repro import ExecutorSpec, ParallelConfig
        from repro.engine import build_executor
        from repro.sched import make_partition

        stacks = {
            t: build_executor(
                self.csr,
                ExecutorSpec(parallel=ParallelConfig(t, "balanced-nnz")),
                kernel=self.kernel)
            for t in (1, 2)
        }
        out = np.empty(self.csr.nrows)
        for ex in stacks.values():
            ex.apply(self.x, out=out)
        rounds = 5 if self.quick else 50
        walls = {1: [], 2: []}
        cpu_imb, wall_imb = [], []
        for _ in range(rounds):
            for t, ex in stacks.items():
                walls[t].append(timed(
                    self.trace, "parallel.apply",
                    lambda: ex.apply(self.x, out=out), nthreads=t))
            m = stacks[2].last_measurement
            cpu_imb.append(m.imbalance)
            wall_imb.append(m.wall_imbalance)
        for _ in range(self.reps):
            timed(self.trace, "sched.partition",
                  lambda: make_partition(self.csr, 2, "balanced-nnz"))
        self.metrics.update({
            "parallel.cpu_imbalance": median(cpu_imb),
            "parallel.wall_imbalance": median(wall_imb),
            "parallel.speedup_t2": median(walls[1]) / median(walls[2]),
            "sched.partition_ms": 1e3 * median(
                self.trace.durations("sched.partition")),
        })

    def loop(self, traced, plain) -> None:
        """Where the loop's time went, from its op spans, and what the
        recording itself cost."""
        spans = self.trace.spans
        ops = {s.id: s for s in spans if s.name == "workload.op"}
        applies = [s for s in spans
                   if s.name == "engine.apply" and s.parent in ops]
        # Floor calls interleaved into an operation are not its work.
        floor_s = sum(s.seconds for s in spans
                      if s.name == "floor.scipy" and s.parent in ops)
        op_s = sum(s.seconds for s in ops.values()) - floor_s
        apply_s = sum(s.seconds for s in applies)
        self.metrics.update({
            "loop.applies_per_op": len(applies) / len(ops),
            "loop.apply_share": apply_s / op_s,
            "loop.self_ms_per_apply": 1e3 * (op_s - apply_s) / len(applies),
            "trace.overhead_ms": 1e3 * (median(traced.apply_s)
                                        - median(plain.apply_s)),
        })
        self.details["trace_apply_samples"] = {
            "traced": len(traced.apply_s), "untraced": len(plain.apply_s)}
