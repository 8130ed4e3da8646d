"""Command-line interface.

::

    repro-spmv suite                      # list the named matrix suite
    repro-spmv analyze NAME --platform knl
    repro-spmv analyze path/to/matrix.mtx --platform knc
    repro-spmv plan NAME --explain        # staged planning breakdown
    repro-spmv trace NAME                 # JSON span export
    repro-spmv validate path/to/matrix.mtx
    repro-spmv run NAME --engine-spec guard,threads=2,supervise
    repro-spmv parallel NAME --threads 1,2,4,8   # measured imbalance
    repro-spmv calibrate --quick -o profile.json # host MachineProfile
    repro-spmv model NAME --explain       # Table I/II bound breakdown
    repro-spmv experiment fig7-knl --scale 0.5
    repro-spmv experiments                # list experiment ids
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .core import (
    AdaptiveSpMV,
    PlanCache,
    classify_from_bounds,
    format_classes,
)
from .machine import PLATFORMS, get_platform
from .matrices import (
    NAMED_SUITE,
    matrix_stats,
    named_matrix,
    read_matrix_market,
    suite_names,
)

__all__ = ["main", "build_parser"]


#: ``--engine-spec`` help text shared by the subcommands that take one.
_ENGINE_SPEC_HELP = (
    "execution-stack spec: comma-separated tokens among "
    "guard, threads=N, schedule=NAME, chunk-rows=N, supervise, "
    "deadline-ms=F, retries=N, backoff-ms=F, no-serial-fallback, "
    "workspace=shared|thread-local, trace "
    "(e.g. 'guard,threads=4,supervise,deadline-ms=500')"
)


def parse_engine_spec(text: str):
    """Parse a compact ``--engine-spec`` string into an
    :class:`~repro.engine.ExecutorSpec`.

    Supervision tokens (``deadline-ms`` / ``retries`` / ``backoff-ms``
    / ``no-serial-fallback``) imply ``supervise``; ``supervise`` and
    the parallel tokens require ``threads=N``.
    """
    from .engine import ExecutorSpec, SupervisionSpec

    guard = False
    trace = False
    workspace = "none"
    threads = None
    schedule = "balanced-nnz"
    chunk_rows = None
    supervise = False
    sup_kwargs: dict = {}
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        key, _, value = token.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "guard" and not value:
            guard = True
        elif key == "trace" and not value:
            trace = True
        elif key == "supervise" and not value:
            supervise = True
        elif key == "workspace":
            workspace = value
        elif key == "threads":
            threads = int(value)
        elif key == "schedule":
            schedule = value
        elif key == "chunk-rows":
            chunk_rows = int(value)
        elif key == "deadline-ms":
            supervise = True
            sup_kwargs["deadline_seconds"] = float(value) / 1e3
        elif key == "retries":
            supervise = True
            sup_kwargs["max_retries"] = int(value)
        elif key == "backoff-ms":
            supervise = True
            sup_kwargs["backoff_seconds"] = float(value) / 1e3
        elif key == "no-serial-fallback" and not value:
            supervise = True
            sup_kwargs["serial_fallback"] = False
        else:
            raise ValueError(f"unknown engine-spec token {token!r}")
    if supervise and threads is None:
        raise ValueError(
            "engine-spec: supervision tokens require threads=N"
        )
    parallel = None
    if threads is not None:
        from .parallel import ParallelConfig

        parallel = ParallelConfig(nthreads=threads, schedule=schedule,
                                  chunk_rows=chunk_rows)
    return ExecutorSpec(
        guard=guard,
        parallel=parallel,
        supervision=SupervisionSpec(**sup_kwargs) if supervise else None,
        workspace=workspace,
        trace=trace,
    )


#: ``parallel --engine-spec`` tokens the sweep refuses, and what to use.
_SWEEP_TOKENS = {"threads": "--threads", "schedule": "--schedule",
                 "workspace": "'repro-spmv run --engine-spec'",
                 "trace": "'repro-spmv run --engine-spec'"}


def _parse_sweep_spec(text: str, schedules):
    """Parse a ``parallel --engine-spec``. The sweep sets each run's
    width and schedule and measures no workspace or trace layer, so only
    guard, supervision and (chunked schedules) chunk-rows tokens pass."""
    for raw in text.split(","):
        key = raw.partition("=")[0].strip().lower()
        if key in _SWEEP_TOKENS:
            raise ValueError(
                f"engine-spec token {raw.strip()!r} does not apply to "
                f"the parallel sweep; use {_SWEEP_TOKENS[key]}")
    # Each run sets its own width; this one only satisfies the parser.
    spec = parse_engine_spec(f"threads=1,{text}")
    if spec.parallel.chunk_rows is not None and not set(schedules) <= {
            "auto", "dynamic"}:
        raise ValueError("engine-spec token chunk-rows applies only to "
                         "the auto and dynamic schedules; use "
                         "--schedule auto or --schedule dynamic")
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv",
        description="Adaptive bottleneck-classifying SpMV optimizer "
        "(IPDPS'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="list the named matrix suite")
    p_suite.add_argument("--scale", type=float, default=0.2,
                         help="size scale for the stats column")

    p_an = sub.add_parser("analyze", help="classify and optimize a matrix")
    p_an.add_argument("matrix",
                      help="suite matrix name or MatrixMarket file path")
    p_an.add_argument("--platform", default="knl",
                      choices=sorted(PLATFORMS))
    p_an.add_argument("--scale", type=float, default=1.0)

    p_plan = sub.add_parser(
        "plan",
        help="run the staged planning pipeline without executing",
    )
    p_plan.add_argument("matrix",
                        help="suite matrix name or MatrixMarket file path")
    p_plan.add_argument("--platform", default="knl",
                        choices=sorted(PLATFORMS))
    p_plan.add_argument("--scale", type=float, default=1.0)
    p_plan.add_argument("--explain", action="store_true",
                        help="print the per-stage overhead breakdown")
    p_plan.add_argument("--cache", default=None, metavar="PATH",
                        help="warm-start from a persisted plan cache "
                        "(created by --save-cache) when it exists")
    p_plan.add_argument("--save-cache", default=None, metavar="PATH",
                        help="persist the plan cache after planning")
    p_plan.add_argument("--profile", default=None, metavar="PATH",
                        help="plan through a CalibratedModel built from "
                        "this machine profile (see 'calibrate'); the "
                        "profile digest folds into the plan-cache key")

    p_trace = sub.add_parser(
        "trace",
        help="optimize + simulate one matrix and export the stage "
        "spans as JSON",
    )
    p_trace.add_argument("matrix",
                         help="suite matrix name or MatrixMarket file path")
    p_trace.add_argument("--platform", default="knl",
                         choices=sorted(PLATFORMS))
    p_trace.add_argument("--scale", type=float, default=1.0)
    p_trace.add_argument("-o", "--output", default="-", metavar="PATH",
                         help="trace JSON path ('-' for stdout)")

    p_run = sub.add_parser(
        "run",
        help="optimize one matrix and execute it through a composed "
        "engine stack",
    )
    p_run.add_argument("matrix",
                       help="suite matrix name or MatrixMarket file path")
    p_run.add_argument("--platform", default="knl",
                       choices=sorted(PLATFORMS))
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--engine-spec", default=None, metavar="SPEC",
                       help=_ENGINE_SPEC_HELP)
    p_run.add_argument("--repeats", type=int, default=3,
                       help="apply repetitions (best wall is kept)")

    p_val = sub.add_parser(
        "validate",
        help="validate a MatrixMarket file (structure + values); "
        "nonzero exit on failure",
    )
    p_val.add_argument("matrix", help="MatrixMarket file path")
    p_val.add_argument("--no-values", action="store_true",
                       help="skip the finite-values check")

    p_tr = sub.add_parser(
        "train", help="train and save a feature-guided classifier"
    )
    p_tr.add_argument("output", help="path for the classifier JSON")
    p_tr.add_argument("--platform", default="knl",
                      choices=sorted(PLATFORMS))
    p_tr.add_argument("--count", type=int, default=210,
                      help="training corpus size")
    p_tr.add_argument("--seed", type=int, default=2017)

    p_ex = sub.add_parser(
        "export-suite",
        help="write the named suite as MatrixMarket files",
    )
    p_ex.add_argument("directory")
    p_ex.add_argument("--scale", type=float, default=1.0)

    p_par = sub.add_parser(
        "parallel",
        help="run real threaded SpMV on one matrix: measured vs "
        "predicted imbalance per schedule policy and thread count",
    )
    p_par.add_argument("matrix",
                       help="suite matrix name or MatrixMarket file path")
    p_par.add_argument("--platform", default="knl",
                       choices=sorted(PLATFORMS))
    p_par.add_argument("--scale", type=float, default=1.0)
    p_par.add_argument("--threads", default="1,2,4,8",
                       help="comma-separated thread counts")
    p_par.add_argument("--schedule", default=None,
                       help="one schedule policy (default: all)")
    p_par.add_argument("--repeats", type=int, default=3,
                       help="timing repetitions (best wall is kept)")
    p_par.add_argument("--deadline-ms", default=None,
                       help="per-apply deadline budget in milliseconds, "
                       "or 'auto' to derive it from the cost model's "
                       "prediction; a breached run degrades through the "
                       "supervision ladder instead of blocking")
    p_par.add_argument("--max-retries", type=int, default=None,
                       help="reduced-width retries before the serial "
                       "fallback (default: the spec's retries, else 2)")
    p_par.add_argument("--engine-spec", default=None, metavar="SPEC",
                       help=_ENGINE_SPEC_HELP + "; the sweep takes only "
                       "guard, supervision and chunk-rows tokens")
    p_par.add_argument("--profile", default=None, metavar="PATH",
                       help="predict through a CalibratedModel built "
                       "from this machine profile (see 'calibrate')")

    p_cal = sub.add_parser(
        "calibrate",
        help="measure a host MachineProfile (STREAM bandwidth, gather "
        "latency, per-kernel microbenchmarks) for a simulated platform",
    )
    p_cal.add_argument("--platform", default="knl",
                       choices=sorted(PLATFORMS))
    p_cal.add_argument("--quick", action="store_true",
                       help="one matrix, two kernels, fewer repeats "
                       "(the CI smoke configuration)")
    p_cal.add_argument("--threads", type=int, default=None,
                       help="model thread count the analytic side "
                       "predicts at (default: machine total)")
    p_cal.add_argument("--repeats", type=int, default=None,
                       help="timing repetitions per microbenchmark "
                       "(default 3 quick / 7 full)")
    p_cal.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="profile JSON path (default "
                       "profile_<platform>.json; '-' to skip writing)")

    p_model = sub.add_parser(
        "model",
        help="print the cost model's bound-and-bottleneck breakdown "
        "for one matrix (paper Tables I/II)",
    )
    p_model.add_argument("matrix",
                         help="suite matrix name or MatrixMarket file path")
    p_model.add_argument("--platform", default="knl",
                         choices=sorted(PLATFORMS))
    p_model.add_argument("--scale", type=float, default=1.0)
    p_model.add_argument("--threads", type=int, default=None,
                         help="thread count predictions run at "
                         "(default: machine total)")
    p_model.add_argument("--profile", default=None, metavar="PATH",
                         help="use a CalibratedModel built from this "
                         "machine profile (see 'calibrate')")
    p_model.add_argument("--explain", action="store_true",
                         help="additionally decompose each pool kernel "
                         "variant into its first-order time terms and "
                         "rank schedule policies")

    sub.add_parser("experiments", help="list experiment ids")

    p_exp = sub.add_parser("experiment", help="run one experiment driver")
    p_exp.add_argument("experiment_id")
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument("--train-count", type=int, default=210)

    return parser


def _load_matrix(ref: str, scale: float):
    if ref in suite_names():
        return named_matrix(ref, scale=scale)
    return read_matrix_market(ref)


def _load_model(machine, profile_path, nthreads=None):
    """The cost model a ``--profile`` flag selects.

    ``None`` path → the default analytic model (returned as ``None`` so
    callers keep their legacy defaults); otherwise a
    :class:`~repro.model.CalibratedModel` over the loaded profile.
    """
    if profile_path is None:
        return None
    from .model import CalibratedModel, MachineProfile

    profile = MachineProfile.load(profile_path)
    return CalibratedModel(machine, profile, nthreads)


def _cmd_suite(args) -> int:
    print(f"{'name':18s} {'domain':22s} rows       nnz        description")
    for spec in NAMED_SUITE:
        csr = spec(args.scale)
        desc = spec.description.split(".")[0]
        print(f"{spec.name:18s} {spec.domain:22s} "
              f"{csr.nrows:<10d} {csr.nnz:<10d} {desc}")
    return 0


def _cmd_analyze(args) -> int:
    from .model import AnalyticModel

    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    print(matrix_stats(csr).describe())
    print()
    bounds = AnalyticModel(machine).bounds(csr)
    print(f"bounds on {machine.codename} (Gflop/s):")
    for k, v in bounds.as_dict().items():
        print(f"  {k:7s} {v:10.2f}")
    classes = classify_from_bounds(bounds)
    print(f"classes: {format_classes(classes)}")
    optimizer = AdaptiveSpMV(machine, classifier="profile")
    op = optimizer.optimize(csr)
    r = op.simulate()
    print(f"plan:    {op.plan}")
    print(
        f"optimized: {r.gflops:.2f} Gflop/s "
        f"({r.gflops / bounds.p_csr:.2f}x over baseline CSR)"
    )
    op2 = optimizer.optimize(csr)
    print(
        f"repeat build: cache_hit={op2.plan.cache_hit}, overhead "
        f"{1e3 * op2.plan.total_overhead_seconds:.2f} ms (first build "
        f"paid {1e3 * op.plan.total_overhead_seconds:.2f} ms)"
    )
    return 0


#: Span attributes surfaced in the ``plan --explain`` detail column.
_EXPLAIN_DETAIL_KEYS = (
    "hit", "classes", "classifier", "optimizations", "kernel",
    "quarantine_substitutions", "materialized", "nnz",
)


def _explain_detail(span) -> str:
    parts = []
    for key in _EXPLAIN_DETAIL_KEYS:
        if key in span.attributes:
            value = span.attributes[key]
            if isinstance(value, list):
                value = "+".join(str(v) for v in value) or "-"
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _cmd_plan(args) -> int:
    import os

    from .experiments.common import render_table
    from .pipeline import Tracer

    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    cache = None
    if args.cache and os.path.exists(args.cache):
        cache = PlanCache.load(args.cache)
        print(f"loaded plan cache {args.cache} ({len(cache)} entries)")
    try:
        model = _load_model(machine, args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    optimizer = AdaptiveSpMV(machine, classifier="profile",
                             plan_cache=cache, model=model)
    tracer = Tracer()
    plan = optimizer.plan(csr, tracer=tracer)
    print(f"plan: {plan}")
    print(f"cache_hit={plan.cache_hit} cost_model={plan.cost_model}")
    if args.explain:
        rows = [
            (s.name, float(1e3 * s.charged_seconds),
             float(1e3 * s.wall_seconds), _explain_detail(s))
            for s in tracer.spans
        ]
        total_charged = tracer.total_charged_seconds()
        rows.append(("total", float(1e3 * total_charged),
                     float(1e3 * tracer.total_wall_seconds()), ""))
        print(render_table(
            ("stage", "charged (ms)", "wall (ms)", "detail"), rows
        ))
        print(
            f"stage charges sum to {1e3 * total_charged:.6f} ms; "
            f"plan total overhead is "
            f"{1e3 * plan.total_overhead_seconds:.6f} ms"
        )
        # The plan IR embeds the execution stack; prove the spec
        # survives serialization (what PlanCache.save persists and a
        # fresh process rebuilds from).
        from .engine import ExecutorSpec

        spec = plan.executor_spec
        roundtrip = ExecutorSpec.from_dict(spec.to_dict())
        status = "ok" if roundtrip == spec else "MISMATCH"
        print(f"engine-spec round-trip: {status} [{spec.signature()}]")
    if args.save_cache:
        n = (optimizer.plan_cache.save(args.save_cache)
             if optimizer.plan_cache is not None else 0)
        print(f"saved plan cache {args.save_cache} ({n} entries)")
    return 0


def _cmd_trace(args) -> int:
    from .pipeline import Tracer

    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    tracer = Tracer()
    optimizer = AdaptiveSpMV(machine, classifier="profile")
    op = optimizer.optimize(csr, tracer=tracer)
    with tracer.span("execute") as span:
        result = op.simulate()
        span.set(**result.summary(), cost_model=op.model.signature(),
                 predicted_gflops=float(result.gflops),
                 cache_hit=op.plan.cache_hit)
    if args.output == "-":
        print(tracer.to_json())
    else:
        tracer.export(args.output)
        print(
            f"wrote {args.output} ({len(tracer)} spans, "
            f"{result.gflops:.2f} Gflop/s simulated)"
        )
    return 0


def _cmd_run(args) -> int:
    import numpy as np

    from .engine import ExecutorSpec
    from .kernels.microbench import time_callable
    from .pipeline import Tracer

    try:
        spec = (parse_engine_spec(args.engine_spec)
                if args.engine_spec else ExecutorSpec())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    optimizer = AdaptiveSpMV(machine, classifier="profile", spec=spec)
    op = optimizer.optimize(csr)
    tracer = Tracer() if spec.trace else None
    engine = op.executor(tracer=tracer)
    print(f"plan:  {op.plan}")
    print(f"spec:  {spec.signature()}")
    print(f"stack: {engine.describe()}")
    x = np.linspace(-1.0, 1.0, csr.ncols)
    out = np.empty(csr.nrows)
    # One warmup apply fills the pool and the workspace.
    best = time_callable(lambda: engine.apply(x, out=out),
                         repeats=max(1, args.repeats), warmup=1).best_seconds
    identical = bool(np.array_equal(out, csr.matvec(x)))
    flops = 2.0 * csr.nnz
    print(
        f"best wall {1e3 * best:.3f} ms "
        f"({flops / best / 1e9:.2f} Gflop/s, best of {args.repeats}); "
        f"bit-identical to serial CSR: {identical}"
    )
    if tracer is not None:
        print(f"trace: {len(tracer)} spans recorded")
    return 0 if identical else 1


def _cmd_validate(args) -> int:
    from .matrices.mmio import MatrixMarketError

    try:
        csr = read_matrix_market(args.matrix)
    except MatrixMarketError as exc:
        print(f"{args.matrix}: INVALID ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.matrix}: cannot read ({exc})", file=sys.stderr)
        return 1
    report = csr.validate(strict=False, check_values=not args.no_values)
    if report.ok:
        print(
            f"{args.matrix}: OK ({csr.nrows}x{csr.ncols}, "
            f"nnz={csr.nnz})"
        )
        return 0
    print(f"{args.matrix}: INVALID ({len(report.issues)} issue(s))",
          file=sys.stderr)
    for issue in report.issues:
        print(f"  [{issue.code}] {issue.message}", file=sys.stderr)
    return 1


def _parse_threads(spec: str) -> tuple[int, ...]:
    threads = tuple(int(t) for t in spec.split(",") if t.strip())
    if not threads or any(t < 1 for t in threads):
        raise ValueError(f"bad thread list {spec!r}")
    return threads


def _cmd_parallel(args) -> int:
    from .engine import SupervisionSpec
    from .experiments.common import render_table
    from .kernels import baseline_kernel
    from .model import AnalyticModel, measure_parallel
    from .sched import SCHEDULE_POLICIES

    try:
        threads = _parse_threads(args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.schedule is not None and args.schedule not in SCHEDULE_POLICIES:
        print(
            f"error: unknown schedule {args.schedule!r}; "
            f"available: {', '.join(SCHEDULE_POLICIES)}",
            file=sys.stderr,
        )
        return 2
    schedules = ([args.schedule] if args.schedule
                 else list(SCHEDULE_POLICIES))
    try:
        spec = _parse_sweep_spec(args.engine_spec or "", schedules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    supervision = spec.supervision or SupervisionSpec()
    if args.max_retries is not None:  # an explicit flag wins over the spec
        supervision = replace(supervision, max_retries=args.max_retries)
    deadline = args.deadline_ms  # measure_parallel's deadline_seconds
    if deadline not in (None, "auto"):
        try:
            deadline = float(deadline) / 1e3
        except ValueError:
            print(f"error: --deadline-ms must be a number or 'auto', "
                  f"got {deadline!r}", file=sys.stderr)
            return 2
    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    kernel = baseline_kernel()
    try:
        model = _load_model(machine, args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    predictor = model if model is not None else AnalyticModel(machine)
    rows = []
    ladders = []
    for schedule in schedules:
        for nthreads in threads:
            result, meas, report = measure_parallel(
                predictor, kernel, csr, nthreads, schedule=schedule,
                chunk_rows=spec.parallel.chunk_rows, repeats=args.repeats,
                guard=spec.guard, supervision=supervision,
                deadline_seconds=deadline,
            )
            if meas is not None:
                rows.append((
                    schedule, meas.nthreads,
                    float(1e3 * meas.wall_seconds),
                    float(meas.imbalance),
                    float(meas.wall_imbalance),
                    float(result.imbalance),
                ))
            else:
                rows.append((
                    schedule, "serial",
                    float(1e3 * report.wall_seconds),
                    "-", "-",
                    float(result.imbalance),
                ))
            if report is not None and report.degraded:
                ladders.append((schedule, nthreads, report))
    print(f"{csr.nrows}x{csr.ncols} nnz={csr.nnz} on "
          f"{machine.codename}; measured on this host, best of "
          f"{args.repeats}")
    if model is not None:
        print(f"cost model: {model.signature()}")
    print(render_table(
        ("schedule", "threads", "wall (ms)", "imb (cpu)",
         "imb (wall)", "imb (model)"), rows
    ))
    print("imb (cpu) = max/mean per-thread CPU time (measured); "
          "imb (model) = cost-plane prediction at the same threads")
    if ladders:
        print(f"degradation ladder (max retries "
              f"{supervision.max_retries}):")
        for schedule, nthreads, report in ladders:
            final = ("serial" if report.final_mode != "parallel"
                     else f"t{report.final_nthreads}")
            budget = report.deadline_seconds
            budget = "none" if budget is None else f"{1e3 * budget:.1f} ms"
            print(f"  {schedule} t{nthreads}: {report.ladder()} "
                  f"[final {final}, {1e3 * report.wall_seconds:.2f} ms, "
                  f"deadline budget {budget}]")
    elif deadline is not None or supervision != SupervisionSpec():
        print("degradation ladder: no demotions (every run completed "
              "at the requested width)")
    return 0


def _cmd_calibrate(args) -> int:
    from .model import calibrate

    machine = get_platform(args.platform)
    mode = "quick" if args.quick else "full"
    print(f"calibrating {machine.codename} on this host ({mode})...")
    profile = calibrate(machine, quick=args.quick,
                        nthreads=args.threads, repeats=args.repeats)
    m = profile.measured
    print(f"host:              {profile.host}")
    print(f"stream bandwidth:  {m['stream_bandwidth_gbs']:.2f} GB/s "
          f"(scale {profile.bandwidth_scale:.3g} vs simulated "
          f"{machine.codename})")
    print(f"gather latency:    {m['gather_latency_ns']:.2f} ns/elem")
    print("kernel scales (measured / predicted wall time):")
    for name, scale in sorted(profile.kernel_scales.items()):
        print(f"  {name:24s} {scale:.4g}")
    par = m.get("parallel")
    if par:
        print(f"parallel plane:    t{par['nthreads']} on "
              f"{par['matrix']}: ratio {par['ratio']:.4g}")
    print(f"calibration took   {m['calibration_seconds']:.2f} s "
          f"({profile.samples} cells)")
    print(f"signature:         {profile.signature()}")
    output = args.output
    if output is None:
        output = f"profile_{args.platform}.json"
    if output != "-":
        profile.save(output)
        print(f"saved {output}")
    return 0


def _cmd_model(args) -> int:
    from .experiments.common import render_table
    from .model import AnalyticModel

    machine = get_platform(args.platform)
    csr = _load_matrix(args.matrix, args.scale)
    try:
        model = _load_model(machine, args.profile, args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if model is None:
        model = AnalyticModel(machine, args.threads)
    bounds = model.bounds(csr)
    classes = classify_from_bounds(bounds)
    print(f"{args.matrix}: {csr.nrows}x{csr.ncols} nnz={csr.nnz} on "
          f"{machine.codename} (cost model: {model.signature()})")
    rows = [
        (name, float(gflops), float(gflops / bounds.p_csr))
        for name, gflops in bounds.as_dict().items()
    ]
    print(render_table(("bound", "Gflop/s", "x of P_CSR"), rows))
    print(f"classes: {format_classes(classes)}")
    if not args.explain:
        return 0

    # Per-variant decomposition: which first-order term of the overlap
    # model bounds each pool kernel's makespan (Table II companion).
    from .kernels import baseline_kernel, merged_pool_kernel
    from .sched import rank_policies

    kernels = [baseline_kernel()]
    for name in ("compression", "prefetching", "unrolling", "auto-sched"):
        kernels.append(merged_pool_kernel((name,)))
    rows = []
    for kernel in kernels:
        pred = model.predict(kernel, kernel.preprocess(csr),
                             nthreads=args.threads)
        d = pred.decomposition
        rows.append((
            kernel.name, float(pred.gflops),
            float(1e3 * d.get("compute_s", 0.0)),
            float(1e3 * d.get("bandwidth_s", 0.0)),
            float(1e3 * d.get("latency_s", 0.0)),
            float(pred.imbalance),
            pred.dominant_term().replace("_s", ""),
        ))
    print()
    print(render_table(
        ("kernel", "Gflop/s", "compute (ms)", "bandwidth (ms)",
         "latency (ms)", "imbalance", "bound by"), rows
    ))
    nthreads = args.threads or machine.total_threads
    ranked = rank_policies(csr, model, nthreads)
    order = ", ".join(
        f"{name} ({pred.gflops:.2f})" for name, pred in ranked
    )
    print(f"schedule ranking at t{nthreads} (Gflop/s): {order}")
    return 0


def _experiment_registry() -> dict:
    from . import experiments as exp

    return {
        "fig1": lambda a: exp.fig1.run(scale=a.scale),
        "fig4": lambda a: exp.fig4.run(scale=a.scale),
        "fig5": lambda a: exp.fig5.run(),
        "fig7-knc": lambda a: exp.fig7.run("knc", scale=a.scale,
                                           train_count=a.train_count),
        "fig7-knl": lambda a: exp.fig7.run("knl", scale=a.scale,
                                           train_count=a.train_count),
        "fig7-broadwell": lambda a: exp.fig7.run("broadwell", scale=a.scale,
                                                 train_count=a.train_count),
        "table2": lambda a: exp.table2.run(),
        "table2-scaling": lambda a: exp.table2.extraction_scaling(),
        "table3": lambda a: exp.table3.run(),
        "table4": lambda a: exp.table4.run(train_count=a.train_count),
        "table5": lambda a: exp.table5.run(scale=a.scale,
                                           train_count=a.train_count),
        "ablation-imb": lambda a: exp.ablations.imb_strategy(scale=a.scale),
        "ablation-delta": lambda a: exp.ablations.delta_width(scale=a.scale),
        "ablation-sched": lambda a: exp.ablations.scheduling_policies(
            scale=a.scale),
        "ablation-tree": lambda a: exp.ablations.tree_ablation(),
        "ablation-partitioned-ml": lambda a: exp.ablations.partitioned_ml(
            scale=a.scale),
        "ablation-bcsr": lambda a: exp.ablations.bcsr_vs_delta(
            scale=a.scale),
        "ablation-formats": lambda a: exp.ablations.format_landscape(
            scale=a.scale),
        "ablation-sensitivity": lambda a:
            exp.ablations.architecture_sensitivity(scale=a.scale),
    }


def _cmd_train(args) -> int:
    from .core import FeatureGuidedClassifier
    from .matrices import training_suite

    machine = get_platform(args.platform)
    print(
        f"building {args.count}-matrix corpus and labeling on "
        f"{machine.codename} (profile-guided)..."
    )
    corpus = [
        t.matrix for t in training_suite(count=args.count, seed=args.seed)
    ]
    clf = FeatureGuidedClassifier(machine).fit_from_matrices(corpus)
    clf.save(args.output)
    rep = clf.report
    print(f"labels: {rep.label_counts}")
    print(f"tree: depth {rep.tree_depth}, {rep.tree_leaves} leaves")
    print(f"saved to {args.output}")
    return 0


def _cmd_export_suite(args) -> int:
    import os

    from .matrices import load_suite, write_matrix_market

    os.makedirs(args.directory, exist_ok=True)
    for spec, csr in load_suite(scale=args.scale):
        path = os.path.join(args.directory, f"{spec.name}.mtx")
        write_matrix_market(
            csr, path,
            comment=f"synthetic analogue of {spec.name} ({spec.domain}); "
            f"scale={args.scale}",
        )
        print(f"{path}: {csr.nrows}x{csr.ncols} nnz={csr.nnz}")
    return 0


def _cmd_experiments(args) -> int:
    for key in _experiment_registry():
        print(key)
    return 0


def _cmd_experiment(args) -> int:
    registry = _experiment_registry()
    if args.experiment_id not in registry:
        print(
            f"unknown experiment {args.experiment_id!r}; "
            f"available: {', '.join(registry)}",
            file=sys.stderr,
        )
        return 2
    table = registry[args.experiment_id](args)
    print(table.to_text())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "suite": _cmd_suite,
        "analyze": _cmd_analyze,
        "plan": _cmd_plan,
        "trace": _cmd_trace,
        "run": _cmd_run,
        "validate": _cmd_validate,
        "parallel": _cmd_parallel,
        "calibrate": _cmd_calibrate,
        "model": _cmd_model,
        "train": _cmd_train,
        "export-suite": _cmd_export_suite,
        "experiments": _cmd_experiments,
        "experiment": _cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
