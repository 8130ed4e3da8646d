"""Run one benchmark workload, or all four, and report every metric.

    python3 bench/run.py --workload graph-spmv --seed 2017 --seconds 20
    python3 bench/run.py --workload plan-churn --seed 2017 --trace 1
    python3 bench/run.py --seed 2017            # all four workloads

The package is imported from ``src/`` of the checkout this file sits in.
Inputs come from ``--seed`` alone; each workload runs one caller in a
closed loop for ``--seconds`` and checks its outputs against scipy.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run with spans around every call into a layer.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result,
with the host block, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

from harness import NullTrace, Trace, host_info, median
from layers import LayerProbe
from workloads import WORKLOADS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: traced and untraced loop blocks alternate this many times, so host
#: drift hits both sides of ``trace.overhead_ms`` alike.
TRACE_BLOCKS = 8


def _use_checkout_package() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {src / 'repro'}; run from "
                         "the root of a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"bench: repro imported from {repro.__file__}, "
                         f"not {src / 'repro'}")


def _setup_peak_mb(wl) -> float:
    """``tracemalloc`` peak over one cold setup, in MiB (untimed)."""
    tracemalloc.start()
    try:
        wl.cold_setup()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.cold_setup()
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace_on: bool,
                 quick: bool, host: dict) -> dict:
    """Run one workload and return its full result."""
    wl = WORKLOADS[name](seed, quick)
    result = {"workload": name, "seed": seed,
              "seconds": seconds, "trace": int(trace_on), "quick": quick,
              "stack": wl.spec.signature(), "host": host}
    if trace_on:
        trace = Trace()
        wl.cold_setup()
        wl.warm_up()
        traced, plain = Recorder(), Recorder()
        block = seconds / (2 * TRACE_BLOCKS)
        for _ in range(TRACE_BLOCKS):
            wl.loop(trace, time.perf_counter() + block, traced)
            wl.loop(NullTrace(), time.perf_counter() + block, plain)
        metrics, details = LayerProbe(wl, trace, host, seed, quick).run(
            traced, plain)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace.export_chrome(trace_path)
        details["self_time"] = trace.self_times()
        details["chrome_trace"] = str(trace_path.relative_to(ROOT))
        traced.merge(plain)
        rec = traced
    else:
        peak = _setup_peak_mb(wl)
        setups = [_timed_setup(wl) for _ in range(wl.cold_setups)]
        wl.warm_up()
        rec = Recorder()
        wl.loop(NullTrace(), time.perf_counter() + seconds, rec)
        metrics, details = wl.end_to_end(
            rec, median(setups) if setups else None, peak)
        details["setup_samples_s"] = setups
    result.update(
        correct=rec.failed == 0 and rec.attempted > 0,
        attempted=rec.attempted,
        failed=rec.failed,
        failed_frac=rec.failed / max(rec.attempted, 1),
        errors=rec.errors,
        metrics={k: {"value": float(v), "unit": u}
                 for k, (v, u) in metrics.items()},
        details=details,
    )
    return result


def _print_report(result: dict) -> None:
    print(f"{result['workload']}: seed={result['seed']} "
          f"trace={result['trace']} attempted={result['attempted']} "
          f"failed={result['failed']} stack={result['stack']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    details = result["details"]
    if "apply_ms_p50" in details:
        print(f"  absolute: apply p50 {details['apply_ms_p50']:.4g} ms, "
              f"p{details['apply_tail_pct']:g} {details['apply_ms_tail']:.4g}"
              f" ms ({details['apply_samples']} samples), floor p50 "
              f"{details['floor_ms_p50']:.4g} ms, {details['gflops']:.4g} "
              f"GF/s, {details['ops_per_s']:.4g} ops/s")
    engine = details.get("engine", {})
    for layer, row in engine.items():
        lo, hi = row["ci95_ms"]
        print(f"  engine {layer:11s} {row['median_ms']:+.4f} ms "
              f"[{lo:+.4f}, {hi:+.4f}] vs {row['against']} "
              f"{'resolved' if row['resolved'] else 'unresolved'}")
    self_time = details.get("self_time")
    if self_time:
        total = sum(r["self_s"] for r in self_time.values()) or 1.0
        print(f"  {'layer':10s} {'spans':>7s} {'total ms':>11s} "
              f"{'self ms':>11s} {'self %':>7s}")
        for layer, r in sorted(self_time.items(),
                               key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:10s} {r['spans']:7d} "
                  f"{1e3 * r['total_s']:11.2f} {1e3 * r['self_s']:11.2f} "
                  f"{100 * r['self_s'] / total:7.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and counts (tests)")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="directory for the full result files")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _use_checkout_package()
    from repro.parallel.pool import shutdown_executors

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        host = host_info(args.quick)
        if host["sort_probe_warning"]:
            print(f"warning: two-thread np.sort probe speedup "
                  f"{host['sort_probe_speedup_t2']:.2f}x < 1.2x; the "
                  f"2-thread stack of graph-spmv measures overhead, not "
                  f"speedup", file=sys.stderr)
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.quick, host)
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / (f"{name}-seed{args.seed}-trace{args.trace}-"
                               f"{time.strftime('%Y%m%dT%H%M%S')}-"
                               f"{os.getpid()}.json")
            path.write_text(json.dumps(result, indent=1) + "\n")
            _print_report(result)
            print(f"  wrote {path}")
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}),
                  flush=True)
    finally:
        shutdown_executors()
    return 0


if __name__ == "__main__":
    sys.exit(main())
