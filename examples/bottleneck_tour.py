"""Bottleneck tour: one matrix per class, dissected.

Walks the four bottleneck classes of the paper with an archetype
matrix each, showing for every one:

* the structural features that betray the bottleneck (Table II),
* the bound analysis (Section III-B),
* the classifier verdict and the Table I optimization it triggers,
* what each *other* optimization would have done — i.e. why blindly
  applying optimizations can hurt (the paper's Fig. 1 argument).

Run with::

    python examples/bottleneck_tour.py [platform]
"""

import sys

from repro import (
    AnalyticModel,
    baseline_kernel,
    extract_features,
    get_platform,
    named_matrix,
)
from repro.core import classify_from_bounds, format_classes
from repro.kernels import single_optimization_kernels

TOUR = (
    ("MB", "consph",
     "regular FEM: saturates bandwidth, nothing else to fix"),
    ("ML", "poisson3Db",
     "scattered columns: x gathers miss, latency exposed"),
    ("IMB", "ASIC_680k",
     "a few huge rows: one thread drowns, the rest idle"),
    ("CMP", "webbase-1M",
     "millions of 3-element rows: loop overhead dominates"),
)


def main() -> None:
    platform = get_platform(sys.argv[1] if len(sys.argv) > 1 else "knc")
    model = AnalyticModel(platform)
    base = baseline_kernel()
    singles = single_optimization_kernels()

    for expected_class, name, story in TOUR:
        A = named_matrix(name, scale=0.6)
        f = extract_features(A, llc_bytes=platform.llc_bytes)
        bounds = model.bounds(A)
        classes = classify_from_bounds(bounds)

        print(f"\n=== {expected_class} archetype: {name} ===")
        print(f"    ({story})")
        print(
            f"features: nnz/row avg {f.nnz_avg:.1f} max {f.nnz_max:.0f}, "
            f"bw_avg {f.bw_avg:.0f}, misses_avg {f.misses_avg:.2f}, "
            f"fits-LLC {bool(f.size)}"
        )
        line = "  ".join(
            f"{k}={v:.1f}" for k, v in bounds.as_dict().items()
        )
        print(f"bounds:   {line}")
        print(f"classes:  {format_classes(classes)}")

        r0 = model.run(base, base.preprocess(A))
        print("single optimizations vs baseline:")
        for opt_name, kernel in singles.items():
            r = model.run(kernel, kernel.preprocess(A))
            ratio = r.gflops / r0.gflops
            marker = "+" if ratio > 1.02 else ("-" if ratio < 0.98 else " ")
            print(f"  {marker} {opt_name:14s} {ratio:5.2f}x")


if __name__ == "__main__":
    main()
