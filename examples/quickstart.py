"""Quickstart: optimize one sparse matrix, end to end.

Run with::

    python examples/quickstart.py [matrix-name] [platform]

Steps shown:

1. build (or load) a sparse matrix,
2. look at its structure,
3. run the paper's bound-and-bottleneck analysis,
4. let the adaptive optimizer pick and apply optimizations,
5. use the optimized operator numerically and inspect its simulated
   performance against the vendor baseline.
"""

import sys

import numpy as np

from repro import (
    AdaptiveSpMV,
    AnalyticModel,
    baseline_kernel,
    get_platform,
    named_matrix,
    run_mkl_csr,
)
from repro.core import classify_from_bounds, format_classes
from repro.matrices import matrix_stats


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ASIC_680k"
    platform = get_platform(sys.argv[2] if len(sys.argv) > 2 else "knl")

    print(f"=== {name} on {platform.name} ({platform.codename}) ===\n")

    # 1-2. Build the matrix and inspect its structure.
    A = named_matrix(name, scale=0.5)
    print(matrix_stats(A).describe())

    # 3. Bound-and-bottleneck analysis (paper Section III-B).
    model = AnalyticModel(platform)
    bounds = model.bounds(A)
    print("\nper-class performance bounds (Gflop/s):")
    for key, value in bounds.as_dict().items():
        print(f"  {key:7s} {value:9.2f}")
    classes = classify_from_bounds(bounds)
    print(f"detected bottlenecks: {format_classes(classes)}")

    # 4. Adaptive optimization (classification -> Table I mapping).
    optimizer = AdaptiveSpMV(platform, classifier="profile")
    operator = optimizer.optimize(A)
    print(f"\noptimization plan: {operator.plan}")

    # 5a. The optimized operator is numerically exact.
    x = np.random.default_rng(0).standard_normal(A.ncols)
    error = np.max(np.abs(operator.matvec(x) - A.matvec(x)))
    print(f"numeric check: max |y_opt - y_csr| = {error:.2e}")

    # 5b. Simulated performance vs baseline CSR and the MKL analogue.
    base = baseline_kernel()
    r_base = model.run(base, base.preprocess(A))
    r_mkl = run_mkl_csr(A, platform)
    r_opt = operator.simulate()
    print(f"\nbaseline CSR : {r_base.gflops:8.2f} Gflop/s")
    print(f"MKL CSR      : {r_mkl.gflops:8.2f} Gflop/s")
    print(
        f"optimized    : {r_opt.gflops:8.2f} Gflop/s "
        f"({r_opt.gflops / r_mkl.gflops:.2f}x over MKL)"
    )


if __name__ == "__main__":
    main()
