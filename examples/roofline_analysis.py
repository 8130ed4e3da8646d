"""Roofline analysis of the matrix suite (paper Section II framing).

Places every suite matrix's baseline CSR SpMV on each platform's
roofline: operational intensity, achieved vs attainable Gflop/s, and
which roof binds. The paper's premise — SpMV sits deep in the
memory-bound region (flop:byte < 1) — is visible directly, as is the
exception the CMP class captures (cache-resident working sets move the
attainable roof up).

Run with::

    python examples/roofline_analysis.py [platform]
"""

import sys

from repro import AnalyticModel, baseline_kernel, get_platform, load_suite
from repro.machine import peak_gflops, ridge_point, roofline_point


def main() -> None:
    platform = get_platform(sys.argv[1] if len(sys.argv) > 1 else "knc")
    model = AnalyticModel(platform)
    base = baseline_kernel()

    print(f"=== Roofline on {platform.name} ===")
    print(f"compute roof : {peak_gflops(platform):8.1f} Gflop/s")
    print(f"bandwidth    : {platform.bw_main_gbs:8.1f} GB/s (main), "
          f"{platform.bw_llc_gbs:.1f} GB/s (LLC)")
    print(f"ridge point  : {ridge_point(platform):8.2f} flop/byte\n")

    print(f"{'matrix':18s} {'flop/byte':>9s} {'achieved':>9s} "
          f"{'attainable':>10s} {'util':>6s}  bound")
    print("-" * 64)
    for spec, csr in load_suite(scale=0.5):
        data = base.preprocess(csr)
        result = model.run(base, data)
        ws = csr.total_nbytes() + 8 * (csr.nrows + csr.ncols)
        point = roofline_point(result, platform, ws_bytes=ws)
        print(
            f"{spec.name:18s} {point.intensity:9.3f} "
            f"{point.achieved_gflops:9.2f} "
            f"{point.attainable_gflops:10.2f} "
            f"{100 * point.roof_utilization:5.0f}%  {point.bound}"
        )

    print(
        "\nEvery matrix sits left of the ridge (memory bound) — the "
        "paper's flop:byte < 1 argument. Low roof utilization marks the "
        "matrices whose bottleneck is NOT bandwidth (latency, imbalance, "
        "loop overhead): exactly the ones the classifier routes to "
        "non-MB optimizations."
    )


if __name__ == "__main__":
    main()
