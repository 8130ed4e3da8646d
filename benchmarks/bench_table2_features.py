"""Benchmark E4 — paper Table II: feature inventory + extraction scaling.

This is the one benchmark where *real* wall-clock is the observable:
feature extraction is genuinely executed, and its cost must scale at
most linearly in NNZ (the paper's complexity column).
"""

from repro.experiments import table2
from repro.matrices import extract_features, named_matrix

from conftest import run_once


def test_table2_feature_inventory():
    table = table2.run()
    print()
    print(table.to_text())
    complexities = table.column("complexity")
    assert complexities.count("O(1)") == 2
    assert complexities.count("O(N)") == 10
    assert complexities.count("O(NNZ)") == 2


def test_table2_extraction_scaling(benchmark):
    table = run_once(benchmark, table2.extraction_scaling,
                     sizes=(20_000, 40_000, 80_000))
    print()
    print(table.to_text())
    secs = table.column("seconds")
    nnzs = table.column("nnz")
    # at most linear in NNZ (2x headroom for constant factors)
    assert secs[-1] / secs[0] < 2.0 * (nnzs[-1] / nnzs[0])


def test_feature_extraction_throughput(benchmark):
    """Raw throughput of one full Table II extraction pass."""
    csr = named_matrix("web-Google", scale=0.5)
    benchmark(lambda: extract_features(csr).as_array())
