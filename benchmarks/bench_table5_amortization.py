"""Benchmark E10 — regenerate paper Table V.

Minimum solver iterations to amortize each optimizer over MKL CSR on
KNL. Shape to reproduce: feature-guided amortizes fastest, then
profile-guided, then the trivial sweeps (combined worst); the
Inspector-Executor sits between.
"""

from repro.experiments import table5

from conftest import run_once


def test_table5_amortization(benchmark, scale, train_count):
    table = run_once(benchmark, table5.run, scale=scale,
                     train_count=train_count)
    print()
    print(table.to_text())

    h = table.headers
    avg = {
        r[0]: float(r[h.index("N_avg")])
        for r in table.rows
        if r[h.index("N_avg")] != "inf"
    }
    assert avg["feature-guided"] < avg["profile-guided"]
    assert avg["profile-guided"] < avg["trivial-single"]
    assert avg["trivial-single"] < avg["trivial-combined"]
    # all optimizers eventually pay off on most of the suite
    for r in table.rows:
        beneficial, total = r[h.index("beneficial")].split("/")
        assert int(beneficial) >= int(total) - 3, r[0]
