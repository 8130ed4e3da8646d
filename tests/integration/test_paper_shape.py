"""Integration tests asserting the paper's headline *shapes*.

Per the reproduction contract (DESIGN.md): absolute numbers differ from
the paper's hardware, but who-wins orderings, rough factors and
crossovers must hold. These run at moderate scale, so they are the
slowest tests in the suite.
"""

import numpy as np
import pytest

from repro.baselines import InspectorExecutor, run_mkl_csr
from repro.core import (
    AdaptiveSpMV,
    Bottleneck,
    classify_from_bounds,
    oracle_search,
)
from repro.kernels import baseline_kernel, single_optimization_kernels
from repro.machine import BROADWELL, KNC, KNL
from repro.matrices import load_suite
from repro.model import AnalyticModel

# Full-scale analogues: the bottleneck regimes (cache residency, x
# working set vs private caches) only match the paper's at full size.
SCALE = 1.0
CORE_NAMES = (
    "consph", "poisson3Db", "thermal2", "ASIC_680k", "rajat30",
    "webbase-1M", "human_gene1",
)


@pytest.fixture(scope="module")
def suite():
    return {
        spec.name: (spec, csr)
        for spec, csr in load_suite(scale=SCALE, names=CORE_NAMES)
    }


@pytest.fixture(scope="module")
def knc_bounds(suite):
    return {
        name: AnalyticModel(KNC).bounds(csr)
        for name, (spec, csr) in suite.items()
    }


def test_fig1_shape_every_optimization_has_winners_and_losers(suite):
    """Fig. 1: each optimization speeds up some matrix and slows down
    another — the motivation for adaptivity."""
    model = AnalyticModel(KNC)
    base = baseline_kernel()
    singles = single_optimization_kernels()
    speedups = {name: [] for name in singles}
    for _, csr in suite.values():
        r0 = model.run(base, base.preprocess(csr))
        for name, kernel in singles.items():
            r = model.run(kernel, kernel.preprocess(csr))
            speedups[name].append(r.gflops / r0.gflops)
    for name in ("prefetching", "auto-sched"):
        assert max(speedups[name]) > 1.15, name
        assert min(speedups[name]) < 1.0, name
    # decomposition: dramatic winners on skew, degenerates to a no-op
    # (never a runtime loss) on uniform matrices
    assert max(speedups["decomposition"]) > 3.0
    assert min(speedups["decomposition"]) >= 0.99


def test_fig4_shape_bottleneck_diversity_on_knc(knc_bounds):
    """Fig. 4: different matrices sit near different bounds."""
    class_sets = {
        name: classify_from_bounds(b) for name, b in knc_bounds.items()
    }
    assert len(set(class_sets.values())) >= 3
    assert Bottleneck.MB in class_sets["consph"]
    assert Bottleneck.ML in class_sets["poisson3Db"]
    assert Bottleneck.IMB in class_sets["ASIC_680k"]
    assert Bottleneck.CMP in class_sets["webbase-1M"]


def test_fig4_shape_bound_relations(knc_bounds):
    for name, b in knc_bounds.items():
        assert b.p_peak > b.p_mb, name            # peak dominates MB
        assert b.p_imb >= b.p_csr * 0.99, name    # median <= makespan


def test_classes_differ_across_platforms(suite):
    """Section IV: bottlenecks are platform-dependent (e.g.
    human_gene1 flips class between KNC and KNL in the paper)."""
    diffs = 0
    for name, (spec, csr) in suite.items():
        knc = classify_from_bounds(AnalyticModel(KNC).bounds(csr))
        bdw = classify_from_bounds(AnalyticModel(BROADWELL).bounds(csr))
        if knc != bdw:
            diffs += 1
    assert diffs >= 2


def test_fig7_shape_optimizer_beats_mkl_on_average(suite):
    """Fig. 7b: profile-guided clearly beats MKL CSR on KNL; largest
    wins on imbalanced matrices."""
    opt = AdaptiveSpMV(KNL, classifier="profile")
    ratios = {}
    for name, (spec, csr) in suite.items():
        r_mkl = run_mkl_csr(csr, KNL)
        r_opt = opt.optimize(csr).simulate()
        ratios[name] = r_opt.gflops / r_mkl.gflops
    mean = float(np.exp(np.mean(np.log(list(ratios.values())))))
    assert mean > 1.5
    assert ratios["ASIC_680k"] > 3.0      # skew: the headline wins
    assert ratios["consph"] > 0.85        # never catastrophic


def test_fig7_shape_knl_speedups_exceed_broadwell(suite):
    """Paper: avg speedup 6.73x on KNL vs 2.02x on Broadwell — many-core
    platforms leave far more on the table."""
    def mean_ratio(platform):
        opt = AdaptiveSpMV(platform, classifier="profile")
        logs = []
        for name, (spec, csr) in suite.items():
            r_mkl = run_mkl_csr(csr, platform)
            r_opt = opt.optimize(csr).simulate()
            logs.append(np.log(r_opt.gflops / r_mkl.gflops))
        return float(np.exp(np.mean(logs)))

    assert mean_ratio(KNL) > mean_ratio(BROADWELL)


def test_fig7_shape_optimizer_beats_inspector_executor_on_skew(suite):
    """Paper: 'the largest speedups over the Inspector-Executor occur
    for matrices with imbalanced execution'."""
    ie = InspectorExecutor(KNL)
    opt = AdaptiveSpMV(KNL, classifier="profile")
    _, skewed = suite["ASIC_680k"]
    r_ie = ie.optimize(skewed).result
    r_opt = opt.optimize(skewed).simulate()
    assert r_opt.gflops > 1.3 * r_ie.gflops


def test_oracle_dominates_everything(suite):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    for name in ("poisson3Db", "ASIC_680k"):
        _, csr = suite[name]
        oracle = oracle_search(csr, KNL)
        adaptive = opt.optimize(csr).simulate()
        assert oracle.gflops >= adaptive.gflops * 0.999


def test_table5_shape_optimizer_overheads_ordered(suite):
    """Table V ordering: feature extraction << profiling << sweeps."""
    from repro.core import amortization_study
    from repro.core.feature_classifier import FeatureGuidedClassifier
    from repro.matrices import training_suite

    # Corpus at realistic sizes: the tree must see the same cache
    # regimes it will be queried on, or it mislabels at full scale.
    corpus = [t.matrix for t in training_suite(count=24, seed=55)]
    clf = FeatureGuidedClassifier(KNL).fit_from_matrices(corpus)
    mats = [(n, csr) for n, (spec, csr) in list(suite.items())[:4]]
    res = amortization_study(mats, KNL, feature_classifier=clf)
    assert (
        res["feature-guided"].n_avg
        < res["profile-guided"].n_avg
        < res["trivial-single"].n_avg
        < res["trivial-combined"].n_avg
    )
