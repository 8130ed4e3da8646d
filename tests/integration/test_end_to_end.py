"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    AdaptiveSpMV,
    FeatureGuidedClassifier,
    KNC,
    KNL,
    BROADWELL,
    baseline_kernel,
    cg,
    gmres,
    named_matrix,
    training_suite,
)
from repro.model import AnalyticModel


@pytest.fixture(scope="module")
def knl_feature_classifier():
    corpus = [
        t.matrix
        for t in training_suite(count=14, seed=77, min_rows=10_000,
                                max_rows=40_000)
    ]
    return FeatureGuidedClassifier(KNL).fit_from_matrices(corpus)


@pytest.mark.parametrize("platform", [KNC, KNL, BROADWELL])
def test_profile_optimizer_on_every_suite_archetype(platform):
    """Optimize one matrix of each archetype on every platform; the
    optimizer must never be dramatically worse than the baseline and
    the numeric result must stay exact."""
    rng = np.random.default_rng(0)
    model = AnalyticModel(platform)
    base = baseline_kernel()
    opt = AdaptiveSpMV(platform, classifier="profile")
    for name in ("consph", "poisson3Db", "ASIC_680k", "webbase-1M"):
        csr = named_matrix(name, scale=0.2)
        operator = opt.optimize(csr)
        x = rng.standard_normal(csr.ncols)
        np.testing.assert_allclose(
            operator.matvec(x), csr.matvec(x), rtol=1e-12, atol=1e-10
        )
        r_opt = operator.simulate()
        r_base = model.run(base, base.preprocess(csr))
        assert r_opt.gflops > 0.9 * r_base.gflops, (name, platform.codename)


def test_feature_optimizer_end_to_end(knl_feature_classifier):
    opt = AdaptiveSpMV(KNL, classifier=knl_feature_classifier)
    csr = named_matrix("rajat30", scale=0.25)
    operator = opt.optimize(csr)
    # decision must be far cheaper than profiling
    prof = AdaptiveSpMV(KNL, classifier="profile")
    prof_plan = prof.plan(csr)
    assert (
        operator.plan.decision_seconds < prof_plan.decision_seconds / 10
    )


def test_optimized_operator_inside_cg_solver():
    """The optimizer's output is a drop-in operator for the solvers."""
    from repro.matrices.generators import poisson2d

    A = poisson2d(40)
    opt = AdaptiveSpMV(BROADWELL, classifier="profile")
    operator = opt.optimize(A)
    rng = np.random.default_rng(1)
    xstar = rng.standard_normal(A.nrows)
    b = A.matvec(xstar)
    res = cg(operator, b, tol=1e-10)
    assert res.converged
    np.testing.assert_allclose(res.x, xstar, atol=1e-6)


def test_optimized_operator_inside_gmres():
    csr = named_matrix("ASIC_680k", scale=0.1)
    # make it solvable: add a dominant diagonal
    import scipy.sparse as sp

    from repro.formats import CSRMatrix

    S = csr.to_scipy()
    S = S + sp.diags(np.full(csr.nrows, 10.0 + abs(S).sum(axis=1).A1))
    A = CSRMatrix.from_scipy(S.tocsr())
    opt = AdaptiveSpMV(KNL, classifier="profile")
    operator = opt.optimize(A)
    b = np.ones(A.nrows)
    res = gmres(operator, b, tol=1e-8, restart=40)
    assert res.converged


def test_matrix_market_to_optimizer_pipeline(tmp_path):
    """File -> read -> optimize -> simulate, the README quickstart path."""
    from repro.matrices import read_matrix_market, write_matrix_market

    csr = named_matrix("webbase-1M", scale=0.05)
    path = tmp_path / "w.mtx"
    write_matrix_market(csr, path)
    loaded = read_matrix_market(path)
    operator = AdaptiveSpMV(KNC, classifier="profile").optimize(loaded)
    assert operator.simulate().gflops > 0
