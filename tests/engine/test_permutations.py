"""Full layer-permutation matrix for the composable engine.

Every combination of {guard} x {nthreads} x {supervision} x {workspace
mode} must produce output bit-identical to the serial CSR reference,
honor the ``out=`` identity contract, round-trip its spec, and nest its
trace spans correctly (inner ``supervise`` spans are recorded before —
and contained within — the outer ``engine.apply`` span).
"""

import itertools

import numpy as np
import pytest

from repro.engine import (
    ExecutorSpec,
    SupervisionSpec,
    build_executor,
)
from repro.parallel import ParallelConfig
from repro.pipeline import Tracer

GUARDS = (False, True)
NTHREADS = (1, 2, 4)
SUPERVISED = (False, True)
WORKSPACES = ("shared", "thread-local")

PERMUTATIONS = list(itertools.product(GUARDS, NTHREADS, SUPERVISED,
                                      WORKSPACES))


def _spec(guard, nthreads, supervised, workspace):
    return ExecutorSpec(
        guard=guard,
        parallel=ParallelConfig(nthreads=nthreads),
        supervision=SupervisionSpec() if supervised else None,
        workspace=workspace,
        trace=True,
    )


@pytest.mark.parametrize(
    "guard,nthreads,supervised,workspace",
    PERMUTATIONS,
    ids=[
        f"guard={int(g)}-t{n}-sup={int(s)}-ws={w}"
        for g, n, s, w in PERMUTATIONS
    ],
)
def test_stack_bit_identical_to_serial_csr(small_random_csr, x300, guard,
                                           nthreads, supervised,
                                           workspace):
    csr = small_random_csr
    expected = csr.matvec(x300)

    spec = _spec(guard, nthreads, supervised, workspace)
    tracer = Tracer()
    op = build_executor(csr, spec, tracer=tracer)

    # bit-identity, not closeness: every stack computes the same
    # partial sums in the same order as the serial CSR loop
    y = op.apply(x300)
    np.testing.assert_array_equal(y, expected)

    # out= identity contract survives every layer
    out = np.empty(csr.nrows)
    r = op.apply(x300, out=out)
    assert r is out
    np.testing.assert_array_equal(out, expected)

    # the declarative spec is losslessly serializable
    assert ExecutorSpec.from_dict(spec.to_dict()) == spec
    assert spec.cache_signature() in spec.signature()

    # describe() names every layer the spec composes
    stack = op.describe()
    for layer in spec.layer_names():
        assert layer in stack, (layer, stack)


@pytest.mark.parametrize(
    "guard,nthreads,supervised,workspace",
    PERMUTATIONS,
    ids=[
        f"guard={int(g)}-t{n}-sup={int(s)}-ws={w}"
        for g, n, s, w in PERMUTATIONS
    ],
)
def test_stack_matmat_matches_columnwise_matvec(small_random_csr, rng,
                                                guard, nthreads,
                                                supervised, workspace):
    csr = small_random_csr
    X = rng.standard_normal((csr.ncols, 3))
    expected = np.column_stack([csr.matvec(X[:, j]) for j in range(3)])

    spec = _spec(guard, nthreads, supervised, workspace)
    op = build_executor(csr, spec)
    Y = op.apply_multi(X)
    np.testing.assert_array_equal(Y, expected)

    out = np.empty((csr.nrows, 3))
    R = op.apply_multi(X, out=out)
    assert R is out
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("supervised", SUPERVISED,
                         ids=["unsupervised", "supervised"])
def test_trace_spans_nest_correctly(small_random_csr, x300, supervised):
    """Span nesting: the tracer appends spans at *exit*, so the inner
    ``supervise`` span (when present) must appear before the outer
    ``engine.apply`` span, and be contained within its wall time."""
    csr = small_random_csr
    spec = _spec(guard=True, nthreads=2, supervised=supervised,
                 workspace="shared")
    tracer = Tracer()
    op = build_executor(csr, spec, tracer=tracer)
    op.apply(x300)

    names = [s.name for s in tracer.spans]
    assert names[-1] == "engine.apply"
    (outer,) = tracer.find("engine.apply")
    assert outer.attributes["rows"] == csr.nrows
    assert "kernel[" in outer.attributes["stack"]

    inner_spans = tracer.find("supervise")
    if supervised:
        (inner,) = inner_spans
        assert names.index("supervise") < names.index("engine.apply")
        assert outer.wall_seconds >= inner.wall_seconds
        assert "supervision[t2" in outer.attributes["stack"]
    else:
        assert inner_spans == []

    # a second apply appends a fresh pair; prior spans are kept
    op.apply(x300)
    assert [s.name for s in tracer.spans].count("engine.apply") == 2


def test_permutation_smoke_guard_supervision_two_threads():
    """check.sh stage-8 smoke: a permutation matrix through the full
    guard + supervision + workspace + trace stack on 2 threads must
    reproduce the permutation exactly and emit zero warnings (the
    stage runs with warnings-as-errors)."""
    from repro.formats import CSRMatrix

    n = 512
    perm = np.random.default_rng(42).permutation(n)
    rowptr = np.arange(n + 1, dtype=np.int64)
    colind = perm.astype(np.int32)
    values = np.ones(n)
    csr = CSRMatrix(rowptr, colind, values, (n, n))

    x = np.random.default_rng(1).standard_normal(n)
    spec = ExecutorSpec(
        guard=True,
        parallel=ParallelConfig(nthreads=2),
        supervision=SupervisionSpec(),
        workspace="shared",
        trace=True,
    )
    tracer = Tracer()
    op = build_executor(csr, spec, tracer=tracer)
    out = np.empty(n)
    r = op.apply(x, out=out)
    assert r is out
    # a permutation matrix permutes x exactly — no rounding at all
    np.testing.assert_array_equal(out, x[perm])
    assert [s.name for s in tracer.spans] == ["supervise", "engine.apply"]
    assert ExecutorSpec.from_dict(spec.to_dict()) == spec


def test_guard_adopts_serial_data(small_random_csr, x300):
    """A guarded serial stack runs the data it is given: wrapping a
    planned kernel preprocesses (converts) nothing again."""
    from repro.kernels import merged_pool_kernel

    kernel = merged_pool_kernel(("unrolling",))
    data = kernel.preprocess(small_random_csr)
    stack = build_executor(small_random_csr, ExecutorSpec(guard=True),
                           kernel=kernel, data=data)
    assert stack.data.inner is data
    np.testing.assert_array_equal(stack.apply(x300),
                                  small_random_csr.matvec(x300))
