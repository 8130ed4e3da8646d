"""Bring-your-own-matrix pipeline: Matrix Market file -> optimized SpMV.

Shows the workflow a downstream user follows with their own data:

1. write/read a Matrix Market file (here we synthesize one first),
2. extract and inspect the structural features the classifiers use,
3. train the lightweight feature-guided classifier offline,
4. optimize the loaded matrix and use it inside GMRES.

Run with::

    python examples/custom_matrix_pipeline.py [path/to/matrix.mtx]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AdaptiveSpMV,
    FeatureGuidedClassifier,
    KNL,
    extract_features,
    gmres,
    read_matrix_market,
    training_suite,
    write_matrix_market,
)
from repro.formats import CSRMatrix
from repro.matrices.generators import random_uniform, with_dense_rows


def _demo_file(directory: Path) -> Path:
    """Synthesize a circuit-like matrix and write it to disk."""
    base = random_uniform(30_000, nnz_per_row=5.0, seed=3)
    A = with_dense_rows(base, n_dense=3, dense_nnz=18_000, seed=4)
    path = directory / "circuit_demo.mtx"
    write_matrix_market(A, path, comment="synthetic circuit demo")
    print(f"wrote demo matrix to {path}")
    return path


def main() -> None:
    # 1. Load.
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        A = read_matrix_market(path)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = _demo_file(Path(tmp))
            A = read_matrix_market(path)
    print(f"loaded {path.name}: {A.nrows}x{A.ncols}, nnz={A.nnz}")

    # 2. Features (what the classifier sees).
    f = extract_features(A, llc_bytes=KNL.llc_bytes)
    print("\nstructural features (paper Table II):")
    for key, value in f.as_dict().items():
        print(f"  {key:15s} {value:12.4g}")

    # 3. Offline: train the feature-guided classifier for KNL.
    print("\ntraining feature-guided classifier...")
    corpus = [t.matrix for t in training_suite(count=30, seed=2)]
    clf = FeatureGuidedClassifier(KNL).fit_from_matrices(corpus)
    print(f"  corpus labels: {clf.report.label_counts}")
    print(f"  tree: depth {clf.report.tree_depth}, "
          f"{clf.report.tree_leaves} leaves")

    # 4. Online: optimize (milliseconds of decision time) and solve.
    optimizer = AdaptiveSpMV(KNL, classifier=clf)
    operator = optimizer.optimize(A)
    print(f"\nplan: {operator.plan}")

    # Make the system solvable (diagonally dominant) and run GMRES.
    import scipy.sparse as sp

    S = A.to_scipy()
    dom = np.asarray(abs(S).sum(axis=1)).ravel() + 1.0
    B = CSRMatrix.from_scipy((S + sp.diags(dom)).tocsr())
    op_b = optimizer.optimize(B)
    b = np.ones(B.nrows)
    result = gmres(op_b, b, tol=1e-8, restart=30)
    print(
        f"GMRES: converged={result.converged} "
        f"iterations={result.iterations} "
        f"residual={result.residual_norm:.2e}"
    )
    print(f"simulated optimized SpMV: {op_b.simulate().gflops:.2f} Gflop/s")


if __name__ == "__main__":
    main()
