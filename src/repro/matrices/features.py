"""Structural feature extraction (paper Table II).

Features are grouped by extraction complexity exactly as in the paper:

* ``O(1)``: ``size`` (working set fits in LLC), ``density``;
* ``O(N)``: statistics of per-row nonzero counts and bandwidths,
  plus the derived ``scatter``/``dispersion`` statistics;
* ``O(NNZ)``: ``clustering_avg`` and ``misses_avg``, which need a pass
  over the column indices.

A selector should pay only for the features it reads, so extraction is
lazy. :func:`extract_features` is O(1): it returns a
:class:`FeatureVector` bound to the matrix, and each group of features
is computed on the first read of any feature in it, then kept. The
groups follow the complexity classes, with the O(N) class split by the
arrays it reads:

* O(1): ``size``, ``density``;
* row lengths (``rowptr`` only): ``nnz_*``;
* row spans (the first and last column of every row): ``bw_*``,
  ``scatter_*``;
* column gaps (every column index): ``clustering_avg``, ``misses_avg``.

The default planner's IMB sub-selection reads ``nnz_max`` and
``nnz_avg`` (one ``np.diff`` of ``rowptr``), and a classifier over the
paper's O(N) subset never scans the column indices. A group reads the
matrix when it is computed; CSR structure is immutable by contract.

The feature-guided classifier of the paper consumes subsets of these;
Table IV reports one ``O(N)`` and one ``O(NNZ)`` subset. The paper's
``dispersion`` features (Table IV) are the ``scatter`` statistics of
Table II under their alternative name; we expose both spellings.

Deviation noted for reproducibility: the paper defines
``scatter_i = nnz_i / bw_i`` which is undefined for rows with a single
nonzero (``bw_i = 0``); we use ``nnz_i / (bw_i + 1)``, which equals 1
for a fully dense run and is defined everywhere. Empty rows contribute
0 to all per-row averages.
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix

__all__ = [
    "FeatureVector",
    "extract_features",
    "feature_matrix",
    "FEATURE_NAMES",
    "FEATURE_COMPLEXITY",
    "features_with_complexity",
    "O1_FEATURES",
    "ON_FEATURES",
    "ONNZ_FEATURES",
    "PAPER_ON_SUBSET",
    "PAPER_ONNZ_SUBSET",
]

#: Canonical feature ordering used throughout the library.
FEATURE_NAMES: tuple[str, ...] = (
    "size",
    "density",
    "nnz_min",
    "nnz_max",
    "nnz_avg",
    "nnz_sd",
    "bw_min",
    "bw_max",
    "bw_avg",
    "bw_sd",
    "scatter_avg",
    "scatter_sd",
    "clustering_avg",
    "misses_avg",
)

#: Extraction complexity class of each feature (paper Table II).
FEATURE_COMPLEXITY: dict[str, str] = {
    "size": "O(1)",
    "density": "O(1)",
    "nnz_min": "O(N)",
    "nnz_max": "O(N)",
    "nnz_avg": "O(N)",
    "nnz_sd": "O(N)",
    "bw_min": "O(N)",
    "bw_max": "O(N)",
    "bw_avg": "O(N)",
    "bw_sd": "O(N)",
    "scatter_avg": "O(N)",
    "scatter_sd": "O(N)",
    "clustering_avg": "O(NNZ)",
    "misses_avg": "O(NNZ)",
}

O1_FEATURES = tuple(f for f in FEATURE_NAMES if FEATURE_COMPLEXITY[f] == "O(1)")
ON_FEATURES = tuple(f for f in FEATURE_NAMES if FEATURE_COMPLEXITY[f] == "O(N)")
ONNZ_FEATURES = tuple(
    f for f in FEATURE_NAMES if FEATURE_COMPLEXITY[f] == "O(NNZ)"
)

#: The O(N)-complexity classifier feature subset of paper Table IV
#: (nnz_{min,max,sd}, bw_avg, dispersion_{avg,sd}).
PAPER_ON_SUBSET = (
    "nnz_min", "nnz_max", "nnz_sd", "bw_avg", "scatter_avg", "scatter_sd",
)

#: The O(NNZ)-complexity classifier feature subset of paper Table IV
#: (size, bw_{avg,sd}, nnz_{min,max,avg,sd}, misses_avg, dispersion_sd).
PAPER_ONNZ_SUBSET = (
    "size", "bw_avg", "bw_sd", "nnz_min", "nnz_max", "nnz_avg", "nnz_sd",
    "misses_avg", "scatter_sd",
)

#: Default last-level-cache capacity for the ``size`` feature.
_LLC_BYTES = 32 * 1024 * 1024

_ALIASES = {"dispersion_avg": "scatter_avg", "dispersion_sd": "scatter_sd"}


def canonical_feature_name(name: str) -> str:
    """Resolve paper aliases (``dispersion_*``) to canonical names."""
    name = _ALIASES.get(name, name)
    if name not in FEATURE_NAMES:
        raise ValueError(f"unknown feature {name!r}")
    return name


def spmv_working_set_bytes(csr: CSRMatrix) -> int:
    """Bytes touched by one CSR SpMV: matrix + x + y."""
    return csr.total_nbytes() + 8 * (csr.ncols + csr.nrows)


class FeatureVector:
    """The Table II features of one matrix, each group computed on the
    first read of any feature in it.

    Holds the matrix, ``llc_bytes`` (capacity for the binary ``size``
    feature) and ``line_elems`` (float64 elements per cache line, for
    the naive ``misses`` estimate). Reading any feature computes its
    whole group (see the module docstring) and keeps the values as
    plain attributes; the other groups stay uncomputed.
    """

    size: float
    density: float
    nnz_min: float
    nnz_max: float
    nnz_avg: float
    nnz_sd: float
    bw_min: float
    bw_max: float
    bw_avg: float
    bw_sd: float
    scatter_avg: float
    scatter_sd: float
    clustering_avg: float
    misses_avg: float

    def __init__(self, csr: CSRMatrix, *, llc_bytes: int = _LLC_BYTES,
                 line_elems: int = 8):
        self.csr = csr
        self.llc_bytes = llc_bytes
        self.line_elems = line_elems

    def __getattr__(self, name: str) -> float:
        # Reached only for names not set yet: an unread feature.
        group = _GROUP_OF.get(name)
        if group is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.__dict__.update(group(self))
        return self.__dict__[name]

    def __getitem__(self, name: str) -> float:
        return float(getattr(self, canonical_feature_name(name)))

    def as_array(self, names: tuple[str, ...] = FEATURE_NAMES) -> np.ndarray:
        """Feature values in ``names`` order as a float64 vector."""
        return np.array([self[n] for n in names], dtype=np.float64)

    def as_dict(self) -> dict[str, float]:
        return {n: self[n] for n in FEATURE_NAMES}

    # -- the four groups ----------------------------------------------

    def _constant(self) -> dict[str, float]:
        csr = self.csr
        return {
            "size": (
                1.0 if spmv_working_set_bytes(csr) <= self.llc_bytes
                else 0.0
            ),
            "density": float(csr.nnz / float(csr.nrows) / float(csr.ncols)),
        }

    def _row_lengths(self) -> dict[str, float]:
        return _summary("nnz", self.csr.row_nnz().astype(np.float64))

    def _row_spans(self) -> dict[str, float]:
        csr = self.csr
        nnz = csr.row_nnz().astype(np.float64)
        bw = csr.row_bandwidths().astype(np.float64)
        scatter = np.where(nnz > 0, nnz / (bw + 1.0), 0.0)
        return {
            **_summary("bw", bw),
            "scatter_avg": _mean(scatter),
            "scatter_sd": _sd(scatter),
        }

    def _column_gaps(self) -> dict[str, float]:
        csr = self.csr
        nnz = csr.row_nnz().astype(np.float64)
        gaps = csr.column_gaps()
        # A "group" starts wherever the gap to the in-row predecessor is
        # not exactly 1 (the first element of a row has gap 0, starting
        # a group).
        ngroups = csr.row_flag_counts(gaps != 1)
        clustering = np.where(nnz > 0, ngroups / np.maximum(nnz, 1.0), 0.0)
        # Naive per-row miss estimate (paper): an element "can generate a
        # cache miss" when its distance from the in-row predecessor
        # exceeds the elements per cache line. Row-first elements are not
        # counted.
        misses = csr.row_flag_counts(gaps > self.line_elems)
        return {"clustering_avg": _mean(clustering),
                "misses_avg": _mean(misses)}


_GROUP_OF = {
    name: group
    for names, group in (
        (("size", "density"), FeatureVector._constant),
        (("nnz_min", "nnz_max", "nnz_avg", "nnz_sd"),
         FeatureVector._row_lengths),
        (("bw_min", "bw_max", "bw_avg", "bw_sd", "scatter_avg",
          "scatter_sd"), FeatureVector._row_spans),
        (("clustering_avg", "misses_avg"), FeatureVector._column_gaps),
    )
    for name in names
}


def _mean(x: np.ndarray) -> float:
    return float(x.mean()) if x.size else 0.0


def _sd(x: np.ndarray) -> float:
    # Population standard deviation, as written in Table II.
    return float(np.sqrt(np.mean((x - x.mean()) ** 2))) if x.size else 0.0


def _summary(prefix: str, x: np.ndarray) -> dict[str, float]:
    """``{prefix}_min/max/avg/sd`` of one per-row statistic."""
    return {
        f"{prefix}_min": float(x.min(initial=0.0)),
        f"{prefix}_max": float(x.max(initial=0.0)),
        f"{prefix}_avg": _mean(x),
        f"{prefix}_sd": _sd(x),
    }


def extract_features(
    csr: CSRMatrix,
    *,
    llc_bytes: int = _LLC_BYTES,
    line_elems: int = 8,
) -> FeatureVector:
    """The Table II feature vector of ``csr``, computed on first read.

    O(1) to call: nothing is computed until a feature is read, and then
    only that feature's group (O(1), row lengths, row spans or column
    gaps), once.

    Parameters
    ----------
    llc_bytes
        Last-level-cache capacity used by the binary ``size`` feature.
    line_elems
        Number of float64 elements per cache line (64-byte line -> 8),
        used by the naive ``misses`` estimate.
    """
    return FeatureVector(csr, llc_bytes=llc_bytes, line_elems=line_elems)


def feature_matrix(
    matrices, names: tuple[str, ...] = FEATURE_NAMES, **kwargs
) -> np.ndarray:
    """Stack :func:`extract_features` of many matrices into (k, f)."""
    names = tuple(canonical_feature_name(n) for n in names)
    return np.array(
        [extract_features(m, **kwargs).as_array(names) for m in matrices]
    )


def features_with_complexity(max_complexity: str) -> tuple[str, ...]:
    """All features extractable within ``max_complexity``.

    ``max_complexity`` is one of ``"O(1)"``, ``"O(N)"``, ``"O(NNZ)"``;
    cheaper classes are always included.
    """
    order = {"O(1)": 0, "O(N)": 1, "O(NNZ)": 2}
    if max_complexity not in order:
        raise ValueError(f"unknown complexity class {max_complexity!r}")
    cap = order[max_complexity]
    return tuple(
        f for f in FEATURE_NAMES if order[FEATURE_COMPLEXITY[f]] <= cap
    )
