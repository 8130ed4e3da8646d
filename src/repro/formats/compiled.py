"""Compiled CSR kernels: the numeric core of every CSR-family format.

A thin adapter over scipy's sparsetools loops (``csr_matvec``,
``csr_matvecs``, ``csc_matvec``), the same C++ code behind scipy's own
``S @ x``. They touch every nonzero once, release the GIL, and *add*
into a caller-owned output, so the adapter zeroes ``out`` first and the
call allocates nothing. ``csr_matvecs`` keeps the one-pass-over-nnz
multi-RHS amortization of Saule et al. (arXiv:1302.1078): each nonzero
updates all ``k`` right-hand sides of its row.

Each row is summed left to right over its stored entries, so a row's
result depends only on that row: the output equals ``S @ x`` bitwise,
and serial, parallel (row-chunked) and decomposed runs agree exactly.

The loops do not bounds-check: indices must satisfy the format
invariants (constructor checks or ``validate()``). The pointer and
index arrays should share one dtype: with mixed dtypes sparsetools
copies the narrower array to the wider type on every call (an
nnz-sized transient per apply). :func:`index_pair` builds that
single-dtype pair once; formats cache it next to their structure.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

__all__ = ["index_pair", "csr_matvec", "csr_matmat", "csc_matvec"]

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_pair(ptr: np.ndarray, idx: np.ndarray,
               shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, idx)`` as contiguous arrays of one index dtype.

    int32 when the nonzero count and both dimensions fit (every matrix
    this library builds), otherwise int64. An array already in that
    dtype is returned as is, so the usual cost is one int32 copy of
    ``ptr``.
    """
    top = max(int(ptr[-1]), *shape)
    dtype = np.int32 if top <= _INT32_MAX else np.int64
    return (np.ascontiguousarray(ptr, dtype=dtype),
            np.ascontiguousarray(idx, dtype=dtype))


def csr_matvec(pair, values: np.ndarray, shape: tuple[int, int],
               x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` for the CSR matrix ``(pair, values, shape)``.

    ``x`` and ``out`` must be C-contiguous float64 of lengths
    ``shape[1]`` and ``shape[0]``.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(shape[0], shape[1], pair[0], pair[1],
                            values, x, out)
    return out


def csr_matmat(pair, values: np.ndarray, shape: tuple[int, int],
               X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ X`` for a C-contiguous ``(shape[1], k)`` block.

    ``out`` must be C-contiguous too: both blocks are passed flattened
    (views, not copies), the call scipy's own multi-vector product
    makes.
    """
    out.fill(0.0)
    _sparsetools.csr_matvecs(shape[0], shape[1], X.shape[1], pair[0],
                             pair[1], values, X.ravel(), out.ravel())
    return out


def csc_matvec(pair, values: np.ndarray, shape: tuple[int, int],
               x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` for the CSC matrix ``(pair, values, shape)``.

    A CSR matrix's arrays are its transpose's CSC arrays, so this is
    ``A.T @ x`` for CSR ``A`` when called with ``A.shape[::-1]``.
    """
    out.fill(0.0)
    _sparsetools.csc_matvec(shape[0], shape[1], pair[0], pair[1],
                            values, x, out)
    return out
