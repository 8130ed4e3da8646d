"""Sparse matrix storage formats (system S1 in DESIGN.md).

Kernels execute :class:`CSRMatrix`, :class:`BCSRMatrix` and
:class:`SellCSigmaMatrix`; :class:`COOMatrix` is the interchange format;
:class:`DeltaCSR` and :class:`DecomposedCSR` are the MB- and IMB-class
layouts the cost plane prices.
"""

from .base import SparseFormat
from .bcsr import BCSRMatrix
from .coo import COOMatrix
from .csr import CSRMatrix
from .decomposed import DecomposedCSR, default_long_row_threshold
from .delta import DeltaCSR, choose_delta_width
from .sellcs import SellCSigmaMatrix

__all__ = [
    "SparseFormat",
    "BCSRMatrix",
    "SellCSigmaMatrix",
    "COOMatrix",
    "CSRMatrix",
    "DeltaCSR",
    "DecomposedCSR",
    "choose_delta_width",
    "default_long_row_threshold",
]
