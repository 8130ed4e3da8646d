"""Thread scheduling / row partitioning (system S5 in DESIGN.md)."""

from .base import Partition
from .policies import (
    SCHEDULE_POLICIES,
    auto_chunked,
    balanced_nnz,
    dynamic_chunks,
    make_partition,
    rank_policies,
    static_rows,
)

__all__ = [
    "Partition",
    "static_rows",
    "balanced_nnz",
    "auto_chunked",
    "dynamic_chunks",
    "make_partition",
    "rank_policies",
    "SCHEDULE_POLICIES",
]
