"""Real shared-memory parallel SpMV execution plane.

Executes :class:`~repro.sched.base.Partition` objects on a persistent
:class:`~concurrent.futures.ThreadPoolExecutor` (the compiled kernels
release the GIL), making the paper's IMB thread-imbalance analysis
*measurable* instead of only simulated: the cost model predicts
per-thread times, :class:`repro.engine.ParallelExecutor` measures them
(:class:`ParallelMeasurement`). This package holds the executor's
configuration, chunking helpers and thread pools. See
docs/parallelism.md.

Stacks over this plane are assembled by
:func:`repro.engine.build_executor`; the serving-grade fault tolerance
(deadline watchdogs and the retry/degrade/serial-fallback ladder of
:class:`repro.engine.SupervisedExecutor`) lives in the engine too. See
docs/robustness.md.
"""

from .plane import ParallelConfig, ParallelMeasurement
from .pool import (
    active_worker_counts,
    get_executor,
    pool_health,
    recycle_executor,
    shutdown_executors,
)

__all__ = [
    "ParallelConfig",
    "ParallelMeasurement",
    "get_executor",
    "shutdown_executors",
    "active_worker_counts",
    "recycle_executor",
    "pool_health",
]
