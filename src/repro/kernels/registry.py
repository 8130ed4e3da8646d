"""Named registry of kernel variants (the optimization pool's atoms).

The five single optimizations swept by the paper's "trivial-single"
optimizer (and shown individually in Fig. 1) are composites of the
flag set, exactly as Table I defines them:

=============  =============================================
pool name       configuration
=============  =============================================
compression     delta column indices + vectorization (MB)
prefetching     software prefetch on x (ML)
decomposition   long-row split (IMB, uneven row lengths)
auto-sched      OpenMP ``auto`` schedule (IMB, unevenness)
unrolling       inner-loop unrolling + vectorization (CMP)
=============  =============================================
"""

from __future__ import annotations

import threading
from itertools import combinations

from .variants import ConfiguredSpMV, SpMVConfig, baseline_kernel

__all__ = [
    "POOL_CONFIGS",
    "pool_kernel",
    "pool_names",
    "register_pool_optimization",
    "registered_pool_names",
    "single_optimization_kernels",
    "pairwise_optimization_kernels",
    "merged_pool_kernel",
    "QUARANTINE_THRESHOLD",
    "record_kernel_failure",
    "kernel_failure_count",
    "kernel_failure_counts",
    "kernel_failure_log",
    "is_quarantined",
    "quarantined_kernel_names",
    "clear_quarantine",
]

POOL_CONFIGS: dict[str, SpMVConfig] = {
    "compression": SpMVConfig(compress=True, vectorize=True),
    "prefetching": SpMVConfig(prefetch=True),
    "decomposition": SpMVConfig(decompose=True),
    "auto-sched": SpMVConfig(schedule="auto"),
    "unrolling": SpMVConfig(unroll=True, vectorize=True),
}

#: User-registered optimizations (plug-and-play extension point). These
#: are resolvable by :func:`pool_kernel` / :func:`merged_pool_kernel`
#: and can be mapped to classes via
#: :class:`repro.core.pool.OptimizationPool`, but do NOT join the
#: canonical 5-optimization sweep the paper's trivial optimizers use.
_CUSTOM_CONFIGS: dict[str, SpMVConfig] = {}


def register_pool_optimization(name: str, config) -> None:
    """Register a custom optimization under ``name``.

    ``config`` is either an :class:`SpMVConfig` (a flag combination on
    the CSR kernel, freely mergeable with other optimizations) or a
    zero-argument *kernel factory* returning a
    :class:`~repro.kernels.base.Kernel` (an entirely different format/
    inner loop, e.g. BCSR — applicable only on its own).

    This is the paper's plug-and-play property: a new optimization can
    be assigned to a bottleneck class without retraining any classifier.
    Canonical names cannot be shadowed.
    """
    if name in POOL_CONFIGS:
        raise ValueError(f"cannot shadow canonical optimization {name!r}")
    if not (isinstance(config, SpMVConfig) or callable(config)):
        raise TypeError("config must be an SpMVConfig or a kernel factory")
    _CUSTOM_CONFIGS[name] = config


def registered_pool_names() -> tuple[str, ...]:
    """All resolvable optimization names (canonical + custom)."""
    return tuple(POOL_CONFIGS) + tuple(_CUSTOM_CONFIGS)


def _lookup(name: str) -> SpMVConfig:
    if name in POOL_CONFIGS:
        return POOL_CONFIGS[name]
    if name in _CUSTOM_CONFIGS:
        return _CUSTOM_CONFIGS[name]
    raise ValueError(
        f"unknown pool optimization {name!r}; "
        f"available: {registered_pool_names()}"
    )


def pool_names() -> tuple[str, ...]:
    """The canonical five single optimizations (paper Table I)."""
    return tuple(POOL_CONFIGS)


def pool_kernel(name: str):
    """One pool optimization (canonical or registered) by name."""
    entry = _lookup(name)
    if isinstance(entry, SpMVConfig):
        return ConfiguredSpMV(entry)
    return entry()


def merged_pool_kernel(names: tuple[str, ...] | list[str]):
    """Jointly apply several pool optimizations (paper Section III-E).

    Factory-registered optimizations (whole-kernel replacements such as
    BCSR) cannot be merged with flag-based ones; selecting one together
    with other optimizations is an error.
    """
    if not names:
        return baseline_kernel()
    entries = [( name, _lookup(name)) for name in names]
    factories = [n for n, e in entries if not isinstance(e, SpMVConfig)]
    if factories:
        if len(entries) > 1:
            raise ValueError(
                f"kernel-replacing optimization(s) {factories} cannot be "
                f"applied jointly with others ({[n for n, _ in entries]})"
            )
        return entries[0][1]()
    config = SpMVConfig()
    for _, entry in entries:
        config = config.merged_with(entry)
    return ConfiguredSpMV(config)


def single_optimization_kernels() -> dict[str, ConfiguredSpMV]:
    """The 5 single-optimization kernels (paper's trivial-single sweep)."""
    return {name: pool_kernel(name) for name in POOL_CONFIGS}


def pairwise_optimization_kernels() -> dict[str, ConfiguredSpMV]:
    """Singles + all 10 pairs (paper's trivial-combined sweep, 15 total)."""
    out = single_optimization_kernels()
    for a, b in combinations(POOL_CONFIGS, 2):
        out[f"{a}+{b}"] = merged_pool_kernel((a, b))
    return out


# -- kernel quarantine (per-variant failure accounting) ----------------
#
# The guarded execution layer (repro.engine.guard) records every
# runtime fault of a kernel variant here, keyed by the variant's
# ``name``. Once a variant accumulates QUARANTINE_THRESHOLD failures it
# is *quarantined*: guarded wrappers stop calling it (falling back to
# the reference CSR kernel) and AdaptiveSpMV refuses to plan it.

QUARANTINE_THRESHOLD = 1

_quarantine_lock = threading.Lock()
_kernel_failures: dict[str, list[str]] = {}


def record_kernel_failure(name: str, reason: str) -> int:
    """Record one runtime fault of variant ``name``; returns its new
    failure count."""
    with _quarantine_lock:
        log = _kernel_failures.setdefault(str(name), [])
        log.append(str(reason))
        return len(log)


def kernel_failure_count(name: str) -> int:
    with _quarantine_lock:
        return len(_kernel_failures.get(str(name), ()))


def kernel_failure_counts() -> dict[str, int]:
    """Snapshot of every variant's failure count (telemetry export)."""
    with _quarantine_lock:
        return {name: len(log) for name, log in _kernel_failures.items()}


def kernel_failure_log(name: str) -> tuple[str, ...]:
    """The recorded failure reasons of variant ``name`` (oldest first)."""
    with _quarantine_lock:
        return tuple(_kernel_failures.get(str(name), ()))


def is_quarantined(name: str, threshold: int | None = None) -> bool:
    limit = QUARANTINE_THRESHOLD if threshold is None else int(threshold)
    return kernel_failure_count(name) >= max(limit, 1)


def quarantined_kernel_names(threshold: int | None = None) -> tuple[str, ...]:
    limit = QUARANTINE_THRESHOLD if threshold is None else int(threshold)
    limit = max(limit, 1)
    with _quarantine_lock:
        return tuple(
            name for name, log in _kernel_failures.items()
            if len(log) >= limit
        )


def clear_quarantine(name: str | None = None) -> None:
    """Forget recorded failures (all variants, or just ``name``)."""
    with _quarantine_lock:
        if name is None:
            _kernel_failures.clear()
        else:
            _kernel_failures.pop(str(name), None)
