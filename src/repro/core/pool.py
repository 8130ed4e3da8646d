"""Class -> optimization mapping (paper Table I) with IMB sub-selection.

========  =========================================================
class      optimization
========  =========================================================
MB         column-index delta compression + vectorization
ML         software prefetching on x
IMB        matrix decomposition *or* OpenMP ``auto`` scheduling,
           selected by structural features: highly uneven row
           lengths (``nnz_max`` vs ``nnz_avg``) -> decomposition;
           computational unevenness (``bw_sd``) -> auto scheduling
CMP        inner-loop unrolling + vectorization
========  =========================================================

When multiple bottlenecks are detected the corresponding optimizations
are applied jointly (Section III-E). The pool is a registry so that
optimizations can be replaced per class without touching the
classifiers — the plug-and-play property the paper argues for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..formats import CSRMatrix
from ..matrices.features import FeatureVector, extract_features
from .classes import Bottleneck, ClassSet

__all__ = ["PoolPolicy", "OptimizationPool", "DEFAULT_POOL"]

#: ``nnz_max / max(nnz_avg, 1)`` above this means "highly uneven row
#: lengths": a single row blows the per-thread budget, so decomposition
#: (which a schedule cannot emulate) is selected.
_UNEVEN_ROW_RATIO = 32.0


@dataclass(frozen=True)
class PoolPolicy:
    """Tunable knobs of the optimization pool."""

    uneven_row_ratio: float = _UNEVEN_ROW_RATIO

    def __post_init__(self) -> None:
        if self.uneven_row_ratio <= 1.0:
            raise ValueError("uneven_row_ratio must exceed 1.0")


class OptimizationPool:
    """Maps detected bottleneck class sets to kernel configurations.

    The mapping is a plug-and-play registry: each class maps to an
    optimization *name* (resolved via :mod:`repro.kernels.registry`,
    which accepts user-registered optimizations) or to a callable
    ``f(features) -> name`` for feature-dependent sub-selection — the
    default IMB entry is exactly that. Overriding an entry swaps the
    optimization for that class without touching any classifier, the
    modularity property the paper argues for over format-selection
    autotuners (Section V).
    """

    def __init__(self, policy: PoolPolicy | None = None,
                 mapping: dict | None = None):
        self.policy = policy or PoolPolicy()
        self.mapping: dict[Bottleneck, object] = {
            Bottleneck.MB: "compression",
            Bottleneck.ML: "prefetching",
            Bottleneck.IMB: self.imb_strategy,
            Bottleneck.CMP: "unrolling",
        }
        if mapping:
            self.override(**{c.value: m for c, m in mapping.items()})

    def override(self, **entries) -> "OptimizationPool":
        """Replace per-class optimizations, e.g. ``override(MB="vec16")``.

        Values are optimization names or callables ``f(features) -> name``.
        Returns self for chaining.
        """
        for key, value in entries.items():
            try:
                bottleneck = Bottleneck(key)
            except ValueError:
                raise ValueError(f"unknown class {key!r}") from None
            if not (isinstance(value, str) or callable(value)):
                raise TypeError(
                    f"mapping for {key} must be a name or callable"
                )
            self.mapping[bottleneck] = value
        return self

    def content_signature(self) -> str:
        """Stable content signature of this pool's mapping and policy.

        The signature describes *what the pool maps to*, not which
        object holds the mapping: string entries contribute their name,
        callable entries their qualified function name. Two pools with
        identical mappings and policies share a signature in any
        process, which makes it safe as a plan-cache key component
        (including for caches persisted via ``PlanCache.save``) —
        unlike ``id(pool)``, which is unstable across processes and can
        collide after garbage collection reuses an address.

        The string format itself lives in :func:`repro.model.signature.
        mapping_signature` (shared with every other content-addressed
        artifact) and is pinned by ``tests/model/test_signature.py`` —
        persisted plan-cache keys embed it verbatim.
        """
        from ..model.signature import mapping_signature

        return mapping_signature(self.mapping, asdict(self.policy))

    def imb_strategy(self, features: FeatureVector) -> str:
        """Pick the IMB sub-optimization from structural features."""
        ratio = features.nnz_max / max(features.nnz_avg, 1.0)
        if ratio > self.policy.uneven_row_ratio:
            return "decomposition"
        return "auto-sched"

    def select(self, classes: ClassSet,
               features: FeatureVector | None = None,
               csr: CSRMatrix | None = None) -> tuple[str, ...]:
        """Pool optimization names for the detected ``classes``.

        ``features`` (or ``csr``, from which they are extracted) is
        required only when a feature-dependent mapping entry (by
        default: IMB) is triggered.
        """
        names: list[str] = []
        for bottleneck in (Bottleneck.MB, Bottleneck.ML, Bottleneck.IMB,
                           Bottleneck.CMP):
            if bottleneck not in classes:
                continue
            entry = self.mapping[bottleneck]
            if callable(entry):
                if features is None:
                    if csr is None:
                        raise ValueError(
                            f"{bottleneck.value} sub-selection needs "
                            "features or the matrix"
                        )
                    features = extract_features(csr)
                entry = entry(features)
            names.append(entry)
        return tuple(names)


DEFAULT_POOL = OptimizationPool()
