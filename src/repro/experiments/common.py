"""Shared infrastructure for the experiment drivers.

Each driver in this package regenerates one paper artifact (table or
figure) as structured rows plus a rendered text table, so the same code
backs the pytest-benchmark harness, the CLI, and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import FeatureGuidedClassifier
from ..machine import MachineSpec
from ..matrices import training_suite

__all__ = [
    "render_table",
    "geometric_mean",
    "ExperimentTable",
    "trained_feature_classifier",
]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; the right average for speedup ratios."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if np.any(arr <= 0):
        raise ValueError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned plain-text table."""
    headers = [str(h) for h in headers]
    str_rows = [
        [f"{c:.2f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows
        else len(headers[j])
        for j in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentTable:
    """One regenerated paper artifact."""

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(row))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_text(self) -> str:
        out = [f"== {self.experiment_id}: {self.title} ==",
               render_table(self.headers, self.rows)]
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)

    def column(self, name: str) -> list:
        j = self.headers.index(name)
        return [r[j] for r in self.rows]


_CLASSIFIER_CACHE: dict[tuple[str, int, int], FeatureGuidedClassifier] = {}


def trained_feature_classifier(
    machine: MachineSpec,
    train_count: int = 210,
    seed: int = 2017,
    **classifier_kwargs,
) -> FeatureGuidedClassifier:
    """Train (and memoize) the feature-guided classifier for a platform.

    Training means: build the seeded corpus, label it with the
    profile-guided classifier on ``machine``, fit the CART tree — the
    paper's offline stage. Memoized per (platform, corpus) because
    several experiments share the same classifier.
    """
    key = (machine.codename, train_count, seed)
    if key not in _CLASSIFIER_CACHE and not classifier_kwargs:
        corpus = [t.matrix for t in training_suite(count=train_count, seed=seed)]
        clf = FeatureGuidedClassifier(machine)
        clf.fit_from_matrices(corpus)
        _CLASSIFIER_CACHE[key] = clf
    elif classifier_kwargs:
        corpus = [t.matrix for t in training_suite(count=train_count, seed=seed)]
        clf = FeatureGuidedClassifier(machine, **classifier_kwargs)
        clf.fit_from_matrices(corpus)
        return clf
    return _CLASSIFIER_CACHE[key]
