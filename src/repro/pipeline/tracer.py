"""Per-stage telemetry: spans, tracers, and their JSON export.

Every pipeline run (an :class:`~repro.core.optimizer.AdaptiveSpMV`
``plan()``/``optimize()`` call) and every measured parallel run
(:func:`~repro.model.measure_parallel`) can carry a :class:`Tracer`.
Each stage records one :class:`Span` holding two distinct clocks:

* ``wall_seconds`` — real elapsed time of the stage *in this Python
  process* (how long the reproduction itself took);
* ``charged_seconds`` — the stage's *modeled* contribution to the
  optimizer overhead on the simulated target machine (what paper
  Table V amortizes). Summed over a run's spans this equals
  ``OptimizationPlan.total_overhead_seconds`` exactly.

Attributes are free-form but JSON-serializable: stages record cache
hit/miss, quarantine substitutions, guard fault counts, selected
optimizations, and so on. ``Tracer.to_json()`` /``Tracer.export(path)``
emit the schema documented in docs/observability.md.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["TRACE_SCHEMA_VERSION", "Span", "Tracer"]

#: Version of the exported span payload; bump on breaking changes.
TRACE_SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce span attribute values to JSON-serializable equivalents."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Span:
    """One traced pipeline stage."""

    name: str
    wall_seconds: float = 0.0
    charged_seconds: float = 0.0
    attributes: dict = field(default_factory=dict)

    def set(self, **attributes) -> "Span":
        """Merge attributes into the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_seconds": float(self.wall_seconds),
            "charged_seconds": float(self.charged_seconds),
            "attributes": _jsonable(self.attributes),
        }


class Tracer:
    """Collects the spans of one (or several) pipeline runs.

    A tracer is cheap and inert: creating one and never exporting it
    costs a list append per stage. Pass one tracer through several
    runs to build a single session trace.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes):
        """Record one span around a ``with`` block.

        The yielded :class:`Span` is mutable: the block sets
        ``charged_seconds`` and extra attributes as it learns them;
        wall time is measured automatically.
        """
        s = Span(name=name, attributes=dict(attributes))
        t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.wall_seconds = time.perf_counter() - t0
            self.spans.append(s)

    def record(self, name: str, wall_seconds: float = 0.0,
               charged_seconds: float = 0.0, **attributes) -> Span:
        """Append a pre-measured span (no timing of our own)."""
        s = Span(name=name, wall_seconds=wall_seconds,
                 charged_seconds=charged_seconds,
                 attributes=dict(attributes))
        self.spans.append(s)
        return s

    # -- queries -------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All spans with ``name`` (a stage may run more than once)."""
        return [s for s in self.spans if s.name == name]

    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.spans)

    def total_charged_seconds(self) -> float:
        """Modeled optimizer overhead across every recorded span."""
        return float(sum(s.charged_seconds for s in self.spans))

    def total_wall_seconds(self) -> float:
        return float(sum(s.wall_seconds for s in self.spans))

    # -- export --------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]

    def to_payload(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "total_wall_seconds": self.total_wall_seconds(),
            "total_charged_seconds": self.total_charged_seconds(),
            "spans": self.to_dicts(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)

    def export(self, path) -> None:
        """Write the JSON payload to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Tracer {len(self.spans)} spans "
            f"charged={1e3 * self.total_charged_seconds():.2f}ms>"
        )
