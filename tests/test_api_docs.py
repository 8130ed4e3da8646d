"""docs/api.md lists exactly the public names of the package.

Each ``## `module` `` section of the reference holds one table row per
name in that module's ``__all__``; ``repro`` and every public
subpackage have a section.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"

PUBLIC_MODULES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg and not info.name.startswith("_")
)


def _documented() -> dict[str, list[str]]:
    """Symbol column of each module section's table, in order."""
    tables: dict[str, list[str]] = {}
    rows = None
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            header = re.fullmatch(r"## `([\w.]+)`\s*", line)
            rows = tables.setdefault(header.group(1), []) if header else None
        elif rows is not None:
            row = re.match(r"\| `([^`]+)` \|", line)
            if row:
                rows.append(row.group(1))
    return tables


def test_every_public_module_has_one_section():
    assert sorted(_documented()) == PUBLIC_MODULES


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_section_lists_exactly_all(module):
    documented = _documented().get(module, [])
    assert len(documented) == len(set(documented)), "a row is repeated"
    exported = importlib.import_module(module).__all__
    assert sorted(documented) == sorted(exported)
