"""List imports a module never uses (ruff's F401), with the stdlib alone.

    python scripts/unused_imports.py src tests benchmarks

Prints one ``path:line: name`` per unused import and exits 1 if there
is any. ``scripts/lint.sh`` runs it when ruff is not installed. A name
counts as used when the module reads it, lists it in ``__all__`` or
names it in a string annotation; ``from m import a as a`` is an
explicit re-export. Files that ``[tool.ruff.lint.per-file-ignores]``
in ``pyproject.toml`` exempt from F401 are skipped.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def exempt_patterns() -> list[str]:
    """Path globs that pyproject.toml exempts from F401."""
    patterns, in_table = [], False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[tool.ruff.lint.per-file-ignores]"
        elif in_table and "F401" in line.partition("=")[2]:
            patterns.append(line.partition("=")[0].strip().strip("\"'"))
    return patterns


def _imports(tree: ast.Module) -> dict[str, tuple[int, str]]:
    """Bound name -> (line, imported name) of every import."""
    bound: dict[str, tuple[int, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, (node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    bound.setdefault(alias.asname or alias.name,
                                     (node.lineno, alias.name))
    return bound


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and node.value is not None:
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    try:
                        used |= _names(ast.parse(c.value, mode="eval"))
                    except SyntaxError:
                        pass
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for bound, (line, name)
                  in _imports(tree).items() if bound not in used)


def main(argv: list[str]) -> int:
    patterns = exempt_patterns()
    found = 0
    for top in argv or ["src", "tests", "benchmarks"]:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if any(rel.match(pattern) for pattern in patterns):
                continue
            for line, name in unused_imports(path):
                print(f"{rel}:{line}: unused import {name!r}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
