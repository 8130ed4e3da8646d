#!/bin/sh
# Lint gate: ruff when available, a stdlib fallback otherwise.
#
# CI images that ship ruff get the full `[tool.ruff]` policy from
# pyproject.toml. Minimal images still get a syntax-level gate
# (byte-compiling every module, so a broken module can never merge
# silently) and ruff's unused-import rule F401 through
# scripts/unused_imports.py, so an import a deletion orphans still
# fails. Exit status is the linter's.
set -eu

cd "$(dirname "$0")/.."

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    echo "lint: ruff check src tests benchmarks"
    if command -v ruff >/dev/null 2>&1; then
        exec ruff check src tests benchmarks
    fi
    exec python -m ruff check src tests benchmarks
fi

echo "lint: ruff not installed; falling back to python -m compileall" \
    "and scripts/unused_imports.py"
python -m compileall -q src tests benchmarks
exec python scripts/unused_imports.py src tests benchmarks
