"""Pinning tests for the canonical content-hash helpers.

These digests and string formats are persisted-cache key components:
plan caches saved by earlier builds embed them verbatim. A change here
is a silent cache invalidation for every user, so the exact outputs are
pinned — if one of these tests fails, either revert the hash change or
bump the persisted schema version deliberately.
"""

import json

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.model.signature import (
    body_checksum,
    canonical_body,
    mapping_signature,
    matrix_fingerprint,
    read_checksummed,
    write_checksummed,
)


def _fixed_matrix() -> CSRMatrix:
    """A tiny fully-deterministic matrix (no RNG, no platform floats)."""
    rowptr = np.array([0, 2, 3, 5], dtype=np.int64)
    colind = np.array([0, 2, 1, 0, 2], dtype=np.int64)
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    return CSRMatrix(rowptr, colind, values, (3, 3))


class TestMatrixFingerprint:
    def test_digest_is_pinned(self):
        """The exact hex digest of a fixed matrix must never drift —
        persisted plan-cache keys contain it."""
        h = matrix_fingerprint(_fixed_matrix())
        import hashlib

        ref = hashlib.blake2b(digest_size=16)
        ref.update(np.array([3, 3, 5], dtype=np.int64).tobytes())
        for arr in (_fixed_matrix().rowptr, _fixed_matrix().colind):
            a = np.ascontiguousarray(arr)
            ref.update(a.dtype.str.encode("ascii"))
            ref.update(a.tobytes())
        assert h == ref.hexdigest()
        # 128-bit hex
        assert len(h) == 32

    def test_structure_only(self):
        a = _fixed_matrix()
        b = _fixed_matrix()
        b.values[:] = 9.0
        assert matrix_fingerprint(a) == matrix_fingerprint(b)

    def test_dtype_distinguishes(self):
        """The hash covers dtype strings, so an int32 and an int64 array
        with equal logical content cannot alias (CSRMatrix itself
        canonicalizes dtypes; test the hash on a raw stand-in)."""
        from types import SimpleNamespace

        def stub(dtype):
            a = _fixed_matrix()
            return SimpleNamespace(
                shape=(3, 3), nnz=a.nnz,
                rowptr=a.rowptr.astype(dtype),
                colind=a.colind.astype(dtype),
            )

        assert (matrix_fingerprint(stub(np.int64))
                != matrix_fingerprint(stub(np.int32)))

    def test_core_reexport_is_same_object(self):
        """core re-exports the one canonical implementation."""
        from repro.core import matrix_fingerprint as from_core
        from repro.core.optimizer import matrix_fingerprint as from_opt

        assert from_core is matrix_fingerprint
        assert from_opt is matrix_fingerprint


class TestMappingSignature:
    def test_format_is_pinned(self):
        """The exact string layout is a plan-cache key component."""

        def chooser(features):  # pragma: no cover - never called
            return "x"

        sig = mapping_signature(
            {"MB": "compression", "IMB": chooser},
            {"uneven_row_ratio": 32.0},
        )
        assert sig == (
            "IMB=callable:tests.model.test_signature."
            "TestMappingSignature.test_format_is_pinned.<locals>.chooser;"
            "MB=compression|uneven_row_ratio=32.0"
        )

    def test_pool_delegates_and_format_unchanged(self):
        """OptimizationPool.content_signature must produce the exact
        pre-refactor inline format (legacy persisted keys embed it)."""
        from repro.core.pool import OptimizationPool

        sig = OptimizationPool().content_signature()
        assert sig == (
            "CMP=unrolling;"
            "IMB=callable:repro.core.pool.OptimizationPool.imb_strategy;"
            "MB=compression;ML=prefetching|uneven_row_ratio=32.0"
        )

    def test_equal_content_equal_signature(self):
        from repro.core.pool import OptimizationPool

        assert (OptimizationPool().content_signature()
                == OptimizationPool().content_signature())


class TestChecksummedEnvelope:
    def test_canonical_body_is_key_order_independent(self):
        assert (canonical_body({"a": 1, "b": [2, 3]})
                == canonical_body({"b": [2, 3], "a": 1}))
        assert body_checksum({"x": 1.5}) == body_checksum({"x": 1.5})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "artifact.json"
        body = {"schema_version": 1, "values": [1.0, 2.5], "name": "p"}
        write_checksummed(path, body)
        assert read_checksummed(path) == body
        payload = json.loads(path.read_text())
        assert set(payload) == {"checksum", "body"}

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_checksummed(path, {"v": 1})
        payload = json.loads(path.read_text())
        payload["body"]["v"] = 2  # silent bit-flip
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checksum mismatch"):
            read_checksummed(path)

    def test_garbage_rejected_with_reason(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not parseable"):
            read_checksummed(path)
        path.write_text('{"no": "envelope"}')
        with pytest.raises(ValueError, match="envelope"):
            read_checksummed(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_checksummed(path, {"v": 1})
        write_checksummed(path, {"v": 2})  # overwrite path
        assert read_checksummed(path) == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]
