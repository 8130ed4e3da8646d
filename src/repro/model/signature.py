"""Canonical content-hash and checksummed-envelope helpers.

Every persisted content-addressed artifact in the repo — plan-cache
files and their keys, machine profiles — hashes through this module, so
there is exactly one definition of "same content" across processes and
builds. ``OptimizationPool.content_signature`` delegates here too. The
in-memory plan cache does not: its keys hash a few sampled indices and
compare the index arrays exactly (``repro.core.optimizer``), and it
computes :func:`matrix_fingerprint` only when it saves a key or matches
a key loaded from disk. The algorithms are **pinned** (see
``tests/model/test_signature.py``): changing any of them silently
invalidates every persisted cache, so a digest change must be a
deliberate schema bump.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

__all__ = [
    "canonical_body",
    "body_checksum",
    "matrix_fingerprint",
    "mapping_signature",
    "write_checksummed",
    "read_checksummed",
]


def canonical_body(body: dict) -> bytes:
    """Canonical byte serialization a content checksum covers.

    ``sort_keys`` + minimal separators make the digest independent of
    the pretty-printing of the envelope; Python's float repr round-trips
    through JSON exactly, so a parsed body re-canonicalizes to the same
    bytes the writer hashed.
    """
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def body_checksum(body: dict) -> str:
    """blake2b-128 hex digest of :func:`canonical_body`."""
    return hashlib.blake2b(canonical_body(body),
                           digest_size=16).hexdigest()


def matrix_fingerprint(csr) -> str:
    """Cheap structural fingerprint of a CSR matrix.

    Hashes shape, nnz and the ``rowptr``/``colind`` arrays (one linear
    pass, no numeric work) — two matrices with the same fingerprint
    have identical sparsity structure, which is all the classifiers and
    format conversions depend on. Each index array is digested together
    with its dtype string (``arr.dtype.str``, which encodes width *and*
    endianness), so an int32 and an int64 array with coincidentally
    equal bytes cannot alias and fingerprints are stable enough to key
    on-disk plans. Values are not hashed, so a matrix whose
    coefficients changed but whose structure did not reuses its plan.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(
        np.array([csr.shape[0], csr.shape[1], csr.nnz], dtype=np.int64)
    )
    for arr in (csr.rowptr, csr.colind):
        a = np.ascontiguousarray(arr)
        h.update(a.dtype.str.encode("ascii"))
        h.update(a)  # hashes the buffer in place, no copy
    return h.hexdigest()


def mapping_signature(mapping: dict, policy_fields: dict) -> str:
    """Stable content signature of a class->optimization mapping.

    The signature describes *what the mapping maps to*, not which
    object holds it: string entries contribute their name, callable
    entries their qualified function name; the policy dataclass fields
    are appended as a sorted ``k=repr(v)`` list. Two pools with
    identical mappings and policies share a signature in any process —
    unlike ``id(pool)``, which is unstable across processes and can
    collide after garbage collection reuses an address. The exact
    string format is a persisted-cache key component and therefore
    pinned by tests.
    """
    parts = []
    for key in sorted(mapping, key=lambda k: getattr(k, "value", str(k))):
        entry = mapping[key]
        label = getattr(key, "value", str(key))
        if isinstance(entry, str):
            desc = entry
        else:
            func = getattr(entry, "__func__", entry)
            module = getattr(func, "__module__", "?")
            qualname = getattr(func, "__qualname__", repr(entry))
            desc = f"callable:{module}.{qualname}"
        parts.append(f"{label}={desc}")
    policy = ",".join(
        f"{k}={v!r}" for k, v in sorted(policy_fields.items())
    )
    return ";".join(parts) + "|" + policy


def write_checksummed(path, body: dict, *, indent: int = 2) -> None:
    """Atomically write ``{"checksum", "body"}`` JSON at ``path``.

    The payload lands in a same-directory temp file that is fsynced and
    then renamed over ``path`` (``os.replace``), so a crash mid-save
    leaves either the old complete file or the new complete file —
    never a truncated hybrid, and never a stray partial (the temp file
    is removed on any write failure). The envelope carries a blake2b
    checksum of the canonicalized body so readers detect silent on-disk
    corruption. :meth:`repro.core.PlanCache.save` and
    :meth:`repro.model.MachineProfile.save` write through it.
    """
    payload = {"checksum": body_checksum(body), "body": body}
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=indent)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def read_checksummed(path) -> dict:
    """Read and verify a :func:`write_checksummed` envelope.

    Returns the verified body. Raises ``ValueError`` (with the reason)
    for anything unusable — unparseable JSON, a missing envelope, or a
    checksum mismatch — and ``FileNotFoundError`` for a missing file.
    Callers that prefer degrading to a default (the plan cache does)
    catch the ``ValueError`` themselves.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path!r}: not parseable as JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path!r}: payload is not a JSON object")
    if "checksum" not in payload or "body" not in payload:
        raise ValueError(f"{path!r}: missing checksum/body envelope")
    body = payload["body"]
    if not isinstance(body, dict):
        raise ValueError(f"{path!r}: body is not a JSON object")
    if body_checksum(body) != payload["checksum"]:
        raise ValueError(
            f"{path!r}: checksum mismatch (file corrupted on disk)"
        )
    return body
