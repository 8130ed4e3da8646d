"""Crash-safe plan-cache persistence: atomic saves, lenient loads.

The acceptance contract: a ``PlanCache`` file corrupted at *any* byte
offset loads as an empty cache without raising (warning + recovery
counter instead), and a failed save never leaves a partial file behind
— the previous cache file survives byte-for-byte.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import (
    AdaptiveSpMV,
    PlanCache,
    plan_cache_load_recoveries,
    reset_plan_cache_load_recoveries,
)
from repro.errors import PlanCacheWarning
from repro.machine import KNL


@pytest.fixture(autouse=True)
def _reset_recovery_counter():
    reset_plan_cache_load_recoveries()
    yield
    reset_plan_cache_load_recoveries()


@pytest.fixture
def saved_cache(small_random_csr, tmp_path):
    """A real one-entry cache file written by the atomic save path."""
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    assert opt.plan_cache.save(path) == 1
    return path


def _load_recovered(path) -> PlanCache:
    with pytest.warns(PlanCacheWarning):
        cache = PlanCache.load(path)
    assert len(cache) == 0
    assert cache.load_recovery_reason
    return cache


def test_corruption_at_every_byte_offset_loads_empty(saved_cache):
    """Zero out each byte of the file in turn: every single offset must
    degrade to an empty cache, never raise."""
    blob = saved_cache.read_bytes()
    recovered = 0
    for offset in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[offset] = 0
        saved_cache.write_bytes(bytes(corrupted))
        _load_recovered(saved_cache)
        recovered += 1
    assert plan_cache_load_recoveries() == recovered == len(blob)


def test_bitflip_corruption_is_caught_by_checksum(saved_cache):
    """A flipped character that keeps the JSON parseable is still
    rejected: the canonical-body checksum no longer matches."""
    text = saved_cache.read_text()
    # Flip one digit inside the body (setup/decision seconds floats and
    # the maxsize are all digits); find one after the checksum field.
    body_at = text.index('"body"')
    digit_at = next(
        i for i in range(body_at, len(text))
        if text[i].isdigit()
    )
    flipped = "7" if text[digit_at] != "7" else "3"
    saved_cache.write_text(
        text[:digit_at] + flipped + text[digit_at + 1:]
    )
    cache = _load_recovered(saved_cache)
    assert "checksum mismatch" in cache.load_recovery_reason


def test_truncation_at_every_tenth_loads_empty(saved_cache):
    blob = saved_cache.read_bytes()
    # len-1 would only shave the trailing newline (still a complete
    # JSON document); len-2 is the last truncation that loses data.
    cuts = [0, 1, len(blob) // 10, len(blob) // 2, len(blob) - 2]
    for cut in cuts:
        saved_cache.write_bytes(blob[:cut])
        _load_recovered(saved_cache)
    assert plan_cache_load_recoveries() == len(cuts)


def test_old_schema_v1_file_degrades_to_empty(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "maxsize": 32, "entries": []}
    ))
    cache = _load_recovered(path)
    assert "unsupported plan-cache schema" in cache.load_recovery_reason
    assert plan_cache_load_recoveries() == 1


def test_checksum_passed_but_invalid_entry_degrades(saved_cache):
    """A self-consistent file whose entries don't revive (wrong IR
    shape) still degrades instead of raising mid-serve."""
    payload = json.loads(saved_cache.read_text())
    body = payload["body"]
    body["entries"] = [{"key": ["x"], "plan": {"not": "a plan"}}]
    # Re-sign the tampered body so only entry revival can fail.
    from repro.core.optimizer import _body_checksum

    saved_cache.write_text(json.dumps(
        {"checksum": _body_checksum(body), "body": body}
    ))
    cache = _load_recovered(saved_cache)
    assert "invalid entry" in cache.load_recovery_reason


def test_strict_load_raises_instead_of_degrading(saved_cache):
    saved_cache.write_bytes(saved_cache.read_bytes()[: len("{")])
    with pytest.raises(ValueError, match="unusable"):
        PlanCache.load(saved_cache, strict=True)
    assert plan_cache_load_recoveries() == 0


def test_missing_file_still_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        PlanCache.load(tmp_path / "never-written.json")
    assert plan_cache_load_recoveries() == 0


def test_clean_roundtrip_does_not_touch_counter(saved_cache):
    cache = PlanCache.load(saved_cache)
    assert len(cache) == 1
    assert cache.load_recovery_reason is None
    assert plan_cache_load_recoveries() == 0


def test_failed_save_leaves_no_partial_file(saved_cache, monkeypatch):
    """A crash mid-write must leave the old file intact and no temp
    droppings next to it."""
    before = saved_cache.read_bytes()

    def exploding_dump(obj, fh, **kwargs):
        # Write half the payload, then die — simulating a crash with
        # the temp file partially flushed.
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise OSError("disk full (injected)")

    cache = PlanCache.load(saved_cache)
    monkeypatch.setattr(json, "dump", exploding_dump)
    with pytest.raises(OSError, match="disk full"):
        cache.save(saved_cache)
    monkeypatch.undo()
    assert saved_cache.read_bytes() == before
    assert sorted(p.name for p in saved_cache.parent.iterdir()) == [
        saved_cache.name
    ]
    # And the surviving file still loads cleanly.
    assert len(PlanCache.load(saved_cache)) == 1


def test_failed_rename_leaves_no_partial_file(saved_cache, monkeypatch):
    before = saved_cache.read_bytes()

    def exploding_replace(src, dst):
        raise OSError("rename lost a race (injected)")

    monkeypatch.setattr(os, "replace", exploding_replace)
    cache = PlanCache.load(saved_cache)
    with pytest.raises(OSError, match="rename lost a race"):
        cache.save(saved_cache)
    monkeypatch.undo()
    assert saved_cache.read_bytes() == before
    assert sorted(p.name for p in saved_cache.parent.iterdir()) == [
        saved_cache.name
    ]


def test_recovered_optimizer_replans_and_serves(small_random_csr,
                                                saved_cache, x300):
    """End to end: a corrupted cache file does not take the optimizer
    down — it replans from scratch and still serves correct numerics."""
    saved_cache.write_bytes(saved_cache.read_bytes()[:-20])
    with pytest.warns(PlanCacheWarning):
        cache = PlanCache.load(saved_cache)
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=cache)
    op = opt.optimize(small_random_csr)
    assert not op.plan.cache_hit  # the entry was lost with the file
    # Replanning is deterministic: same decision, bit-identical numerics
    # vs a never-corrupted optimizer.
    reference = AdaptiveSpMV(
        KNL, classifier="profile"
    ).optimize(small_random_csr)
    assert op.plan.kernel_name == reference.plan.kernel_name
    np.testing.assert_array_equal(op.matvec(x300),
                                  reference.matvec(x300))
