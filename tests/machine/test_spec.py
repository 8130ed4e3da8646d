"""Unit tests for MachineSpec."""

import pytest

from repro.machine import KNC, KNL, BROADWELL


def test_derived_quantities():
    assert KNC.total_threads == 228
    assert KNL.total_threads == 272
    assert BROADWELL.total_threads == 44
    assert KNC.llc_bytes == 30 * (1 << 20)
    assert KNC.line_elems == 8


def test_bandwidth_plateaus():
    # far below LLC -> LLC bandwidth; far above -> main bandwidth
    assert KNL.bandwidth_for_working_set(1 << 20) == pytest.approx(570e9)
    assert KNL.bandwidth_for_working_set(1 << 30) == pytest.approx(395e9)


def test_bandwidth_ramp_monotone():
    lo = KNC.bandwidth_for_working_set(int(0.6 * KNC.llc_bytes))
    hi = KNC.bandwidth_for_working_set(int(0.9 * KNC.llc_bytes))
    assert KNC.bw_main_gbs * 1e9 <= hi <= lo <= KNC.bw_llc_gbs * 1e9


def test_parallel_overhead_scales_with_threads():
    assert (
        KNC.parallel_overhead_seconds(228)
        > KNC.parallel_overhead_seconds(57)
        > 0
    )


def test_with_override():
    faster = KNC.with_(freq_ghz=2.0)
    assert faster.freq_ghz == 2.0
    assert faster.cores == KNC.cores
    assert KNC.freq_ghz == 1.10  # original untouched


def test_validation_rejects_nonpositive():
    with pytest.raises(ValueError):
        KNC.with_(cores=0)
    with pytest.raises(ValueError):
        KNC.with_(mlp=-1.0)


def test_validation_prefetch_fraction():
    with pytest.raises(ValueError):
        KNC.with_(hw_prefetch_eff=1.5)


def test_specs_are_frozen():
    with pytest.raises(AttributeError):
        KNC.cores = 100
