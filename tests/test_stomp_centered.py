"""Regression pins for the mean-centered STOMP recurrence.

PR 2 centered the MASS / distance-profile / AB-join dot products but left
the STOMP *recurrence* on raw values — the last ROADMAP accuracy item.  On
a series sitting at offset 1e6 each raw recurrence step carries rounding
error of magnitude ``~eps·|T|²_max ≈ 1e-4`` that survives the
``qt → correlation`` cancellation; the measured profile drift of a full
serial sweep is ~1e-2.  Shifting the values once (the recurrence now runs
on :attr:`~repro.stats.sliding.SlidingStats.centered_values`) cuts the
error at the source — these tests pin the improvement at 1e-5 (observed
~1.6e-7) against the definition-level brute-force oracle.

Since the partial-profile store went mean-centered (PR 4), the sweep is
centered unconditionally: ``profile_callback`` and the store ingest both
receive centered dot products, and VALMOD's reported distances get the same
~1e-6 accuracy at offset 1e6 as every other path (pinned at 1e-5 below —
they used to carry ~1e-3 relative error by the old raw-value contract).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine.partition import partitioned_stomp
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.stomp import stomp
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

WINDOW = 64
OFFSET = 1e6


@pytest.fixture(scope="module")
def offset_series() -> np.ndarray:
    rng = np.random.default_rng(2018)
    return OFFSET + np.cumsum(rng.normal(size=900))


@pytest.fixture(scope="module")
def oracle(offset_series):
    return brute_force_matrix_profile(offset_series, WINDOW)


def test_serial_recurrence_drift_at_large_offset(offset_series, oracle):
    profile = stomp(offset_series, WINDOW)
    drift = float(np.max(np.abs(profile.distances - oracle.distances)))
    assert drift <= 1e-5, drift
    np.testing.assert_array_equal(profile.indices, oracle.indices)


def test_engine_recurrence_drift_at_large_offset(offset_series, oracle):
    profile = partitioned_stomp(
        offset_series, WINDOW, executor="serial", block_size=200
    )
    drift = float(np.max(np.abs(profile.distances - oracle.distances)))
    assert drift <= 1e-5, drift
    np.testing.assert_array_equal(profile.indices, oracle.indices)


@pytest.mark.parametrize("engine", [None, "serial"])
def test_session_matrix_profile_matches_flat_stomp(offset_series, engine):
    """The session adds caching, not arithmetic: its profile must equal the
    flat ``stomp`` call on the same engine bit for bit."""
    session = repro.analyze(offset_series, engine=engine)
    via_session = session.matrix_profile(WINDOW).profile()
    flat = stomp(offset_series, WINDOW, engine=engine)
    np.testing.assert_array_equal(via_session.distances, flat.distances)
    np.testing.assert_array_equal(via_session.indices, flat.indices)


def test_callback_sweep_is_centered_too(offset_series, oracle):
    """A profile_callback no longer forces the raw-value sweep: the profile
    computed alongside a callback must carry the centered accuracy."""
    with_callback = stomp(offset_series, WINDOW, profile_callback=lambda o, qt, d: None)
    drift = float(np.max(np.abs(with_callback.distances - oracle.distances)))
    assert drift <= 1e-5, drift
    np.testing.assert_array_equal(with_callback.indices, oracle.indices)


def test_callback_contract_is_centered(offset_series):
    """The callback receives mean-centered dot products — row 0 must equal
    the sliding products of the centered series exactly (and be nothing
    like the raw products, which sit ~1e13 away on this series)."""
    seen = {}

    def capture(offset, dot_products, _distances):
        if offset == 0:
            seen["qt"] = np.array(dot_products)

    stomp(offset_series, WINDOW, profile_callback=capture)
    centered_series = SlidingStats(offset_series).centered_values
    expected = sliding_dot_product(centered_series[:WINDOW], centered_series)
    np.testing.assert_allclose(seen["qt"], expected, rtol=1e-12)
    raw = sliding_dot_product(offset_series[:WINDOW], offset_series)
    assert float(np.min(np.abs(raw - seen["qt"]))) > 1e10


def test_centered_sweep_is_identical_on_well_scaled_series():
    """On an ordinary series the centering must be invisible: the profile
    still matches brute force to the library's standard tolerance."""
    values = np.cumsum(np.random.default_rng(4).standard_normal(500))
    profile = stomp(values, 32)
    oracle = brute_force_matrix_profile(values, 32)
    np.testing.assert_allclose(profile.distances, oracle.distances, atol=1e-8)
    np.testing.assert_array_equal(profile.indices, oracle.indices)


def test_valmod_finds_same_motifs_and_distances_at_large_offset(offset_series):
    """End-to-end guard: VALMOD's centered base pass discovers the same
    pairs as STOMP-range at every length — and now that the partial-profile
    store is mean-centered end-to-end, the *reported distances* agree to
    1e-6 relative as well (they used to carry ~1e-3 error from the raw
    store contract)."""
    stats = SlidingStats(offset_series)
    valmod = repro.valmod(offset_series, 48, 52, stats=stats)
    reference = repro.stomp_range(offset_series, 48, 52, stats=stats)
    for length in valmod.lengths:
        best_valmod = valmod.length_results[length].motifs[0]
        best_reference = reference.motifs_at(length)[0]
        assert {best_valmod.offset_a, best_valmod.offset_b} == {
            best_reference.offset_a,
            best_reference.offset_b,
        }, length
        np.testing.assert_allclose(
            best_valmod.distance, best_reference.distance, rtol=1e-6
        )
