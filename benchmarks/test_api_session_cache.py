"""Warm-vs-cold speedup of the Analysis session's cross-call caching.

Measures three regimes on one series and writes them to
``BENCH_api_session.json`` at the repository root:

* **cold** — a fresh session per call: full validation, statistics and
  profile computation every time (the flat-entry-point cost model);
* **warm_state** — one session, result cache disabled: the series
  validation and ``SlidingStats`` are reused, the O(n^2) profile work is
  re-done;
* **warm_cached** — one session, repeated identical request: a cache hit.

The acceptance gate (warm_cached >= 1.3x cold) is single-core safe: it
measures cache reuse, not parallelism.  In practice the cached call is a
dictionary lookup, orders of magnitude faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.api.session import analyze
from repro.generators import generate_random_walk

SERIES_LENGTH = 4096
WINDOW = 128
MOTIF_RANGE = (64, 72)
WARM_REPEATS = 25
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_api_session.json"


def _series() -> np.ndarray:
    return np.array(generate_random_walk(SERIES_LENGTH, random_state=7).values)


def _time(callable_) -> float:
    started = time.perf_counter()
    callable_()
    return time.perf_counter() - started


def test_session_cache_speedup() -> None:
    values = _series()

    # Cold: a fresh session per call (per-call validation + stats + profile).
    cold_seconds = _time(lambda: analyze(values).matrix_profile(WINDOW))

    session = analyze(values)
    session.matrix_profile(WINDOW)  # populate state + result cache

    # Warm, result cache bypassed: shared stats/FFT state, profile re-done.
    warm_state_seconds = _time(
        lambda: session.matrix_profile(WINDOW, cache=False)
    )

    # Warm, cache hit: repeated identical request.
    started = time.perf_counter()
    for _ in range(WARM_REPEATS):
        session.matrix_profile(WINDOW)
    warm_cached_seconds = (time.perf_counter() - started) / WARM_REPEATS

    # A second computation kind through the same session, for the record.
    motifs_cold_seconds = _time(
        lambda: analyze(values).motifs(*MOTIF_RANGE, method="valmod")
    )
    motifs_warm_session = analyze(values)
    motifs_warm_session.motifs(*MOTIF_RANGE, method="valmod")
    started = time.perf_counter()
    for _ in range(WARM_REPEATS):
        motifs_warm_session.motifs(*MOTIF_RANGE, method="valmod")
    motifs_warm_cached_seconds = (time.perf_counter() - started) / WARM_REPEATS

    cached_speedup = cold_seconds / max(warm_cached_seconds, 1e-9)
    payload = {
        "series_length": SERIES_LENGTH,
        "window": WINDOW,
        "warm_repeats": WARM_REPEATS,
        "matrix_profile": {
            "cold_seconds": cold_seconds,
            "warm_state_seconds": warm_state_seconds,
            "warm_cached_seconds": warm_cached_seconds,
            "warm_state_speedup": cold_seconds / max(warm_state_seconds, 1e-9),
            "warm_cached_speedup": cached_speedup,
        },
        "motifs_valmod": {
            "range": list(MOTIF_RANGE),
            "cold_seconds": motifs_cold_seconds,
            "warm_cached_seconds": motifs_warm_cached_seconds,
            "warm_cached_speedup": motifs_cold_seconds
            / max(motifs_warm_cached_seconds, 1e-9),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance: cache reuse alone must buy >= 1.3x on repeated calls.
    assert cached_speedup >= 1.3, (
        f"warm cached speedup {cached_speedup:.2f}x below the 1.3x floor "
        f"(cold {cold_seconds:.4f}s, warm {warm_cached_seconds:.6f}s)"
    )
    # And the cached envelope is the genuine article.
    direct = analyze(values).matrix_profile(WINDOW).profile()
    cached = session.matrix_profile(WINDOW).profile()
    assert np.array_equal(direct.indices, cached.indices)
