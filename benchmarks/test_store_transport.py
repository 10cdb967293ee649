"""Transport cost of the content-addressed series store.

One regime lands in ``BENCH_store.json`` at the repository root:

* **service transport** — the first request for a series (digest probe +
  ``PUT /series`` upload + retry) against a digest-only repeat request:
  wall-clock and, more tellingly, the bytes put on the wire (~8 bytes per
  point cold, a constant ~200 bytes warm, whatever the series length).

Wall-clock figures are recorded, not asserted (a loaded single-core CI box
makes timing assertions flaky); byte counts are exact and assert
everywhere.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.api.requests import AnalysisRequest
from repro.service import BackgroundService, ServiceClient, ServiceConfig

SERIES_LENGTH = 8192
WINDOW = 128
REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def test_service_digest_transport_vs_upload(tmp_path) -> None:
    values = np.cumsum(np.random.default_rng(29).standard_normal(SERIES_LENGTH))
    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store")
    with BackgroundService(config) as background:
        client = ServiceClient(port=background.port, timeout=300)
        wire_bytes = {"cold": 0, "warm": 0}
        phase = "cold"
        original = client._exchange

        def metering(method, path, body=None, **kwargs):
            wire_bytes[phase] += 0 if body is None else len(body)
            return original(method, path, body, **kwargs)

        client._exchange = metering

        started = time.perf_counter()
        client.analyze(
            values, AnalysisRequest(kind="matrix_profile", params={"window": WINDOW})
        )
        cold_seconds = time.perf_counter() - started

        phase = "warm"
        warm_samples = []
        for repeat in range(REPEATS):
            # A fresh window each time: the digest-only request must
            # *compute* (this measures transport, not the result cache).
            request = AnalysisRequest(
                kind="matrix_profile", params={"window": WINDOW + repeat + 1}
            )
            started = time.perf_counter()
            _, source = client.analyze(values, request)
            warm_samples.append(time.perf_counter() - started)
            assert source == "computed"
        warm_seconds = sum(warm_samples) / len(warm_samples)
        warm_bytes = wire_bytes["warm"] / REPEATS
        client.close()

    # Deterministic gates: the digest-only request ships a constant few
    # hundred bytes; the cold path shipped the full series once.
    assert wire_bytes["cold"] >= SERIES_LENGTH * 8
    assert warm_bytes < 1024

    payload = {
        "series_length": SERIES_LENGTH,
        "window": WINDOW,
        "effective_cores": _effective_cores(),
        "service_transport": {
            "cold_upload_seconds": cold_seconds,
            "digest_only_seconds": warm_seconds,
            "cold_wire_bytes": wire_bytes["cold"],
            "digest_only_wire_bytes": warm_bytes,
            "wire_bytes_ratio": wire_bytes["cold"] / max(warm_bytes, 1.0),
            "repeats": REPEATS,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
