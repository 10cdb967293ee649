"""Service-layer substrate: protocol, concurrency, ordering, backpressure.

Single-core safe by design: the concurrency tests assert **correctness and
queue ordering** (every concurrent client gets the right answer; with one
worker the completion order is the enqueue order), never parallel speedup.
Backpressure is exercised deterministically by parking a synthetic
registry algorithm on an event and filling the bounded queue behind it.
"""

from __future__ import annotations

import json
import logging
import threading
import time

import numpy as np
import pytest

import repro
from repro.api.cache import CacheConfig
from repro.api.registry import AlgorithmSpec, register, unregister
from repro.api.requests import AnalysisRequest
from repro.cli import main as cli_main
from repro.exceptions import InvalidParameterError, ServiceError
from repro.harness.runner import compare_algorithms
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceConfig,
    parse_service_url,
)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(23).standard_normal(400))


@pytest.fixture(scope="module")
def service():
    with BackgroundService(ServiceConfig(port=0, workers=1, backlog=32)) as background:
        yield background


@pytest.fixture(scope="module")
def client(service) -> ServiceClient:
    return ServiceClient(port=service.port)


def _mp_request(window: int) -> AnalysisRequest:
    return AnalysisRequest(kind="matrix_profile", params={"window": window})


# --------------------------------------------------------------------- #
# protocol surface
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1 and health["backlog"] == 32

    def test_capabilities_mirror_the_registry(self, client):
        listed = {(entry["kind"], entry["key"]) for entry in client.capabilities()}
        local = {(entry["kind"], entry["key"]) for entry in repro.api.capabilities()}
        assert listed == local

    def test_analyze_round_trip_matches_direct_session(self, client, values):
        served, source = client.analyze(values, _mp_request(48))
        assert source == "computed"
        direct = repro.analyze(values).matrix_profile(48).profile()
        np.testing.assert_allclose(served.profile().distances, direct.distances)
        np.testing.assert_array_equal(served.profile().indices, direct.indices)

    def test_repeated_request_hits_the_session_cache(self, client, values):
        client.analyze(values, _mp_request(52))
        _, source = client.analyze(values, _mp_request(52))
        assert source == "memory"

    def test_alias_spelling_shares_the_cache_slot(self, client, values):
        client.analyze(
            values,
            AnalysisRequest(
                kind="motifs", algo="stomp_range", params={"min_length": 16, "max_length": 18}
            ),
        )
        _, source = client.analyze(
            values,
            AnalysisRequest(
                kind="motifs", algo="stomp-range", params={"min_length": 16, "max_length": 18}
            ),
        )
        assert source == "memory"

    def test_dataseries_submission_carries_the_name(self, client):
        series = repro.DataSeries(
            np.cumsum(np.random.default_rng(5).standard_normal(200)), name="labelled"
        )
        served, _ = client.analyze(series, _mp_request(24))
        assert served.series_name == "labelled"

    def test_bad_json_body_is_400(self, client, values):
        status, payload = client._exchange("POST", "/analyze", b"{ nope")
        assert status == 400 and "JSON" in payload["error"]

    def test_missing_series_is_400(self, client):
        body = json.dumps({"request": {"kind": "matrix_profile"}}).encode()
        status, payload = client._exchange("POST", "/analyze", body)
        assert status == 400 and "series" in payload["error"]

    def test_malformed_params_shape_is_400_not_dropped_connection(
        self, client, values
    ):
        # params as a list used to raise an uncaught ValueError inside the
        # handler and drop the connection; it must answer 400.
        status, payload = client.analyze_raw(
            values, {"kind": "matrix_profile", "params": [1, 2]}
        )
        assert status in (400, 422) and "error" in payload

    def test_unknown_kind_is_422(self, client, values):
        status, payload = client.analyze_raw(values, {"kind": "nope", "params": {}})
        assert status == 422 and "unknown analysis kind" in payload["error"]

    def test_invalid_window_is_422(self, client, values):
        status, payload = client.analyze_raw(values, _mp_request(10_000))
        assert status == 422

    def test_unknown_path_is_404_and_wrong_method_is_405(self, client):
        status, _ = client._exchange("GET", "/nothing")
        assert status == 404
        status, _ = client._exchange("GET", "/analyze")
        assert status == 405

    def test_url_parsing(self):
        assert parse_service_url("http://localhost:8765") == ("localhost", 8765)
        assert parse_service_url("127.0.0.1:90") == ("127.0.0.1", 90)
        assert parse_service_url("http://host") == ("host", 80)
        with pytest.raises(ServiceError):
            parse_service_url("https://host:1")
        with pytest.raises(ServiceError):
            parse_service_url("http://host:1/path")

    def test_client_raises_service_error_when_nothing_listens(self, values):
        lonely = ServiceClient(port=1, timeout=2)
        with pytest.raises(ServiceError):
            lonely.health()


# --------------------------------------------------------------------- #
# concurrency and ordering
# --------------------------------------------------------------------- #
class TestConcurrency:
    def test_concurrent_clients_all_get_correct_results(self, service, values):
        windows = [20 + 2 * i for i in range(8)]
        outcomes: dict[int, tuple] = {}
        errors: list = []

        def post(window: int) -> None:
            try:
                local = ServiceClient(port=service.port)
                outcomes[window] = local.analyze(values, _mp_request(window))
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=post, args=(w,)) for w in windows]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert sorted(outcomes) == windows
        session = repro.analyze(values)
        for window in windows:
            served, _source = outcomes[window]
            direct = session.matrix_profile(window).profile()
            np.testing.assert_allclose(served.profile().distances, direct.distances)

    def test_single_worker_completion_order_is_enqueue_order(self, service, client):
        order = client.stats()["completion_order"]
        assert order == sorted(order)

    def test_queue_is_fifo_under_backpressure(self, values):
        """Deterministic ordering: park the worker, queue three distinct
        requests, release — they must complete in enqueue order."""
        release = threading.Event()

        def blocking_runner(session, **params):
            release.wait(timeout=60)
            return float(params.get("tag", 0))

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_blocking",
                runner=blocking_runner,
                description="test-only parked runner",
            )
        )
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=1, backlog=8)
            ) as background:
                local = ServiceClient(port=background.port, timeout=120)
                results: dict[int, float] = {}

                def post(tag: int) -> None:
                    # ServiceClient keeps one HTTP connection alive and is
                    # not thread-safe; each thread needs its own (the main
                    # thread polls ``local.stats()`` while these are parked).
                    client = ServiceClient(port=background.port, timeout=120)
                    envelope, _ = client.analyze(
                        values,
                        AnalysisRequest(
                            kind="mpdist", algo="_test_blocking", params={"tag": tag}
                        ),
                    )
                    results[tag] = envelope.payload

                threads = []
                for tag in (1, 2, 3):
                    thread = threading.Thread(target=post, args=(tag,))
                    thread.start()
                    threads.append(thread)
                    # Enqueue strictly one at a time so the expected FIFO
                    # order is well-defined.
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        stats = local.stats()
                        if stats["received"] >= tag:
                            break
                        time.sleep(0.01)
                release.set()
                for thread in threads:
                    thread.join(timeout=120)
                assert results == {1: 1.0, 2: 2.0, 3: 3.0}
                order = local.stats()["completion_order"]
                assert order == sorted(order)
        finally:
            unregister("mpdist", "_test_blocking")

    def test_full_queue_answers_503(self, values):
        release = threading.Event()
        entered = threading.Event()

        def blocking_runner(session, **params):
            entered.set()
            release.wait(timeout=60)
            return 0.0

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_backpressure",
                runner=blocking_runner,
                description="test-only parked runner",
            )
        )
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=1, backlog=2)
            ) as background:
                local = ServiceClient(port=background.port, timeout=120)

                def post(tag: int) -> None:
                    # Per-thread client: see test_queue_is_fifo_under_backpressure.
                    client = ServiceClient(port=background.port, timeout=120)
                    client.analyze(
                        values,
                        AnalysisRequest(
                            kind="mpdist",
                            algo="_test_backpressure",
                            params={"tag": tag},
                        ),
                    )

                threads = [
                    threading.Thread(target=post, args=(tag,)) for tag in range(3)
                ]
                threads[0].start()
                assert entered.wait(timeout=30)  # worker busy, queue empty
                for thread in threads[1:]:
                    thread.start()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if local.health()["queue_depth"] >= 2:
                        break
                    time.sleep(0.01)
                assert local.health()["queue_depth"] == 2  # backlog full
                status, payload = local.analyze_raw(
                    values,
                    AnalysisRequest(
                        kind="mpdist", algo="_test_backpressure", params={"tag": 99}
                    ),
                )
                assert status == 503 and "queue is full" in payload["error"]
                release.set()
                for thread in threads:
                    thread.join(timeout=120)
                stats = local.stats()
                assert stats["rejected"] == 1 and stats["completed"] == 3
        finally:
            unregister("mpdist", "_test_backpressure")


def test_unregister_restores_the_displaced_default():
    """Installing a test algorithm as a kind's default and removing it must
    restore the previous default, not promote an arbitrary survivor."""
    from repro.api.registry import resolve_algorithm

    previous = resolve_algorithm("matrix_profile", None).key
    register(
        AlgorithmSpec(
            kind="matrix_profile",
            key="_test_default",
            runner=lambda session, **params: 0.0,
            description="test-only default",
        ),
        default=True,
    )
    try:
        assert resolve_algorithm("matrix_profile", None).key == "_test_default"
    finally:
        unregister("matrix_profile", "_test_default")
    assert resolve_algorithm("matrix_profile", None).key == previous


# --------------------------------------------------------------------- #
# persistence through the service
# --------------------------------------------------------------------- #
def test_fresh_service_gets_persistent_hit(values, tmp_path):
    config = lambda: ServiceConfig(  # noqa: E731 - two identical configs
        port=0, cache=CacheConfig(persist_dir=tmp_path / "spill")
    )
    request = _mp_request(40)
    with BackgroundService(config()) as first:
        served, source = ServiceClient(port=first.port).analyze(values, request)
        assert source == "computed"
    with BackgroundService(config()) as second:
        revived, source = ServiceClient(port=second.port).analyze(values, request)
        assert source == "persistent"
    np.testing.assert_allclose(
        revived.profile().distances, served.profile().distances
    )


# --------------------------------------------------------------------- #
# CLI and harness integration
# --------------------------------------------------------------------- #
def test_cli_request_round_trip(service, capsys):
    exit_code = cli_main(
        [
            "request",
            "--url",
            f"http://127.0.0.1:{service.port}",
            "--workload",
            "ecg",
            "--length",
            "512",
            "--kind",
            "matrix_profile",
            "--params",
            '{"window": 48}',
        ]
    )
    assert exit_code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["payload_type"] == "matrix_profile"
    assert document["cache"] in ("computed", "memory", "persistent")
    assert len(document["payload"]["distances"]) == 512 - 48 + 1


def test_cli_request_rejects_bad_params(service):
    with pytest.raises(InvalidParameterError):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "request",
                "--url",
                f"http://127.0.0.1:{service.port}",
                "--workload",
                "ecg",
                "--kind",
                "matrix_profile",
                "--params",
                "not-json",
            ]
        )
        from repro.cli import _command_request

        _command_request(args)


def test_cli_serve_parser_accepts_service_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--backlog",
            "16",
            "--cache-entries",
            "8",
            "--cache-bytes",
            "1000000",
            "--cache-dir",
            "/tmp/spill",
        ]
    )
    assert args.command == "serve"
    assert args.workers == 2 and args.backlog == 16 and args.cache_dir == "/tmp/spill"


def test_harness_service_backed_mode_matches_in_process(service, values):
    in_process = compare_algorithms(
        values, 16, 18, algorithms=("valmod", "stomp-range")
    )
    service_backed = compare_algorithms(
        values,
        16,
        18,
        algorithms=("valmod", "stomp-range"),
        service_url=f"http://127.0.0.1:{service.port}",
    )
    for local, remote in zip(in_process, service_backed):
        assert local.algorithm == remote.algorithm
        best_local, best_remote = local.best_overall(), remote.best_overall()
        assert best_local.window == best_remote.window
        assert {best_local.offset_a, best_local.offset_b} == {
            best_remote.offset_a,
            best_remote.offset_b,
        }
        np.testing.assert_allclose(
            best_local.distance, best_remote.distance, atol=1e-8
        )


# --------------------------------------------------------------------- #
# shutdown
# --------------------------------------------------------------------- #
def test_stop_with_idle_keepalive_connection_logs_no_error(values, caplog):
    """Leaving the service while a client still holds its kept-alive
    socket must end that connection's handler cleanly — a handler left to
    the loop teardown is cancelled, and asyncio logs a CancelledError
    traceback for it."""
    caplog.set_level(logging.ERROR)
    with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
        client = ServiceClient(port=background.port)
        client.analyze(values, _mp_request(24))
    client.close()
    errors = [
        record
        for record in caplog.records
        if record.levelno >= logging.ERROR
        and record.name.split(".")[0] in ("asyncio", "repro")
    ]
    assert errors == [], [record.getMessage() for record in errors]


def test_exit_warns_when_the_service_thread_outlives_the_join(monkeypatch):
    background = BackgroundService(ServiceConfig(port=0, workers=1))
    with pytest.warns(RuntimeWarning, match="repro-background-service"):
        with background:
            thread = background._thread
            monkeypatch.setattr(thread, "join", lambda timeout=None: None)
            monkeypatch.setattr(thread, "is_alive", lambda: True)
    monkeypatch.undo()
    thread.join(timeout=30)
    assert not thread.is_alive()
