"""Session behaviour: normalisation, shared state, result cache, engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.requests import AnalysisRequest
from repro.api.session import Analysis, EngineConfig, analyze
from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.matrix_profile.stomp import stomp
from repro.series.dataseries import DataSeries
from repro.stats.sliding import SlidingStats


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(17)
    return np.cumsum(rng.standard_normal(300))


class TestNormalisation:
    """repro.analyze accepts DataSeries, ndarray and plain lists uniformly."""

    def test_all_input_forms_agree(self, values):
        as_array = analyze(values)
        as_list = analyze(values.tolist())
        as_series = analyze(DataSeries(values, name="walk"))
        profiles = [
            session.matrix_profile(24).profile()
            for session in (as_array, as_list, as_series)
        ]
        for profile in profiles[1:]:
            np.testing.assert_array_equal(profiles[0].distances, profile.distances)

    def test_dataseries_name_is_kept(self, values):
        session = analyze(DataSeries(values, name="walk"))
        assert session.name == "walk"
        assert session.matrix_profile(16).series_name == "walk"

    def test_name_override(self, values):
        assert analyze(values, name="renamed").name == "renamed"

    def test_invalid_series_fails_at_construction(self):
        with pytest.raises(InvalidSeriesError):
            analyze([1.0, float("nan"), 2.0])
        with pytest.raises(InvalidSeriesError):
            analyze([[1.0, 2.0], [3.0, 4.0]])

    def test_values_are_read_only(self, values):
        session = analyze(values)
        with pytest.raises(ValueError):
            session.values[0] = 123.0


class TestSharedState:
    def test_stats_object_identity_across_calls(self, values):
        """One SlidingStats instance serves every computation of the session."""
        session = analyze(values)
        first = session.stats
        session.matrix_profile(24)
        session.matrix_profile(32, algo="scrimp", random_state=0)
        session.motifs(16, 20, method="stomp_range")
        session.discords(16, 24, k=1)
        assert session.stats is first

    def test_sliding_stats_constructed_once(self, values, monkeypatch):
        created = []
        real_init = SlidingStats.__init__

        def counting_init(self, series):
            created.append(1)
            real_init(self, series)

        monkeypatch.setattr(SlidingStats, "__init__", counting_init)
        session = analyze(values)
        session.matrix_profile(24)
        session.matrix_profile(28, cache=False)
        session.motifs(16, 20, method="stomp_range")
        assert len(created) == 1


class TestResultCache:
    def test_repeat_call_returns_cached_envelope(self, values):
        session = analyze(values)
        first = session.matrix_profile(24)
        second = session.matrix_profile(24)
        assert second is first
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["entries"] == 1

    def test_cache_key_distinguishes_parameters(self, values):
        session = analyze(values)
        assert session.matrix_profile(24) is not session.matrix_profile(32)
        assert session.matrix_profile(24) is not session.matrix_profile(
            24, algo="scrimp", random_state=0
        )
        assert session.motifs(16, 20) is not session.motifs(16, 20, top_k=5)

    def test_cache_false_recomputes(self, values):
        session = analyze(values)
        first = session.matrix_profile(24, cache=False)
        second = session.matrix_profile(24, cache=False)
        assert second is not first
        np.testing.assert_array_equal(
            first.profile().distances, second.profile().distances
        )

    def test_clear_cache(self, values):
        session = analyze(values)
        session.matrix_profile(24)
        session.clear_cache()
        info = session.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["entries"] == 0 and info["bytes"] == 0

    def test_cached_result_matches_direct_call(self, values):
        session = analyze(values)
        for _ in range(2):
            envelope = session.matrix_profile(24)
            reference = stomp(values, 24)
            np.testing.assert_array_equal(
                envelope.profile().distances, reference.distances
            )

    def test_ab_join_and_mpdist_cache_against_other_series(self, values):
        session = analyze(values)
        other = analyze(np.cumsum(np.random.default_rng(3).standard_normal(200)))
        first = session.ab_join(other, 24)
        assert session.ab_join(other, 24) is first
        d1 = session.mpdist(other, 24)
        assert session.mpdist(other, 24) is d1
        assert isinstance(d1.value, float)


class TestEngineConfig:
    def test_session_carries_one_engine_config(self, values):
        config = EngineConfig(executor="serial", block_size=64)
        session = analyze(values, engine=config)
        assert session.engine is config
        engine_profile = session.matrix_profile(24).profile()
        plain = stomp(values, 24)
        assert np.array_equal(engine_profile.indices, plain.indices)
        np.testing.assert_allclose(
            engine_profile.distances, plain.distances, atol=1e-8
        )

    def test_string_shorthand(self, values):
        session = analyze(values, engine="serial")
        assert session.engine.enabled
        assert session.engine.executor == "serial"

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidParameterError):
            EngineConfig(executor="gpu")
        with pytest.raises(InvalidParameterError):
            EngineConfig(n_jobs=0)
        with pytest.raises(InvalidParameterError):
            EngineConfig(block_size=0)

    def test_round_trip(self):
        config = EngineConfig(executor="parallel", n_jobs=2, block_size=128)
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_engine_routed_motifs_match_plain(self, values):
        plain = analyze(values).motifs(16, 20, method="valmod")
        routed = analyze(values, engine="serial").motifs(16, 20, method="valmod")
        assert plain.best_motif().offsets == routed.best_motif().offsets


class TestRunMany:
    def test_batch_matches_individual_runs(self, values):
        requests = [
            AnalysisRequest(kind="matrix_profile", params={"window": window})
            for window in (16, 24, 32)
        ] + [
            AnalysisRequest(
                kind="motifs", algo="stomp_range",
                params={"min_length": 16, "max_length": 18},
            )
        ]
        session = analyze(values, engine="serial")
        results = session.run_many(requests)
        assert [r.kind for r in results] == [
            "matrix_profile",
            "matrix_profile",
            "matrix_profile",
            "motifs",
        ]
        for window, result in zip((16, 24, 32), results):
            reference = stomp(values, window)
            assert np.array_equal(result.profile().indices, reference.indices)
            np.testing.assert_allclose(
                result.profile().distances, reference.distances, atol=1e-8
            )

    def test_batch_results_land_in_the_cache(self, values):
        session = analyze(values)
        requests = [
            AnalysisRequest(kind="matrix_profile", params={"window": w})
            for w in (16, 24)
        ]
        session.run_many(requests)
        assert session.cache_info()["entries"] == 2
        assert session.matrix_profile(16) is not None
        assert session.cache_info()["hits"] == 1

    def test_rejects_non_requests(self, values):
        with pytest.raises(InvalidParameterError):
            analyze(values).run_many([object()])

    def test_run_rejects_non_request(self, values):
        with pytest.raises(InvalidParameterError):
            analyze(values).run({"kind": "matrix_profile"})


class TestAnalysisAsJoinOperand:
    def test_other_session_statistics_are_reused(self, values):
        session = analyze(values)
        other = analyze(np.cumsum(np.random.default_rng(4).standard_normal(150)))
        other_stats = other.stats
        session.ab_join(other, 24)
        assert other.stats is other_stats

    def test_plain_list_as_other(self, values):
        session = analyze(values)
        other = np.cumsum(np.random.default_rng(4).standard_normal(150))
        join_list = session.ab_join(other.tolist(), 24).value
        join_array = session.ab_join(other, 24).value
        np.testing.assert_array_equal(join_list.distances, join_array.distances)
