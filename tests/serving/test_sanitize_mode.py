"""Sanitize-mode boundary: repair-with-report instead of rejection.

Strict mode (the default, covered by the existing serving tests) turns
dirty queries into 400s. These tests flip ``ServingConfig.sanitize`` on
and assert dirty queries — teleport spikes, duplicate runs, NaN rows,
out-of-grid points — are answered with accurate per-response quality
reports, correct metrics, and top-k results that match querying with the
hand-cleaned trajectory.
"""

import numpy as np
import pytest

from repro.dataquality import SanitizeConfig
from repro.exceptions import InvalidTrajectoryError
from repro.serving import ServingConfig, SimilarityService


def _dirty_variant(points):
    """Spike + duplicate + NaN row, all repairable."""
    dirty = np.asarray(points, dtype=np.float64).copy()
    dirty = np.insert(dirty, 2, dirty[2], axis=0)          # duplicate
    dirty = np.insert(dirty, 4, [np.nan, np.nan], axis=0)  # dropout row
    span = float(np.abs(dirty[np.isfinite(dirty)]).max()) + 1.0
    dirty = np.insert(dirty, 1, dirty[1] + span * 1e5, axis=0)  # teleport
    return dirty


@pytest.fixture
def sanitizing_service(serving_world, fresh_store):
    model, _ = serving_world
    config = ServingConfig(sanitize=True)
    with SimilarityService(model, fresh_store, config=config) as service:
        yield service


@pytest.fixture
def strict_service(serving_world, fresh_store):
    model, _ = serving_world
    with SimilarityService(model, fresh_store,
                           config=ServingConfig()) as service:
        yield service


class TestSanitizeModeAnswers:
    def test_clean_query_passes_with_clean_report(self, sanitizing_service,
                                                  serving_world):
        _, items = serving_world
        result = sanitizing_service.top_k(items[16], k=3)
        assert len(result.ids) == 3
        assert result.quality is not None
        assert result.quality["action"] == "pass"
        assert result.quality["spikes_removed"] == 0

    def test_dirty_query_is_repaired_and_answers_match_clean(
            self, sanitizing_service, serving_world):
        _, items = serving_world
        clean = np.asarray(items[17].points, dtype=np.float64)
        dirty = _dirty_variant(clean)
        with pytest.raises(InvalidTrajectoryError):
            # Sanity: strict validation would refuse this input.
            from repro.datasets import Trajectory
            Trajectory(dirty)
        result = sanitizing_service.top_k(dirty, k=5, use_cache=False)
        baseline = sanitizing_service.top_k(clean, k=5, use_cache=False)
        assert result.ids == baseline.ids
        q = result.quality
        assert q["action"] == "repaired"
        assert q["nonfinite_dropped"] == 1
        assert q["duplicates_collapsed"] >= 1
        assert q["spikes_removed"] >= 1

    def test_out_of_grid_points_are_clamped(self, sanitizing_service,
                                            serving_world):
        model, items = serving_world
        xmin, ymin, xmax, ymax = model.encoder.grid.bbox
        dirty = np.asarray(items[18].points, dtype=np.float64).copy()
        dirty[0] = [xmax + (xmax - xmin), ymax + (ymax - ymin)]
        result = sanitizing_service.top_k(dirty, k=2, use_cache=False)
        assert result.quality["clamped_points"] >= 1
        assert result.quality["action"] == "repaired"

    def test_unrepairable_query_still_rejected(self, sanitizing_service):
        with pytest.raises(InvalidTrajectoryError):
            sanitizing_service.top_k(np.full((3, 2), np.nan), k=1)
        snapshot = sanitizing_service.registry.snapshot()
        assert snapshot["repro_sanitize_rejected_total"] == 1

    def test_metrics_count_repairs(self, sanitizing_service, serving_world):
        _, items = serving_world
        sanitizing_service.top_k(items[16], k=1)            # clean
        sanitizing_service.top_k(
            _dirty_variant(items[17].points), k=1)           # repaired
        counters = sanitizing_service.registry.snapshot()
        assert counters["repro_sanitize_repaired_total"] == 1
        assert counters.get("repro_sanitize_rejected_total", 0) == 0

    def test_cache_hit_still_reports_quality(self, sanitizing_service,
                                             serving_world):
        _, items = serving_world
        dirty = _dirty_variant(items[19].points)
        first = sanitizing_service.top_k(dirty, k=2)
        second = sanitizing_service.top_k(dirty, k=2)
        assert not first.cached and second.cached
        assert second.quality == first.quality
        assert second.quality["action"] == "repaired"

    def test_insert_sanitizes(self, sanitizing_service, serving_world):
        _, items = serving_world
        before = len(sanitizing_service.store)
        ids = sanitizing_service.insert([_dirty_variant(items[16].points)])
        assert len(ids) == 1
        assert len(sanitizing_service.store) == before + 1

    def test_stats_flag(self, sanitizing_service, strict_service):
        assert sanitizing_service.stats()["sanitize_mode"] is True
        assert strict_service.stats()["sanitize_mode"] is False


class TestStrictModeUnchanged:
    def test_dirty_query_rejected_without_sanitize(self, strict_service,
                                                   serving_world):
        _, items = serving_world
        with pytest.raises(InvalidTrajectoryError):
            strict_service.top_k(_dirty_variant(items[17].points), k=1)

    def test_quality_absent_in_strict_mode(self, strict_service,
                                           serving_world):
        _, items = serving_world
        result = strict_service.top_k(items[16], k=2)
        assert result.quality is None
        assert result.to_json()["quality"] is None


class TestExplicitConfig:
    def test_custom_sanitize_config_is_used(self, serving_world, fresh_store):
        model, items = serving_world
        config = ServingConfig(
            sanitize=True,
            sanitize_config=SanitizeConfig(max_jump=None, dup_epsilon=None))
        with SimilarityService(model, fresh_store, config=config) as service:
            # bbox is grafted from the grid even onto an explicit config.
            assert service._sanitize_config.bbox == model.encoder.grid.bbox
            dirty = np.asarray(items[16].points, dtype=np.float64).copy()
            dirty = np.insert(dirty, 1, dirty[1], axis=0)
            result = service.top_k(dirty, k=1, use_cache=False)
            # dup collapse disabled -> duplicates survive untouched.
            assert result.quality["duplicates_collapsed"] == 0
            assert result.quality["action"] == "pass"
