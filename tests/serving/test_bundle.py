"""Tests for the versioned on-disk serving bundle."""

import json

import numpy as np
import pytest

from repro import NeuTraj, NeuTrajConfig
from repro.core.store import EmbeddingStore
from repro.exceptions import CorruptArtifactError
from repro.serving import BUNDLE_SCHEMA, load_bundle, save_bundle
from repro.serving.bundle import MANIFEST_NAME, MODEL_FILE, STORE_FILE


def test_roundtrip_model_store_probes(serving_world, fresh_store, tmp_path):
    model, items = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store, probes=items[:3],
                       metadata={"note": "hello"})
    bundle = load_bundle(path)
    assert len(bundle.store) == len(fresh_store)
    assert bundle.store.ids == fresh_store.ids
    assert bundle.store.next_id == fresh_store.next_id
    assert bundle.embedding_dim == model.config.embedding_dim
    assert bundle.measure == model.config.measure
    assert [p.points.tolist() for p in bundle.probes] == \
           [p.points.tolist() for p in items[:3]]
    assert bundle.manifest["user_metadata"] == {"note": "hello"}
    # The restored model answers queries identically to the original.
    ids_a, dist_a = fresh_store.query(items[0], k=5)
    ids_b, dist_b = bundle.store.query(items[0], k=5)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_allclose(dist_a, dist_b, atol=1e-12)


def test_manifest_contents(serving_world, fresh_store, tmp_path):
    model, items = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store, probes=items[:2])
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["schema"] == BUNDLE_SCHEMA
    assert manifest["model_class"] == "NeuTraj"
    assert manifest["embedding_dim"] == model.config.embedding_dim
    assert manifest["measure"] == model.config.measure
    assert manifest["store"]["count"] == len(fresh_store)
    assert manifest["store"]["next_id"] == fresh_store.next_id
    assert manifest["num_probes"] == 2
    for meta in manifest["files"].values():
        assert len(meta["sha256"]) == 64
        assert meta["bytes"] > 0


def test_bundle_without_store_loads_empty(serving_world, tmp_path):
    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model)
    bundle = load_bundle(path)
    assert len(bundle.store) == 0
    assert bundle.probes == []


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(CorruptArtifactError, match="MANIFEST"):
        load_bundle(tmp_path)


def test_unknown_schema_rejected(serving_world, fresh_store, tmp_path):
    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = "repro.bundle.v999"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifactError, match="schema"):
        load_bundle(path)


def test_unknown_model_class_rejected(serving_world, fresh_store, tmp_path):
    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["model_class"] = "EvilModel"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifactError, match="model class"):
        load_bundle(path)


def test_missing_artifact_detected(serving_world, fresh_store, tmp_path):
    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    (path / MODEL_FILE).unlink()
    with pytest.raises(CorruptArtifactError, match="missing"):
        load_bundle(path)


def test_unfitted_model_rejected(tmp_path):
    from repro.exceptions import NotFittedError
    with pytest.raises(NotFittedError):
        save_bundle(tmp_path / "b", NeuTraj(NeuTrajConfig()))


def test_save_is_overwrite_safe(serving_world, fresh_store, tmp_path):
    """Saving twice into the same directory leaves a consistent bundle."""
    model, items = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    fresh_store.add(items[16:18])
    save_bundle(path, model, fresh_store)
    bundle = load_bundle(path)
    assert len(bundle.store) == len(fresh_store)
    assert bundle.manifest["store"]["count"] == len(fresh_store)


# ------------------------------------------------------ corruption injection

@pytest.mark.faults
@pytest.mark.parametrize("mode", ["flip", "truncate", "zero"])
@pytest.mark.parametrize("victim", [MODEL_FILE, STORE_FILE])
def test_verified_load_catches_any_byte_corruption(serving_world, fresh_store,
                                                   tmp_path, mode, victim):
    from repro.testing import CorruptionSpec

    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    CorruptionSpec(mode=mode, length=16).apply(path / victim)
    with pytest.raises(CorruptArtifactError, match=victim):
        load_bundle(path)


def test_v1_bundle_is_refused_with_a_re_export_hint(
        serving_world, fresh_store, tmp_path):
    """A ``repro.bundle.v1`` bundle may hold a pickled model file: it is
    refused at the manifest, before any payload is opened."""
    model, _ = serving_world
    path = save_bundle(tmp_path / "b", model, fresh_store)
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = "repro.bundle.v1"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifactError, match="re-export"):
        load_bundle(path)
