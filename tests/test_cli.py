"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_measures_command(capsys):
    assert main(["measures"]) == 0
    out = capsys.readouterr().out
    for name in ("dtw", "frechet", "hausdorff", "erp", "edr", "lcss"):
        assert name in out
    assert "non-metric" in out
    assert "metric" in out


def test_demo_command_small(capsys):
    assert main(["demo", "--size", "40", "--epochs", "1",
                 "--measure", "hausdorff"]) == 0
    out = capsys.readouterr().out
    assert "top-5 neighbours" in out


def test_experiment_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "tableX"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small trained serving bundle with probes."""
    from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
    from repro.core.store import EmbeddingStore
    from repro.serving import save_bundle

    items = list(generate_porto(PortoConfig(num_trajectories=16, min_points=8,
                                            max_points=12), seed=3))
    model = NeuTraj(NeuTrajConfig(measure="hausdorff", embedding_dim=8,
                                  epochs=1, sampling_num=3, batch_anchors=4,
                                  cell_size=500.0, seed=0))
    model.fit(items[:8])
    store = EmbeddingStore(model)
    store.add(items[8:])
    return save_bundle(tmp_path_factory.mktemp("cli") / "bundle", model,
                       store, probes=items[:2])


def test_serve_without_shards_honours_durable_dir(bundle, tmp_path,
                                                  monkeypatch):
    import repro.__main__ as cli

    seen = {}
    real_self_test = cli._self_test

    def self_test(server, service):
        seen.update(service.stats()["durability"])
        return real_self_test(server, service)

    monkeypatch.setattr(cli, "_self_test", self_test)
    assert main(["serve", "--bundle", str(bundle), "--once",
                 "--durable-dir", str(tmp_path / "wal"),
                 "--fsync-window-ms", "1.5"]) == 0
    assert seen["durable_dir"] == str(tmp_path / "wal")
    assert seen["fsync_window_ms"] == 1.5
    assert (tmp_path / "wal" / "shard-0000").is_dir()


def test_serve_refuses_replicas_without_shards(bundle, tmp_path, capsys):
    assert main(["serve", "--bundle", str(bundle), "--once",
                 "--durable-dir", str(tmp_path / "wal"),
                 "--replicas", "1"]) == 2
    assert "--shards" in capsys.readouterr().err
    assert not (tmp_path / "wal").exists()
