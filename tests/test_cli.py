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
                 "--durable-dir", str(tmp_path / "wal")]) == 0
    assert seen["durable_dir"] == str(tmp_path / "wal")
    assert (tmp_path / "wal" / "shard-0000").is_dir()


def test_serve_has_no_replicas_option(bundle, tmp_path, capsys):
    """A dead durable shard is respawned, so there is no standby to ask
    for."""
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--bundle", str(bundle), "--once", "--shards", "2",
              "--durable-dir", str(tmp_path / "wal"), "--replicas", "1"])
    assert exited.value.code == 2
    assert "--replicas" in capsys.readouterr().err
    assert not (tmp_path / "wal").exists()


def test_serve_has_no_fsync_window_option(tmp_path, capsys):
    """Every WAL append fsyncs before it returns, so there is no commit
    window to set."""
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--bundle", str(tmp_path), "--once",
              "--durable-dir", str(tmp_path / "wal"),
              "--fsync-window-ms", "2"])
    assert exited.value.code == 2
    assert "--fsync-window-ms" in capsys.readouterr().err
    assert not (tmp_path / "wal").exists()


def test_serve_has_no_straggler_wait_option(tmp_path, capsys):
    """The batcher never waits on a clock, so there is no knob to set."""
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--bundle", str(tmp_path), "--once",
              "--max-wait-ms", "2"])
    assert exited.value.code == 2
    assert "--max-wait-ms" in capsys.readouterr().err


def test_index_build_has_no_int8_option(bundle, tmp_path, capsys):
    """The index keeps one float32 representation: nothing to turn off."""
    with pytest.raises(SystemExit) as exited:
        main(["index", "build", "--bundle", str(bundle),
              "--out", str(tmp_path / "ivf"), "--no-int8"])
    assert exited.value.code == 2
    assert "--no-int8" in capsys.readouterr().err
    assert not (tmp_path / "ivf").exists()


def test_index_build_then_stats(bundle, tmp_path, capsys):
    import json

    assert main(["index", "build", "--bundle", str(bundle),
                 "--out", str(tmp_path / "ivf"), "--nlist", "2"]) == 0
    capsys.readouterr()
    assert main(["index", "stats", "--index", str(tmp_path / "ivf"),
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["kind"], stats["nlist"], stats["ntotal"]) == ("ivf", 2, 8)
    assert "quantize" not in stats
