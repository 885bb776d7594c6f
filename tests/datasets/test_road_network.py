"""Tests for the road-network zero-shot trajectory simulator."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.datasets import (RoadNetworkConfig, build_road_network,
                            generate_zero_shot_seeds, simulate_walks)

SRC = Path(__file__).resolve().parents[2] / "src"


def test_network_is_connected():
    graph = build_road_network(RoadNetworkConfig(grid_nodes=8), seed=0)
    assert nx.is_connected(graph)


def test_network_node_positions_within_extent():
    cfg = RoadNetworkConfig(grid_nodes=6, extent=1000.0, node_jitter=0.1)
    graph = build_road_network(cfg, seed=1)
    pos = nx.get_node_attributes(graph, "pos")
    coords = np.array(list(pos.values()))
    spacing = 1000.0 / 5
    assert coords.min() > -spacing  # jitter can push slightly past 0
    assert coords.max() < 1000.0 + spacing


def test_network_deterministic():
    a = build_road_network(RoadNetworkConfig(grid_nodes=6), seed=2)
    b = build_road_network(RoadNetworkConfig(grid_nodes=6), seed=2)
    assert sorted(a.edges) == sorted(b.edges)


def test_edges_removed_and_shortcuts_added():
    cfg = RoadNetworkConfig(grid_nodes=10, removal_fraction=0.2,
                            shortcut_fraction=0.0)
    graph = build_road_network(cfg, seed=3)
    full = nx.grid_2d_graph(10, 10)
    assert graph.number_of_edges() < full.number_of_edges()


def test_walks_count_and_lengths():
    graph = build_road_network(RoadNetworkConfig(grid_nodes=6), seed=0)
    ds = simulate_walks(graph, 20, min_points=10, max_points=30, seed=1)
    assert len(ds) == 20
    assert ds.lengths.min() >= 10 and ds.lengths.max() <= 30


def test_walks_follow_network_geometry():
    """Walk points should stay near the road graph (within noise + spacing)."""
    cfg = RoadNetworkConfig(grid_nodes=8, extent=700.0, node_jitter=0.0)
    graph = build_road_network(cfg, seed=4)
    ds = simulate_walks(graph, 5, noise_std=5.0, seed=5)
    pos = np.array(list(nx.get_node_attributes(graph, "pos").values()))
    for traj in ds:
        # Every trajectory point is within one lattice spacing of some node.
        d = np.linalg.norm(traj.points[:, None, :] - pos[None, :, :], axis=2)
        assert d.min(axis=1).max() < 100.0 + 15.0


def test_zero_shot_bundle():
    graph, seeds = generate_zero_shot_seeds(num_trajectories=12, seed=0)
    assert nx.is_connected(graph)
    assert len(seeds) == 12


def test_walks_deterministic():
    graph = build_road_network(RoadNetworkConfig(grid_nodes=5), seed=0)
    a = simulate_walks(graph, 6, seed=7)
    b = simulate_walks(graph, 6, seed=7)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.points, tb.points)


def test_repro_processes_do_not_load_networkx():
    """Only building a road network imports networkx.

    A fresh interpreter imports what the serving, ingest, shard and
    training processes import; none of them may pay for networkx.
    """
    code = ("import sys\n"
            "import repro, repro.serving, repro.streaming, repro.__main__\n"
            "print('networkx' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
