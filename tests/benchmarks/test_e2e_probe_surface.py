"""Tier-1 guard for the engine and store surface the pinned e2e harness reads.

``benchmarks/e2e/probes.py`` times the engine and the sharded store from
outside, through public calls: ``make_engine()`` with its ``a_hat``,
``build_support`` and ``run_batch(bundle=)``,
``ShardedPredictor.make_engine(home_shard=0)``, ``use_transport``,
``store.shards`` and ``store.traffic.as_dict()``.  The harness runs end to
end only in the slow e2e job; this test calls its two probe functions on a
tiny system built from the shared fixtures, so a refactor that breaks that
surface fails tier-1 in seconds.  The harness is imported, never edited.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def probes():
    sys.path.insert(0, str(E2E_DIR))
    try:
        import probes
    finally:
        sys.path.remove(str(E2E_DIR))
    return probes


@pytest.fixture(scope="module")
def system(trained_nai, tiny_dataset):
    """The three things the probes read off the harness's pinned system."""
    config = trained_nai.inference_config(
        distance_threshold=trained_nai.suggest_distance_threshold(0.5)
    )
    graph, features = tiny_dataset.graph, tiny_dataset.features
    predictor = trained_nai.build_predictor(policy="distance", config=config)
    fixed = trained_nai.build_predictor(policy="none", config=config)
    return SimpleNamespace(
        dataset=tiny_dataset,
        predictor=predictor.prepare(graph, features),
        fixed=fixed.prepare(graph, features),
    )


@pytest.fixture(scope="module")
def requests(tiny_dataset):
    test_idx = np.asarray(tiny_dataset.split.test_idx)
    return [test_idx[start:start + size] for start, size in ((0, 1), (1, 5), (6, 8))]


def test_engine_probes(probes, system, requests):
    rows = probes.engine_probes(system, requests)
    assert all(np.isfinite(value) for value in rows.values())
    assert rows["graph.sampling.support_nodes"] >= np.mean([len(r) for r in requests])
    assert 0.0 < rows["graph.sampling.support_graph_share"] <= 1.0
    engine = system.predictor.make_engine()
    macs = sum(engine.run_batch(batch).macs.total for batch in requests)
    nodes = sum(len(batch) for batch in requests)
    assert rows["core.inference.macs_per_node"] == macs / nodes


def test_store_probes(probes, system, requests):
    rows = probes.store_probes(system, requests)
    assert all(np.isfinite(value) for value in rows.values())
    assert 0.0 <= rows["shard.store.remote_row_share"] <= 1.0
    # One round per BFS hop reached, one for the Â rows, one for features.
    t_max = system.predictor.config.t_max
    assert 2 < rows["transport.socket.rounds_per_batch"] <= t_max + 2
    assert rows["transport.socket.wire_kb_per_batch"] > 0.0
