"""Unit tests for the metrics registry, its collectors and sample mappings."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry, prometheus_text, transport_traffic_samples
from repro.obs.registry import counter, gauge


def _registry(*samples, help_texts=None):
    registry = MetricsRegistry()
    registry.register(lambda: list(samples), help_texts=help_texts)
    return registry


class TestRegistry:
    def test_collectors_are_read_at_every_scrape(self):
        total = {"rows": 1}
        registry = MetricsRegistry()
        registry.register(lambda: [counter("rows_total", total["rows"])])
        assert registry.snapshot() == {"rows_total": 1.0}
        total["rows"] = 5
        assert registry.snapshot() == {"rows_total": 5.0}

    def test_a_series_the_collector_stops_returning_disappears(self):
        shards = {"0": 3, "1": 4}
        registry = MetricsRegistry()
        registry.register(
            lambda: [counter("rows_total", n, shard=s) for s, n in shards.items()]
        )
        assert "rows_total{shard=1}" in registry.snapshot()
        del shards["1"]
        assert registry.snapshot() == {"rows_total{shard=0}": 3.0}

    def test_collect_sorts_across_collectors(self):
        registry = MetricsRegistry()
        registry.register(lambda: [gauge("b", 1), counter("a_total", 2, shard="1")])
        registry.register(lambda: [counter("a_total", 3, shard="0")])
        assert [(s.name, s.labels) for s in registry.collect()] == [
            ("a_total", (("shard", "0"),)),
            ("a_total", (("shard", "1"),)),
            ("b", ()),
        ]

    def test_snapshot_flattens_with_labels(self):
        registry = _registry(counter("rows_total", 7, shard=1), gauge("depth", 2))
        snap = registry.snapshot()
        assert snap["rows_total{shard=1}"] == 7.0
        assert snap["depth"] == 2.0


class TestPrometheusText:
    def test_exposition_format(self):
        registry = _registry(
            counter("repro_rows_total", 3, shard="2", kind="remote"),
            gauge("repro_depth", 1.5),
        )
        text = prometheus_text(registry)
        assert "# TYPE repro_rows_total counter" in text
        assert 'repro_rows_total{kind="remote",shard="2"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 1.5" in text


class TestPrometheusEscaping:
    """Hostile label values and ``# HELP`` lines survive exposition."""

    def test_hostile_label_values_are_escaped(self):
        text = prometheus_text(_registry(counter("m_total", 3, path='a"b\\c\nd')))
        # Backslash doubles first, then the quote and the newline escape —
        # the order that keeps the scrape parseable.
        assert 'm_total{path="a\\"b\\\\c\\nd"} 3' in text
        # No raw newline may leak into the sample line.
        sample = next(line for line in text.splitlines() if line.startswith("m_"))
        assert sample == 'm_total{path="a\\"b\\\\c\\nd"} 3'

    def test_help_lines_default_and_custom(self):
        registry = _registry(
            counter("m_total", 1),
            gauge("g", 0),
            help_texts={"g": "Queue depth right now"},
        )
        text = prometheus_text(registry)
        assert "# HELP m_total counter m_total" in text  # default text
        assert "# HELP g Queue depth right now" in text
        assert text.index("# HELP g") < text.index("# TYPE g gauge")

    def test_help_text_is_escaped_but_keeps_quotes(self):
        registry = _registry(
            gauge("g", 0), help_texts={"g": 'rows "served"\nper \\ second'}
        )
        text = prometheus_text(registry)
        # HELP escaping covers backslash and newline only; quotes stay.
        assert '# HELP g rows "served"\\nper \\\\ second' in text

    def test_help_emitted_once_per_name_across_label_sets(self):
        registry = _registry(
            counter("m_total", 1, shard="0"), counter("m_total", 1, shard="1")
        )
        text = prometheus_text(registry)
        assert text.count("# HELP m_total") == 1
        assert text.count("# TYPE m_total") == 1


class TestSampleMappings:
    def test_transport_traffic_samples_read_the_accumulators(self):
        traffic = SimpleNamespace(bytes_local=300, bytes_remote=100)
        transport_stats = SimpleNamespace(rounds=6, requests={"feature_rows": 9})
        registry = MetricsRegistry()
        registry.register(lambda: transport_traffic_samples(traffic, transport_stats))
        snap = registry.snapshot()
        assert snap == {
            "repro_remote_byte_fraction": 0.25,
            "repro_transport_rounds_total": 6.0,
            "repro_transport_requests_total{op=feature_rows}": 9.0,
        }
        traffic.bytes_remote = 300
        transport_stats.rounds = 7
        snap = registry.snapshot()
        assert snap["repro_remote_byte_fraction"] == 0.5
        assert snap["repro_transport_rounds_total"] == 7.0

    def test_no_traffic_reads_a_zero_fraction(self):
        samples = transport_traffic_samples(
            SimpleNamespace(bytes_local=0, bytes_remote=0),
            SimpleNamespace(rounds=0, requests={}),
        )
        assert [(s.name, s.value) for s in samples] == [
            ("repro_remote_byte_fraction", 0.0),
            ("repro_transport_rounds_total", 0.0),
        ]


class TestSnapshotDictRoundTrips:
    """Satellite: both stats snapshots survive ``as_dict`` → JSON round trips."""

    @pytest.fixture(scope="class")
    def serving_snapshot(self, trained_nai, tiny_dataset):
        import numpy as np

        from repro.core import ServingConfig
        from repro.serving import InferenceServer

        config = trained_nai.inference_config(
            t_min=1, t_max=3,
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=32,
        )
        predictor = trained_nai.build_predictor(policy="distance", config=config)
        predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
        with InferenceServer(predictor, ServingConfig(num_workers=1)) as server:
            server.submit(np.array([0, 1, 2])).result(timeout=60.0)
            return server.stats()

    def test_serving_snapshot_as_dict_is_json_round_trippable(
        self, serving_snapshot
    ):
        payload = serving_snapshot.as_dict()
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["requests_completed"] == 1
        assert restored["latency_ms"]["count"] == 1.0

    def test_sharded_snapshot_as_dict_is_json_round_trippable(
        self, serving_snapshot
    ):
        from repro.shard.stats import merge_serving_snapshots

        merged = merge_serving_snapshots(
            {0: serving_snapshot, 1: serving_snapshot}
        )
        payload = merged.as_dict()
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["requests_completed"] == 2
        assert set(restored["per_shard"]) == {"0", "1"}
