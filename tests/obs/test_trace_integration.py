"""Deterministic end-to-end tracing tests across the serving stack.

Four pillars, matching the issue's acceptance criteria:

* exact **virtual-time** span trees — fetch rounds through a
  fault-injected transport on a ``FakeClock`` land on exact ticks;
* a **complete span tree** for a served request whose stamps are
  float-identical to the :class:`~repro.serving.ServingResponse` fields;
* **zero-cost disabled mode** — tracing off is bit-identical (predictions,
  depths, MACs) and records nothing;
* **shard-load attribution** — the analyzer's per-shard rows agree exactly
  with the store's :class:`~repro.shard.store.ShardTraffic` counters, and
  cross-process stitching links server spans under client fetch rounds.
"""

import numpy as np
import pytest

from repro.core import ServingConfig, ShardConfig
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.graph.sampling import build_support_bundle
from repro.obs import CriticalPathAnalyzer, TraceRecorder, Tracer, load_spans_jsonl
from repro.serving import FakeClock, InferenceServer
from repro.shard import ShardedGraphStore
from repro.transport import FaultInjectingTransport, LocalTransport, SocketTransport
from repro.transport import wire


def make_store(num_shards: int = 3) -> ShardedGraphStore:
    spec = SyntheticGraphSpec(
        num_nodes=180, num_classes=4, avg_degree=6.0, degree_exponent=2.0
    )
    graph, _ = generate_community_graph(spec, rng=5)
    features = np.random.default_rng(1).normal(
        size=(graph.num_nodes, 7)
    ).astype(np.float32)
    return ShardedGraphStore.from_graph(
        graph, features, ShardConfig(num_shards=num_shards, strategy="hash"),
        gamma=0.5, dtype=np.float32,
    )


class TestWireTracePropagation:
    def test_untraced_frames_are_byte_identical_to_legacy(self):
        rows = np.array([3, 1, 4], dtype=np.int64)
        payload = wire.encode_request("feature_rows", rows)
        # No flag bit, no trace header: the exact pre-tracing layout.
        assert payload[0] == wire.OPCODES["feature_rows"]
        op, decoded, trace = wire.decode_request_traced(payload)
        assert (op, trace) == ("feature_rows", None)
        np.testing.assert_array_equal(decoded, rows)

    def test_traced_frames_round_trip_ids(self):
        rows = np.array([7, 8], dtype=np.int64)
        payload = wire.encode_request("adjacency_rows", rows, trace=(42, 99))
        assert payload[0] & wire.TRACE_FLAG
        op, decoded, trace = wire.decode_request_traced(payload)
        assert op == "adjacency_rows"
        assert trace == (42, 99)
        np.testing.assert_array_equal(decoded, rows)
        # The legacy decoder still works on traced frames (ignores the ids).
        op2, decoded2 = wire.decode_request(payload)
        assert op2 == "adjacency_rows"
        np.testing.assert_array_equal(decoded2, rows)


class TestVirtualTimeSpans:
    def test_fetch_rounds_land_on_exact_virtual_ticks(self):
        store = make_store()
        reference = build_support_bundle(
            store.row_source(0), np.arange(12, dtype=np.int64), 2
        )
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        store._set_transport(
            FaultInjectingTransport(
                LocalTransport(store.shards), latency_seconds=0.5, clock=clock
            )
        )
        store._set_tracer(tracer)
        root = tracer.new_trace()
        with tracer.activate(root):
            bundle = build_support_bundle(
                store.row_source(0), np.arange(12, dtype=np.int64), 2
            )
        spans = tracer.spans()
        assert spans and all(span.name == "fetch.round" for span in spans)
        # Every round consumed exactly its injected virtual latency, end to
        # end with no gaps: round k spans [0.5k, 0.5(k+1)].
        for k, span in enumerate(spans):
            assert span.start == 0.5 * k
            assert span.end == 0.5 * (k + 1)
            assert span.parent_id == root.span_id
        assert clock.now() == 0.5 * len(spans)
        # Tracing plus fault latency never changed the assembled bundle.
        np.testing.assert_array_equal(
            bundle.support.node_ids, reference.support.node_ids
        )
        np.testing.assert_array_equal(bundle.indices, reference.indices)
        np.testing.assert_array_equal(
            bundle.local_features, reference.local_features
        )

    def test_untraced_store_records_nothing(self):
        store = make_store()
        tracer = Tracer(clock=FakeClock())
        store._set_tracer(tracer)
        # No activated context: the fetch sites must not allocate spans.
        build_support_bundle(
            store.row_source(0), np.arange(6, dtype=np.int64), 2
        )
        assert tracer.spans() == []


@pytest.fixture(scope="module")
def served_predictor(trained_nai, tiny_dataset):
    config = trained_nai.inference_config(
        t_min=1, t_max=3,
        distance_threshold=trained_nai.suggest_distance_threshold(0.5),
        batch_size=32,
    )
    predictor = trained_nai.build_predictor(policy="distance", config=config)
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


SERVING = ServingConfig(
    num_workers=1, max_batch_size=64, max_wait_ms=0.5, cache_capacity=8
)


class TestServerSpanTree:
    def test_span_stamps_equal_response_fields_exactly(
        self, served_predictor, tiny_dataset
    ):
        tracer = Tracer()
        test_idx = tiny_dataset.split.test_idx
        requests = [test_idx[i:i + 7] for i in range(0, 35, 7)]
        responses = []
        with InferenceServer(served_predictor, SERVING, tracer=tracer) as server:
            for batch in requests:
                responses.append(server.submit(batch).result(timeout=60.0))
        spans = tracer.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        request_spans = {
            span.attributes["request_id"]: span for span in by_name["request"]
        }
        queue_spans = {}
        for span in by_name["queue.wait"]:
            queue_spans.setdefault(span.trace_id, span)
        execute_by_batch = {
            span.attributes["batch_id"]: span for span in by_name["batch.execute"]
        }
        for response in responses:
            span = request_spans[response.request_id]
            # Span stamps are the same clock readings the response computed
            # its fields from — exact float equality, not approximation.
            assert span.duration == response.latency_seconds
            assert span.attributes["num_nodes"] == response.node_ids.shape[0]
            assert span.attributes["batch_id"] == response.batch_id
            queue_span = queue_spans[span.trace_id]
            assert queue_span.parent_id == span.span_id
            assert queue_span.duration == response.queue_seconds
            execute = execute_by_batch[response.batch_id]
            assert execute.attributes["macs"] == response.batch_macs.total
            assert execute.attributes["worker_id"] == response.worker_id
        # Every batch's execution decomposes: compute and scatter nest under
        # batch.execute, which nests under some request root.
        for name in ("engine.compute", "scatter"):
            for span in by_name[name]:
                parent = execute_by_batch[span.attributes["batch_id"]]
                assert span.parent_id == parent.span_id
        root_ids = {span.span_id for span in by_name["request"]}
        for execute in execute_by_batch.values():
            assert execute.parent_id in root_ids

    def test_sampled_out_requests_ride_untraced(self, served_predictor,
                                                tiny_dataset):
        tracer = Tracer(sample_every=2)
        test_idx = tiny_dataset.split.test_idx
        with InferenceServer(served_predictor, SERVING, tracer=tracer) as server:
            for i in range(4):
                server.submit(test_idx[i * 5:(i + 1) * 5]).result(timeout=60.0)
        roots = [span for span in tracer.spans() if span.name == "request"]
        assert len(roots) == 2


class TestDisabledTracingIsFree:
    def _serve(self, predictor, batches, tracer):
        outputs = []
        with InferenceServer(predictor, SERVING, tracer=tracer) as server:
            for batch in batches:
                outputs.append(server.submit(batch).result(timeout=60.0))
        return outputs

    def test_off_is_bit_identical_and_records_nothing(
        self, served_predictor, tiny_dataset
    ):
        test_idx = tiny_dataset.split.test_idx
        batches = [test_idx[i:i + 9] for i in range(0, 45, 9)]
        traced = self._serve(served_predictor, batches, Tracer())
        untraced = self._serve(served_predictor, batches, None)
        disabled_tracer = Tracer(enabled=False)
        disabled = self._serve(served_predictor, batches, disabled_tracer)
        for a, b, c in zip(traced, untraced, disabled):
            np.testing.assert_array_equal(a.predictions, b.predictions)
            np.testing.assert_array_equal(a.predictions, c.predictions)
            np.testing.assert_array_equal(a.depths, b.depths)
            np.testing.assert_array_equal(a.depths, c.depths)
            assert a.batch_macs.total == b.batch_macs.total == c.batch_macs.total
        # Disabled tracers hold no recorder at all — nothing can grow.
        assert disabled_tracer.recorder is None
        assert disabled_tracer.spans() == []


class TestShardLoadAttribution:
    def test_analyzer_rows_match_shard_traffic_exactly(self):
        store = make_store()
        tracer = Tracer(recorder=TraceRecorder(capacity=65536))
        store._set_tracer(tracer)
        home = 2
        owned = store.shards[home].owned
        root = tracer.new_trace()
        with tracer.activate(root):
            for start in range(0, min(owned.shape[0], 40), 8):
                build_support_bundle(
                    store.row_source(home), owned[start:start + 8], 2
                )
        spans = tracer.spans()
        analyzer = CriticalPathAnalyzer(spans)
        loads = {load.shard_id: load for load in analyzer.shard_load()}

        def span_rows(op, shard_filter):
            total = 0
            for span in spans:
                if span.name != "fetch.round" or span.attributes["op"] != op:
                    continue
                for shard_id, rows in zip(
                    span.attributes["shards"], span.attributes["rows"]
                ):
                    if shard_filter(shard_id):
                        total += rows
            return total

        traffic = store.traffic
        pairs = {
            "adjacency_rows": (
                traffic.adjacency_rows_local, traffic.adjacency_rows_remote
            ),
            "feature_rows": (
                traffic.feature_rows_local, traffic.feature_rows_remote
            ),
            "frontier_columns": (
                traffic.frontier_cols_local, traffic.frontier_cols_remote
            ),
            "degree_rows": (
                traffic.degree_rows_local, traffic.degree_rows_remote
            ),
        }
        for op, (local, remote) in pairs.items():
            assert span_rows(op, lambda s: s == home) == local
            assert span_rows(op, lambda s: s != home) == remote
        # Row totals per shard agree with the analyzer's attribution, and a
        # workload homed on one shard ranks that shard hottest.
        for shard_id, load in loads.items():
            assert load.rows == span_rows(
                "adjacency_rows", lambda s: s == shard_id
            ) + span_rows("feature_rows", lambda s: s == shard_id) + span_rows(
                "frontier_columns", lambda s: s == shard_id
            ) + span_rows("degree_rows", lambda s: s == shard_id)
        assert analyzer.shard_ranking()[0] == home


class TestCrossProcessStitching:
    def test_forked_server_spans_stitch_under_fetch_rounds(self, tmp_path):
        multiprocessing = pytest.importorskip("multiprocessing")
        from repro.transport import serve_shard

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        store = make_store()
        trace_log = tmp_path / "server_spans.jsonl"
        processes = []
        addresses = []
        try:
            for shard in store.shards:
                ready = context.Event()
                port_out = context.Value("i", 0)
                process = context.Process(
                    target=serve_shard,
                    kwargs={
                        "shard": shard,
                        "ready": ready,
                        "port_out": port_out,
                        "trace_log": str(trace_log),
                    },
                    daemon=True,
                )
                process.start()
                processes.append(process)
                assert ready.wait(10.0)
                addresses.append(("127.0.0.1", port_out.value))
            reference = build_support_bundle(
                store.row_source(1), np.arange(10, dtype=np.int64), 2
            )
            tracer = Tracer()
            transport = SocketTransport(addresses, timeout_seconds=10.0)
            store._set_transport(transport)
            store._set_tracer(tracer)
            root = tracer.new_trace()
            start = tracer.clock.now()
            with tracer.activate(root), transport:
                bundle = build_support_bundle(
                    store.row_source(1), np.arange(10, dtype=np.int64), 2
                )
            tracer.emit("request", root, start, tracer.clock.now())
        finally:
            for process in processes:
                process.terminate()
                process.join(5.0)
        np.testing.assert_array_equal(
            bundle.support.node_ids, reference.support.node_ids
        )
        np.testing.assert_array_equal(
            bundle.local_features, reference.local_features
        )
        client_spans = tracer.spans()
        fetch_ids = {
            span.span_id: span
            for span in client_spans
            if span.name == "fetch.round"
        }
        server_spans = load_spans_jsonl(trace_log)
        assert server_spans, "forked servers logged no spans"
        client_ids = {span.span_id for span in client_spans}
        server_pids = set()
        for span in server_spans:
            # Every server-side span parents under the exact client
            # fetch.round that carried its ids over the wire.
            assert span.parent_id in fetch_ids
            parent = fetch_ids[span.parent_id]
            assert span.trace_id == parent.trace_id == root.trace_id
            assert span.name == f"server.{parent.attributes['op']}"
            assert span.span_id not in client_ids
            server_pids.add(span.attributes["pid"])
            assert span.attributes["shard"] in parent.attributes["shards"]
        # Three forked processes, pid-offset ids — no collisions anywhere.
        assert len(server_pids) == len(store.shards)
        assert len({span.span_id for span in server_spans}) == len(server_spans)
        # The stitched tree places server spans two levels under the root.
        merged = CriticalPathAnalyzer(client_spans).merged_with(server_spans)
        depths = {
            span.name: depth
            for depth, span in merged.tree(root.trace_id)
            if span.name.startswith("server.")
        }
        assert depths and all(depth == 2 for depth in depths.values())
