"""Slot-table TieredFeatureStore vs. the dict/LRU loop it replaced.

``DictLRUModel`` is the store's previous implementation — a ``dict`` of row
copies plus an insertion-ordered recency queue, walked one row at a time —
kept here as the executable specification of the batch semantics: bump
every frequency, serve and refresh the hits, then offer the misses for
admission in request order.  The differential test drives both with the
same request streams; the hammer test checks the ledger under threads; the
regression tests pin the input-validation fixes.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.shard import TieredFeatureRows, TieredFeatureStore


class DictLRUModel:
    def __init__(self, features, capacity_rows, bias, age_period):
        self.features = features
        self.capacity_rows = capacity_rows
        self.freq = np.zeros(features.shape[0])
        self.bias = bias
        self.age_period = self.until_age = age_period
        self.hot: dict[int, np.ndarray] = {}
        self.order: dict[int, None] = {}  # insertion-ordered recency queue
        self.hits = self.misses = self.admissions = self.evictions = 0

    def get_rows(self, rows):
        rows = [int(row) for row in rows]
        out = np.empty((len(rows), self.features.shape[1]), self.features.dtype)
        for row in rows:
            self.freq[row] += 1.0
        was_hot = [row in self.hot for row in rows]
        for position, row in enumerate(rows):
            if was_hot[position]:
                self.hits += 1
                self.order.pop(row)
                self.order[row] = None  # refresh recency: move to the back
                out[position] = self.hot[row]
        for position, row in enumerate(rows):
            if not was_hot[position]:
                self.misses += 1
                out[position] = value = self.features[row].copy()
                if row not in self.hot:  # a repeat may already be admitted
                    self._admit(row, value)
        self.until_age -= len(rows)
        if self.until_age <= 0:
            self.freq *= 0.5
            self.until_age = self.age_period
        return out

    def _admit(self, row, value):
        if len(self.hot) >= self.capacity_rows:
            victim = next(iter(self.order))
            if self.freq[row] + self.bias[row] <= self.freq[victim] + self.bias[victim]:
                return  # the LRU resident is still more valuable
            del self.hot[victim], self.order[victim]
            self.evictions += 1
        self.hot[row] = value
        self.order[row] = None
        self.admissions += 1


def recency_order(store):
    """Resident rows of the slot table, least recently touched first."""
    occupied = store.hot_rows
    return store._row_of[:occupied][np.argsort(store._stamp[:occupied])].tolist()


@st.composite
def streams(draw):
    num_rows = draw(st.integers(2, 24))
    capacity = draw(st.integers(1, num_rows + 3))  # 1 row .. more than the matrix
    degrees = draw(
        st.none() | st.lists(st.integers(0, 50), min_size=num_rows, max_size=num_rows)
    )
    age_period = draw(st.integers(3, 40))  # short: streams cross several periods
    unique = draw(st.booleans())
    requests = draw(
        st.lists(
            st.lists(st.integers(0, num_rows - 1), max_size=2 * num_rows, unique=unique),
            min_size=1,
            max_size=25,
        )
    )
    return num_rows, capacity, degrees, age_period, unique, requests


@settings(max_examples=150, deadline=None)
@given(streams())
def test_slot_table_matches_the_dict_lru_model(stream):
    num_rows, capacity, degrees, age_period, unique, requests = stream
    features = (
        np.random.default_rng(num_rows).normal(size=(num_rows, 3)).astype(np.float32)
    )
    store = TieredFeatureStore(
        features,
        budget_bytes=capacity * features.itemsize * 3,
        degrees=None if degrees is None else np.asarray(degrees),
        age_period=age_period,
    )
    model = DictLRUModel(
        features, capacity, store._bias.copy(), store._age_period
    )
    try:
        requested = 0
        for rows in requests:
            rows = np.asarray(rows, dtype=np.int64)
            requested += rows.shape[0]
            got = store.get_rows(rows)
            expected = model.get_rows(rows)
            assert got.dtype == features.dtype
            np.testing.assert_array_equal(got, features[rows])
            np.testing.assert_array_equal(got, expected)
            assert store.hits + store.misses == requested
            assert store.resident_nbytes <= store.budget_bytes
            if unique:
                assert (
                    store.hits, store.misses, store.admissions, store.evictions
                ) == (model.hits, model.misses, model.admissions, model.evictions)
                assert recency_order(store) == list(model.order)
                np.testing.assert_array_equal(store._freq, model.freq)
        resident = recency_order(store)
        assert len(set(resident)) == len(resident) <= min(capacity, num_rows)
        for row in resident:  # the index and the hot matrix agree
            np.testing.assert_array_equal(
                store._hot[store._slot_of[row]], features[row]
            )
        assert store.peak_resident_nbytes <= store.budget_bytes
    finally:
        store.close()


def test_counters_and_budget_hold_under_concurrent_gathers():
    num_rows, request_rows, calls_per_thread, num_threads = 512, 64, 150, 4
    features = np.random.default_rng(0).normal(size=(num_rows, 8)).astype(np.float32)
    store = TieredFeatureStore(
        features, budget_bytes=40 * features.itemsize * 8, age_period=500
    )
    failures: list[str] = []
    done = threading.Event()

    def gather(seed):
        rng = np.random.default_rng(seed)
        for _ in range(calls_per_thread):
            rows = rng.choice(num_rows, size=request_rows, replace=False)
            if not np.array_equal(store.get_rows(rows), features[rows]):
                failures.append(f"thread {seed} read wrong rows")

    def read_reports():
        while not done.is_set():
            report = store.report()
            if report["resident_nbytes"] > report["budget_bytes"]:
                failures.append(f"over budget: {report}")
            # Both counters move once per call, under the lock: a snapshot
            # always sees a whole number of requests.
            if (report["hits"] + report["misses"]) % request_rows:
                failures.append(f"torn ledger: {report}")
            if report["hot_rows"] != report["admissions"] - report["evictions"]:
                failures.append(f"residency does not re-sum: {report}")

    reader = threading.Thread(target=read_reports)
    workers = [threading.Thread(target=gather, args=(seed,)) for seed in range(num_threads)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the two lock sections
    try:
        reader.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        done.set()
        reader.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in (reader, *workers))
        report = store.report()
        resident = recency_order(store)
    finally:
        sys.setswitchinterval(switch_interval)
        done.set()
        store.close()
    assert not failures, failures[:3]
    assert report["hits"] + report["misses"] == (
        num_threads * calls_per_thread * request_rows
    )
    assert report["peak_resident_nbytes"] <= report["budget_bytes"]
    assert len(set(resident)) == len(resident) == report["hot_rows"]


# ---------------------------------------------------------------------- #
# Regressions: bad requests must fail before any state moves
# ---------------------------------------------------------------------- #
@pytest.fixture()
def small_store():
    features = np.arange(8 * 3, dtype=np.float32).reshape(8, 3)
    store = TieredFeatureStore(features, budget_bytes=4 * features.itemsize * 3)
    yield features, store
    store.close()


def ledger(store):
    report = store.report()
    counters = tuple(
        report[key]
        for key in ("hits", "misses", "admissions", "evictions", "hot_rows")
    )
    return counters, store._freq.copy(), store._accesses_until_age


def assert_ledger_untouched(store, before):
    counters, freq, until_age = ledger(store)
    assert counters == before[0]
    np.testing.assert_array_equal(freq, before[1])
    assert until_age == before[2]


class TestRequestValidation:
    @pytest.mark.parametrize("bad", [[0, 1, 8], [2, -9], [5, 2**40]])
    def test_out_of_range_id_moves_no_counter(self, small_store, bad):
        _, store = small_store
        store.get_rows([0, 1])
        before = ledger(store)
        with pytest.raises(IndexError, match="out of range"):
            store.get_rows(bad)
        assert_ledger_untouched(store, before)

    def test_negative_ids_share_the_resident_copy(self, small_store):
        features, store = small_store
        np.testing.assert_array_equal(store.get_rows([-1, 7, -8]), features[[-1, 7, -8]])
        report = store.report()
        assert report["hot_rows"] == 2  # rows 7 and 0, each resident once
        assert sorted(recency_order(store)) == [0, 7]
        store.get_rows([-1])
        assert store.report()["hits"] == 1

    def test_closed_store_raises_a_clear_error(self, small_store):
        _, store = small_store
        store.get_rows([0])
        store.close()
        before = ledger(store)
        with pytest.raises(ConfigurationError, match="closed"):
            store.get_rows([0])
        assert_ledger_untouched(store, before)

    def test_non_integer_ids_are_rejected(self, small_store):
        _, store = small_store
        before = ledger(store)
        with pytest.raises(TypeError, match="integers"):
            store.get_rows(np.array([0.0, 1.0]))
        assert_ledger_untouched(store, before)
        assert store.get_rows([]).shape == (0, 3)


class TestProxyIndexing:
    def test_boolean_mask_selects_like_an_ndarray(self, small_store):
        features, store = small_store
        proxy = TieredFeatureRows(store)
        mask = np.zeros(8, dtype=bool)
        mask[[2, 5, 6]] = True
        np.testing.assert_array_equal(proxy[mask], features[mask])
        np.testing.assert_array_equal(proxy[mask.tolist()], features[mask])
        with pytest.raises(IndexError, match="boolean mask"):
            proxy[np.ones(5, dtype=bool)]

    def test_integer_forms(self, small_store):
        features, store = small_store
        proxy = TieredFeatureRows(store)
        np.testing.assert_array_equal(proxy[[3, 1, 3]], features[[3, 1, 3]])
        np.testing.assert_array_equal(proxy[np.int32(4)], features[[4]])
        np.testing.assert_array_equal(proxy[-2], features[[-2]])

    @pytest.mark.parametrize(
        "index", [slice(0, 2), (np.array([0]), 0), Ellipsis, None]
    )
    def test_slices_and_tuples_name_the_supported_forms(self, small_store, index):
        _, store = small_store
        before = ledger(store)
        with pytest.raises(TypeError, match="integer arrays.*boolean row mask"):
            TieredFeatureRows(store)[index]
        assert_ledger_untouched(store, before)
