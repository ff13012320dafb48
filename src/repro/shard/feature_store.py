"""Tiered feature storage: hot rows in RAM, cold rows memory-mapped on disk.

The feature matrix dominates a shard's resident footprint — for wide
embeddings it dwarfs the CSR blocks — and it is exactly the part of the
state whose access pattern the paper's premise makes skewed: node-adaptive
propagation concentrates supporting subgraphs on hub nodes, so a small set
of high-degree rows is fetched over and over while the long tail is
touched rarely.  :class:`TieredFeatureStore` exploits that skew to serve
graphs whose feature matrix exceeds the configured memory budget:

* the full matrix is spilled once to an ``np.memmap`` file (the cold tier;
  the OS page cache does what it will, but the *process* keeps no
  full-size array);
* a byte-budgeted hot tier holds copies of the most valuable rows in a
  **slot table**: one preallocated ``(capacity_rows, num_cols)`` matrix
  plus ``row -> slot`` / ``slot -> row`` index arrays and a per-slot
  recency stamp.  A gather is array work end to end — one frequency
  bump, one fancy-index read of the hits, one memmap read of the misses —
  and only the misses (in request order) walk a Python loop, to be
  offered for admission.  Admission is TinyLFU-flavored: each row carries
  an aged access-frequency count plus a degree bias
  (``degree_weight · log1p(degree)``), and a candidate only displaces the
  least-recently-used resident row when its score strictly wins — one
  noisy scan cannot flush the hub rows a skewed workload lives on.
  Frequencies are halved periodically so the cache tracks the *current*
  workload, not history.

Row reads are bit-identical to the in-RAM array by construction (rows are
copied verbatim through the spill and back), so every serving output is
unchanged; only residency and latency move.  ``peak_resident_nbytes`` can
never exceed the budget: the hot matrix is allocated once with
``budget_bytes // row_nbytes`` slots and never grows.

:class:`TieredFeatureRows` is the drop-in facade: it implements the two
things the serving stack does with ``GraphShard.features`` — fancy-index
rows (:func:`~repro.transport.base.answer_from_shard`'s ``feature_rows``
path) and report ``.nbytes`` (the shard footprint) — so
:meth:`~repro.serving.cluster.ClusterBuilder.tiered_features` swaps it
in without touching any transport or engine code.
"""

from __future__ import annotations

import os
import tempfile
import threading
import weakref

import numpy as np

from ..exceptions import ConfigurationError


def _cleanup(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class TieredFeatureStore:
    """Admission-controlled RAM cache over a memory-mapped feature matrix."""

    def __init__(
        self,
        features: np.ndarray,
        *,
        budget_bytes: int,
        degrees: np.ndarray | None = None,
        degree_weight: float = 4.0,
        storage_dir: str | None = None,
        age_period: int | None = None,
    ) -> None:
        features = np.ascontiguousarray(features)
        if features.ndim != 2:
            raise ConfigurationError(
                f"features must be a 2-D matrix, got shape {features.shape}"
            )
        self.num_rows, self.num_cols = map(int, features.shape)
        self.dtype = features.dtype
        self.row_nbytes = int(features.itemsize * max(self.num_cols, 1))
        if budget_bytes < self.row_nbytes:
            raise ConfigurationError(
                f"budget_bytes ({budget_bytes}) must hold at least one "
                f"feature row ({self.row_nbytes} bytes)"
            )
        if degree_weight < 0:
            raise ConfigurationError(
                f"degree_weight must be non-negative, got {degree_weight}"
            )
        self.budget_bytes = int(budget_bytes)
        self.capacity_rows = max(1, self.budget_bytes // self.row_nbytes)

        # Spill once, then reopen read-only: the writable map (and the
        # original array) go out of scope, so the process-resident feature
        # state is the hot cache plus whatever pages the OS keeps warm.
        fd, path = tempfile.mkstemp(
            prefix="repro-features-", suffix=".bin", dir=storage_dir
        )
        os.close(fd)
        spill = np.memmap(
            path, dtype=self.dtype, mode="w+", shape=(self.num_rows, self.num_cols)
        )
        spill[:] = features
        spill.flush()
        del spill
        self._path = path
        self._cold = np.memmap(
            path, dtype=self.dtype, mode="r", shape=(self.num_rows, self.num_cols)
        )
        self._finalizer = weakref.finalize(self, _cleanup, path)

        # Admission score = aged frequency + degree bias (both float64).
        self._freq = np.zeros(self.num_rows, dtype=np.float64)
        if degrees is not None:
            degrees = np.asarray(degrees, dtype=np.float64)
            if degrees.shape[0] != self.num_rows:
                raise ConfigurationError(
                    f"degrees has {degrees.shape[0]} entries for "
                    f"{self.num_rows} feature rows"
                )
            self._bias = degree_weight * np.log1p(np.maximum(degrees, 0.0))
        else:
            self._bias = np.zeros(self.num_rows, dtype=np.float64)
        # Halve the frequencies every ~2 cache-capacities of row accesses
        # (the TinyLFU reset) so old popularity decays.
        self._age_period = (
            int(age_period) if age_period else max(2 * self.capacity_rows, 1024)
        )
        self._accesses_until_age = self._age_period

        # The hot tier is a slot table: slot ``s`` of ``_hot`` holds row
        # ``_row_of[s]``, ``_slot_of[row]`` is its inverse (-1 = cold) and
        # ``_stamp[s]`` the logical time the slot was last touched.  Slots
        # fill in order and an eviction reuses its victim's slot, so the
        # occupied slots are always the prefix ``[0, _hot_rows)``.
        num_slots = min(self.capacity_rows, self.num_rows)
        self._lock = threading.Lock()
        self._hot = np.empty((num_slots, self.num_cols), dtype=self.dtype)
        self._slot_of = np.full(self.num_rows, -1, dtype=np.int64)
        self._row_of = np.full(num_slots, -1, dtype=np.int64)
        self._stamp = np.zeros(num_slots, dtype=np.int64)
        self._clock = 0
        self._hot_rows = 0
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.evictions = 0
        self.peak_resident_nbytes = 0

    # ------------------------------------------------------------------ #
    @property
    def resident_nbytes(self) -> int:
        """Bytes currently held by the hot cache (always <= the budget)."""
        return self._hot_rows * self.row_nbytes

    @property
    def hot_rows(self) -> int:
        return self._hot_rows

    def get_rows(self, rows) -> np.ndarray:
        """Gather feature rows, bit-identical to ``features[rows]``.

        ``rows`` is an integer array, list or scalar (one row); negative
        ids count from the end and a boolean mask over all rows selects
        like ``np.flatnonzero``.  The whole request is validated before
        any counter moves.  One call is a batch: every frequency is bumped
        first, then hits are gathered and refreshed, then the misses are
        read from the cold tier (outside the lock) and offered for
        admission in request order.
        """
        rows = self._as_row_ids(rows)
        with self._lock:
            cold = self._cold
            if cold is None:
                raise ConfigurationError("the tiered feature store is closed")
            np.add.at(self._freq, rows, 1.0)
            slots = self._slot_of[rows]
            miss_pos = np.flatnonzero(slots < 0)
            if miss_pos.shape[0] == 0:
                out = self._hot[slots]
            else:
                hit_pos = np.flatnonzero(slots >= 0)
                slots = slots[hit_pos]
                out = np.empty((rows.shape[0], self.num_cols), dtype=self.dtype)
                out[hit_pos] = self._hot[slots]
            # Refresh recency in request order (a repeated row keeps its
            # last stamp: fancy assignment writes left to right).
            self._stamp[slots] = self._clock + np.arange(slots.shape[0])
            self._clock += slots.shape[0]
            self.hits += slots.shape[0]
            self.misses += miss_pos.shape[0]
            if miss_pos.shape[0] == 0:
                self._age_locked(rows.shape[0])
                return out
        miss_rows = rows[miss_pos]
        values = cold[miss_rows]  # the page-faulting gather: no lock held
        out[miss_pos] = values
        with self._lock:
            if self._cold is not None:
                self._admit_locked(miss_rows, values)
                self._age_locked(rows.shape[0])
        return out

    def _as_row_ids(self, rows) -> np.ndarray:
        """``rows`` as in-range non-negative int64 ids, or raise."""
        if rows is None or rows is Ellipsis or isinstance(rows, (slice, tuple)):
            raise TypeError(
                "tiered feature rows support integer arrays, integer lists, "
                "a single integer (one row) or a boolean row mask, not "
                f"{type(rows).__name__}"
            )
        ids = np.asarray(rows)
        if ids.dtype == np.bool_:
            if ids.shape != (self.num_rows,):
                raise IndexError(
                    f"boolean mask of shape {ids.shape} does not match "
                    f"{self.num_rows} feature rows"
                )
            return np.flatnonzero(ids)
        if ids.dtype.kind not in "iu" and ids.size:
            raise TypeError(
                "tiered feature rows are indexed by integers or a boolean "
                f"row mask, not dtype {ids.dtype}"
            )
        ids = ids.astype(np.int64, copy=False).ravel()
        if ids.size:
            low, high = int(ids.min()), int(ids.max())
            if low < -self.num_rows or high >= self.num_rows:
                raise IndexError(
                    f"row id {low if low < -self.num_rows else high} is out "
                    f"of range for {self.num_rows} feature rows"
                )
            if low < 0:
                ids = np.where(ids < 0, ids + self.num_rows, ids)
        return ids

    def _admit_locked(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Offer this call's misses for admission, in request order.

        A free slot admits unconditionally; on a full table the candidate
        must strictly out-score the least-recently-touched resident to
        take its slot.  The victims are sorted once up front — rows
        admitted here queue behind them, exactly as in an LRU list — so
        the loop below touches only Python floats and ints.
        """
        # Another thread may have admitted some of these since the lookup.
        positions = np.flatnonzero(self._slot_of[rows] < 0)
        candidates = rows[positions]
        num_slots = self._hot.shape[0]
        next_free = self._hot_rows
        # At most one eviction per candidate left over once the free slots
        # are gone, so only that many least-recent residents can be victims.
        need = min(candidates.shape[0] - (num_slots - next_free), next_free)
        if need > 0:
            stamps = self._stamp[:next_free]
            order = np.argpartition(stamps, need - 1)[:need]
            order = order[np.argsort(stamps[order])]
        else:
            order = np.empty(0, dtype=np.int64)
        victims = self._row_of[order]
        queue_slots = order.tolist()
        queue_rows = victims.tolist()
        queue_scores = (self._freq[victims] + self._bias[victims]).tolist()
        scores = (self._freq[candidates] + self._bias[candidates]).tolist()

        head = 0
        placed: dict[int, tuple[int, int]] = {}  # row -> (slot, position)
        evicted: list[int] = []  # rows resident before this call
        for index, row in enumerate(candidates.tolist()):
            if row in placed:
                continue  # repeated in the request and already admitted
            if next_free < num_slots:
                slot = next_free
                next_free += 1
            else:
                if scores[index] <= queue_scores[head]:
                    continue  # the LRU resident is still more valuable
                slot = queue_slots[head]
                victim = queue_rows[head]
                head += 1
                if placed.pop(victim, None) is None:
                    evicted.append(victim)
                self.evictions += 1
            placed[row] = (slot, index)
            queue_slots.append(slot)
            queue_rows.append(row)
            queue_scores.append(scores[index])
            self.admissions += 1

        if evicted:
            self._slot_of[evicted] = -1
        if placed:
            admitted = np.fromiter(placed, dtype=np.int64, count=len(placed))
            slots, taken = np.array(list(placed.values()), dtype=np.int64).T
            self._slot_of[admitted] = slots
            self._row_of[slots] = admitted
            self._hot[slots] = values[positions[taken]]
            self._stamp[slots] = self._clock + np.arange(len(placed))
            self._clock += len(placed)
        self._hot_rows = next_free
        self.peak_resident_nbytes = max(
            self.peak_resident_nbytes, self.resident_nbytes
        )

    def _age_locked(self, accesses: int) -> None:
        self._accesses_until_age -= accesses
        if self._accesses_until_age <= 0:
            self._freq *= 0.5
            self._accesses_until_age = self._age_period

    # ------------------------------------------------------------------ #
    def report(self) -> dict:
        """Counters and residency for the memory report / benchmark."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "num_rows": self.num_rows,
                "num_cols": self.num_cols,
                "row_nbytes": self.row_nbytes,
                "budget_bytes": self.budget_bytes,
                "capacity_rows": self.capacity_rows,
                "hot_rows": self._hot_rows,
                "resident_nbytes": self.resident_nbytes,
                "peak_resident_nbytes": self.peak_resident_nbytes,
                "cold_nbytes": self.num_rows * self.row_nbytes,
                "hits": self.hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def close(self) -> None:
        """Release the memmap and delete the spill file."""
        with self._lock:
            self._slot_of.fill(-1)
            self._hot_rows = 0
            self._cold = None
        self._finalizer()


class TieredFeatureRows:
    """Drop-in stand-in for a ``GraphShard.features`` ndarray.

    Supports exactly the surface the serving stack uses: row gathers via
    ``features[rows]`` — integer arrays, lists, one integer (a 1-row
    matrix) or a boolean row mask; slices and tuples raise ``TypeError`` —
    and the ``nbytes``/``shape``/``dtype`` accounting attributes.
    ``nbytes`` reports *resident* (hot tier) bytes — the whole point of
    tiering is that the cold matrix no longer counts against the shard's
    footprint.
    """

    def __init__(self, store: TieredFeatureStore) -> None:
        self.store = store

    def __getitem__(self, rows) -> np.ndarray:
        return self.store.get_rows(rows)

    def __len__(self) -> int:
        return self.store.num_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.store.num_rows, self.store.num_cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self) -> np.dtype:
        return self.store.dtype

    @property
    def itemsize(self) -> int:
        return self.store.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.store.resident_nbytes
