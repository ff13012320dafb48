"""Cross-request union-batch wave execution.

The paper's premise — k-hop supports concentrate on hub nodes — means
concurrent requests overwhelmingly *overlap*: their supporting subgraphs
share frontier rows that the per-batch engine recomputes once per batch.
A **wave** takes several already-coalesced micro-batches, concatenates
their node ids into one union batch, and runs the existing fused engine
**once** over the union support (one BFS + one CSR extraction + one
propagation sweep).  Per-request results are then scattered back from the
union result.

Why this is bit-identical to isolated execution
-----------------------------------------------
The fused engine's early-exit machinery is already *elementwise per
target occurrence*: ``DistanceNAP`` thresholds each row's smoothness
distance independently and ``GateNAP`` compares each row's two gate
scores, so an occurrence's exit depth never depends on which other rows
share its batch.  Propagated values are exact row-wise functions of the
union support, which contains every member's own support; at the default
float32 dtype the masked-SpMM and classifier matmuls are row-stable
across batch compositions.  Hence predictions *and* exit depths of each
member slice equal the isolated run's, bit for bit (the wave-equivalence
fuzz suite enforces this across seeds, shard counts, widths and
transports).

MAC attribution
---------------
The engine reports one :class:`~repro.core.inference.MACBreakdown` for
the union sweep.  :func:`attribute_wave_macs` replays the fused loop's
*arithmetic shape* — which rows propagate at each depth, who still pays
exit decisions, who classifies where — in exact integer arithmetic and
splits every term across the member batches:

- **propagation**: a computed row's ``row_nnz x F`` MACs are split
  equally among the members that still *need* the row at that depth (a
  member needs a row while it lies within the remaining hop budget of
  one of its not-yet-exited occurrences); the integer remainder goes to
  the lowest-indexed needing member.  Rows needed by two or more members
  are the wave's savings — their MAC mass is reported as
  ``shared_row_fraction``.
- **decision / classification**: charged to the owning member of each
  occurrence (these are per-occurrence terms, never shared).
- **stationary**: the per-target ``|batch_k| x F`` term is exact; the
  graph-wide ``N x F`` term is split pro-rata by member size with the
  integer remainder charged to member 0.

Every term is an integer (below 2^53), so the attribution *reconciles
exactly*: member breakdowns sum to the engine-reported wave breakdown,
which is itself the sequential oracle's cost of serving the deduplicated
union.  A mismatch raises — attribution drift is a bug, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.inference import InferenceResult, MACBreakdown, TimingBreakdown
from ..exceptions import ServingError
from ..graph.kernels import hop_distances
from ..graph.sampling import SupportBundle

__all__ = [
    "WaveAttribution",
    "WaveResult",
    "attribute_wave_macs",
    "execute_wave",
    "split_timings",
]


@dataclass(frozen=True)
class WaveAttribution:
    """Per-member MAC accounting for one union sweep.

    ``member_macs[k]`` is member ``k``'s exact share of the wave's
    engine-reported breakdown; the shares sum to the wave total term by
    term.  ``shared_row_macs`` is the propagation row-MAC mass needed by
    two or more members — the work the wave deduplicated — out of
    ``total_row_macs`` computed.
    """

    member_macs: tuple[MACBreakdown, ...]
    shared_row_macs: int
    total_row_macs: int

    @property
    def shared_row_fraction(self) -> float:
        """Fraction of propagation row-MACs needed by 2+ members."""
        if self.total_row_macs == 0:
            return 0.0
        return self.shared_row_macs / self.total_row_macs

    @property
    def total(self) -> MACBreakdown:
        merged = MACBreakdown()
        for macs in self.member_macs:
            merged = merged.merged_with(macs)
        return merged


@dataclass(frozen=True)
class WaveResult:
    """A union sweep's result plus the member scatter map."""

    result: InferenceResult
    offsets: np.ndarray
    attribution: WaveAttribution
    bundle: SupportBundle = field(repr=False)

    @property
    def num_members(self) -> int:
        return int(self.offsets.shape[0] - 1)

    def member_slice(self, index: int) -> slice:
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    def member_predictions(self, index: int) -> np.ndarray:
        return self.result.predictions[self.member_slice(index)]

    def member_depths(self, index: int) -> np.ndarray:
        return self.result.depths[self.member_slice(index)]

    def member_macs(self, index: int) -> MACBreakdown:
        return self.attribution.member_macs[index]


def _needed_rows(
    bundle: SupportBundle,
    occurrence_rows: np.ndarray,
    hop_budget: int,
) -> np.ndarray:
    """Boolean mask of local rows within ``hop_budget`` hops of the targets."""
    num_local = bundle.num_local
    if occurrence_rows.size == 0:
        return np.zeros(num_local, dtype=bool)
    dist = hop_distances(
        bundle.indptr, bundle.indices, occurrence_rows, num_local, hop_budget
    )
    return dist <= hop_budget


def attribute_wave_macs(
    engine, bundle: SupportBundle, offsets: np.ndarray, result: InferenceResult
) -> WaveAttribution:
    """Split a union sweep's engine-reported MACs across its members.

    ``engine`` is any engine of the deployment that ran the sweep (only its
    policy, classifiers, config and graph size are read); ``bundle`` must
    be the exact bundle the sweep executed (targets in union batch order);
    ``offsets`` delimits member ``k``'s occurrences as
    ``[offsets[k], offsets[k+1])``.  The replay mirrors the fused
    loop's control flow — prefix-mode hop pruning until the first exit,
    BFS-refreshed needed sets after — using only ``result.depths``, so it
    runs no floating-point propagation.  Raises
    :class:`~repro.exceptions.ServingError` if the attributed totals do
    not reconcile exactly with ``result.macs``.
    """
    policy, classifiers, config = engine.policy, engine.classifiers, engine.config
    offsets = np.asarray(offsets, dtype=np.int64)
    depths = np.asarray(result.depths, dtype=np.int64)
    num_members = int(offsets.shape[0] - 1)
    num_occurrences = int(depths.shape[0])
    if int(offsets[-1]) != num_occurrences:
        raise ServingError(
            f"wave offsets cover {int(offsets[-1])} occurrences, result has "
            f"{num_occurrences}"
        )
    num_features = int(bundle.local_features.shape[1])
    target_local = bundle.support.target_local
    row_nnz = np.diff(bundle.indptr).astype(np.int64)
    t_min, t_max = int(config.t_min), int(config.t_max)

    prop = np.zeros(num_members, dtype=np.int64)
    decision = np.zeros(num_members, dtype=np.int64)
    classification = np.zeros(num_members, dtype=np.int64)
    stationary = np.zeros(num_members, dtype=np.int64)
    shared_row_macs = 0
    total_row_macs = 0

    member_sizes = np.diff(offsets)
    member_of = np.repeat(np.arange(num_members, dtype=np.int64), member_sizes)

    # Stationary term: N*F split pro-rata by member size (integer remainder
    # to member 0) + each member's own |batch_k|*F.
    graph_term = int(engine.stationary.num_nodes) * num_features
    shares = (graph_term * member_sizes) // num_occurrences
    shares[0] += graph_term - int(shares.sum())
    stationary += shares + member_sizes * num_features

    decision_cost = (
        int(policy.decision_macs_per_node(num_features))
        if policy is not None
        else 0
    )

    prefix_mode = True
    for depth in range(1, t_max + 1):
        alive = depths >= depth
        if not np.any(alive):
            break  # the engine broke out of the loop after depth-1's exits
        hop_budget = t_max - depth
        if prefix_mode:
            union_needed = bundle.support.hops <= hop_budget
        else:
            union_needed = _needed_rows(bundle, target_local[alive], hop_budget)
        rows = np.flatnonzero(union_needed)
        row_macs = row_nnz[rows] * num_features

        needs = np.zeros((num_members, rows.shape[0]), dtype=bool)
        for k in range(num_members):
            member_alive = alive[offsets[k] : offsets[k + 1]]
            if not np.any(member_alive):
                continue
            occurrence_rows = target_local[offsets[k] : offsets[k + 1]][
                member_alive
            ]
            needs[k] = _needed_rows(bundle, occurrence_rows, hop_budget)[rows]
        counts = needs.sum(axis=0).astype(np.int64)
        if np.any(counts == 0):
            raise ServingError(
                "wave attribution replay computed a row no member needs — "
                "the replay diverged from the engine's pruning"
            )
        share = row_macs // counts
        remainder = row_macs - share * counts
        for k in range(num_members):
            prop[k] += int(share[needs[k]].sum())
        first_needer = needs.argmax(axis=0)
        np.add.at(prop, first_needer, remainder)
        shared_row_macs += int(row_macs[counts >= 2].sum())
        total_row_macs += int(row_macs.sum())

        if depth < t_min:
            continue
        if depth < t_max and policy is not None:
            # Every still-alive occurrence pays one exit decision.
            np.add.at(decision, member_of[alive], decision_cost)
            exited = alive & (depths == depth)
            if np.any(exited):
                prefix_mode = False
        exiting_now = depths == depth
        if np.any(exiting_now):
            cost = int(classifiers[depth - 1].classification_macs_per_node())
            np.add.at(classification, member_of[exiting_now], cost)

    reported = result.macs
    totals = {
        "stationary": int(stationary.sum()),
        "propagation": int(prop.sum()),
        "decision": int(decision.sum()),
        "classification": int(classification.sum()),
    }
    expected = {
        "stationary": int(reported.stationary),
        "propagation": int(reported.propagation),
        "decision": int(reported.decision),
        "classification": int(reported.classification),
    }
    if totals != expected:
        raise ServingError(
            f"wave MAC attribution does not reconcile: replay {totals} vs "
            f"engine {expected}"
        )

    member_macs = tuple(
        MACBreakdown(
            stationary=float(stationary[k]),
            propagation=float(prop[k]),
            decision=float(decision[k]),
            classification=float(classification[k]),
        )
        for k in range(num_members)
    )
    return WaveAttribution(
        member_macs=member_macs,
        shared_row_macs=shared_row_macs,
        total_row_macs=total_row_macs,
    )


def split_timings(
    timings: TimingBreakdown, weights: "list[float]"
) -> "list[TimingBreakdown]":
    """Split a wave's timing breakdown across members by ``weights``.

    Weights are normalized; timings (unlike MACs) are measurements, so
    the pro-rata split is an attribution convention, not an exact ledger.
    """
    total = sum(weights)
    if total <= 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    return [
        TimingBreakdown(
            sampling=timings.sampling * w / total,
            stationary=timings.stationary * w / total,
            propagation=timings.propagation * w / total,
            decision=timings.decision * w / total,
            classification=timings.classification * w / total,
        )
        for w in weights
    ]


def execute_wave(engine, batches, *, bundle: SupportBundle | None = None) -> WaveResult:
    """Run one union sweep over ``batches`` and attribute its MACs.

    The deterministic core of the wave scheduler: concatenate the member
    batches, run the (fused) ``engine`` once over the union support, and
    split the reported MACs with :func:`attribute_wave_macs`.  Member
    ``k``'s predictions/depths are the union result's rows
    ``[offsets[k], offsets[k+1])`` — bit-identical to running the member
    alone.  Also the harness ``benchmarks/bench_wave.py`` uses to measure
    MACs-per-request against wave width without scheduler timing noise.
    """
    sizes = [int(np.asarray(batch).shape[0]) for batch in batches]
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
    )
    union = np.concatenate([np.asarray(b, dtype=np.int64) for b in batches])
    if bundle is None:
        bundle = engine.build_support(union)
    result = engine.run_batch(union, bundle=bundle)
    attribution = attribute_wave_macs(engine, bundle, offsets, result)
    return WaveResult(
        result=result, offsets=offsets, attribution=attribution, bundle=bundle
    )
