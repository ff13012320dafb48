"""Ledger of the settable options on the main configuration surfaces.

Every independently settable value multiplies the configurations tests and
benchmarks must cover, so the count is pinned here: adding, removing or
renaming a knob is an edit to this file, reviewed in the same diff as the
evidence that a caller needs it.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.core import MonitorConfig, NAIConfig, ServingConfig, ShardConfig
from repro.transport import SocketTransport

LEDGER = [
    (
        ServingConfig,
        13,
        {
            "num_workers", "max_batch_size", "max_wait_ms", "batch_policy",
            "batch_size_ceiling", "wait_ms_ceiling", "latency_slo_ms",
            "queue_capacity", "overflow_policy", "cache_capacity",
            "result_cache_capacity", "prefetch_depth", "wave_width",
        },
    ),
    (
        NAIConfig,
        5,
        {"t_min", "t_max", "distance_threshold", "batch_size", "dtype"},
    ),
    (
        ShardConfig,
        5,
        {
            "num_shards", "strategy", "replication_factor", "hot_shard_boost",
            "hot_shard_fraction",
        },
    ),
    (
        MonitorConfig,
        10,
        {
            "window_seconds", "num_buckets", "cadence_seconds", "sample_cap",
            "latency_slo_threshold_seconds", "error_slo_budget_fraction",
            "burn_rate_threshold", "resolve_after_seconds", "min_alert_events",
            "cooldown_seconds",
        },
    ),
]


@pytest.mark.parametrize(
    "config, count, names", LEDGER, ids=[entry[0].__name__ for entry in LEDGER]
)
def test_config_fields_are_the_ledgered_ones(config, count, names):
    settable = {f.name for f in dataclasses.fields(config) if f.init}
    assert settable == names
    assert len(settable) == count


def _source_outside_the_config_module() -> str:
    package = Path(repro.__file__).parent
    config_module = package / "core" / "config.py"
    return "\n".join(
        path.read_text()
        for path in sorted(package.rglob("*.py"))
        if path != config_module
    )


@pytest.mark.parametrize(
    "config", [entry[0] for entry in LEDGER], ids=lambda config: config.__name__
)
def test_every_ledgered_field_is_read_by_the_library(config):
    """A field only the config module mentions is validated and documented
    but steers nothing: every settable knob must be read as ``.<name>``
    somewhere else in the package."""
    source = _source_outside_the_config_module()
    unread = sorted(
        f.name
        for f in dataclasses.fields(config)
        if f.init and not re.search(rf"\.{f.name}\b", source)
    )
    assert unread == [], f"{config.__name__} fields nothing reads: {unread}"


def test_socket_transport_keywords_are_the_ledgered_ones():
    parameters = inspect.signature(SocketTransport.__init__).parameters
    assert set(parameters) - {"self"} == {"addresses", "timeout_seconds"}
