"""Prometheus types of the exported ``service.stats()`` keys.

Counters that only grow are typed ``counter`` and carry the ``_total``
suffix, so ``rate()`` queries are right; point-in-time readings stay
gauges under their bare name.
"""

import pytest

from repro.quantum.execution import ExecutionService
from repro.quantum.execution.metrics import SERVICE_GAUGES, serving_metrics

STATS = {
    "jobs_submitted": 3,
    "simulations": 2,
    "cache_hits": 1,
    "cache_evictions": 0,
    "cache_hit_rate": 0.5,
    "cache_entries": 4,
    "validate": "off",
}


@pytest.mark.parametrize(
    "key, name, kind",
    [
        ("jobs_submitted", "repro_service_jobs_submitted_total", "counter"),
        ("simulations", "repro_service_simulations_total", "counter"),
        ("cache_hits", "repro_service_cache_hits_total", "counter"),
        ("cache_evictions", "repro_service_cache_evictions_total", "counter"),
        ("cache_hit_rate", "repro_service_cache_hit_rate", "gauge"),
        ("cache_entries", "repro_service_cache_entries", "gauge"),
    ],
)
def test_service_stat_type_and_name(key, name, kind):
    body = serving_metrics(STATS)
    assert f"# TYPE {name} {kind}\n" in body
    assert f"\n{name} {STATS[key]}\n" in body


def test_string_stats_stay_info_labels():
    body = serving_metrics(STATS)
    assert 'repro_service_info{validate="off"} 1' in body
    assert "repro_service_validate" not in body


def test_every_live_numeric_stat_is_typed(tmp_path):
    service = ExecutionService(cache_dir=tmp_path)
    try:
        stats = service.stats()
    finally:
        service.shutdown()
    body = serving_metrics(stats)
    for key, value in stats.items():
        if isinstance(value, str):
            continue
        kind = "gauge" if key in SERVICE_GAUGES else "counter"
        name = f"repro_service_{key}" + ("" if kind == "gauge" else "_total")
        assert f"# TYPE {name} {kind}\n" in body, key
