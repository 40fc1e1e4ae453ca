"""Prometheus text-format exposition for the serving tier.

Renders every :meth:`ExecutionService.stats` counter, the disk store,
the work queue, the job store, and the per-tenant registry counters as
`Prometheus text format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
``# HELP`` / ``# TYPE`` comment pairs followed by ``name{labels} value``
sample lines.  The mapping is mechanical — numeric stats keys become
``repro_service_<key>_total`` counters, except the readings in
:data:`SERVICE_GAUGES`, which stay ``repro_service_<key>`` gauges;
string-valued keys collapse into one ``repro_service_info`` sample with
label values — so any counter added to ``stats()`` later is exported
without touching this module.

Everything here is pure string formatting on snapshots taken by the
caller; no locks, no I/O.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping

__all__ = [
    "METRICS_CONTENT_TYPE",
    "SERVICE_GAUGES",
    "escape_label_value",
    "render_samples",
    "serving_metrics",
]

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PREFIX = "repro"

#: Numeric ``service.stats()`` keys that can go down: exported as gauges.
SERVICE_GAUGES = frozenset({"cache_hit_rate", "cache_entries"})


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, quote, LF."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float | int | bool) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def render_samples(
    samples: Iterable[tuple[str, Mapping[str, str] | None, float | int | bool]],
    *,
    help_text: Mapping[str, str] | None = None,
    types: Mapping[str, str] | None = None,
) -> str:
    """Render ``(name, labels, value)`` triples grouped under HELP/TYPE headers.

    Samples sharing a metric name are grouped (exposition format requires
    one contiguous block per name); first-seen name order is preserved.
    Unknown names default to ``gauge`` with a generated HELP line.
    """
    help_text = help_text or {}
    types = types or {}
    by_name: dict[str, list[tuple[Mapping[str, str] | None, float | int | bool]]] = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))
    lines: list[str] = []
    for name, rows in by_name.items():
        lines.append(f"# HELP {name} {help_text.get(name, name.replace('_', ' '))}")
        lines.append(f"# TYPE {name} {types.get(name, 'gauge')}")
        for labels, value in rows:
            if labels:
                rendered = ",".join(
                    f'{key}="{escape_label_value(val)}"'
                    for key, val in labels.items()
                )
                lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def serving_metrics(
    service_stats: Mapping[str, object] | None = None,
    store=None,
    queue_status: Mapping[str, object] | None = None,
    tenants=None,
    jobs=None,
) -> str:
    """Assemble the full /metrics payload from serving-tier snapshots.

    Every argument is optional so a bare ``CacheServer`` (no queue, no
    tenants) and a full ``EvalCoordinator`` share one code path.
    ``store`` is a :class:`DiskResultCache`, ``tenants`` a
    :class:`TenantRegistry`, ``jobs`` a :class:`JobStore`.
    """
    samples: list[tuple[str, Mapping[str, str] | None, float | int | bool]] = []
    types: dict[str, str] = {}

    if service_stats:
        info_labels: dict[str, str] = {}
        for key, value in service_stats.items():
            if isinstance(value, bool) or isinstance(value, numbers.Number):
                name = f"{_PREFIX}_service_{key}"
                if key not in SERVICE_GAUGES:
                    name += "_total"
                    types[name] = "counter"
                samples.append((name, None, value))
            else:
                info_labels[key] = str(value)
        if info_labels:
            samples.append((f"{_PREFIX}_service_info", info_labels, 1))

    if store is not None:
        entries = store.entry_stats()
        samples.append((f"{_PREFIX}_store_entries", None, len(entries)))
        samples.append(
            (f"{_PREFIX}_store_bytes", None, sum(size for _, _, size in entries))
        )
        samples.append((f"{_PREFIX}_store_evictions_total", None, store.evictions))
        types[f"{_PREFIX}_store_evictions_total"] = "counter"

    if queue_status:
        for key, value in queue_status.items():
            if key == "lanes" and isinstance(value, Mapping):
                for lane, depth in value.items():
                    samples.append(
                        (
                            f"{_PREFIX}_work_lane_pending",
                            {"tenant": str(lane) or "default"},
                            depth,
                        )
                    )
            elif isinstance(value, numbers.Number):
                samples.append((f"{_PREFIX}_work_{key}", None, value))

    if jobs is not None:
        counts = jobs.counts()
        samples.append((f"{_PREFIX}_jobs_pending", None, counts["pending"]))
        samples.append((f"{_PREFIX}_jobs_done", None, counts["done"]))

    if tenants is not None:
        counter_keys = (
            "requests",
            "throttled",
            "quota_denials",
            "evictions",
        )
        for row in tenants.snapshot():
            label = {"tenant": row["name"]}
            for key in counter_keys:
                name = f"{_PREFIX}_tenant_{key}_total"
                samples.append((name, label, row[key]))
                types[name] = "counter"
            samples.append((f"{_PREFIX}_tenant_bytes_used", label, row["bytes_used"]))
            samples.append((f"{_PREFIX}_tenant_chunks_used", label, row["chunks_used"]))
            samples.append((f"{_PREFIX}_tenant_priority", label, row["priority"]))

    return render_samples(samples, types=types)
