"""Prometheus text-format exposition for :class:`MetricsRegistry` exports.

The serving gateway's ``/metrics`` endpoint renders the merged metric
state of every shard worker in the Prometheus text exposition format
(version 0.0.4): one ``# TYPE`` header per metric family, counters as
``name{label="value"} 1``, histograms flattened into ``_count`` /
``_sum`` / ``_min`` / ``_max`` series.  Each shard returns its
:class:`~repro.obs.registry.MetricsRegistry` over its socket, the
gateway merges them with :meth:`~repro.obs.registry.MetricsRegistry.merge`,
and rendering works on the merged registry's JSON-friendly
:meth:`~repro.obs.registry.MetricsRegistry.as_dict` export.

Inputs/outputs: an ``as_dict()``-shaped export in (``{"counters": [...],
"histograms": [...]}``); :func:`render_prometheus` returns deterministic
exposition text — families and series are emitted in sorted order so
equal inputs always render byte-identical output.

Thread/process safety: the function is pure (no shared state, no
I/O); its input is not mutated.  Safe to call from any thread or process.
"""

from __future__ import annotations

_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return str(value).translate(_ESCAPES)


def _series_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Integral values print without a trailing ".0" (Prometheus accepts
    # either; the bare form keeps counter lines stable and greppable).
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def render_prometheus(export: dict) -> str:
    """Render one ``as_dict()``-shaped export as Prometheus text format.

    Counter families emit ``# TYPE <name> counter``; histogram families
    emit ``# TYPE <name> summary`` with ``_count``/``_sum`` series plus
    non-standard-but-conventional ``_min``/``_max`` gauge lines.  Output
    is sorted (family name, then label set) and ends with a newline.
    """
    lines: list[str] = []
    by_family: dict[str, list[tuple[tuple[tuple[str, str], ...], float]]] = {}
    for entry in export.get("counters", []):
        by_family.setdefault(entry["name"], []).append(
            (_series_key(entry.get("labels", {})), float(entry["value"]))
        )
    for name in sorted(by_family):
        lines.append(f"# TYPE {name} counter")
        for labels, value in sorted(by_family[name]):
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    histogram_families: dict[str, list[tuple[tuple[tuple[str, str], ...], dict]]] = {}
    for entry in export.get("histograms", []):
        histogram_families.setdefault(entry["name"], []).append(
            (_series_key(entry.get("labels", {})), entry)
        )
    for name in sorted(histogram_families):
        lines.append(f"# TYPE {name} summary")
        for labels, entry in sorted(histogram_families[name]):
            rendered = _format_labels(labels)
            lines.append(f"{name}_count{rendered} {_format_value(entry.get('count', 0))}")
            lines.append(f"{name}_sum{rendered} {_format_value(entry.get('total', 0.0))}")
            lines.append(f"{name}_min{rendered} {_format_value(entry.get('min', 0.0))}")
            lines.append(f"{name}_max{rendered} {_format_value(entry.get('max', 0.0))}")
    return "\n".join(lines) + "\n"
