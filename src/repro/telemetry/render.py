"""Aggregate telemetry snapshots across processes and render the
``repro stats`` dashboard.

Aggregation semantics: counters sum, histograms merge bucket-wise
(exactly equivalent to a single-process stream; see
:mod:`repro.telemetry.core`), gauges sum — the gauges we export
(in-flight requests, live workers) are extensive quantities where a
cross-process sum is the fleet total.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .core import merge_snapshots, quantile_from_snapshot

__all__ = ["aggregate", "hist_summary", "render_dashboard", "render_cache_table"]

QUANTILES = (0.5, 0.9, 0.99)


def aggregate(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process snapshot dicts into one combined view."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    hist_groups: Dict[str, List[Dict[str, Any]]] = {}
    procs = 0
    for snap in snapshots:
        procs += 1
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in (snap.get("gauges") or {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, hsnap in (snap.get("histograms") or {}).items():
            hist_groups.setdefault(name, []).append(hsnap)
    histograms = {name: merge_snapshots(group)
                  for name, group in sorted(hist_groups.items())}
    return {
        "processes": procs,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": histograms,
    }


def hist_summary(snap: Dict[str, Any]) -> Dict[str, Any]:
    """count/sum/mean + p50/p90/p99 pulled from a merged histogram."""
    total = int(snap.get("count") or 0)
    out: Dict[str, Any] = {
        "count": total,
        "sum": snap.get("sum") or 0.0,
        "mean": (snap["sum"] / total) if total else None,
        "min": snap.get("min"),
        "max": snap.get("max"),
    }
    for q in QUANTILES:
        out[f"p{int(q * 100)}"] = quantile_from_snapshot(snap, q)
    return out


def summarize(aggregated: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-friendly digest: histograms replaced by their summaries."""
    return {
        "processes": aggregated["processes"],
        "counters": aggregated["counters"],
        "gauges": aggregated["gauges"],
        "histograms": {name: hist_summary(snap)
                       for name, snap in aggregated["histograms"].items()},
    }


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _fmt_value(value: Optional[float], is_seconds: bool) -> str:
    if value is None:
        return "-"
    if is_seconds:
        return _fmt_seconds(value)
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


_SECTION_PREFIXES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("engine.",)),
    ("kernels & interpreter", ("kernel.", "interp.", "profile.",
                               "batch_exec.")),
    ("service", ("service.", "store.", "worker.")),
    ("training", ("train.",)),
    ("serving", ("policy.", "server.")),
)


def _section_for(name: str) -> str:
    for title, prefixes in _SECTION_PREFIXES:
        if name.startswith(prefixes):
            return title
    return "other"


def render_dashboard(aggregated: Dict[str, Any]) -> str:
    """Textual dashboard for ``repro stats`` grouped by stack layer."""
    lines: List[str] = []
    lines.append(f"telemetry across {aggregated['processes']} process(es)")

    sections: Dict[str, List[str]] = {}

    hists = aggregated["histograms"]
    if hists:
        for name, snap in hists.items():
            s = hist_summary(snap)
            is_seconds = name.endswith(".seconds")
            row = (f"  {name:<42} n={s['count']:<8} "
                   f"p50={_fmt_value(s['p50'], is_seconds):<10} "
                   f"p90={_fmt_value(s['p90'], is_seconds):<10} "
                   f"p99={_fmt_value(s['p99'], is_seconds):<10} "
                   f"max={_fmt_value(s['max'], is_seconds)}")
            if is_seconds:
                row += f" total={_fmt_seconds(s['sum'])}"
            sections.setdefault(_section_for(name), []).append(row)

    counters = aggregated["counters"]
    if counters:
        for name, value in counters.items():
            row = f"  {name:<42} {_fmt_value(value, False)}"
            sections.setdefault(_section_for(name), []).append(row)

    gauges = aggregated["gauges"]
    if gauges:
        for name, value in gauges.items():
            row = f"  {name:<42} {_fmt_value(value, False)} (gauge)"
            sections.setdefault(_section_for(name), []).append(row)

    order = [title for title, _ in _SECTION_PREFIXES] + ["other"]
    for title in order:
        rows = sections.get(title)
        if not rows:
            continue
        lines.append("")
        lines.append(f"[{title}]")
        lines.extend(rows)

    if len(lines) == 1:
        lines.append("  (no metrics recorded yet)")
    return "\n".join(lines)


def render_cache_table(info: Dict[str, Any]) -> str:
    """Hit-rate table over the whole cache hierarchy. ``info`` is
    ``HLSToolchain.aggregate_cache_info()`` output merged with the
    process-wide ``kernel_cache_info()``/``plan_cache_info()`` counters
    (the aggregate deliberately excludes those as non-additive)."""
    rows: List[Tuple[str, int, int, str, bool]] = []

    def add(label: str, hits: Any, misses: Any, always: bool = False) -> None:
        if hits is None and misses is None:
            return
        hits = int(hits or 0)
        misses = int(misses or 0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        rows.append((label, hits, misses, rate, always))

    add("engine result memo", info.get("memo_hits"), info.get("memo_misses"))
    if info.get("effective_hits"):
        # of the hits above: found under the effective-sequence key
        # ("misses" = hits under the key as given)
        add("  of which by effective sequence", info["effective_hits"],
            int(info.get("memo_hits") or 0) - info["effective_hits"])
    add("engine feature memo", info.get("feature_hits"),
        info.get("feature_misses"))
    # trie "rate" = prefix passes skipped / passes considered
    add("prefix trie (passes saved)", info.get("passes_saved"),
        info.get("passes_applied"))
    # "rate" = passes not run as known no-ops / passes considered
    add("prefix trie (no-ops skipped)", info.get("noop_skipped"),
        info.get("passes_applied"))
    add("persistent store", info.get("persistent_hits"),
        info.get("dispatched_requests"))
    # process-global caches render whenever their counters were sampled,
    # even at zero — a standalone `repro cache stats` (no toolchain live
    # in-process) must still show the rows instead of an empty table
    add("kernel cache", info.get("kernel_hits"), info.get("kernel_misses"),
        always=True)
    add("block-plan cache", info.get("plan_hits"), info.get("plan_misses"),
        always=True)
    # "rate" = deduped lanes / lanes submitted to the batch executor
    add("batch executor (lanes deduped)", info.get("batch_dedup_saved"),
        info.get("batch_executed"), always=True)
    add("exec-signature memo", info.get("batch_sig_memo_hits"),
        info.get("batch_sig_memo_misses"), always=True)
    rows = [r for r in rows if r[1] or r[2] or r[4]]
    if not rows:
        return "(no cache activity recorded in this process)"
    label_w = max(max(len(r[0]) for r in rows), len("cache"))
    lines = [f"{'cache':<{label_w}}  {'hits':>10}  {'misses':>10}  {'rate':>7}"]
    for label, hits, misses, rate, _ in rows:
        lines.append(f"{label:<{label_w}}  {hits:>10}  {misses:>10}  {rate:>7}")
    return "\n".join(lines)
