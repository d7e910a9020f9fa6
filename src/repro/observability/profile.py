"""Wall-time attribution: roll a span forest up into a profile.

A traced run yields a span tree mirroring the pipeline (experiment ->
phase -> capture).  This module answers "where did the time go?" by
aggregating that tree per span name: how often each stage ran, its
total (inclusive) time, and its *self* time -- the part not accounted
for by child spans -- so a hot kernel shows up as self time in the
leaf stage that calls it rather than being smeared across every
ancestor.

The ``repro profile exp1`` CLI command runs an experiment under
tracing and prints this table, replacing hand-measured attribution
("~84% of exp1 in the per-word capture loop") with a first-class
report.  The same rollup works on spans merged from worker
processes, so a sharded sweep profiles the same way a sequential run
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.observability import trace

__all__ = [
    "AttributionRow",
    "attribute_spans",
    "build_report",
    "render_report",
]


@dataclass(frozen=True)
class AttributionRow:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        """Mean inclusive duration per occurrence."""
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "self_s": round(self.self_s, 6),
            "mean_s": round(self.mean_s, 6),
        }


def attribute_spans(
    spans: Optional[Sequence[trace.Span]] = None,
) -> list[AttributionRow]:
    """Aggregate a span forest into per-name attribution rows.

    For each span, *self* time is its duration minus the sum of its
    children's durations (clamped at zero against clock jitter); rows
    come back sorted by self time, descending -- the profile's "where
    the time actually goes" ordering.
    """
    forest = trace.roots() if spans is None else spans
    totals: dict[str, list] = {}
    for root in forest:
        for sp in root.walk():
            duration = sp.duration_s or 0.0
            children = sum(c.duration_s or 0.0 for c in sp.children)
            bucket = totals.setdefault(sp.name, [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] += max(duration - children, 0.0)
    rows = [
        AttributionRow(name=name, count=count, total_s=total, self_s=self_s)
        for name, (count, total, self_s) in totals.items()
    ]
    rows.sort(key=lambda row: row.self_s, reverse=True)
    return rows


def build_report(
    spans: Optional[Sequence[trace.Span]] = None,
    wall_s: Optional[float] = None,
) -> dict:
    """The full attribution report as one JSON-ready document.

    ``wall_s`` is the externally measured wall time of the profiled
    run; ``coverage`` is the fraction of it the root spans explain
    (the `repro profile` acceptance bar is >= 0.9).  Self times
    partition the root total by construction, so the rows' self-time
    column sums back to the inclusive total.
    """
    forest = trace.roots() if spans is None else spans
    rows = attribute_spans(forest)
    roots_total = sum(root.duration_s or 0.0 for root in forest)
    report = {
        "rows": [row.to_dict() for row in rows],
        "spans_total_s": round(roots_total, 6),
    }
    retries, simulated_s = _retry_wait(forest)
    if retries:
        # Simulated backoff is budgeted but never slept, so it is real
        # attack time without being wall time -- report it on its own
        # line rather than letting it vanish into zero-duration spans.
        report["retry_waits"] = retries
        report["retry_wait_simulated_s"] = round(simulated_s, 6)
    if wall_s is not None:
        report["wall_s"] = round(wall_s, 6)
        report["coverage"] = round(roots_total / wall_s, 4) if wall_s else 0.0
    return report


def _retry_wait(forest: Sequence[trace.Span]) -> tuple[int, float]:
    """(count, simulated seconds) summed over ``retry.wait`` spans."""
    count, simulated = 0, 0.0
    for root in forest:
        for sp in root.walk():
            if sp.name == "retry.wait":
                count += 1
                simulated += float(sp.attrs.get("simulated_delay_s", 0.0))
    return count, simulated


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.3f}s"


def render_report(report: dict) -> str:
    """ASCII table of an attribution report (see :func:`build_report`)."""
    rows = report["rows"]
    total = report["spans_total_s"] or 1.0
    name_width = max([len(r["name"]) for r in rows] + [len("span")])
    lines = [
        f"{'span':<{name_width}}  {'count':>7}  {'total':>9}  "
        f"{'self':>9}  {'self%':>6}  {'mean':>9}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>7}  "
            f"{_fmt_seconds(row['total_s']):>9}  "
            f"{_fmt_seconds(row['self_s']):>9}  "
            f"{row['self_s'] / total * 100.0:>5.1f}%  "
            f"{_fmt_seconds(row['mean_s']):>9}"
        )
    if report.get("retry_waits"):
        lines.append(
            f"retry: {report['retry_waits']} backoff wait(s), "
            f"{_fmt_seconds(report['retry_wait_simulated_s'])} simulated "
            f"(budgeted, never slept; excluded from wall time)"
        )
    if "coverage" in report:
        lines.append(
            f"spans cover {_fmt_seconds(report['spans_total_s'])} of "
            f"{_fmt_seconds(report['wall_s'])} measured wall time "
            f"({report['coverage'] * 100.0:.1f}%)"
        )
    return "\n".join(lines)
