"""Inline-SVG span timeline panel for trace documents.

Renders the ``"X"`` (complete) events of a Chrome trace-event document
(:mod:`repro.obs.export`) as a flame-style timeline: one horizontal
band per ``(process, thread)`` track, bars stacked by nesting depth,
colored by span category (the ``layer`` prefix of the
``layer.noun.verb`` name).  Reuses the campaign chart primitives
(:mod:`repro.campaign.svg`) — same palette, same CSS variables, same
determinism contract: identical documents render byte-identical SVG.

This module lives in ``campaign`` (not ``obs``) on purpose: campaign
code may import obs, never the reverse — the instrumentation layer
stays dependency-free so every layer can use it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.svg import MAX_SERIES, _frame, esc

#: bar geometry (px)
LANE_H = 14.0
LANE_GAP = 2.0
TRACK_GAP = 10.0

#: hard cap on drawn bars — a 10k-pass trace would melt the DOM; the
#: longest spans are kept (they are what a timeline is for) and the cut
#: is announced in a caption, never silent
DEFAULT_MAX_BARS = 2000


def _x_events(doc: Mapping[str, object]) -> List[Mapping[str, object]]:
    return [
        e
        for e in doc.get("traceEvents", ())
        if isinstance(e, Mapping) and e.get("ph") == "X"
    ]


def _process_names(doc: Mapping[str, object]) -> Dict[object, str]:
    names: Dict[object, str] = {}
    for e in doc.get("traceEvents", ()):
        if (
            isinstance(e, Mapping)
            and e.get("ph") == "M"
            and e.get("name") == "process_name"
        ):
            args = e.get("args") or {}
            if isinstance(args, Mapping) and "name" in args:
                names[e.get("pid")] = str(args["name"])
    return names


def _assign_depths(
    events: Sequence[Mapping[str, object]],
) -> List[Tuple[Mapping[str, object], int]]:
    """Nesting depth per event of ONE track, from interval containment.

    Spans of one thread are properly nested (context managers), so a
    stack of open end-times reconstructs the depth the tracer saw.
    Sorted by (start, -duration) so a parent precedes the children it
    encloses even when they share a start timestamp.
    """
    ordered = sorted(
        events,
        key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))),
    )
    out: List[Tuple[Mapping[str, object], int]] = []
    stack: List[float] = []  # open span end-times
    for e in ordered:
        ts = float(e.get("ts", 0.0))
        end = ts + float(e.get("dur", 0.0))
        while stack and ts >= stack[-1] - 1e-9:
            stack.pop()
        out.append((e, len(stack)))
        stack.append(end)
    return out


def _fmt_us(us: float) -> str:
    """Compact duration label for a microsecond quantity."""
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.0f}us"


def trace_timeline_svg(
    doc: Mapping[str, object],
    title: Optional[str] = "Span timeline",
    width: int = 960,
    embed_style: bool = True,
) -> str:
    """Render a trace document's spans as one self-contained SVG.

    Tracks (one per ``(pid, tid)``) are sorted by pid then tid for
    determinism; categories map to palette slots in first-seen track
    order.  When the document holds more than :data:`DEFAULT_MAX_BARS`
    spans the shortest are dropped (depth structure of the survivors is
    kept) and a caption reports the cut.
    """
    events = _x_events(doc)
    if not events:
        body = (
            f'<text class="viz-label" x="{width / 2:.1f}" y="40" '
            f'text-anchor="middle">(no spans in trace)</text>'
        )
        return _frame(width, 80, body, title, embed_style)

    n_dropped = 0
    if len(events) > DEFAULT_MAX_BARS:
        keep = sorted(
            events, key=lambda e: -float(e.get("dur", 0.0))
        )[:DEFAULT_MAX_BARS]
        n_dropped = len(events) - DEFAULT_MAX_BARS
        kept_ids = {id(e) for e in keep}
        events = [e for e in events if id(e) in kept_ids]

    pnames = _process_names(doc)
    tracks: Dict[Tuple[object, object], List[Mapping[str, object]]] = {}
    for e in events:
        tracks.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    track_keys = sorted(tracks, key=lambda k: (str(k[0]), str(k[1])))

    t_lo = min(float(e.get("ts", 0.0)) for e in events)
    t_hi = max(
        float(e.get("ts", 0.0)) + float(e.get("dur", 0.0)) for e in events
    )
    span_us = (t_hi - t_lo) or 1.0

    categories = sorted(
        {str(e.get("cat", e.get("name", "?"))).split(".", 1)[0]
         for e in events}
    )
    cat_slot = {c: (i % MAX_SERIES) + 1 for i, c in enumerate(categories)}

    left, right = 150.0, width - 16.0
    top = 30.0 if title else 14.0
    scale = (right - left) / span_us

    body: List[str] = []
    y = top + 8.0
    for key in track_keys:
        with_depth = _assign_depths(tracks[key])
        n_lanes = 1 + max(d for _e, d in with_depth)
        pid, tid = key
        label = pnames.get(pid, f"pid {pid}")
        body.append(
            f'<text class="viz-label" x="8" y="{y + LANE_H - 3:.1f}">'
            f"{esc(label)} · t{esc(tid)}</text>"
        )
        for e, depth in with_depth:
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
            x = left + (ts - t_lo) * scale
            w = max(1.0, dur * scale)
            by = y + depth * (LANE_H + LANE_GAP)
            cat = str(e.get("cat", e.get("name", "?"))).split(".", 1)[0]
            name = str(e.get("name", "?"))
            body.append(
                f'<rect x="{x:.1f}" y="{by:.1f}" width="{w:.1f}" '
                f'height="{LANE_H:.1f}" rx="2" '
                f'fill="var(--series-{cat_slot[cat]})">'
                f"<title>{esc(name)}: {_fmt_us(dur)}</title></rect>"
            )
            if w >= 60.0:
                body.append(
                    f'<text class="viz-value" x="{x + 3:.1f}" '
                    f'y="{by + LANE_H - 3.5:.1f}">{esc(name)}</text>'
                )
        y += n_lanes * (LANE_H + LANE_GAP) + TRACK_GAP

    # time axis: start / midpoint / end of the visible window
    axis_y = y + 2.0
    body.append(
        f'<line class="viz-axis" x1="{left:.1f}" y1="{axis_y:.1f}" '
        f'x2="{right:.1f}" y2="{axis_y:.1f}"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        tx = left + (right - left) * frac
        body.append(
            f'<text class="viz-tick" x="{tx:.1f}" y="{axis_y + 14:.1f}" '
            f'text-anchor="middle">+{_fmt_us(span_us * frac)}</text>'
        )
    # category legend
    lx = left
    ly = axis_y + 32.0
    for cat in categories:
        body.append(
            f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="10" height="10" '
            f'rx="2" fill="var(--series-{cat_slot[cat]})"/>'
        )
        body.append(
            f'<text class="viz-label" x="{lx + 14:.1f}" y="{ly:.1f}">'
            f"{esc(cat)}</text>"
        )
        lx += 14 + 6.4 * max(1, len(cat)) + 14
    if n_dropped:
        body.append(
            f'<text class="viz-label" x="{right:.1f}" y="{top - 4:.1f}" '
            f'text-anchor="end">(+{n_dropped} shortest spans omitted — '
            f"open the .trace.json in Perfetto for all of them)</text>"
        )

    height = int(math.ceil(ly + 12.0))
    return _frame(width, height, "".join(body), title, embed_style)


def timeline_summary_rows(
    doc: Mapping[str, object], top: int = 10
) -> List[Tuple[str, int, float]]:
    """(span name, count, total ms) rows for the panel's side table."""
    agg: Dict[str, List[float]] = {}
    for e in _x_events(doc):
        name = str(e.get("name", "?"))
        row = agg.setdefault(name, [0.0, 0.0])
        row[0] += 1
        row[1] += float(e.get("dur", 0.0)) / 1000.0
    return [
        (name, int(c), total)
        for name, (c, total) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]
        )[:top]
    ]
