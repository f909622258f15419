"""ASCII rendering of :class:`~repro.telemetry.TimeSeries` payloads.

``repro monitor`` uses these to turn a time-series capture (live or a
``--timeseries`` JSON file) into terminal pictures:

* a **link-utilization heatmap** — one row per directed NoC link, one
  column per (re-binned) interval, brightness = flit-cycles carried
  over the interval width,
* a **per-tile stall timeline** — one row per tile, each column showing
  the *dominant* attribution bucket of that interval (``#`` compute,
  ``m`` memory stall, ``i`` I-cache stall, ``b`` branch bubble, ``c``
  comm blocked, ``.`` no activity sampled).

Renderers take the JSON-shaped dict (:meth:`TimeSeries.to_dict`), so a
saved capture and a live run render identically.
"""

# Ten-step brightness ramp for the heatmap (space = idle).
HEAT_RAMP = " .:-=+*#%@"

#: (sample field, glyph, legend label) for the stall timeline, in
#: display order.  Each retired instruction owns one compute cycle, so
#: the per-interval ``instructions`` delta IS the compute bucket.
STALL_GLYPHS = (
    ("instructions", "#", "compute"),
    ("memory_stall", "m", "memory_stall"),
    ("icache_stall", "i", "icache_stall"),
    ("branch_bubble", "b", "branch_bubble"),
    ("comm_blocked", "c", "comm_blocked"),
)

_IDLE = "."


def _span(payload):
    """(first, last) interval index across every series; None if empty."""
    indices = []
    for samples in payload.get("tiles", {}).values():
        indices.extend(s["index"] for s in samples)
    for samples in payload.get("noc", {}).get("links", {}).values():
        indices.extend(s["index"] for s in samples)
    for samples in payload.get("fabric", {}).get("channels", {}).values():
        indices.extend(s["index"] for s in samples)
    if not indices:
        return None
    return min(indices), max(indices)


def _link_key(name):
    """Numeric sort for '3->7'-style link names (lexical fallback)."""
    try:
        src, dst = name.split("->")
        return (0, int(src), int(dst))
    except ValueError:
        return (1, 0, 0)


def _columns(first, last, width):
    """Map interval indices onto at most ``width`` display columns."""
    count = last - first + 1
    per_column = max(1, -(-count // width))  # ceil
    ncols = -(-count // per_column)
    return per_column, ncols


def _timescale(first, last, interval, per_column, ncols, label_pad):
    """The 'cycles N..M, K cycles/column' footer line."""
    lo = first * interval
    hi = (last + 1) * interval
    return (" " * label_pad
            + f"cycles {lo}..{hi} ({per_column * interval} cycles/column, "
            f"{ncols} columns)")


def render_link_heatmap(payload, width=64):
    """The per-link flit-utilization heatmap (one row per link)."""
    links = payload.get("noc", {}).get("links", {})
    interval = payload.get("interval") or 1
    span = _span(payload)
    if not links or span is None:
        return "no NoC link traffic sampled"
    first, last = span
    per_column, ncols = _columns(first, last, width)
    capacity = per_column * interval  # flit-cycles one column can carry
    label_width = max(len(name) for name in links) + 2
    lines = [f"link utilization ({len(links)} links, "
             f"ramp '{HEAT_RAMP}' = 0..100%):"]
    for name in sorted(links, key=_link_key):
        cells = [0] * ncols
        for sample in links[name]:
            cells[(sample["index"] - first) // per_column] += sample["flits"]
        # Any traffic at all shows at least the dimmest glyph.
        row = "".join(
            HEAT_RAMP[max(1, min(len(HEAT_RAMP) - 1,
                                 int(len(HEAT_RAMP) * cell / capacity)))]
            if cell else HEAT_RAMP[0]
            for cell in cells
        )
        lines.append(f"{name:<{label_width}}|{row}|")
    lines.append(_timescale(first, last, interval, per_column, ncols,
                            label_width + 1))
    return "\n".join(lines)


def render_stall_timeline(payload, width=64):
    """The per-tile dominant-bucket timeline (one row per tile)."""
    tiles = payload.get("tiles", {})
    interval = payload.get("interval") or 1
    span = _span(payload)
    if not tiles or span is None:
        return "no tile samples"
    first, last = span
    per_column, ncols = _columns(first, last, width)
    label_width = max(len(f"tile {tile}") for tile in tiles) + 2
    legend = "  ".join(
        f"{glyph}={label}" for _field, glyph, label in STALL_GLYPHS
    )
    lines = [f"per-tile stall timeline ({legend}, {_IDLE}=idle):"]
    for tile in sorted(tiles, key=int):
        cells = [None] * ncols
        for sample in tiles[tile]:
            column = (sample["index"] - first) // per_column
            bucket = cells[column]
            if bucket is None:
                bucket = cells[column] = {}
            for field, _glyph, _label in STALL_GLYPHS:
                value = sample.get(field, 0)
                if value:
                    bucket[field] = bucket.get(field, 0) + value
        row = []
        for bucket in cells:
            if not bucket:
                row.append(_IDLE)
                continue
            dominant = max(
                STALL_GLYPHS,
                key=lambda item: bucket.get(item[0], 0),
            )
            row.append(dominant[1])
        lines.append(f"{f'tile {tile}':<{label_width}}|{''.join(row)}|")
    lines.append(_timescale(first, last, interval, per_column, ncols,
                            label_width + 1))
    return "\n".join(lines)


def render_monitor(payload, width=64):
    """The full ``repro monitor`` picture: timeline + heatmap."""
    parts = [render_stall_timeline(payload, width=width)]
    links = payload.get("noc", {}).get("links", {})
    if links:
        parts.append(render_link_heatmap(payload, width=width))
    dropped = payload.get("dropped_intervals", 0)
    if dropped:
        parts.append(f"warning: {dropped} interval(s) evicted from the "
                     f"ring buffer (raise --interval or capacity)")
    return "\n\n".join(parts)
