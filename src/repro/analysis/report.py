"""Plain-text tables for benchmark output (paper-style result rows)."""

from __future__ import annotations


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Render an aligned ASCII table.

    Cells are stringified with ``str``; floats should be pre-formatted by the
    caller so benches control the precision they claim.  Ragged rows are
    tolerated: short rows pad with empty cells, long rows extend the table
    with blank-headed columns rather than crashing the renderer.
    """
    cells = [[str(c) for c in row] for row in rows]
    n_cols = max([len(headers)] + [len(row) for row in cells])
    headers = list(headers) + [""] * (n_cols - len(headers))
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        padded = row + [""] * (n_cols - len(row))
        lines.append("  ".join(c.ljust(w) for c, w in zip(padded, widths)))
    return "\n".join(lines)


def store_report(aggregates) -> str:
    """Render a results store's aggregates as plain text.

    The headless twin of the live dashboard: the same precomputed view
    (:meth:`repro.obs.store.ResultsStore.aggregate`, or its ``as_dict``
    form — the dashboard's ``/api/summary`` payload works too), rendered
    with :func:`format_table` for boxes without a browser::

        python -m repro.obs.dashboard --store DIR --report
    """
    # Imported lazily: repro.analysis.fleet imports this module, and the
    # bug classifier pulls in the fuzzing/ISA layers this renderer
    # otherwise doesn't need.
    from repro.analysis.bugs import classify_mismatch
    from repro.fuzzing.mismatch import Mismatch

    agg = aggregates.as_dict() if hasattr(aggregates, "as_dict") else aggregates
    if agg["union_percent"] is None:  # one union per DUT universe
        union = ", ".join(f"{percent:.2f}% of {universe}"
                          for universe, percent in agg["union_percents"].items())
    else:
        union = f"{agg['union_percent']:.2f}% of {agg['universe']}"
    lines = [
        "Fleet results store",
        f"  runs: {agg['runs']}{' (live)' if agg['live'] else ''}"
        f"  mode: {agg['mode'] or '-'}  worker slots: {agg['worker_slots']}",
        f"  union coverage: {union}  tests: {agg['total_tests']}",
        f"  wall: {agg['wall_seconds']:.1f}s  busy: {agg['busy_seconds']:.1f}s"
        f"  utilisation: {100.0 * agg['utilisation']:.0f}%",
        "",
    ]
    arm_rows = [
        [
            row["name"],
            row["tests"],
            f"{row['coverage_percent']:.2f}",
            f"{row['busy_seconds']:.1f}",
            row["slices"],
            len(row["curve"]),
            "yes" if row["quarantined"] else "",
        ]
        for row in agg["arms"]
    ]
    lines.append(format_table(
        ["arm", "tests", "cov %", "busy s", "slices", "points", "quarantined"],
        arm_rows, title="Arms"))
    lines.append("")

    phases = agg["phases"]
    lines.append(format_table(
        ["phase", "seconds"],
        [[name.removesuffix("_seconds"), f"{seconds:.2f}"]
         for name, seconds in sorted(phases.items())],
        title="Per-phase wall time"))
    lines.append("")

    # An aggregates object built from an empty store has empty health —
    # render zeros rather than crash (the dashboard page does the same).
    health = agg["health"]
    lines.append(format_table(
        ["retries", "timeouts", "pool rebuilds", "quarantined arms"],
        [[health.get("retries", 0), health.get("timeouts", 0),
          health.get("pool_rebuilds", 0),
          len(health.get("quarantined", []))]],
        title="Fleet health"))
    lines.append("")

    bug_rows = []
    for entry in agg["mismatches"]:
        signature = _freeze(entry["signature"])
        match = classify_mismatch(Mismatch(
            kind=entry["kind"], index=0, pc=entry["pc"],
            detail=entry["detail"], signature=signature,
        ))
        bug_rows.append([
            match.bug_id if match else "UNEXPLAINED",
            entry["kind"],
            ", ".join(entry["campaigns"]),
            entry["detail"][:48],
        ])
    bug_rows.sort(key=lambda row: (row[0], row[1]))
    lines.append(format_table(
        ["bug", "kind", "campaigns", "detail"], bug_rows,
        title=f"E-BUGS ({len(bug_rows)} unique signatures)"))
    return "\n".join(lines)


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value
