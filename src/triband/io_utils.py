"""Deterministic CSV/JSON writers shared by the CLI commands."""

from __future__ import annotations

import csv
import io
import json
import sys


def fmt(x) -> str:
    """12-significant-digit decimal rendering ('' for None)."""
    if x is None:
        return ""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    if isinstance(x, str):
        return x
    return format(float(x), ".12g")


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def render_rows(header, rows, row_format: str) -> str:
    """CSV text of rows that share one format string, e.g. "{:.12g},{}\\r\\n".

    The same bytes as render_csv when each field of row_format renders as
    fmt does and no value needs quoting, without a Python call per value.
    """
    return ",".join(header) + "\r\n" + "".join([row_format.format(*row) for row in rows])


def write_csv(path, header, rows, row_format: str | None = None):
    """Write render_csv(header, rows), or render_rows with row_format; "-" is stdout."""
    text = render_csv(header, rows) if row_format is None else render_rows(header, rows, row_format)
    if path is None or path == "-":
        sys.stdout.write(text)
        return None
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def write_manifest(path, payload: dict):
    """Sidecar JSON manifest describing a run (parameters, version, timings); "-" is stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
