"""Report how far two CSV tables written by dipgpe (state.csv_table) drift apart.

    python tools/csv_drift.py A.csv B.csv

Prints each file's sha256, then per column the largest relative change,
max |a - b| over the column's max |value| in either file, and the first
data row (counted from 1, after the header) whose text differs.  Two
NaNs in the same place count as equal.  The tables must share their
header and row count; otherwise the script exits 1.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np


def _table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header, rows = lines[0].split(","), lines[1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(-1, len(header))
    return header, rows, values


def drift(a: Path, b: Path) -> tuple[dict[str, float], "int | None"]:
    """Per column the largest relative change, and the first differing row (None: none)."""
    header, rows_a, va = _table(a)
    header_b, rows_b, vb = _table(b)
    if header != header_b or len(rows_a) != len(rows_b):
        raise ValueError(f"{a} and {b} differ in header or row count")
    change = np.abs(va - vb)
    change[np.isnan(va) & np.isnan(vb)] = 0.0
    scale = np.nanmax(np.abs(np.concatenate([va, vb])), axis=0, initial=0.0)
    columns = {}
    for name, c, s in zip(header, change.T, scale):
        worst = float(np.max(c, initial=0.0))
        columns[name] = worst / s if worst and s else worst
    first = next((i + 1 for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y), None)
    return columns, first


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/csv_drift.py A.csv B.csv", file=sys.stderr)
        return 1
    paths = [Path(p) for p in args]
    try:
        columns, first = drift(*paths)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(f"sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    width = max(map(len, columns))
    for name, rel in columns.items():
        print(f"{name:<{width}}  {rel:.2g}")
    print(f"first differing row: {'none' if first is None else first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
