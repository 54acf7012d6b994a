import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

from dipgpe.state import csv_table

_PATH = Path(__file__).resolve().parents[1] / "tools" / "csv_drift.py"
_spec = importlib.util.spec_from_file_location("csv_drift", _PATH)
csv_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_drift)


def _write(path, rows, header="epsilon,sup_err,slope_partner"):
    path.write_text(csv_table(header, rows))
    return path


def test_csv_drift_reports_the_largest_relative_change_and_the_first_differing_row(
    tmp_path, capsys
):
    rows = [(0.2, 4.0, math.nan), (0.1, -2.0, 1.5), (0.05, 1.0, 0.75)]
    moved = [rows[0], (0.1, -2.0, 1.5 + 3e-12), (0.05, 1.0 + 2e-15, 0.75)]
    a, b = _write(tmp_path / "a.csv", rows), _write(tmp_path / "b.csv", moved)
    columns, first = csv_drift.drift(a, b)
    # each change over its column's max |value|; two NaNs are equal
    assert columns["epsilon"] == 0.0
    assert columns["sup_err"] == pytest.approx(2e-15 / 4.0, rel=1e-3)
    assert columns["slope_partner"] == pytest.approx(3e-12 / 1.5, rel=1e-3)
    assert first == 2
    assert csv_drift.drift(a, a) == (dict.fromkeys(columns, 0.0), None)

    assert csv_drift.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"sha256 {hashlib.sha256(a.read_bytes()).hexdigest()}  {a}"
    assert out[1] == f"sha256 {hashlib.sha256(b.read_bytes()).hexdigest()}  {b}"
    assert out[2].split() == ["epsilon", "0"] and out[-1] == "first differing row: 2"


def test_csv_drift_refuses_tables_of_another_shape(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", [(0.2, 4.0, 1.0)])
    b = _write(tmp_path / "b.csv", [(0.2, 4.0, 1.0), (0.1, 2.0, 1.0)])
    c = _write(tmp_path / "c.csv", [(0.2, 4.0, 1.0)], header="epsilon,T,sup_err")
    assert csv_drift.main([str(a), str(b)]) == 1
    assert csv_drift.main([str(a), str(c)]) == 1
    assert csv_drift.main([str(a)]) == 1
    assert "header or row count" in capsys.readouterr().err
