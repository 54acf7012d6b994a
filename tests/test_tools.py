import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from dipgpe.state import csv_table

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_drift = _load("csv_drift")
bench_pairs = _load("bench_pairs")
code_lines = _load("code_lines")


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


METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "better": "higher", "bound": 0.25},
]


def _bench_stdout(wall_s, steps_per_s, failed=0):
    """What bench/run.py --trace 0 prints: metric lines, the detail line, the result line."""
    detail = {"machine": {}, "units": [{"sha256": "ab"}, {"sha256": "cd"}]}
    result = {
        "correct": failed == 0, "attempted": 2, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "steps_per_s": {"value": steps_per_s, "unit": "1/s"}},
    }
    return f"w wall_s = {wall_s} s\n{json.dumps(detail)}\n{json.dumps(result)}\n"


def test_bench_pairs_summarizes_interleaved_result_lines(tmp_path, monkeypatch, capsys):
    # pair i: the parent's wall_s is 2 + i / 10; the change is faster in all but pair 4
    walls = {p: (2.0 + p / 10, 2.0 + p / 10 + (0.3 if p == 4 else -0.05)) for p in range(1, 6)}
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout.name == "parent" else "change"
        calls.append((side, seed, seconds))
        wall = walls[seed - 100 + 1][side == "change"]
        return _bench_stdout(wall, 100.0 / wall, failed=int(side == "change" and seed == 102))

    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    spec = {"run_seconds": 25, "end_to_end": METRICS}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "5", "--seed", "100", "--out", str(out)]
    assert bench_pairs.main(argv) == 0

    # parent first in odd pairs, one seed per pair, the run seconds of BENCHMARK.json
    sides = [side for side, _, _ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert [seed for _, seed, _ in calls] == [100, 100, 101, 101, 102, 102, 103, 103, 104, 104]
    assert {seconds for _, _, seconds in calls} == {25}

    written = json.loads(out.read_text())
    assert set(written["machine"]) == {"nproc", "python", "numpy", "scipy"}
    assert len(written["runs"]) == 10 and written["runs"][0]["sha256"] == ["ab", "cd"]
    wall = written["summary"]["wall_s"]
    assert wall["change_better_pairs"] == 4 and wall["pairs"] == 5
    assert wall["parent_q1_median_q3"] == pytest.approx([2.2, 2.3, 2.4])
    assert wall["change_q1_median_q3"] == pytest.approx([2.15, 2.25, 2.45])
    assert wall["parent_quartile_distance"] == pytest.approx(0.2)
    assert wall["relative_worsening_of_median"] == pytest.approx(-0.05 / 2.3)
    assert wall["verdict"] == "within_bound"
    # higher is better: the change wins the same pairs, and its worsening is negative
    rate = written["summary"]["steps_per_s"]
    assert rate["change_better_pairs"] == 4 and rate["relative_worsening_of_median"] < 0.0
    assert written["summary"]["failed"] == {"parent": 0, "change": 1}

    printed = capsys.readouterr().out
    assert "wall_s       2.3 -> 2.25 (4 of 5; 0.2;" in printed
    assert "failed units: parent 0, change 1" in printed


def test_bench_pairs_flags_a_metric_past_its_bound():
    def runs(parent, change):
        return [
            {"pair": p, "side": side, "wall_s": value, "failed": 0}
            for p, pair in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), pair)
        ]

    summary = bench_pairs.summarize(runs([1.0] * 3, [1.3] * 3), METRICS[:1])
    assert summary["wall_s"]["change_better_pairs"] == 0
    assert summary["wall_s"]["relative_worsening_of_median"] == pytest.approx(0.3)
    assert summary["wall_s"]["verdict"] == "outside_bound"
    assert "OUTSIDE BOUND" in bench_pairs.report("w", summary)
    # the parent's quartile distance is 1.0 against a median of 2.0, 50 % > 25 %:
    # a 10 % worsening is unresolved, not within the bound
    summary = bench_pairs.summarize(runs([1.0, 2.0, 3.0], [2.1, 2.2, 2.3]), METRICS[:1])
    assert summary["wall_s"]["relative_worsening_of_median"] == pytest.approx(0.1)
    assert summary["wall_s"]["verdict"] == "unresolved"
    assert "UNRESOLVED" in bench_pairs.report("w", summary)
    # unless every change run beats every parent run
    summary = bench_pairs.summarize(runs([1.0, 2.0, 3.0], [0.5, 0.6, 0.7]), METRICS[:1])
    assert summary["wall_s"]["verdict"] == "within_bound"


_MODULE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment counts as code


# a comment line
def area(r):
    """A function docstring."""
    text = """a string
that is not a docstring"""
    total = math.pi * \\
        r * r
    return (total +
            len(text))


class Shape:
    "A one-line class docstring."

    sides = 0
'''


def test_code_lines_counts_lines_that_hold_code(tmp_path, capsys):
    # docstrings, comment lines and blank lines are not counted; every
    # line of a multi-line string that is not a docstring and every
    # continuation line are
    assert code_lines.code_lines(_MODULE) == 10
    assert code_lines.code_lines("") == 0
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(_MODULE)
    (package / "sub" / "tail.py").write_text("# only a comment\nx = 1\n")
    assert code_lines.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [["__init__.py", "10"], ["sub/tail.py", "1"], ["total", "11"]]
    assert [line.split() for line in out] == rows
    assert code_lines.main([str(package / "missing")]) == 1
