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


def _pair_runs(metric, parent, change):
    """Synthetic run records: pair i has the parent's and the change's i-th value."""
    return [
        {"pair": p, "side": side, metric: value, "failed": 0}
        for p, pair in enumerate(zip(parent, change), 1)
        for side, value in zip(("parent", "change"), pair)
    ]


def test_bench_pairs_flags_a_metric_past_its_bound():
    def runs(parent, change):
        return _pair_runs("wall_s", parent, change)

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


def _claim(metric, parent, change):
    spec = next(m for m in METRICS if m["name"] == metric)
    summary = bench_pairs.summarize(_pair_runs(metric, parent, change), [spec])
    return bench_pairs.claim(summary, spec)


def test_bench_pairs_claim_needs_nine_tenths_of_the_pairs_and_a_median_past_the_spread():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    # every pair won, the median 0.5 lower against a quartile distance of 0.45
    c = _claim("wall_s", parent, [p - 0.5 for p in parent])
    assert c == {"metric": "wall_s", "pairs_won": 10, "median_change": pytest.approx(-0.5),
                 "parent_quartile_distance": pytest.approx(0.45), "met": True}
    assert bench_pairs.claim_line(c, 10).startswith("claim met: wall_s won 10 of 10 pairs")
    # every pair won, but by less than the parent's quartile distance
    c = _claim("wall_s", parent, [p - 0.4 for p in parent])
    assert c["pairs_won"] == 10 and not c["met"]
    assert bench_pairs.claim_line(c, 10).startswith("claim not met")
    # a tie counts for neither side: nine wins and a tie meet the rule,
    # eight wins and two ties do not
    change = [p - 1.0 for p in parent]
    c = _claim("wall_s", parent, change[:9] + parent[9:])
    assert c["pairs_won"] == 9 and c["met"]
    c = _claim("wall_s", parent, change[:8] + parent[8:])
    assert c["pairs_won"] == 8 and not c["met"]
    # one lost pair of ten still meets it, two do not
    assert _claim("wall_s", parent, change[:9] + [3.5])["met"]
    assert not _claim("wall_s", parent, change[:8] + [3.5, 3.5])["met"]
    # higher is better: the gain is the change's median above the parent's
    c = _claim("steps_per_s", parent, [p + 0.5 for p in parent])
    assert c["median_change"] == pytest.approx(0.5) and c["met"]
    assert not _claim("steps_per_s", parent, [p - 0.5 for p in parent])["met"]
    # a change that fails more units than the parent meets no claim,
    # one that fails as many does
    runs = _pair_runs("wall_s", parent, [p - 0.5 for p in parent])
    spec = METRICS[0]
    runs[1]["failed"] = 1
    assert not bench_pairs.claim(bench_pairs.summarize(runs, [spec]), spec)["met"]
    runs[0]["failed"] = 1
    assert bench_pairs.claim(bench_pairs.summarize(runs, [spec]), spec)["met"]


def test_bench_pairs_writes_the_claim_it_was_asked_for(tmp_path, monkeypatch, capsys):
    # the change is 0.5 s faster in every pair, on a parent spread of 0.2 s
    def fake_run(checkout, workload, seed, seconds):
        wall = 2.0 + (seed % 5) / 10 - (0.5 if checkout.name == "change" else 0.0)
        return _bench_stdout(wall, 100.0 / wall)

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"run_seconds": 25, "end_to_end": METRICS}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "5", "--seed", "10", "--out", str(out)]
    assert bench_pairs.main(argv + ["--claim", "wall_s"]) == 0
    claimed = json.loads(out.read_text())["claim"]
    assert claimed["metric"] == "wall_s" and claimed["pairs_won"] == 5 and claimed["met"]
    assert claimed["median_change"] == pytest.approx(-0.5)
    assert capsys.readouterr().out.splitlines()[-1].startswith("claim met: wall_s won 5 of 5")
    # without --claim no claim is written; an unknown metric is refused
    assert bench_pairs.main(argv) == 0
    assert "claim" not in json.loads(out.read_text())
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--claim", "nonsense"])
    assert "not an end-to-end metric" in capsys.readouterr().err


def test_bench_pairs_counts_the_units_whose_digests_differ_within_a_pair():
    # unit i of each side of a pair ran the same seed and configuration;
    # units one side ran beyond the other's count are not compared
    def run(pair, side, digests):
        return {"pair": pair, "side": side, "sha256": digests}

    runs = [
        run(1, "parent", ["a", "b", "a"]), run(1, "change", ["a", "b"]),
        run(2, "change", ["a", "x", "a", "y"]), run(2, "parent", ["a", "b", "c", "b"]),
        run(3, "parent", ["a"]), run(3, "change", ["a", "b", "a"]),
    ]
    assert bench_pairs.differing_units(runs) == 3
    assert bench_pairs.differing_units(runs[:2] + runs[4:]) == 0
    # the same digests in another pair's other side do not make a match
    assert bench_pairs.differing_units([run(1, "parent", ["a"]), run(1, "change", ["b"]),
                                        run(2, "parent", ["b"]), run(2, "change", ["a"])]) == 2


def test_bench_pairs_prints_and_writes_the_differing_units(tmp_path, monkeypatch, capsys):
    # the change's second unit differs in every pair
    def fake_run(checkout, workload, seed, seconds):
        stdout = _bench_stdout(2.0, 50.0)
        return stdout if checkout.name == "parent" else stdout.replace('"cd"', '"ef"')

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"run_seconds": 25, "end_to_end": METRICS}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "3", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["differing_units"] == 3
    assert capsys.readouterr().out.splitlines()[-1] == "  differing unit digests: 3"


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
