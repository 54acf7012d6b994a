"""Compare two source checkouts on one benchmark workload in interleaved pairs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs 10 --seed S \
        --out BENCH_x.json

Pair i (from 1) runs ``python3 bench/run.py --workload W --seed S+i-1
--seconds T --trace 0`` once from each checkout, each in its own
process, the parent first in odd pairs and the change first in even
ones, so drift of the machine over the session falls on both sides
alike.  T is the run_seconds of CHANGE_DIR's BENCHMARK.json, which also
names the end-to-end metrics, the direction in which each is better and
its bound.

For each metric it prints the parent's and the change's median, the
number of pairs the change won, the parent's quartile distance (q3 -
q1) and a verdict: within or outside the bound, or unresolved when the
parent's quartile distance, relative to its median, is wider than the
bound and not every change run beats every parent run.  Under that
summary it prints the number of units whose output digests differ
between the two sides of a pair (differing_units).  It writes one JSON
file: the machine (nproc, python, numpy and scipy versions), the order
of the runs, that summary per metric, the number of differing units and
every run's metrics, failure count and per-unit output digests.  It
reads bench/ from the two checkouts and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def result_line(stdout: str) -> tuple[dict, list[str]]:
    """The JSON result bench/run.py prints last, and the unit digests of the line before."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result, [u.get("sha256", "") for u in detail.get("units", [])]


def record(pair: int, side: str, seed: int, stdout: str) -> dict:
    """One run's record: its place in the order, failures, metric values and digests."""
    result, digests = result_line(stdout)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"pair": pair, "side": side, "seed": seed, "attempted": result["attempted"],
            "failed": result["failed"], **values, "sha256": digests}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: quartiles per side, pairs the change won, the bound's verdict.

    A pair is won when the change's value is better than the parent's in
    the metric's direction.  The worsening is the change's median against
    the parent's, relative to the parent's, positive when worse.  The
    verdict is "unresolved" when the parent's quartile distance over its
    median exceeds the bound, unless every change run beats every parent
    run; else "within_bound" or "outside_bound" by the worsening.
    """
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r for r in runs}
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [side[p, "parent"][name] for p in pairs]
        change = [side[p, "change"][name] for p in pairs]
        pq = np.percentile(parent, [25, 50, 75])
        cq = np.percentile(change, [25, 50, 75])
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        worse = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = worse if lower else -worse
        spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        if spread > m["bound"] and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "within_bound" if worse <= m["bound"] else "outside_bound"
        summary[name] = {
            "parent_q1_median_q3": pq.tolist(),
            "change_q1_median_q3": cq.tolist(),
            "change_better_pairs": int(won),
            "pairs": len(pairs),
            "parent_quartile_distance": float(pq[2] - pq[0]),
            "relative_worsening_of_median": float(worse),
            "bound": m["bound"],
            "verdict": verdict,
        }
    summary["failed"] = {s: sum(r["failed"] for r in runs if r["side"] == s)
                         for s in ("parent", "change")}
    return summary


def differing_units(runs: list[dict]) -> int:
    """The units whose digests differ between the parent and the change of a pair.

    Both sides of a pair run one seed, and bench/run.py repeats the same
    cycle of units, so unit i of each side ran the same configuration;
    the units one side ran beyond the other's count are not compared.
    """
    digests = {(r["pair"], r["side"]): r["sha256"] for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    return sum(
        a != b for p in pairs for a, b in zip(digests[p, "parent"], digests[p, "change"])
    )


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}: median parent -> change (pairs the change won; parent q3 - q1)"]
    for name, s in summary.items():
        if name == "failed":
            continue
        p, c = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
        verdict = {"within_bound": "", "outside_bound": "  OUTSIDE BOUND",
                   "unresolved": "  UNRESOLVED: parent spread past the bound"}[s["verdict"]]
        lines.append(
            f"  {name:<12} {p:.6g} -> {c:.6g} ({s['change_better_pairs']} of {s['pairs']}; "
            f"{s['parent_quartile_distance']:.3g}; {s['relative_worsening_of_median']:+.1%} "
            f"vs bound {s['bound']:.0%}){verdict}"
        )
    lines.append(f"  failed units: parent {summary['failed']['parent']}, "
                 f"change {summary['failed']['change']}")
    return "\n".join(lines)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return done.stdout


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            stdout = _run(getattr(args, side).resolve(), args.workload, seed, seconds)
            runs.append(record(pair, side, seed, stdout))
            print(f"pair {pair} {side} seed {seed} done", file=sys.stderr)
    summary = summarize(runs, spec["end_to_end"])
    differing = differing_units(runs)
    print(report(args.workload, summary))
    print(f"  differing unit digests: {differing}")
    out = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "workload": args.workload,
        "order": f"{args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
                 "parent first in odd pairs",
        "summary": summary,
        "differing_units": differing,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
