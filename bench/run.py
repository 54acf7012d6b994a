"""Runs one dipgpe benchmark workload and prints its metrics.

    python3 bench/run.py --workload evolve48 --seed 1 --seconds 25 --trace 0

Runs one seeded workload (evolve48, collapse96 or sweep1d; see
workloads.py) from the root of a source checkout, in one process, as a
closed loop with one client: the next run starts when the previous one
has returned.  The only threads are those dipgpe starts itself (pocketfft
workers and the pool of ``epsilon_sweep``).

A unit is one set-up followed by one run.  Set-up (config parse, grid,
initial field, symbol) is repeated several times per unit and timed each
time.  Units repeat in whole cycles until the next cycle would end
after --seconds; at least one cycle runs.  Every unit's result is checked,
and a unit that fails its check or raises counts as failed.

Times are wall-clock seconds (time.perf_counter), the time a user waits;
cpu_s adds process CPU seconds (every thread of the process, read with
time.process_time), which count the work done whatever the threading.

--trace 0 prints the end-to-end metrics, measured with no wrapper
installed: setup_s (median set-up), wall_s (median over cycles of the
mean wall-clock seconds of a run), steps_per_s (median over cycles of
splitting steps completed per wall-clock second of run), cpu_s (as wall_s,
in CPU seconds) and peak_rss_mb.

--trace 1 runs one cycle untraced, one traced and, on sweep1d, the
single-thread baseline, and prints the per-layer metrics (tracer.py)
together with trace.overhead (traced over untraced wall-clock seconds),
grid.fft_thread_speedup and reduction.pool_speedup (both wall-clock
ratios, one worker over the default).  A traced unit fails if a transform
escaped the tracer or if the splitting steps that ran differ from the
count the workload reports.  The sha256 of each output is compared with
the untraced run's and mismatches are printed, but they do not fail.

Each unit writes into its own directory under .bench_scratch/, with an
empty symbol cache, and the directory is removed at exit.  The last line
of output is the JSON result; the line before it holds the machine facts
and per-unit details, including a sha256 of each unit's series output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy import fft

ROOT = Path(__file__).resolve().parents[1]
# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S seconds
# are spent, so that a sub-millisecond set-up gets a steady median.
SETUP_REPEATS = 7
SETUP_MIN_S = 0.25
FFT_REPEATS = 9


@dataclass
class Unit:
    setup_s: list[float]  # wall-clock seconds of each set-up repetition
    cpu_s: float = 0.0
    wall_s: float = 0.0
    steps: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""


def run_unit(workload, text: str, seed: int, scratch: Path, max_workers=None) -> Unit:
    """Set up and run one config in a fresh directory, then check the result."""
    out_dir = Path(tempfile.mkdtemp(prefix="unit", dir=scratch))
    os.environ["GPE_CACHE_DIR"] = str(out_dir / "symbol-cache")
    unit = Unit(setup_s=[])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            while len(unit.setup_s) < SETUP_REPEATS or sum(unit.setup_s) < SETUP_MIN_S:
                t0 = time.perf_counter()
                prepared = workload.setup(text)
                unit.setup_s.append(time.perf_counter() - t0)
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = workload.run(prepared, out_dir, max_workers=max_workers)
            unit.wall_s = time.perf_counter() - t0
            unit.cpu_s = time.process_time() - c0
            unit.steps = outcome.steps
            unit.failures = workload.check(outcome, seed)
            unit.digest = hashlib.sha256(outcome.csv_path.read_bytes()).hexdigest()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            unit.failures.append("raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    unit.failures += [f"warning: {w.message}" for w in caught]
    return unit


def run_cycle(workload, configs, seed, scratch, max_workers=None) -> list[Unit]:
    return [run_unit(workload, text, seed, scratch, max_workers) for text in configs]


def untraced_cycle(workload, configs, seed, scratch) -> list[Unit]:
    from tracer import installed_wrappers

    left = installed_wrappers()
    if left:
        raise RuntimeError(f"untraced run with benchmark wrappers installed: {left}")
    return run_cycle(workload, configs, seed, scratch)


def end_to_end(workload, configs, seed, seconds, scratch) -> tuple[list[Unit], dict]:
    units: list[Unit] = []
    cycles: list[list[Unit]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycles.append(untraced_cycle(workload, configs, seed, scratch))
        units += cycles[-1]
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break

    from tracer import ratio

    def per_cycle(clock: str) -> tuple[float, float]:
        """Median over cycles of the mean run time and of steps per second."""
        means, rates = [], []
        for cycle in cycles:
            spent = sum(getattr(u, clock) for u in cycle)
            means.append(spent / len(cycle))
            rates.append(ratio(sum(u.steps for u in cycle), spent))
        return statistics.median(means), statistics.median(rates)

    wall_s, steps_per_s = per_cycle("wall_s")
    cpu_s, _ = per_cycle("cpu_s")
    metrics = {
        "setup_s": (statistics.median(s for u in units for s in u.setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (steps_per_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return units, metrics


def fft_thread_speedup(shape) -> float:
    """Median time of one complex fftn on one worker over all workers."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = {1: [], -1: []}
    for _ in range(FFT_REPEATS):
        for workers in times:
            t0 = time.perf_counter()
            fft.fftn(x, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[-1])


def report_digests(label: str, units: list[Unit], base: list[Unit]) -> None:
    """Print, without failing, the units whose output bits differ from base."""
    for i, (u, b) in enumerate(zip(units, base)):
        if u.digest != b.digest:
            print(f"sha256 differs: {label} unit {i} from the untraced run", file=sys.stderr)


def traced(workload, configs, seed, scratch) -> tuple[list[Unit], dict]:
    from tracer import LAYER_UNITS, Tracer, ratio, single_thread

    base = untraced_cycle(workload, configs, seed, scratch)
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        traced_units = run_cycle(workload, configs, seed, scratch)
    layers = tracer.layer_metrics(len(configs))
    units = base + traced_units
    escaped = tracer.escaped_transforms()
    if escaped:
        traced_units[-1].failures.append(f"{escaped} transforms ran outside the tracer's grid spans")
    ran, reported = tracer.run_steps(), sum(u.steps for u in traced_units)
    if ran != reported:
        traced_units[-1].failures.append(f"{ran} splitting steps ran, the workload reported {reported}")
    report_digests("traced", traced_units, base)

    pool_speedup = 0.0
    if workload.pooled:
        with contextlib.ExitStack() as stack:
            single_thread(stack)
            serial = run_cycle(workload, configs, seed, scratch, max_workers=1)
        report_digests("single-thread", serial, base)
        units += serial
        pool_speedup = ratio(sum(u.wall_s for u in serial), sum(u.wall_s for u in base))

    layers["grid.fft_thread_speedup"] = fft_thread_speedup(workload.shape)
    layers["reduction.pool_speedup"] = pool_speedup
    layers["trace.overhead"] = ratio(sum(u.wall_s for u in traced_units), sum(u.wall_s for u in base))
    return units, {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}


def machine_facts(workload) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "array_bytes": 16 * int(np.prod(workload.shape)),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"l{level}_size"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dipgpe" / "__init__.py").is_file():
        print(f"dipgpe sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    configs = workload.configs(args.seed)

    scratch = ROOT / ".bench_scratch" / f"{workload.name}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            units, metrics = traced(workload, configs, args.seed, scratch)
        else:
            units, metrics = end_to_end(workload, configs, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    failed = sum(1 for u in units if u.failures)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} failed_share = {failed / len(units):.6g} ({failed} of {len(units)} units)")
    for u in units:
        for failure in u.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
    detail = {
        "machine": machine_facts(workload),
        "units": [
            {
                "cpu_s": u.cpu_s,
                "wall_s": u.wall_s,
                "steps": u.steps,
                "setups": len(u.setup_s),
                "setup_s": statistics.median(u.setup_s) if u.setup_s else 0.0,
                "sha256": u.digest,
                "failures": u.failures,
            }
            for u in units
        ],
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
