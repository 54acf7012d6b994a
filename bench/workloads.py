"""The benchmark's three seeded workloads and their correctness checks.

A workload turns a seed into config texts for dipgpe, sets a run up from
one config (timed as set-up), runs it (timed as the run) and checks the
result.  dipgpe sees only the generated configs.  Seed 0 is the reference
seed: it reproduces the inputs of the acceptance criterion the workload
is modelled on.

Calls go through the ``dipgpe`` package namespace so that the tracer can
wrap them at the benchmark's own call sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dipgpe
from dipgpe import reduction

REFERENCE_SEED = 0

# Acceptance criterion 8's eps values and its sup errors at each of them.
SWEEP_EPSILONS = (0.2, 0.141, 0.1)
CRITERION8_SUP_ERRS = (1.278e-2, 1.376e-2, 1.332e-2)

MASS_DRIFT_TOL = 1e-10
# Relative energy drift allowed over an evolve48 run.  Seeds 0-7 drift by at
# most 1.4e-8 (the O(dt^2) splitting error); 1e-6 leaves a margin of ~70.
ENERGY_DRIFT_TOL = 1e-6


@dataclass
class Outcome:
    """What a run returns to its check: completed steps and outputs."""

    steps: int
    csv_path: Path
    series: object = None
    report: object = None
    cert: object = None
    rows: list = field(default_factory=list)


def _lines(pairs: dict) -> str:
    def fmt(value):
        if isinstance(value, (tuple, list)):
            return ",".join(fmt(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {fmt(value)}\n" for key, value in pairs.items())


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0x6470])


def simulation_setup(text: str):
    """Config, parameters, initial field and symbol, as ``dipgpe simulate`` builds them."""
    config = dipgpe.parse_config(text)
    grid = config.grid.build()
    params = config.params.build(grid.dim)
    field0 = dipgpe.build_initial_field(config, grid)
    symbol = dipgpe.build_symbol_from_config(config, grid)
    return config, params, field0, symbol


class Evolve48:
    """Criterion 3's trapped dipolar problem run as ``dipgpe simulate`` runs it.

    48^3 on L = 16, lambda1 = 1, lambda2 = 0.3, dt = 1e-3, stride 50.  A unit
    is a T = 0.5 run (500 steps, a quarter of criterion 3's horizon) so that
    a run measures several units.  The bare splitting step dominates; the
    1.77 MB complex arrays fit in L2.  The seed draws the Gaussian widths,
    centre and chirp; seed 0 gives the unit-width centred ground state.

    BENCHMARK.json does not list this workload.  Its 48^3 transforms take
    about 1.7 ms on two pocketfft threads, so its wall-clock figures follow
    how fast a shared host wakes the second vCPU.  On a 2-vCPU KVM guest,
    whole runs went 1.4 times slower for minutes at a time.  Over ten seeds
    the wall_s spread (quartile distance over median) read 0.08-0.39, and
    the gated wall-clock metrics have a bound of 0.25.  Run it by hand with
    --workload evolve48.
    """

    name = "evolve48"
    shape = (48, 48, 48)
    pooled = False

    def configs(self, seed: int) -> list[str]:
        if seed == REFERENCE_SEED:
            widths, center, beta = (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 0.0
        else:
            rng = _rng(seed)
            widths = tuple(float(w) for w in rng.uniform(0.85, 1.15, 3))
            center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, 3))
            beta = float(rng.uniform(-0.2, 0.2))
        return [
            _lines(
                {
                    "grid.dim": 3,
                    "grid.extents": (16.0, 16.0, 16.0),
                    "grid.points": self.shape,
                    "params.omega": (1.0, 1.0, 1.0),
                    "params.lambda1": 1.0,
                    "params.lambda2": 0.3,
                    "init.kind": "gaussian",
                    "init.widths": widths,
                    "init.center": center,
                    "init.beta": beta,
                    "dt": 1e-3,
                    "T": 0.5,
                    "monitor.stride": 50,
                }
            )
        ]

    def setup(self, text: str):
        return simulation_setup(text)

    def run(self, prepared, out_dir: Path, max_workers=None) -> Outcome:
        config, params, field0, symbol = prepared
        dipgpe.write_snapshot(field0, out_dir / "initial.gpef")
        series, outcome = dipgpe.evolve(
            field0, params, symbol, dt=config.dt, T=config.T, monitor=config.monitor
        )
        csv_path = out_dir / "series.csv"
        series.to_csv(csv_path)
        if isinstance(outcome, dipgpe.CollapseReport):
            dipgpe.write_snapshot(outcome.field, out_dir / "collapse.gpef")
            return Outcome(outcome.step, csv_path, series=series, report=outcome)
        dipgpe.write_snapshot(outcome, out_dir / "final.gpef")
        return Outcome(round(config.T / config.dt), csv_path, series=series)

    def check(self, out: Outcome, seed: int) -> list[str]:
        return check_conservation(out)


def check_conservation(out: Outcome) -> list[str]:
    """Mass drift <= 1e-10 and bounded energy drift over a completed run."""
    if out.report is not None:
        return [f"unexpected collapse report: {out.report.describe()}"]
    mass = out.series.column("mass")
    energy = out.series.column("E")
    if not (np.all(np.isfinite(mass)) and np.all(np.isfinite(energy))):
        return ["non-finite mass or energy in the series"]
    failures = []
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    if not mass_drift <= MASS_DRIFT_TOL:
        failures.append(f"mass drift {mass_drift:.3e} > {MASS_DRIFT_TOL:g}")
    energy_drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    if not energy_drift <= ENERGY_DRIFT_TOL:
        failures.append(f"energy drift {energy_drift:.3e} > {ENERGY_DRIFT_TOL:g}")
    return failures


class Collapse96:
    """Criterion 6: certified collapse of squeezed data on a 96^3 grid.

    Box 15 x 15 x 30, lambda1 = 0, lambda2 = 1, alpha = -3, dt = 1e-3 and
    stride 5, run by ``classify`` then ``evolve`` until the monitor's
    CollapseReport.  Sampling is about a third of the run and the 14.2 MB
    arrays do not fit in cache.  The collapse time grows with eps, so one
    unit cycle is the antithetic pair eps = 0.5 -+ d with d drawn from
    [0, 0.02]: the pair's mean time to the verdict hardly depends on the
    seed, while every eps in [0.48, 0.52] is reached.  Seed 0 runs eps = 0.5
    twice.
    """

    name = "collapse96"
    shape = (96, 96, 96)
    pooled = False

    def configs(self, seed: int) -> list[str]:
        d = 0.0 if seed == REFERENCE_SEED else float(_rng(seed).uniform(0.0, 0.02))
        return [self._config(0.5 - d), self._config(0.5 + d)]

    def _config(self, eps: float) -> str:
        return _lines(
            {
                "grid.dim": 3,
                "grid.extents": (15.0, 15.0, 30.0),
                "grid.points": self.shape,
                "params.omega": (1.0, 1.0, 1.0),
                "params.lambda1": 0.0,
                "params.lambda2": 1.0,
                "init.kind": "unstable",
                "init.epsilon": eps,
                "init.alpha": -3.0,
                "dt": 1e-3,
                "T": 1.6,
                "monitor.stride": 5,
            }
        )

    def setup(self, text: str):
        return simulation_setup(text)

    def run(self, prepared, out_dir: Path, max_workers=None) -> Outcome:
        config, params, phi, symbol = prepared
        cert = dipgpe.classify(phi, params, symbol)
        series, outcome = dipgpe.evolve(
            phi, params, symbol, dt=config.dt, T=config.T, monitor=config.monitor
        )
        csv_path = out_dir / "series.csv"
        series.to_csv(csv_path)
        steps = outcome.step if isinstance(outcome, dipgpe.CollapseReport) else round(
            config.T / config.dt
        )
        return Outcome(steps, csv_path, series=series, report=outcome, cert=cert)

    def check(self, out: Outcome, seed: int) -> list[str]:
        failures = []
        energy0 = out.series.records[0].E
        if not energy0 < 0.0:
            failures.append(f"initial energy {energy0!r} is not negative")
        if out.cert.verdict != "BlowupCertified":
            failures.append(f"verdict {out.cert.verdict} instead of BlowupCertified")
        elif abs(out.cert.t_bound - math.pi / 2.0) > 1e-12:
            failures.append(f"t_bound {out.cert.t_bound!r} instead of pi/2")
        if not isinstance(out.report, dipgpe.CollapseReport):
            failures.append("the monitor did not stop the run")
        elif not out.report.t_stop < math.pi / 2.0:
            failures.append(f"t_stop {out.report.t_stop!r} is not below pi/2")
        return failures


class Sweep1D:
    """Criterion 8's eps -> 0 sweep on a 24 x 24 x 64 reference grid.

    eps in {0.2, 0.141, 0.1}, T = 1, 8 samples, dt = 5e-4, run by
    ``epsilon_sweep`` with its pool of three threads.  The 24-point
    transverse axes give the same sup errors as criterion 8's 48 x 48 x 64
    grid to eight digits at the reference seed, at a cost that lets the
    traced pass also run the single-thread baseline.  T stays at 1: the
    member sampling stride is n_total // 200, and a shorter T makes the
    members sampling-bound.  The seed draws the transverse omega1, omega2
    in [0.9, 1.1] and the width of u0; seed 0 gives criterion 8's inputs.
    """

    name = "sweep1d"
    shape = (24, 24, 64)
    # epsilon_sweep runs the members on a thread pool; the traced pass
    # compares it with max_workers = 1.
    pooled = True

    def configs(self, seed: int) -> list[str]:
        if seed == REFERENCE_SEED:
            omega12, width = (1.0, 1.0), 1.0
        else:
            rng = _rng(seed)
            omega12 = tuple(float(w) for w in rng.uniform(0.9, 1.1, 2))
            width = float(rng.uniform(0.9, 1.1))
        return [
            _lines(
                {
                    "grid.dim": 3,
                    "grid.extents": (12.0, 12.0, 16.0),
                    "grid.points": self.shape,
                    "params.omega": omega12 + (1.0,),
                    "params.lambda1": 1.0,
                    "params.lambda2": 0.1,
                    "dt": 5e-4,
                    "reduction.target": "1d",
                    "reduction.epsilons": SWEEP_EPSILONS,
                    "reduction.T": 1.0,
                    "reduction.samples": 8,
                    "reduction.u0_kind": "gaussian",
                    "reduction.u0_width": width,
                }
            )
        ]

    def setup(self, text: str):
        config = dipgpe.parse_config(text)
        ref = config.grid.build()
        axis = dipgpe.make_grid(1, (ref.extents[2],), (ref.shape[2],))
        # The ground state for omega = 1 / width^2 is the normalized Gaussian
        # of that width, so width 1 reproduces criterion 8's u0.
        u0, _ = dipgpe.linear_eigenstate(axis, (config.reduction.u0_width**-2,))
        red = config.reduction
        setup = dipgpe.ReductionSetup(
            epsilon=red.epsilons[0],
            omega=config.params.omega,
            lambda1=config.params.lambda1,
            lambda2=config.params.lambda2,
            u0=u0,
            target=red.target,
        )
        return config, setup, ref

    def run(self, prepared, out_dir: Path, max_workers=None) -> Outcome:
        config, setup, ref = prepared
        red = config.reduction
        rows = dipgpe.epsilon_sweep(
            setup,
            red.epsilons,
            ref,
            config.dt,
            red.T,
            n_samples=red.samples,
            max_workers=max_workers,
        )
        csv_path = out_dir / "sweep.csv"
        dipgpe.sweep_to_csv(rows, csv_path)
        steps = sum(member_steps(eps, setup.mu0, config.dt, red.T, red.samples) for eps in red.epsilons)
        return Outcome(steps, csv_path, rows=rows)

    def check(self, out: Outcome, seed: int) -> list[str]:
        failures = []
        for i, row in enumerate(out.rows):
            # The first row has no partner to take a slope against: nan by design.
            bad = [k for k, v in row.items() if not math.isfinite(v) and (i, k) != (0, "slope_partner")]
            if bad:
                failures.append(f"non-finite {', '.join(bad)} in sweep row {i}")
        eps = tuple(row["epsilon"] for row in out.rows)
        if eps != SWEEP_EPSILONS:
            failures.append(f"rows out of eps order: {eps}")
        if seed == REFERENCE_SEED:
            for row, want in zip(out.rows, CRITERION8_SUP_ERRS):
                if f"{row['sup_err']:.3g}" != f"{want:.3g}":
                    failures.append(
                        f"sup_err {row['sup_err']:.4g} at eps {row['epsilon']} "
                        f"does not match criterion 8's {want:.4g} to three digits"
                    )
        return failures


def member_steps(eps: float, mu0: float, dt: float, T: float, n_samples: int) -> int:
    """3D steps of one sweep member, as ``evolve_rescaled_3d`` chooses them.

    dt is clamped to eps^2 / (20 mu0) and snapped by dipgpe's own
    ``_snap_step``.  The traced pass counts the steps that actually ran and
    fails the unit if they differ from this count.
    """
    return round(T / reduction._snap_step(min(dt, eps**2 / (20.0 * mu0)), T, n_samples))


WORKLOADS = {w.name: w for w in (Evolve48(), Collapse96(), Sweep1D())}
