"""Effective lower-dimensional models and the reduction-error study.

A cigar-shaped trap squeezes the transverse confinement by 1/eps^2; in
the frame where the transverse variables are stretched back to order
one, the solution factorizes to leading order as a fast transverse
phase times the transverse harmonic ground state chi0 times a slow
longitudinal modulation u.  The modulation solves a one-dimensional
equation with a contact coupling averaged over chi0^2 and a nonlocal
term driven by an effective axial symbol.  A pancake trap gives the
analogous two-dimensional model.

This module builds those reduced models, runs the companion full 3D
simulation in the original (unstretched) frame where the standard
dipolar symbol applies verbatim, and measures the modulation error

    err(t) = || psi_eps(t) - exp(-i mu0 t / eps^2) chi0 u(t) ||_L2

together with the transverse excitation fraction.  The frame change is
resampling-free: matching point counts on boxes scaled by eps make the
stretched-frame field and the original-frame field the same array under
two grids.  Both runs of a comparison, the reduced one and the 3D one,
go through one snapshot routine: the collapse monitor alone samples
them, psi is copied at the comparison times, and a run the monitor
stops raises RuntimeError naming the run.  chi0 is the trap ground
state of the propagator module, taken on the tight axes only.

The stiff transverse phase rotates at mu0 / eps^2, so the 3D time step
is clamped to eps^2 / (20 mu0) to keep at least 20 samples per cycle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .grid import GridError, SpectralGrid, make_grid
from .kernel import Analytic3D, Effective1D, Effective2D, KernelSymbol, build_symbol
from .propagator import CollapseReport, MonitorSpec, _harmonic_profile, evolve
from .state import ObservableSeries, PhysicalParams, WaveField, csv_table, in_stable_cone

SWEEP_HEADER = "epsilon,T,sup_err,slope_partner,excitation_sq"

# Tight axes of the 3D lattice for each target: a cigar squeezes the two
# transverse axes and leaves the dipole axis slow, a pancake squeezes the
# dipole axis and leaves the plane slow.
TIGHT_AXES = {"1d": (0, 1), "2d": (2,)}


def effective_coupling(lambda1: float, transverse_omegas: Sequence[float]) -> float:
    """Contact coupling averaged over the transverse ground-state density.

    For two tight axes: lambda1 * sqrt(omega1 omega2) / (2 pi).  For one
    tight axis: lambda1 * sqrt(omega3 / (2 pi)).  Both follow from the
    quartic integral of the normalized Gaussian ground state.
    """
    omegas = tuple(float(w) for w in transverse_omegas)
    if any(w <= 0.0 for w in omegas):
        raise ValueError("transverse trap frequencies must be positive")
    if len(omegas) == 2:
        return lambda1 * math.sqrt(omegas[0] * omegas[1]) / (2.0 * math.pi)
    if len(omegas) == 1:
        return lambda1 * math.sqrt(omegas[0] / (2.0 * math.pi))
    raise ValueError(f"expected 1 or 2 transverse frequencies, got {len(omegas)}")


@dataclass(eq=False)
class ReductionSetup:
    """Geometry and couplings of one reduction experiment.

    omega holds the three physical trap frequencies (omega1, omega2,
    omega3).  The target names the tight axes (TIGHT_AXES): for "1d" the
    first two are the tight transverse pair, for "2d" the third is tight.
    The remaining slow axes carry u0, the initial longitudinal modulation
    on its own 1D or 2D grid.
    """

    epsilon: float
    omega: tuple[float, float, float]
    lambda1: float
    lambda2: float
    u0: WaveField
    target: str = "1d"
    tight_axes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.target not in TIGHT_AXES:
            raise ValueError(f"target must be '1d' or '2d', got {self.target!r}")
        self.tight_axes = TIGHT_AXES[self.target]
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.omega = tuple(float(w) for w in self.omega)
        if len(self.omega) != 3:
            raise ValueError("omega must have three components")
        if any(w <= 0.0 for w in self.transverse_omegas):
            raise ValueError("transverse trap frequencies must be positive")
        if self.u0.grid.dim != len(self.slow_axes):
            raise GridError(
                f"u0 must be {len(self.slow_axes)}-dimensional for target {self.target!r}"
            )

    @property
    def slow_axes(self) -> tuple[int, ...]:
        return _slow_axes(self.tight_axes)

    @property
    def transverse_omegas(self) -> tuple[float, ...]:
        return tuple(self.omega[a] for a in self.tight_axes)

    @property
    def longitudinal_omegas(self) -> tuple[float, ...]:
        return tuple(self.omega[a] for a in self.slow_axes)

    @cached_property
    def mu0(self) -> float:
        """Transverse ground-state frequency: sum of tight omega halves."""
        return 0.5 * sum(self.transverse_omegas)

    @cached_property
    def kappa(self) -> float:
        return effective_coupling(self.lambda1, self.transverse_omegas)

    def in_stable_regime(self) -> bool:
        return in_stable_cone(self.lambda1, self.lambda2)


def reduced_params(setup: ReductionSetup) -> PhysicalParams:
    return PhysicalParams(
        dim=setup.u0.grid.dim,
        omega=setup.longitudinal_omegas,
        lambda1=setup.kappa,
        lambda2=setup.lambda2,
    )


def reduced_symbol(setup: ReductionSetup) -> "KernelSymbol | None":
    if setup.lambda2 == 0.0:
        return None
    family = Effective1D if setup.target == "1d" else Effective2D
    return build_symbol(setup.u0.grid, family(*setup.transverse_omegas))


def evolve_reduced(
    setup: ReductionSetup,
    dt: float,
    T: float,
    monitor: MonitorSpec = MonitorSpec(),
    callback=None,
    sample_times: "Sequence[float] | None" = None,
) -> tuple[ObservableSeries, "WaveField | CollapseReport"]:
    """Run the effective lower-dimensional model."""
    symbol = reduced_symbol(setup)
    return evolve(
        setup.u0,
        reduced_params(setup),
        symbol,
        dt=dt,
        T=T,
        monitor=monitor,
        callback=callback,
        sample_times=sample_times,
    )


def _slow_axes(tight_axes: Sequence[int]) -> tuple[int, ...]:
    return tuple(a for a in range(3) if a not in tight_axes)


def slow_grid(grid3d: SpectralGrid, tight_axes: Sequence[int]) -> SpectralGrid:
    """The 3D lattice restricted to its slow axes (those not in tight_axes)."""
    slow = _slow_axes(tight_axes)
    return make_grid(
        len(slow),
        [grid3d.extents[a] for a in slow],
        [grid3d.shape[a] for a in slow],
    )


def _factorized(chi: np.ndarray, u: np.ndarray, tight_axes: Sequence[int]) -> np.ndarray:
    """chi (tight axes) times the slow-axes array u, on the 3D lattice."""
    return chi * np.expand_dims(u, tuple(tight_axes))


def well_prepared_data(setup: ReductionSetup, ref_grid3d: SpectralGrid) -> np.ndarray:
    """Stretched-frame array chi0 (tight axes) times u0 (slow axes)."""
    if ref_grid3d.dim != 3:
        raise GridError("the reference grid must be three-dimensional")
    sub = slow_grid(ref_grid3d, setup.tight_axes)
    u_grid = setup.u0.grid
    if sub.shape != u_grid.shape or not all(
        math.isclose(a, b) for a, b in zip(sub.extents, u_grid.extents)
    ):
        raise GridError("reference grid's slow axes must match u0's grid")
    chi = _harmonic_profile(ref_grid3d, setup.tight_axes, setup.transverse_omegas)
    return _factorized(chi, setup.u0.values, setup.tight_axes)


def _run_geometry(
    setup: ReductionSetup, ref_grid3d: SpectralGrid
) -> tuple[SpectralGrid, PhysicalParams]:
    """Original-frame grid and parameters realizing the squeezed trap.

    Shrinking the tight axes' extents by eps with unchanged point counts
    maps each stretched-frame lattice point to an original-frame one, so
    fields transfer between the frames without resampling, and the
    original-frame lattice frequencies are the stretched-frame ones
    divided by eps exactly as the coordinate change requires.
    """
    eps = setup.epsilon
    tight = setup.tight_axes
    extents = [eps * L if a in tight else L for a, L in enumerate(ref_grid3d.extents)]
    omega = tuple(w / eps**2 if a in tight else w for a, w in enumerate(setup.omega))
    grid = make_grid(3, extents, ref_grid3d.shape)
    params = PhysicalParams(dim=3, omega=omega, lambda1=setup.lambda1, lambda2=setup.lambda2)
    return grid, params


def _snap_step(dt_ceiling: float, T: float, n_samples: int) -> float:
    """Largest step <= dt_ceiling such that samples j*T/n_samples land on steps."""
    n = n_samples * max(1, math.ceil(T / (dt_ceiling * n_samples) - 1e-12))
    return T / n


def _check_sample_times(sample_times: Sequence[float], T: float) -> list[float]:
    times = [float(t) for t in sample_times]
    if not times:
        raise ValueError("at least one sample time is required")
    m = len(times)
    for j, t in enumerate(times, start=1):
        if abs(t - j * T / m) > 1e-9 * T:
            raise ValueError(
                "sample times must be evenly spaced as j*T/m so both runs "
                f"can land steps on them; got {t!r} at position {j}"
            )
    return times


def _snapshot_run(
    run: str, grid: SpectralGrid, field0: WaveField, *args, **kwargs
) -> list[tuple[float, WaveField]]:
    """evolve(field0, *args, **kwargs) with copies of psi at its sample times.

    Each copy is labeled with grid.  The series is not read, so only the
    collapse monitor samples the run; a run it stops raises RuntimeError
    naming the run.
    """
    snapshots: list[tuple[float, WaveField]] = []

    def grab(field: WaveField) -> None:
        snapshots.append((field.t, WaveField(field.values.copy(), grid, field.t)))

    _, outcome = evolve(field0, *args, callback=grab, observables=False, **kwargs)
    if isinstance(outcome, CollapseReport):
        raise RuntimeError(f"{run} tripped the collapse monitor: " + outcome.describe())
    return snapshots


def evolve_rescaled_3d(
    setup: ReductionSetup,
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    sample_times: Sequence[float],
) -> list[tuple[float, WaveField]]:
    """Run the companion 3D problem; return stretched-frame snapshots.

    The evolution happens in the original frame (standard symbol, tight
    trap omega_perp / eps^2, box shrunk by eps on the tight axes); each
    requested snapshot is re-labeled onto the reference grid, which is
    the exact frame change for matched point counts.  The step is
    clamped to eps^2 / (20 mu0) and snapped so samples land on steps.
    """
    times = _check_sample_times(sample_times, T)
    grid, params = _run_geometry(setup, ref_grid3d)
    symbol = build_symbol(grid, Analytic3D()) if setup.lambda2 != 0.0 else None
    values = well_prepared_data(setup, ref_grid3d)
    field0 = WaveField(values=values, grid=grid, t=0.0)

    dt_clamp = min(dt, setup.epsilon**2 / (20.0 * setup.mu0))
    dt_eff = _snap_step(dt_clamp, T, len(times))
    monitor = MonitorSpec(stride=max(1, round(T / dt_eff) // 200))
    return _snapshot_run(
        "companion 3D run", ref_grid3d, field0, params, symbol, dt=dt_eff, T=T,
        monitor=monitor, sample_times=times, warn_resolution=False,
    )


def ground_state_projection(
    field3d: WaveField, transverse_omegas: Sequence[float]
) -> WaveField:
    """Project a stretched-frame 3D field onto the tight ground state.

    The number of tight frequencies selects the target's tight axes
    (TIGHT_AXES): two integrate out the first two axes and return the
    axial modulation, one integrates out the third axis and returns the
    planar modulation.
    """
    omegas = tuple(float(w) for w in transverse_omegas)
    grid = field3d.grid
    if grid.dim != 3:
        raise GridError("projection expects a three-dimensional field")
    tight = {len(axes): axes for axes in TIGHT_AXES.values()}.get(len(omegas))
    if tight is None:
        raise ValueError(f"expected 1 or 2 transverse frequencies, got {len(omegas)}")
    chi = _harmonic_profile(grid, tight, omegas).reshape([grid.shape[a] for a in tight])
    values = np.tensordot(chi, field3d.values, axes=(tuple(range(len(tight))), tight))
    values = values * math.prod(grid.steps[a] for a in tight)
    return WaveField(values=values, grid=slow_grid(grid, tight), t=field3d.t)


def _excitation_sq(
    field3d: WaveField, tight_axes: Sequence[int], transverse_omegas: Sequence[float]
) -> float:
    """||psi - chi0 P psi||^2: the part of psi outside the tight ground state.

    Summed directly rather than as mass(psi) - mass(P psi), a difference
    of two numbers near the unit mass, so it is never negative and keeps
    its relative accuracy at the splitting noise floor.
    """
    chi = _harmonic_profile(field3d.grid, tight_axes, transverse_omegas)
    projected = ground_state_projection(field3d, transverse_omegas)
    rest = field3d.values - _factorized(chi, projected.values, tight_axes)
    return float(np.sum(rest.real * rest.real + rest.imag * rest.imag)) * (
        field3d.grid.cell_volume
    )


@dataclass(frozen=True)
class ReductionStudy:
    """Everything measured while comparing one eps against the reduced model."""

    epsilon: float
    T: float
    samples: list  # (t, err) pairs
    sup_err: float
    excitation_sq: float


def _check_study(setup: ReductionSetup, T: float, allow_unstable: bool) -> None:
    if T <= 0.0:
        raise ValueError("T must be positive")
    if not setup.in_stable_regime() and not allow_unstable:
        raise ValueError(
            "reduction study outside the stable regime; the O(eps) statement "
            "assumes lambda1 >= (4 pi / 3) lambda2 >= 0 "
            "(pass allow_unstable=True to explore anyway)"
        )


def _study(
    setup: ReductionSetup,
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    n_samples: int = 8,
    allow_unstable: bool = False,
    reduced_snapshots: "list[tuple[float, WaveField]] | None" = None,
) -> ReductionStudy:
    _check_study(setup, T, allow_unstable)
    times = [j * T / n_samples for j in range(1, n_samples + 1)]

    if reduced_snapshots is None:
        reduced_snapshots = run_reduced_snapshots(setup, dt, T, n_samples)

    snaps3d = evolve_rescaled_3d(setup, ref_grid3d, dt, T, times)

    chi = _harmonic_profile(ref_grid3d, setup.tight_axes, setup.transverse_omegas)

    dv = ref_grid3d.cell_volume
    samples = []
    excitation = 0.0
    for (t3, psi_eps), (tr, u_t) in zip(snaps3d, reduced_snapshots):
        if abs(t3 - tr) > 1e-9 * max(T, 1.0):
            raise AssertionError("sample times of the two runs diverged")
        phase = np.exp(-1j * setup.mu0 * t3 / setup.epsilon**2)
        model = _factorized(phase * chi, u_t.values, setup.tight_axes)
        err = math.sqrt(float(np.sum(np.abs(psi_eps.values - model) ** 2)) * dv)
        samples.append((t3, err))
        excitation = max(
            excitation,
            _excitation_sq(psi_eps, setup.tight_axes, setup.transverse_omegas),
        )

    return ReductionStudy(
        epsilon=setup.epsilon,
        T=T,
        samples=samples,
        sup_err=max(err for _, err in samples),
        excitation_sq=excitation,
    )


def run_reduced_snapshots(
    setup: ReductionSetup,
    dt: float,
    T: float,
    n_samples: int,
) -> list[tuple[float, WaveField]]:
    """Reduced-model trajectory sampled at j*T/n_samples."""
    times = [j * T / n_samples for j in range(1, n_samples + 1)]
    return _snapshot_run(
        "reduced run", setup.u0.grid, setup.u0, reduced_params(setup), reduced_symbol(setup),
        dt=_snap_step(dt, T, n_samples), T=T, sample_times=times,
    )


def reduction_error(
    setup: ReductionSetup,
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    n_samples: int = 8,
    allow_unstable: bool = False,
) -> list[tuple[float, float]]:
    """Modulation error against the reduced model at each sample time."""
    study = _study(
        setup,
        ref_grid3d,
        dt,
        T,
        n_samples=n_samples,
        allow_unstable=allow_unstable,
    )
    return study.samples


def epsilon_sweep(
    setup: ReductionSetup,
    epsilons: Sequence[float],
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    n_samples: int = 8,
    allow_unstable: bool = False,
    max_workers: "int | None" = None,
) -> list[dict]:
    """Run the error study across eps values concurrently.

    The reduced trajectory does not depend on eps, so it is computed
    once and shared.  Rows come back in input order with the pairwise
    log-log slope against the previous eps (nan on the first row).
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("need at least one eps value")
    _check_study(setup, T, allow_unstable)
    reduced = run_reduced_snapshots(setup, dt, T, n_samples)

    def member(eps: float) -> ReductionStudy:
        return _study(
            replace(setup, epsilon=eps),
            ref_grid3d,
            dt,
            T,
            n_samples=n_samples,
            allow_unstable=allow_unstable,
            reduced_snapshots=reduced,
        )

    if len(epsilons) == 1 or max_workers == 1:
        studies = [member(e) for e in epsilons]
    else:
        with ThreadPoolExecutor(max_workers=max_workers or len(epsilons)) as pool:
            studies = list(pool.map(member, epsilons))

    rows = []
    for i, study in enumerate(studies):
        if i == 0:
            slope = math.nan
        else:
            prev = studies[i - 1]
            slope = math.log(study.sup_err / prev.sup_err) / math.log(
                study.epsilon / prev.epsilon
            )
        rows.append(
            {
                "epsilon": study.epsilon,
                "T": study.T,
                "sup_err": study.sup_err,
                "slope_partner": slope,
                "excitation_sq": study.excitation_sq,
            }
        )
    return rows


def fitted_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def sweep_to_csv(rows: Sequence[dict], path) -> None:
    table = ([row[name] for name in SWEEP_HEADER.split(",")] for row in rows)
    Path(path).write_text(csv_table(SWEEP_HEADER, table))
