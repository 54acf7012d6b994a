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
them, psi goes to a consumer at each comparison time as evolve hands
it, and a run the monitor stops raises RuntimeError naming the run.
The reduced run keeps its samples, held when u0 is even, and every eps
shares them; the 3D run's consumer compares each sample as it lands
and keeps only the running results, so no eps member holds a list of
3D fields.  chi0 is
the trap ground state of the propagator module, taken on the tight
axes only.

The 3D data chi0 u0 is mirror-even along each axis where its factor
is, and evolve runs it on the lattice even along those axes (the
propagator module), so the companion run forms it on that lattice's
held indices alone, with state.separable_field, the package's one
constructor of separable data.  u0 and the reduced samples are read
through WaveField.held(), the library's one read of a field, and never
mirrored in place, so the eps members share them.  The 3D samples are
handed on held by their table (state.WaveField), labeled with the
reference grid by the frame change.  The modulation error, the projection and the
excitation are sums over the table with each even axis' weights, their
models the held product of the tight and slow parts
(SpectralGrid.held_product), so no eps member forms a full 3D lattice.
They are einsums without optimize and numpy reductions, never a BLAS
contraction: BLAS threads spin beside the eps members that share the
cores.

The stiff transverse phase rotates at mu0 / eps^2, so the 3D time step
is clamped to eps^2 / (20 mu0) to keep at least 20 samples per cycle.
"""

from __future__ import annotations

import contextvars
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .grid import GridError, SpectralGrid, make_grid
from .kernel import _FAMILIES, _FAMILY_OF_DIM, Analytic3D, KernelSymbol, build_symbol
from .propagator import CollapseReport, MonitorSpec, _harmonic_profile, evolve
from .state import (
    ObservableSeries,
    PhysicalParams,
    WaveField,
    _sum_sq,
    csv_table,
    in_stable_cone,
    separable_field,
)

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
    if not all(0.0 < w < math.inf for w in omegas):
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
    kappa: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.target not in TIGHT_AXES:
            raise ValueError(f"target must be '1d' or '2d', got {self.target!r}")
        self.tight_axes = TIGHT_AXES[self.target]
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        self.omega = tuple(float(w) for w in self.omega)
        if len(self.omega) != 3:
            raise ValueError("omega must have three components")
        # effective_coupling refuses a nonpositive or non-finite transverse
        # frequency, and the 3D problem's parameters a non-finite coupling
        # and a negative or non-finite slow-axis frequency
        self.kappa = effective_coupling(self.lambda1, self.transverse_omegas)
        PhysicalParams(3, self.omega, self.lambda1, self.lambda2)
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
    family, _ = _FAMILIES[_FAMILY_OF_DIM[setup.u0.grid.dim]]
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


def _well_prepared_table(setup: ReductionSetup, ref_grid3d: SpectralGrid) -> np.ndarray:
    """chi0 (tight axes) times u0 (slow axes) at the held indices of its lattice.

    The field is state.separable_field's of the two factors: even along
    a tight axis where chi0's factor is and along a slow axis where u0
    is, bit for bit.  u0 is read through WaveField.held() and never
    mirrored in place, so the eps members may share a held u0.
    """
    if ref_grid3d.dim != 3:
        raise GridError("the reference grid must be three-dimensional")
    tight = setup.tight_axes
    sub = slow_grid(ref_grid3d, tight)
    u_grid = setup.u0.grid
    if sub.shape != u_grid.shape or not all(
        math.isclose(a, b) for a, b in zip(sub.extents, u_grid.extents)
    ):
        raise GridError("reference grid's slow axes must match u0's grid")
    chi = _harmonic_profile(ref_grid3d, tight, setup.transverse_omegas)
    u = np.expand_dims(u_grid.unfold(setup.u0.held()[0]), tight)
    return separable_field(ref_grid3d, [chi, u]).held()[0]


def well_prepared_data(setup: ReductionSetup, ref_grid3d: SpectralGrid) -> np.ndarray:
    """Stretched-frame array chi0 (tight axes) times u0 (slow axes), on the full lattice."""
    return WaveField(_well_prepared_table(setup, ref_grid3d), ref_grid3d).values


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
    run: str,
    consume: Callable[[WaveField], None],
    field0: WaveField,
    *args,
    **kwargs,
) -> None:
    """evolve(field0, *args, **kwargs), handing psi to consume at its sample times.

    Each sample reaches consume as evolve hands it: a field of field0's
    grid, held by its table when the run took a sublattice.  Its array
    is the one evolve materialized for the callback, which the loop
    never touches again, so it is passed on without a copy.  The series
    is not read, so only the collapse monitor samples the run; a run it
    stops raises RuntimeError naming the run.
    """
    _, outcome = evolve(field0, *args, callback=consume, observables=False, **kwargs)
    if isinstance(outcome, CollapseReport):
        raise RuntimeError(f"{run} tripped the collapse monitor: " + outcome.describe())


def _companion_run(
    setup: ReductionSetup,
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    sample_times: Sequence[float],
    consume: Callable[[WaveField], None],
) -> None:
    """Run the companion 3D problem, handing each stretched-frame sample to consume.

    The evolution happens in the original frame (standard symbol, tight
    trap omega_perp / eps^2, box shrunk by eps on the tight axes); each
    requested sample is re-labeled onto the reference grid, which is the
    exact frame change for matched point counts.  The step is clamped to
    eps^2 / (20 mu0) and snapped so samples land on steps.
    """
    times = _check_sample_times(sample_times, T)
    grid, params = _run_geometry(setup, ref_grid3d)
    symbol = build_symbol(grid, Analytic3D()) if setup.lambda2 != 0.0 else None
    # evolve runs a held table as it is
    field0 = WaveField(values=_well_prepared_table(setup, ref_grid3d), grid=grid, t=0.0)

    dt_clamp = min(dt, setup.epsilon**2 / (20.0 * setup.mu0))
    dt_eff = _snap_step(dt_clamp, T, len(times))
    monitor = MonitorSpec(stride=max(1, round(T / dt_eff) // 200))

    def stretch(field: WaveField) -> None:
        # the frame change: the same array, labeled with the reference grid
        consume(WaveField(field.held()[0], ref_grid3d, field.t))

    _snapshot_run(
        "companion 3D run", stretch, field0, params, symbol, dt=dt_eff, T=T,
        monitor=monitor, sample_times=times, warn_resolution=False,
    )


def evolve_rescaled_3d(
    setup: ReductionSetup,
    ref_grid3d: SpectralGrid,
    dt: float,
    T: float,
    sample_times: Sequence[float],
) -> list[tuple[float, WaveField]]:
    """Run the companion 3D problem; return stretched-frame snapshots.

    The samples of _companion_run, kept as (t, field) pairs; a sample is
    held by its table when the run took a sublattice.
    """
    snapshots: list[WaveField] = []
    _companion_run(setup, ref_grid3d, dt, T, sample_times, snapshots.append)
    return [(field.t, field) for field in snapshots]


def ground_state_projection(
    field3d: WaveField, transverse_omegas: Sequence[float]
) -> WaveField:
    """Project a stretched-frame 3D field onto the tight ground state.

    The number of tight frequencies selects the target's tight axes
    (TIGHT_AXES): two integrate out the first two axes and return the
    axial modulation, one integrates out the third axis and returns the
    planar modulation.  A held field is read on its table, and the
    modulation comes back held along the field's even slow axes.
    """
    omegas = tuple(float(w) for w in transverse_omegas)
    grid = field3d.grid
    if grid.dim != 3:
        raise GridError("projection expects a three-dimensional field")
    tight = {len(axes): axes for axes in TIGHT_AXES.values()}.get(len(omegas))
    if tight is None:
        raise ValueError(f"expected 1 or 2 transverse frequencies, got {len(omegas)}")
    table, lattice = field3d.held()
    chi = _harmonic_profile(lattice, tight, omegas)
    values = _project(table, lattice, chi, tight)
    return WaveField(values=values, grid=slow_grid(grid, tight), t=field3d.t)


def _project(
    table: np.ndarray, lattice: SpectralGrid, chi: np.ndarray, tight_axes: Sequence[int]
) -> np.ndarray:
    """The integral of chi times table over the tight axes, at the held slow indices.

    chi is the tight profile at the lattice's held indices; each even
    tight axis' weights make the sum the full lattice's.
    """
    for a in tight_axes:
        w = lattice.weights[a]
        if w is not None:
            chi = chi * np.expand_dims(w, tuple(b for b in range(3) if b != a))
    chi = chi.reshape([lattice.shape[a] for a in tight_axes])
    # einsum without optimize never calls BLAS (see the module docstring)
    values = np.einsum(chi, list(tight_axes), table, [0, 1, 2], list(_slow_axes(tight_axes)))
    return values * math.prod(lattice.steps[a] for a in tight_axes)


def _distance_sq(table: np.ndarray, model: np.ndarray, lattice: SpectralGrid) -> float:
    """||table - model||^2 over the full lattice; model, a fresh array, is overwritten."""
    np.subtract(table, model, out=model)
    return _sum_sq(model, lattice) * lattice.cell_volume


def _excitation_sq(
    field3d: WaveField, tight_axes: Sequence[int], transverse_omegas: Sequence[float]
) -> float:
    """||psi - chi0 P psi||^2: the part of psi outside the tight ground state.

    Summed directly rather than as mass(psi) - mass(P psi), a difference
    of two numbers near the unit mass, so it is never negative and keeps
    its relative accuracy at the splitting noise floor.
    """
    table, lattice = field3d.held()
    chi = _harmonic_profile(lattice, tight_axes, transverse_omegas)
    projected = np.expand_dims(_project(table, lattice, chi, tight_axes), tuple(tight_axes))
    return _distance_sq(table, lattice.held_product([chi, projected]), lattice)


def _modulation_error(psi_eps: WaveField, u_t: WaveField, setup: ReductionSetup) -> float:
    """||psi_eps - exp(-i mu0 t / eps^2) chi0 u_t||, psi_eps on the reference grid."""
    table, lattice = psi_eps.held()
    tight = setup.tight_axes
    phase = np.exp(-1j * setup.mu0 * psi_eps.t / setup.epsilon**2)
    chi = _harmonic_profile(lattice, tight, setup.transverse_omegas)
    # u_t mirrored along its slow axes alone, which held_product cuts to lattice
    u = u_t.grid.unfold(u_t.held()[0])
    model = lattice.held_product([phase * chi, np.expand_dims(u, tight)])
    return math.sqrt(_distance_sq(table, model, lattice))


@dataclass(frozen=True)
class ReductionStudy:
    """Everything measured while comparing one eps against the reduced model."""

    epsilon: float
    T: float
    samples: list  # (t, err) pairs
    sup_err: float
    excitation_sq: float


def _check_study(
    setup: ReductionSetup, dt: float, T: float, n_samples: int, allow_unstable: bool
) -> None:
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
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
    _check_study(setup, dt, T, n_samples, allow_unstable)
    times = [j * T / n_samples for j in range(1, n_samples + 1)]

    if reduced_snapshots is None:
        reduced_snapshots = run_reduced_snapshots(setup, dt, T, n_samples)

    samples = []
    excitation = 0.0

    def compare(psi_eps: WaveField) -> None:
        nonlocal excitation
        t3 = psi_eps.t
        tr, u_t = reduced_snapshots[len(samples)]
        if abs(t3 - tr) > 1e-9 * max(T, 1.0):
            raise AssertionError("sample times of the two runs diverged")
        samples.append((t3, _modulation_error(psi_eps, u_t, setup)))
        excitation = max(
            excitation,
            _excitation_sq(psi_eps, setup.tight_axes, setup.transverse_omegas),
        )

    _companion_run(setup, ref_grid3d, dt, T, times, compare)
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
    """Reduced-model trajectory sampled at j*T/n_samples.

    The samples are kept as evolve hands them, held when u0 is even:
    an epsilon_sweep's member threads share them, and read them through
    WaveField.held() alone.
    """
    times = [j * T / n_samples for j in range(1, n_samples + 1)]
    snapshots: list[WaveField] = []
    _snapshot_run(
        "reduced run", snapshots.append, setup.u0, reduced_params(setup),
        reduced_symbol(setup), dt=_snap_step(dt, T, n_samples), T=T, sample_times=times,
    )
    return [(field.t, field) for field in snapshots]


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
    Every member runs on the pool, in a copy of the caller's context;
    max_workers caps its threads, one per eps value when None.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("need at least one eps value")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError(f"eps values must be distinct, got {epsilons}")
    if max_workers is not None and (
        not isinstance(max_workers, numbers.Integral) or max_workers < 1
    ):
        raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
    _check_study(setup, dt, T, n_samples, allow_unstable)
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

    # each member runs in a copy of the caller's context, so numpy's error
    # state (np.errstate) holds there as on the calling thread
    with ThreadPoolExecutor(max_workers=max_workers or len(epsilons)) as pool:
        runs = [pool.submit(contextvars.copy_context().run, member, e) for e in epsilons]
        studies = [run.result() for run in runs]

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
