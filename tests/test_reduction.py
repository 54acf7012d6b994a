import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from dipgpe import (
    Analytic3D,
    Effective1D,
    GridError,
    KernelSymbol,
    MonitorSpec,
    PhysicalParams,
    ReductionSetup,
    WaveField,
    build_symbol,
    classify,
    effective_coupling,
    energy,
    epsilon_sweep,
    evolve,
    evolve_reduced,
    evolve_rescaled_3d,
    fitted_slope,
    ground_state_projection,
    linear_eigenstate,
    make_grid,
    make_unstable_data,
    mass,
    reduced_params,
    record_observables,
    reduced_symbol,
    reduction_error,
    sweep_to_csv,
    well_prepared_data,
)
from dipgpe import reduction, regimes
from dipgpe.grid import mirror_even_axes
from dipgpe.reduction import _excitation_sq, run_reduced_snapshots

from allocations import large_allocations

OMEGA = (1.0, 1.0, 1.0)


def axial_grid():
    return make_grid(1, [12.0], [32])


def reference_grid():
    return make_grid(3, [10.0, 10.0, 12.0], [32, 32, 32])


def axial_ground_state(grid=None):
    g = grid or axial_grid()
    u0, _ = linear_eigenstate(g, (1.0,))
    return u0


def transverse_profile(ref, omegas=(1.0, 1.0)):
    x1, x2 = ref.coords[0][:, None], ref.coords[1][None, :]
    chi = np.ones((1, 1))
    for w, c in zip(omegas, (x1, x2)):
        chi = chi * ((w / math.pi) ** 0.25 * np.exp(-0.5 * w * c * c))
    return chi


def sup_model_error(snaps3, reduced, setup, ref):
    chi = transverse_profile(ref, setup.transverse_omegas)
    dv = ref.cell_volume
    worst = 0.0
    for (t3, psi), (_, u_t) in zip(snaps3, reduced):
        phase = np.exp(-1j * setup.mu0 * t3 / setup.epsilon**2)
        model = phase * chi[:, :, None] * u_t.values[None, None, :]
        worst = max(
            worst, math.sqrt(float(np.sum(np.abs(psi.values - model) ** 2)) * dv)
        )
    return worst


def test_effective_coupling_values():
    assert effective_coupling(1.0, (1.0, 1.0)) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-15
    )
    assert effective_coupling(1.0, (1.0,)) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
    )
    assert effective_coupling(2.5, (1.3, 0.7)) == pytest.approx(
        2.5 * math.sqrt(1.3 * 0.7) / (2.0 * math.pi), rel=1e-14
    )
    assert effective_coupling(0.0, (1.0, 1.0)) == 0.0


def test_effective_coupling_validation():
    with pytest.raises(ValueError):
        effective_coupling(1.0, (1.0, -1.0))
    with pytest.raises(ValueError):
        effective_coupling(1.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        effective_coupling(1.0, ())


def test_setup_properties():
    u0 = axial_ground_state()
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.2, u0, "1d")
    assert s.transverse_omegas == (1.0, 1.0)
    assert s.longitudinal_omegas == (1.0,)
    assert s.mu0 == pytest.approx(1.0)
    assert s.kappa == pytest.approx(1.0 / (2.0 * math.pi))
    assert s.in_stable_regime()
    loose = ReductionSetup(0.2, OMEGA, 0.1, 0.1, u0, "1d")
    assert not loose.in_stable_regime()


def test_setup_2d_target():
    g2 = make_grid(2, [12.0, 12.0], [24, 24])
    u0, _ = linear_eigenstate(g2, (1.0, 1.0))
    s = ReductionSetup(0.2, (1.0, 1.0, 2.0), 1.0, 0.0, u0, "2d")
    assert s.transverse_omegas == (2.0,)
    assert s.mu0 == pytest.approx(1.0)
    assert s.kappa == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)))


def test_setup_validation():
    u0 = axial_ground_state()
    with pytest.raises(ValueError):
        ReductionSetup(0.0, OMEGA, 1.0, 0.0, u0, "1d")
    with pytest.raises(ValueError):
        ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "radial")
    with pytest.raises(ValueError):
        ReductionSetup(0.2, (1.0, 1.0), 1.0, 0.0, u0, "1d")
    g2 = make_grid(2, [12.0, 12.0], [24, 24])
    u2, _ = linear_eigenstate(g2, (1.0, 1.0))
    with pytest.raises(GridError):
        ReductionSetup(0.2, OMEGA, 1.0, 0.0, u2, "1d")


def test_reduced_params_and_symbol():
    u0 = axial_ground_state()
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "1d")
    p = reduced_params(s)
    assert p.dim == 1
    assert p.omega == (1.0,)
    assert p.lambda1 == pytest.approx(1.0 / (2.0 * math.pi))
    assert p.lambda2 == 0.0
    assert reduced_symbol(s) is None
    s2 = ReductionSetup(0.2, OMEGA, 1.0, 0.2, u0, "1d")
    sym = reduced_symbol(s2)
    assert sym is not None
    assert sym.values.shape == u0.grid.shape
    assert sym.values[0] == pytest.approx(-4.0 / 3.0, abs=1e-10)


def test_well_prepared_data_mass_and_shape():
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "1d")
    values = well_prepared_data(s, ref)
    assert values.shape == ref.shape
    field = WaveField(values, ref)
    assert mass(field) == pytest.approx(mass(u0), rel=1e-10)


@pytest.mark.parametrize(
    "tight_axes, omegas", [((0, 1), (1.0, 1.0)), ((0, 1), (1.07, 0.95)), ((0,), (1.2,))]
)
def test_tight_profile_is_the_accumulated_product_bit_for_bit(tight_axes, omegas):
    g3 = make_grid(3, (12.0, 12.0, 16.0), (24, 24, 64))
    # the former construction: np.ones(1) times each tight-axis factor
    expected = np.ones(1)
    for axis, w in zip(tight_axes, omegas):
        c = g3.coord_mesh[axis]
        expected = expected * ((w / math.pi) ** 0.25 * np.exp(-0.5 * w * c * c))
    chi = reduction._harmonic_profile(g3, tight_axes, omegas)
    assert chi.shape == expected.shape
    assert np.array_equal(chi.view(np.uint64), expected.view(np.uint64))


def test_well_prepared_data_grid_mismatch():
    u0 = axial_ground_state()
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "1d")
    bad_points = make_grid(3, [10.0, 10.0, 12.0], [32, 32, 48])
    with pytest.raises(GridError):
        well_prepared_data(s, bad_points)
    bad_extent = make_grid(3, [10.0, 10.0, 16.0], [32, 32, 32])
    with pytest.raises(GridError):
        well_prepared_data(s, bad_extent)


def test_well_prepared_data_grid_mismatch_2d():
    g2 = make_grid(2, [12.0, 12.0], [24, 24])
    u0, _ = linear_eigenstate(g2, (1.0, 1.0))
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "2d")
    good = make_grid(3, [12.0, 12.0, 8.0], [24, 24, 32])
    assert well_prepared_data(s, good).shape == good.shape
    bad_points = make_grid(3, [12.0, 12.0, 8.0], [24, 32, 32])
    with pytest.raises(GridError):
        well_prepared_data(s, bad_points)
    bad_extent = make_grid(3, [12.0, 16.0, 8.0], [24, 24, 32])
    with pytest.raises(GridError):
        well_prepared_data(s, bad_extent)


def test_projection_recovers_modulation():
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 1.0, 0.0, u0, "1d")
    field = WaveField(well_prepared_data(s, ref), ref)
    proj = ground_state_projection(field, (1.0, 1.0))
    assert proj.grid.dim == 1
    assert proj.grid.shape == (32,)
    assert np.max(np.abs(proj.values - u0.values)) < 1e-8


def test_projection_kills_excited_transverse_mode():
    u0 = axial_ground_state()
    ref = reference_grid()
    x1 = ref.coords[0][:, None, None]
    x2 = ref.coords[1][None, :, None]
    # first excited transverse state along x1 is odd, hence orthogonal
    chi_exc = (
        math.sqrt(2.0)
        * (1.0 / math.pi) ** 0.25
        * x1
        * np.exp(-0.5 * x1**2)
        * (1.0 / math.pi) ** 0.25
        * np.exp(-0.5 * x2**2)
    )
    field = WaveField(chi_exc * u0.values[None, None, :], ref)
    proj = ground_state_projection(field, (1.0, 1.0))
    # the half-open box breaks odd symmetry at the lone -L/2 node, so the
    # cancellation is only as good as the Gaussian tail there
    assert np.max(np.abs(proj.values)) < 1e-9


def test_excitation_is_the_mass_of_the_excited_transverse_mode():
    ref = make_grid(3, [14.0, 14.0, 12.0], [32, 32, 32])
    z = ref.coords[2]
    u = 0.7 * np.exp(-0.5 * (z - 0.3) ** 2 + 0.4j * z)
    chi0 = transverse_profile(ref)
    # first excited transverse state along x1, normalized
    chi1 = math.sqrt(2.0) * ref.coords[0][:, None] * chi0
    u_sq = float(np.sum(np.abs(u) ** 2)) * ref.steps[2]
    for a in (1e-4, 0.3):
        values = (chi0 + a * chi1)[:, :, None] * u[None, None, :]
        got = _excitation_sq(WaveField(values, ref), (0, 1), (1.0, 1.0))
        assert got == pytest.approx(a * a * u_sq, rel=1e-12)
    ground = WaveField(chi0[:, :, None] * u[None, None, :], ref)
    assert 0.0 <= _excitation_sq(ground, (0, 1), (1.0, 1.0)) < 1e-24


def test_projection_is_a_contraction():
    ref = reference_grid()
    rng = np.random.default_rng(17)
    field = WaveField(
        rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape), ref
    )
    proj = ground_state_projection(field, (1.0, 1.0))
    assert mass(proj) <= mass(field) * (1.0 + 1e-12)


def test_projection_2d_target():
    g2 = make_grid(2, [12.0, 12.0], [24, 24])
    u0, _ = linear_eigenstate(g2, (1.0, 1.0))
    ref = make_grid(3, [12.0, 12.0, 10.0], [24, 24, 32])
    chi = (2.0 / math.pi) ** 0.25 * np.exp(-ref.coords[2] ** 2)
    field = WaveField(u0.values[:, :, None] * chi[None, None, :], ref)
    proj = ground_state_projection(field, (2.0,))
    assert proj.grid.dim == 2
    assert np.max(np.abs(proj.values - u0.values)) < 1e-8


def test_projection_validation():
    g2 = make_grid(2, [12.0, 12.0], [24, 24])
    u0, _ = linear_eigenstate(g2, (1.0, 1.0))
    with pytest.raises(GridError):
        ground_state_projection(u0, (1.0, 1.0))
    ref = reference_grid()
    field = WaveField(np.zeros(ref.shape), ref)
    with pytest.raises(ValueError):
        ground_state_projection(field, (1.0, 1.0, 1.0))


def test_evolve_reduced_ground_state_is_stationary():
    u0 = axial_ground_state()
    s = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0, "1d")
    series, out = evolve_reduced(s, 1e-3, 1.0, monitor=MonitorSpec(stride=100))
    overlap = np.vdot(u0.values, out.values) * u0.grid.cell_volume
    assert abs(overlap * np.exp(0.5j * 1.0) - 1.0) < 1e-6
    m = series.column("mass")
    assert np.max(np.abs(m - m[0])) < 1e-12


def test_evolve_reduced_energy_drift_is_second_order():
    g = make_grid(1, [16.0], [128])
    amp = (math.pi * 1.3**2) ** (-0.25)
    u0 = WaveField(amp * np.exp(-g.coords[0] ** 2 / (2.0 * 1.3**2)), g)
    drifts = []
    for dt in (2e-3, 1e-3):
        s = ReductionSetup(0.2, OMEGA, 1.0, 0.2, u0.copy(), "1d")
        series, _ = evolve_reduced(s, dt, 1.0, monitor=MonitorSpec(stride=50))
        e = series.column("E")
        drifts.append(np.max(np.abs(e - e[0])))
    assert 3.2 <= drifts[0] / drifts[1] <= 4.8


def test_linear_study_error_is_splitting_floor():
    # with both couplings off the factorized solution is exact up to the
    # splitting error of the stiff transverse trap
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0, "1d")
    samples = reduction_error(s, ref, 5e-4, 0.5, n_samples=4)
    assert max(err for _, err in samples) < 1e-3
    assert all(t > 0.0 for t, _ in samples)


def test_linear_study_error_is_splitting_floor_2d():
    # the pancake target: the tight axis is the third one, and with both
    # couplings off the planar ground state times chi0 is exact up to the
    # splitting error
    g2 = make_grid(2, [10.0, 10.0], [24, 24])
    u0, _ = linear_eigenstate(g2, (1.0, 1.0))
    ref = make_grid(3, [10.0, 10.0, 8.0], [24, 24, 24])
    s = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0, "2d")
    samples = reduction_error(s, ref, 2e-3, 0.25, n_samples=2)
    assert len(samples) == 2
    assert max(err for _, err in samples) < 1e-3


def test_fast_phase_matters():
    # dropping exp(-i mu0 t / eps^2) from the model leaves an order-one
    # mismatch at some sample
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0, "1d")
    times = [0.125, 0.25, 0.375, 0.5]
    snaps3 = evolve_rescaled_3d(s, ref, 5e-4, 0.5, times)
    collected = []
    evolve(
        u0.copy(), reduced_params(s), None, dt=5e-4, T=0.5,
        callback=lambda f: collected.append((f.t, f.copy())),
        sample_times=times,
    )
    with_phase = sup_model_error(snaps3, collected, s, ref)
    chi = transverse_profile(ref)
    dv = ref.cell_volume
    worst = 0.0
    for (t3, psi), (_, u_t) in zip(snaps3, collected):
        model = chi[:, :, None] * u_t.values[None, None, :]
        worst = max(
            worst, math.sqrt(float(np.sum(np.abs(psi.values - model) ** 2)) * dv)
        )
    assert with_phase < 1e-3
    assert worst > 0.5


def test_gauge_invariance_of_error():
    u0 = axial_ground_state()
    ref = reference_grid()
    base = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0.copy(), "1d")
    rotated_values = u0.values * np.exp(0.7j)
    rotated = ReductionSetup(
        0.2, OMEGA, 0.0, 0.0, WaveField(rotated_values, u0.grid), "1d"
    )
    errs_a = reduction_error(base, ref, 2e-3, 0.25, n_samples=2)
    errs_b = reduction_error(rotated, ref, 2e-3, 0.25, n_samples=2)
    for (_, a), (_, b) in zip(errs_a, errs_b):
        assert a == pytest.approx(b, abs=1e-10)


def test_eps_weighted_multiplier_tracks_3d_run():
    # the transverse average of the raw symbol is not the multiplier the
    # squeezed 3D dynamics actually sees: pairing densities rather than
    # fields doubles the Gaussian smearing, and the slow-frame frequency
    # enters scaled by eps.  A reduced run driven by that eps-weighted
    # multiplier, -2 w/3 + (eps xi)^2 exp(z) E1(z) with
    # z = (eps xi)^2 / (2 w), follows the 3D run several times closer
    # than the plain transverse average at identical step sizes.
    eps, lam1, lam2, w = 0.2, 1.0, 0.2, 1.0
    T, times = 0.5, [0.125, 0.25, 0.375, 0.5]
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(eps, OMEGA, lam1, lam2, u0.copy(), "1d")

    plain_samples = reduction_error(s, ref, 5e-4, T, n_samples=4)
    err_plain = max(err for _, err in plain_samples)

    xi = u0.grid.freqs[0]
    z = np.where(xi == 0.0, 1.0, (eps * xi) ** 2 / (2.0 * w))
    values = np.where(
        xi == 0.0,
        -2.0 * w / 3.0,
        -2.0 * w / 3.0 + (eps * xi) ** 2 * np.exp(z) * special.exp1(z),
    )
    weighted = KernelSymbol(values, Effective1D(w, w), u0.grid)
    weighted.validate()
    collected = []
    evolve(
        u0.copy(),
        reduced_params(s),
        weighted,
        dt=5e-4,
        T=T,
        callback=lambda f: collected.append((f.t, f.copy())),
        sample_times=times,
    )
    snaps3 = evolve_rescaled_3d(s, ref, 5e-4, T, times)
    err_weighted = sup_model_error(snaps3, collected, s, ref)

    assert err_plain > 8e-3
    assert err_weighted < err_plain / 3.0


@pytest.mark.xfail(
    strict=True,
    reason="measured halving ratio sits near 1: the transverse-averaged "
    "multiplier leaves an eps-independent model residual, so the error "
    "does not scale down first order between eps 0.2 and 0.1",
)
def test_error_halves_with_eps():
    u0 = axial_ground_state()
    ref = reference_grid()
    sups = {}
    for eps in (0.2, 0.1):
        s = ReductionSetup(eps, OMEGA, 1.0, 0.2, u0.copy(), "1d")
        samples = reduction_error(s, ref, 2e-3, 0.5, n_samples=4)
        sups[eps] = max(err for _, err in samples)
    ratio = sups[0.1] / sups[0.2]
    assert 0.4 <= ratio <= 0.65


def test_study_rejects_unstable_couplings():
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 0.1, 0.1, u0, "1d")
    with pytest.raises(ValueError, match="allow_unstable"):
        reduction_error(s, ref, 2e-3, 0.25)


def test_sweep_checks_its_preconditions_before_any_tabulation(monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was built before the precondition check")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.3, axial_ground_state(), "1d")
    with pytest.raises(ValueError, match="outside the stable regime"):
        epsilon_sweep(s, [0.2, 0.1], ref, 2e-3, 0.25)
    stable = ReductionSetup(0.2, OMEGA, 2.0, 0.3, axial_ground_state(), "1d")
    with pytest.raises(ValueError, match="T must be positive"):
        epsilon_sweep(stable, [0.2], ref, 2e-3, 0.0)


@pytest.mark.parametrize("epsilons", [[0.2, 0.2], [0.2, 0.141, 0.2]])
def test_sweep_rejects_a_repeated_eps_before_any_run(monkeypatch, epsilons):
    # a repeated eps would run every member, then take a slope over log(1) = 0
    def refuse(*args):
        raise AssertionError("a member ran before the eps values were checked")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    monkeypatch.setattr(reduction, "run_reduced_snapshots", refuse)
    s = ReductionSetup(0.2, OMEGA, 2.0, 0.3, axial_ground_state(), "1d")
    with pytest.raises(ValueError, match="eps values must be distinct"):
        epsilon_sweep(s, epsilons, reference_grid(), 2e-3, 0.05, n_samples=2)


def _unstable(**changed):
    args = dict(eps=0.5, alpha=-3.0, f_width=1.0, g_width=1.0) | changed
    return make_unstable_data(make_grid(3, [15.0, 15.0, 30.0], [8, 8, 8]), **args)


def _stable_setup(epsilon=0.2):
    return ReductionSetup(epsilon, OMEGA, 2.0, 0.3, axial_ground_state(), "1d")


def _setup(lambda1=2.0, lambda2=0.3, omega=OMEGA, target="1d"):
    """A set-up of the target with one argument changed; u0 is the slow-axes ground state."""
    d = 3 - len(reduction.TIGHT_AXES[target])
    u0, _ = linear_eigenstate(make_grid(d, [12.0] * d, [16] * d), (1.0,) * d)
    return ReductionSetup(0.2, omega, lambda1, lambda2, u0, target)


def _sweep(dt=2e-3, T=0.05, n_samples=2):
    return epsilon_sweep(_stable_setup(), [0.2], reference_grid(), dt, T, n_samples=n_samples)


def _error(dt=2e-3, T=0.05, n_samples=2):
    return reduction_error(_stable_setup(), reference_grid(), dt, T, n_samples=n_samples)


def _evolve_from(t):
    u0 = axial_ground_state()
    u0.t = t
    return evolve(u0, PhysicalParams(1, (1.0,), 0.0, 0.0), dt=1e-3, T=0.01)


_REFUSED = {
    "unstable-eps": ("eps", lambda bad: _unstable(eps=bad)),
    "unstable-alpha": ("alpha", lambda bad: _unstable(alpha=bad)),
    "unstable-f_width": ("f_width", lambda bad: _unstable(f_width=bad)),
    "unstable-g_width": ("g_width", lambda bad: _unstable(g_width=bad)),
    "setup-epsilon": ("epsilon", _stable_setup),
    "setup-lambda1": ("lambda1", lambda bad: _setup(lambda1=bad)),
    "setup-lambda2": ("lambda2", lambda bad: _setup(lambda2=bad)),
    "setup-omega-1d": ("trap frequencies", lambda bad: _setup(omega=(1.0, 1.0, bad))),
    "setup-omega-2d": ("trap frequencies", lambda bad: _setup(omega=(bad, 1.0, 1.0), target="2d")),
    "sweep-T": ("T", lambda bad: _sweep(T=bad)),
    "sweep-dt": ("dt", lambda bad: _sweep(dt=bad)),
    "error-T": ("T", lambda bad: _error(T=bad)),
    "error-dt": ("dt", lambda bad: _error(dt=bad)),
    "monitor-stride": ("stride", lambda bad: MonitorSpec(stride=bad)),
    "sweep-n_samples": ("n_samples", lambda bad: _sweep(n_samples=bad)),
    "error-n_samples": ("n_samples", lambda bad: _error(n_samples=bad)),
    "params-lambda1": ("lambda1", lambda bad: PhysicalParams(3, (1.0, 1.0, 1.0), bad, 0.0)),
    "params-lambda2": ("lambda2", lambda bad: PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, bad)),
    "grid-points": ("point counts", lambda bad: make_grid(1, [10.0], [bad])),
    "evolve-t": ("field0.t", _evolve_from),
}


@pytest.mark.parametrize(
    "name, call, bad",
    [
        pytest.param(*_REFUSED[case], bad, id=f"{case}-{bad}")
        for case in _REFUSED
        for bad in (math.nan, math.inf, -math.inf)
    ]
    + [
        pytest.param(*_REFUSED[case], bad, id=f"{case}-{bad}")
        for case, bad in [
            ("monitor-stride", 2.5),
            ("sweep-n_samples", 0),
            ("sweep-n_samples", 2.5),
            ("error-n_samples", 0),
            ("error-n_samples", 2.5),
            ("grid-points", 8.7),
            ("setup-omega-1d", -1.0),
            ("setup-omega-2d", -1.0),
        ]
    ],
)
def test_non_finite_or_non_integral_arguments_are_refused_up_front(monkeypatch, name, call, bad):
    def refuse(*args):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    monkeypatch.setattr(reduction, "run_reduced_snapshots", refuse)
    monkeypatch.setattr(regimes, "separable_field", refuse)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "message, call",
    [
        pytest.param(
            "linear eigenstate requires all trap frequencies positive",
            lambda bad: linear_eigenstate(axial_grid(), (bad,)),
            id="linear_eigenstate",
        ),
        pytest.param(
            "transverse trap frequencies must be positive",
            lambda bad: effective_coupling(1.0, (bad, 1.0)),
            id="effective_coupling",
        ),
        pytest.param(
            "transverse trap frequencies must be positive",
            lambda bad: ReductionSetup(0.2, (bad, 1.0, 1.0), 2.0, 0.3, axial_ground_state(), "1d"),
            id="ReductionSetup",
        ),
    ],
)
def test_non_finite_trap_frequencies_are_refused(message, call, bad):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bad)


@pytest.mark.parametrize("epsilons", [[0.2], [0.2, 0.141]])
@pytest.mark.parametrize("max_workers", [0, -1])
def test_sweep_rejects_a_worker_count_below_one(monkeypatch, epsilons, max_workers):
    def refuse(*args):
        raise AssertionError("a symbol was built before the worker count was checked")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    s = ReductionSetup(0.2, OMEGA, 2.0, 0.3, axial_ground_state(), "1d")
    with pytest.raises(ValueError, match="max_workers must be a positive integer"):
        epsilon_sweep(s, epsilons, reference_grid(), 2e-3, 0.25, max_workers=max_workers)


def test_rescaled_3d_sample_time_validation():
    u0 = axial_ground_state()
    ref = reference_grid()
    s = ReductionSetup(0.2, OMEGA, 0.0, 0.0, u0, "1d")
    with pytest.raises(ValueError):
        evolve_rescaled_3d(s, ref, 1e-3, 0.5, [0.1, 0.5])
    with pytest.raises(ValueError):
        evolve_rescaled_3d(s, ref, 1e-3, 0.5, [])


def test_reduced_snapshots_start_no_thread_and_match_a_recorded_run(monkeypatch):
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.3, axial_ground_state(), "1d")
    dt, T, n = 2e-3, 0.2, 4
    threads = threading.active_count()
    seen = []
    traced = reduction.evolve

    def spy(*args, callback, **kwargs):
        def counted(field):
            seen.append(threading.active_count())
            callback(field)

        return traced(*args, callback=counted, **kwargs)

    monkeypatch.setattr(reduction, "evolve", spy)
    snaps = run_reduced_snapshots(s, dt, T, n)
    monkeypatch.undo()
    # the series is not read, so no recorder thread runs beside the loop
    assert seen == [threads] * n
    assert threading.active_count() == threads

    recorded = []
    series, _ = evolve_reduced(
        s,
        reduction._snap_step(dt, T, n),
        T,
        callback=lambda f: recorded.append((f.t, f.copy())),
        sample_times=[j * T / n for j in range(1, n + 1)],
    )
    assert len(series) > 0
    assert [t for t, _ in snaps] == [t for t, _ in recorded]
    for (_, a), (_, b) in zip(snaps, recorded):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.filterwarnings("ignore:spectral tail fraction:RuntimeWarning")
def test_a_run_the_monitor_stops_raises_naming_its_side():
    # u0 far narrower than the axial step: its top-octave fraction starts
    # above monitor.spectral_tail, so each run trips at its first stride sample
    u0, _ = linear_eigenstate(axial_grid(), (100.0,))
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.0, u0, "1d")
    T, n = 0.2, 4
    with pytest.raises(RuntimeError, match="^reduced run tripped the collapse monitor: "):
        run_reduced_snapshots(s, 2e-3, T, n)
    times = [j * T / n for j in range(1, n + 1)]
    with pytest.raises(RuntimeError, match="^companion 3D run tripped the collapse monitor: "):
        evolve_rescaled_3d(s, reference_grid(), 2e-3, T, times)


def test_epsilon_sweep_rows_and_determinism(tmp_path):
    g1 = make_grid(1, [10.0], [24])
    u0, _ = linear_eigenstate(g1, (1.0,))
    ref = make_grid(3, [8.0, 8.0, 10.0], [24, 24, 24])
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.0, u0, "1d")
    rows_serial = epsilon_sweep(
        s, [0.2, 0.141], ref, 2e-3, 0.25, n_samples=2, max_workers=1
    )
    rows_parallel = epsilon_sweep(
        s, [0.2, 0.141], ref, 2e-3, 0.25, n_samples=2, max_workers=2
    )
    assert rows_serial == rows_parallel
    assert [r["epsilon"] for r in rows_serial] == [0.2, 0.141]
    assert math.isnan(rows_serial[0]["slope_partner"])
    assert not math.isnan(rows_serial[1]["slope_partner"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_to_csv(rows_serial, a)
    sweep_to_csv(rows_parallel, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "epsilon,T,sup_err,slope_partner,excitation_sq"


def small_sweep_setup():
    u0, _ = linear_eigenstate(make_grid(1, [10.0], [32]), (1.0,))
    ref = make_grid(3, [8.0, 8.0, 10.0], [16, 16, 32])
    return ReductionSetup(0.2, OMEGA, 0.5, 0.1, u0, "1d"), ref


def test_sweep_and_projection_use_no_blas(monkeypatch):
    # BLAS threads spin beside the sweep's members, so nothing the member
    # pool runs may call it; the einsum projection keeps tensordot's values,
    # and the lattice sums of a sample are einsums without optimize
    rng = np.random.default_rng(5)
    ref = make_grid(3, [8.0, 8.0, 10.0], [12, 14, 16])
    values = rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape)
    field = WaveField(values, ref)
    params = PhysicalParams(3, (1.0, 1.1, 0.9), 1.0, 0.3)
    symbol = build_symbol(ref, Analytic3D())
    expected = []
    for tight in reduction.TIGHT_AXES.values():
        omegas = (1.1, 0.9)[: len(tight)]
        chi = reduction._harmonic_profile(ref, tight, omegas)
        chi = chi.reshape([ref.shape[a] for a in tight])
        contracted = np.tensordot(chi, values, axes=(tuple(range(len(tight))), tight))
        expected.append((omegas, contracted * math.prod(ref.steps[a] for a in tight)))

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    for name in ("tensordot", "dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    einsum = np.einsum

    def plain_einsum(*operands, optimize=False, **kwargs):
        # an optimized einsum contracts through matmul, out of reach of the
        # patches above
        if optimize is not False:
            raise AssertionError("einsum with optimize")
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", plain_einsum)

    for omegas, want in expected:
        got = ground_state_projection(field, omegas).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    record = record_observables(field, params, symbol)
    assert energy(field, params, symbol).total == pytest.approx(record.E, rel=1e-13)
    assert classify(field, params, symbol).evidence["E"] == pytest.approx(record.E, rel=1e-13)
    s, small_ref = small_sweep_setup()
    rows = epsilon_sweep(s, [0.2, 0.141], small_ref, 2e-3, 0.25, n_samples=2, max_workers=2)
    assert [r["epsilon"] for r in rows] == [0.2, 0.141]
    assert all(math.isfinite(r["sup_err"]) for r in rows)


def sweep_peak_bytes(setup, ref, n_samples):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = epsilon_sweep(setup, [0.2], ref, 2e-3, 0.25, n_samples=n_samples, max_workers=1)
        return rows, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sweep_compares_each_3d_sample_as_it_lands():
    s, ref = small_sweep_setup()
    lattice = ref.size * np.dtype(complex).itemsize
    sweep_peak_bytes(s, ref, 2)  # warm-up: first-use allocations stay out of the peaks
    _, few = sweep_peak_bytes(s, ref, 2)
    rows, many = sweep_peak_bytes(s, ref, 16)
    # 16 stored 3D snapshots would add 14 lattices over 2
    assert many - few < lattice

    dt, T, n = 2e-3, 0.25, 16
    times = [j * T / n for j in range(1, n + 1)]
    reduced = run_reduced_snapshots(s, dt, T, n)
    snaps3 = evolve_rescaled_3d(s, ref, dt, T, times)
    assert [t for t, _ in snaps3] == [t for t, _ in reduced]
    # summed on the held lattice the sweep compares on, then on the full one
    errs = [reduction._modulation_error(psi, u_t, s) for (_, psi), (_, u_t) in zip(snaps3, reduced)]
    excitation = max(_excitation_sq(psi, s.tight_axes, s.transverse_omegas) for _, psi in snaps3)
    chi = reduction._harmonic_profile(ref, s.tight_axes, s.transverse_omegas)
    full_errs = []
    for (t, psi), (_, u_t) in zip(snaps3, reduced):
        model = ref.held_product(
            [np.exp(-1j * s.mu0 * t / s.epsilon**2) * chi, np.expand_dims(u_t.values, s.tight_axes)]
        )
        full_errs.append(
            math.sqrt(float(np.sum(np.abs(psi.values - model) ** 2)) * ref.cell_volume)
        )
    (row,) = rows
    assert row["sup_err"] == max(errs)
    assert row["sup_err"] == pytest.approx(max(full_errs), rel=1e-13, abs=0.0)
    assert row["excitation_sq"] == pytest.approx(excitation, rel=1e-12, abs=0.0)


def slow_gaussian(grid, centre):
    """A unit-width chirped Gaussian of the slow axes, displaced to centre."""
    r2 = sum((c - x0) ** 2 for c, x0 in zip(grid.coord_mesh, centre))
    return WaveField(np.exp((-0.5 + 0.3j) * r2), grid)


# (target, transverse omegas, u0's centre, the axes the 3D field is even along)
HELD_LAYOUTS = [
    ("1d", (1.0, 1.0), (0.0,), (0, 1, 2)),
    ("1d", (1.07, 0.95), (0.7,), (0, 1)),
    ("2d", (1.3,), (0.0, 0.0), (0, 1, 2)),
    ("2d", (1.3,), (0.6, 0.0), (1, 2)),
]


def held_layout(target, omegas, centre):
    """A reduction set-up with u0 at centre and its 3D reference lattice."""
    if target == "1d":
        ref = make_grid(3, [8.0, 8.0, 10.0], [16, 16, 32])
        omega = omegas + (1.0,)
    else:
        ref = make_grid(3, [10.0, 10.0, 8.0], [16, 16, 24])
        omega = (1.0, 1.0) + omegas
    u0 = slow_gaussian(reduction.slow_grid(ref, reduction.TIGHT_AXES[target]), centre)
    return ReductionSetup(0.2, omega, 0.5, 0.1, u0, target), ref


@pytest.mark.parametrize("target, omegas, centre, even", HELD_LAYOUTS)
def test_well_prepared_data_is_the_direct_product_bit_for_bit(target, omegas, centre, even):
    s, ref = held_layout(target, omegas, centre)
    chi = reduction._harmonic_profile(ref, s.tight_axes, s.transverse_omegas)
    direct = chi * np.expand_dims(s.u0.values, s.tight_axes)
    values = well_prepared_data(s, ref)
    assert values.shape == ref.shape
    assert np.array_equal(values.view(np.uint64), direct.view(np.uint64))
    table = reduction._well_prepared_table(s, ref)
    assert ref.lattice_for(table.shape).even == even
    assert mirror_even_axes(direct) == even


@pytest.mark.parametrize("target, omegas, centre, even", HELD_LAYOUTS)
def test_comparisons_on_held_fields_are_the_full_lattice_sums(target, omegas, centre, even):
    # psi: chi0 u0 plus an even excited tight mode times another slow
    # profile, so both the projection and the excitation are nontrivial
    s, ref = held_layout(target, omegas, centre)
    tight = s.tight_axes
    chi = reduction._harmonic_profile(ref, tight, s.transverse_omegas)
    x = ref.coord_mesh[tight[0]]
    v = 0.2 * s.u0.values * np.exp(0.1j)
    values = well_prepared_data(s, ref) + ref.held_product(
        [chi * (2.0 * x * x - 1.0), np.expand_dims(v, tight)]
    )
    assert mirror_even_axes(values) == even
    lattice = ref.sublattice(even)
    full = WaveField(values, ref, t=0.3)
    held = WaveField(lattice.restrict(values), ref, t=0.3)
    assert held.table is not None
    u_t = WaveField(0.9 * s.u0.values, s.u0.grid)

    proj_full = ground_state_projection(full, s.transverse_omegas)
    proj_held = ground_state_projection(held, s.transverse_omegas)
    assert proj_held.grid.shape == proj_full.grid.shape
    scale = np.max(np.abs(proj_full.values))
    assert np.max(np.abs(proj_held.values - proj_full.values)) <= 1e-13 * scale

    exc_full = _excitation_sq(full, tight, s.transverse_omegas)
    exc_held = _excitation_sq(held, tight, s.transverse_omegas)
    assert exc_held == pytest.approx(exc_full, rel=1e-13, abs=0.0)

    err_full = reduction._modulation_error(full, u_t, s)
    err_held = reduction._modulation_error(held, u_t, s)
    assert err_held == pytest.approx(err_full, rel=1e-13, abs=0.0)
    # and the plain full-lattice formulas
    model = np.exp(-1j * s.mu0 * 0.3 / s.epsilon**2) * chi * np.expand_dims(u_t.values, tight)
    direct = math.sqrt(float(np.sum(np.abs(values - model) ** 2)) * ref.cell_volume)
    assert err_held == pytest.approx(direct, rel=1e-13, abs=0.0)
    rest = values - chi * np.expand_dims(proj_full.values, tight)
    assert exc_held == pytest.approx(
        float(np.sum(np.abs(rest) ** 2)) * ref.cell_volume, rel=1e-12, abs=0.0
    )


def test_rescaled_3d_samples_are_held_and_equal_a_run_of_the_full_data():
    s, ref = small_sweep_setup()
    dt, T, n = 2e-3, 0.25, 4
    times = [j * T / n for j in range(1, n + 1)]
    snaps3 = evolve_rescaled_3d(s, ref, dt, T, times)
    # the former path: the full well-prepared lattice, handed to evolve
    grid, params = reduction._run_geometry(s, ref)
    dt_eff = reduction._snap_step(min(dt, s.epsilon**2 / (20.0 * s.mu0)), T, n)
    expected = []
    evolve(
        WaveField(well_prepared_data(s, ref), grid), params, build_symbol(grid, Analytic3D()),
        dt=dt_eff, T=T, sample_times=times, warn_resolution=False, observables=False,
        callback=lambda f: expected.append((f.t, f.values)),
    )
    assert [t for t, _ in snaps3] == [t for t, _ in expected]
    for (_, psi), (_, values) in zip(snaps3, expected):
        assert psi.grid is ref and psi.table is not None
        assert psi.table.shape == ref.octant.shape
        assert np.array_equal(psi.values, values)


@pytest.mark.parametrize(
    "shape, itemsize",
    # every lattice a sweep's members formed was complex.  The trace reads
    # one process-wide peak, so the two member threads' allocations add up
    # when they fall in one interval; at 16x16x32 one member's largest is
    # already over half a real lattice, so the complex bound is kept there
    # and the real bound is taken at the benchmark sweep's 24x24x64
    [((16, 16, 32), 16), ((24, 24, 64), 8)],
)
def test_a_pooled_sweep_forms_no_full_lattice(shape, itemsize):
    u0, _ = linear_eigenstate(make_grid(1, [10.0], [shape[2]]), (1.0,))
    ref = make_grid(3, [8.0, 8.0, 10.0], shape)
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.1, u0, "1d")

    def sweep():
        return epsilon_sweep(s, [0.2, 0.141], ref, 2e-3, 0.25, n_samples=2, max_workers=2)

    rows, found = large_allocations(sweep, itemsize * ref.size)
    assert found == []
    assert [r["epsilon"] for r in rows] == [0.2, 0.141]
    assert all(math.isfinite(r["sup_err"]) for r in rows)


@pytest.mark.parametrize(
    "target, extents, shape",
    [("1d", (8.0, 8.0, 10.0), (16, 16, 32)), ("2d", (8.0, 8.0, 8.0), (24, 24, 16))],
)
def test_a_pooled_sweep_reads_a_held_u0_without_mirroring_it(target, extents, shape):
    # the member threads share u0: each reads its table, and none mirrors it
    ref = make_grid(3, extents, shape)
    grid = reduction.slow_grid(ref, reduction.TIGHT_AXES[target])
    values = linear_eigenstate(grid, (1.0,) * grid.dim)[0].values
    held = WaveField(grid.octant.restrict(values), grid)
    s = ReductionSetup(0.2, OMEGA, 0.5, 0.1, held, target)

    def rows(u0):
        out = epsilon_sweep(
            replace(s, u0=u0), [0.2, 0.141, 0.1], ref, 2e-3, 0.25, n_samples=2, max_workers=3
        )
        return np.array([[r[name] for name in sorted(r)] for r in out])

    got = rows(held)
    assert held.table is not None and held.table.shape == grid.octant.shape
    np.testing.assert_array_equal(got, rows(WaveField(values, grid)))
    if target == "2d":
        # linear_eigenstate holds a u0 of two axes, and it stays held
        u0, _ = linear_eigenstate(grid, (1.0, 1.0))
        assert u0.table is not None
        np.testing.assert_array_equal(rows(u0), got)
        assert u0.table is not None


def test_fitted_slope_exact_powers():
    xs = [0.2, 0.1, 0.05]
    ys = [x**2 for x in xs]
    assert fitted_slope(xs, ys) == pytest.approx(2.0, abs=1e-12)
    assert fitted_slope([0.2, 0.1], [0.04, 0.01]) == pytest.approx(2.0, abs=1e-12)
