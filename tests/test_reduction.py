import math
import threading

import numpy as np
import pytest
from scipy import special

from dipgpe import (
    Effective1D,
    GridError,
    KernelSymbol,
    MonitorSpec,
    ReductionSetup,
    WaveField,
    effective_coupling,
    epsilon_sweep,
    evolve,
    evolve_reduced,
    evolve_rescaled_3d,
    fitted_slope,
    ground_state_projection,
    linear_eigenstate,
    make_grid,
    mass,
    reduced_params,
    reduced_symbol,
    reduction_error,
    sweep_to_csv,
    well_prepared_data,
)
from dipgpe import reduction
from dipgpe.reduction import _excitation_sq, run_reduced_snapshots

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
    weighted = KernelSymbol(1, values, Effective1D(w, w), u0.grid)
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


def test_fitted_slope_exact_powers():
    xs = [0.2, 0.1, 0.05]
    ys = [x**2 for x in xs]
    assert fitted_slope(xs, ys) == pytest.approx(2.0, abs=1e-12)
    assert fitted_slope([0.2, 0.1], [0.04, 0.01]) == pytest.approx(2.0, abs=1e-12)
