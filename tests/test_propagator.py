import inspect
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as scipy_fft

from dipgpe import (
    Analytic3D,
    CollapseReport,
    Effective1D,
    Effective2D,
    GridError,
    MonitorSpec,
    NonFiniteStateError,
    PhysicalParams,
    ReductionSetup,
    WaveField,
    apply_kernel,
    build_symbol,
    classify,
    energy,
    epsilon_sweep,
    evolve,
    gradient_norm_sq,
    grid as grid_module,
    kernel as kernel_module,
    linear_eigenstate,
    make_grid,
    make_unstable_data,
    mass,
    max_abs,
    propagator as propagator_module,
    quartic_norm_spectral,
    read_snapshot,
    record_observables,
    spectral_tail_fraction,
    state as state_module,
    strang_step,
    variance_and_rate,
    write_snapshot,
)
from dipgpe.state import CSV_HEADER

import lattice_tables as tables
from allocations import large_allocations


def gaussian(grid, sigma):
    r2 = sum(c**2 for c in grid.coord_mesh)
    amp = (math.pi * sigma**2) ** (-grid.dim / 4.0)
    return WaveField(amp * np.exp(-r2 / (2.0 * sigma**2)), grid)


def test_linear_eigenstate_energies():
    g2 = make_grid(2, [14.0, 14.0], [32, 32])
    f, mu = linear_eigenstate(g2, (1.0, 1.0))
    assert mu == pytest.approx(1.0)
    assert mass(f) == pytest.approx(1.0, abs=1e-13)
    g3 = make_grid(3, [14.0, 12.0, 10.0], [32, 32, 32])
    f3, mu3 = linear_eigenstate(g3, (1.0, 2.0, 3.0))
    assert mu3 == pytest.approx(3.0)
    assert mass(f3) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "extents, points, omega",
    [
        ((16.0, 16.0, 16.0), (48, 48, 48), (1.0, 1.0, 1.0)),
        ((12.0, 12.0, 16.0), (24, 24, 64), (1.1, 0.93, 1.0)),
        ((16.0,), (64,), (0.84,)),
        ((12.0, 10.0), (32, 24), (1.3, 0.7)),
    ],
)
def test_linear_eigenstate_is_the_accumulated_product_bit_for_bit(extents, points, omega):
    grid = make_grid(len(points), extents, points)
    field, _ = linear_eigenstate(grid, omega)
    # the former construction: a complex np.ones lattice times each factor
    expected = np.ones(grid.shape, dtype=complex)
    for w, c in zip(omega, grid.coord_mesh):
        expected = expected * ((w / math.pi) ** 0.25 * np.exp(-0.5 * w * c * c))
    expected /= math.sqrt(
        float(np.sum(expected.real**2 + expected.imag**2)) * grid.cell_volume
    )
    assert field.values.dtype == complex and field.values.flags.c_contiguous
    assert np.array_equal(field.values.view(np.uint64), expected.view(np.uint64))


def test_linear_eigenstate_validation():
    g = make_grid(1, [12.0], [32])
    with pytest.raises(ValueError):
        linear_eigenstate(g, (0.0,))
    with pytest.raises(GridError):
        linear_eigenstate(g, (1.0, 1.0))


def test_monitor_spec_validation():
    with pytest.raises(ValueError):
        MonitorSpec(stride=0)
    m = MonitorSpec()
    assert m.stride == 10
    assert m.grad_factor == 1e4
    assert m.spectral_tail == 1e-3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grad_factor=math.nan),
        dict(grad_threshold=math.nan),
        dict(spectral_tail=math.nan),
        dict(grad_factor=-1.0),
        dict(grad_factor=0.0),
        dict(grad_threshold=0.0),
        dict(grad_threshold=-math.inf),
        dict(spectral_tail=-1e-3),
    ],
)
def test_monitor_spec_rejects_thresholds_that_disable_or_fake_it(kwargs):
    with pytest.raises(ValueError, match="must be"):
        MonitorSpec(stride=1, **kwargs)


def test_strang_step_preserves_mass_exactly():
    g = make_grid(2, [14.0, 14.0], [48, 48])
    p = PhysicalParams(2, (1.0, 1.0), 1.0, 0.0)
    f = gaussian(g, 1.2)
    m0 = mass(f)
    out = f
    for _ in range(50):
        out = strang_step(out, 1e-2, p)
    assert mass(out) == pytest.approx(m0, rel=1e-13)
    assert out.t == pytest.approx(0.5, rel=1e-12)


def test_strang_step_time_reversible():
    g = make_grid(3, [14.0, 14.0, 14.0], [24, 24, 24])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f0 = gaussian(g, 1.1)
    fwd = f0
    for _ in range(100):
        fwd = strang_step(fwd, 1e-3, p, sym)
    back = fwd
    for _ in range(100):
        back = strang_step(back, -1e-3, p, sym)
    dev = np.max(np.abs(back.values - f0.values))
    assert dev < 1e-11
    assert back.t == pytest.approx(0.0, abs=1e-12)


def test_strang_step_rejects_zero_dt_and_nonfinite():
    g = make_grid(1, [12.0], [32])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f = gaussian(g, 1.0)
    with pytest.raises(ValueError):
        strang_step(f, 0.0, p)
    f.values[5] = np.inf
    with pytest.raises(NonFiniteStateError), np.errstate(invalid="ignore"):
        strang_step(f, 1e-3, p)


@pytest.mark.parametrize("name", ["dt", "T"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_evolve_and_strang_step_refuse_a_non_finite_dt_or_T(name, bad):
    g = make_grid(1, [12.0], [32])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f = gaussian(g, 1.0)
    times = {"dt": 1e-3, "T": 0.01, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        evolve(f, p, **times)
    if name == "dt":
        with pytest.raises(ValueError, match="^dt must be finite and nonzero"):
            strang_step(f, bad, p)


def test_a_symbol_from_another_box_is_refused():
    # the same point count over other extents: the symbol's frequencies are
    # not the field's, so it is refused on the octant and on the full lattice
    g = make_grid(3, [12.0, 12.0, 12.0], [16, 16, 16])
    other = build_symbol(make_grid(3, [12.0, 12.0, 24.0], [16, 16, 16]), Analytic3D())
    p = PhysicalParams(3, (1.0, 1.0, 0.5), 1.5, 0.3)
    centred, _ = linear_eigenstate(g, p.omega)
    shifted = WaveField(np.roll(centred.values, 1, axis=0), g)
    assert tables.is_mirror_even(centred.values)
    assert not tables.is_mirror_even(shifted.values)
    for f in (centred, shifted):
        with pytest.raises(GridError, match="symbol is tabulated"):
            evolve(f, p, other, dt=1e-3, T=1e-2)
        with pytest.raises(GridError, match="symbol is tabulated"):
            classify(f, p, other)
        with pytest.raises(GridError, match="symbol is tabulated"):
            energy(f, p, other)
        with pytest.raises(GridError, match="symbol is tabulated"):
            strang_step(f, 1e-3, p, other)


def test_evolve_ground_state_accumulates_only_phase():
    g = make_grid(3, [12.0, 12.0, 12.0], [32, 32, 32])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.0)
    f0, mu = linear_eigenstate(g, (1.0, 1.0, 1.0))
    series, out = evolve(f0.copy(), p, dt=1e-3, T=0.25, monitor=MonitorSpec(stride=50))
    assert isinstance(out, WaveField)
    overlap = np.vdot(f0.values, out.values) * g.cell_volume
    assert abs(overlap * np.exp(1j * mu * 0.25) - 1.0) < 1e-6
    masses = series.column("mass")
    assert np.max(np.abs(masses - masses[0])) < 1e-12


def test_evolve_energy_drift_is_second_order():
    g = make_grid(2, [14.0, 14.0], [64, 64])
    p = PhysicalParams(2, (1.0, 1.0), 1.0, 0.0)
    f0 = gaussian(g, 1.2)
    drifts = []
    for dt in (2e-3, 1e-3):
        series, _ = evolve(f0.copy(), p, dt=dt, T=0.5, monitor=MonitorSpec(stride=25))
        e = series.column("E")
        drifts.append(np.max(np.abs(e - e[0])))
    ratio = drifts[0] / drifts[1]
    assert 3.2 <= ratio <= 4.8


def test_evolve_mass_conserved_over_many_steps():
    g = make_grid(2, [12.0, 12.0], [32, 32])
    p = PhysicalParams(2, (1.0, 1.0), 1.0, 0.0)
    f0 = gaussian(g, 1.0)
    series, out = evolve(f0, p, dt=1e-3, T=1.0, monitor=MonitorSpec(stride=100))
    m = series.column("mass")
    assert np.max(np.abs(m - m[0])) <= 1e-10 * m[0]
    assert out.t == pytest.approx(1.0)


def test_evolve_partial_final_step():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.5, 0.0)
    f0 = gaussian(g, 1.0)
    series, out = evolve(f0, p, dt=3e-3, T=0.5, monitor=MonitorSpec(stride=50))
    assert out.t == 0.5
    e = series.column("E")
    assert np.max(np.abs(e - e[0])) < 1e-7
    assert series.column("t")[-1] == 0.5
    m = series.column("mass")
    assert np.max(np.abs(m - m[0])) < 1e-13


def test_evolve_records_initial_state_first():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    series, _ = evolve(f0, p, dt=1e-2, T=0.1, monitor=MonitorSpec(stride=2))
    t = series.column("t")
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert t[-1] == pytest.approx(0.1)


def test_evolve_callback_every_stride_by_default():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    seen = []
    evolve(
        f0, p, dt=1e-2, T=0.1, monitor=MonitorSpec(stride=5),
        callback=lambda f: seen.append(f.t),
    )
    assert seen == pytest.approx([0.0, 0.05, 0.1])


def test_evolve_sample_times_gate_callback():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    seen = []
    series, _ = evolve(
        f0, p, dt=1e-2, T=0.2, monitor=MonitorSpec(stride=7),
        callback=lambda f: seen.append(f.t),
        sample_times=[0.1, 0.2],
    )
    assert seen == pytest.approx([0.1, 0.2])
    # the series still carries the stride samples
    assert np.isclose(series.column("t"), 0.07).any()
    # T itself is a sample time when the last step is at most half a step:
    # round(0.0205 / 1e-3) is 20, whose step ends at 0.020
    fields = []
    _, last = evolve(f0, p, dt=1e-3, T=0.0205, callback=fields.append, sample_times=[0.0205])
    _, plain = evolve(f0, p, dt=1e-3, T=0.0205)
    assert [f.t for f in fields] == pytest.approx([0.0205])
    assert np.array_equal(last.values.view(np.uint64), plain.values.view(np.uint64))
    assert np.array_equal(fields[0].values.view(np.uint64), plain.values.view(np.uint64))


def test_evolve_rejects_off_lattice_sample_times():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    with pytest.raises(ValueError):
        evolve(f0, p, dt=1e-2, T=0.2, sample_times=[0.105])
    with pytest.raises(ValueError):
        evolve(f0, p, dt=1e-2, T=0.2, sample_times=[0.3])
    with pytest.raises(ValueError):
        evolve(f0, p, dt=1e-2, T=0.2, sample_times=[0.0])
    # a time past T is out of range, whether or not it is on the step lattice
    with pytest.raises(ValueError, match=r"outside \(0, T\]"):
        evolve(f0, p, dt=1e-2, T=0.2, sample_times=[0.6])


def test_evolve_validates_dt_and_T():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    with pytest.raises(ValueError):
        evolve(f0, p, dt=-1e-3, T=1.0)
    with pytest.raises(ValueError):
        evolve(f0, p, dt=1e-3, T=0.0)


def coarse_phase_case(name):
    # a trap-only 1D case, and a 3D dipolar one whose maximum sits at the
    # centre, where lambda1 rho and lambda2 K*rho outweigh the weak trap
    if name == "trap-1d":
        g = make_grid(1, [16.0], [128])
        return g, PhysicalParams(1, (5.0,), 0.0, 0.0), None, gaussian(g, 0.5)
    g = make_grid(3, [12.0, 12.0, 14.0], [32, 30, 40])
    f = gaussian(g, 1.0)
    p = PhysicalParams(3, (0.1, 0.12, 0.08), 5.0, -3.0)
    return g, p, build_symbol(g, Analytic3D()), WaveField(2.0 * f.values, g)


@pytest.mark.parametrize("case", ["trap-1d", "dipolar-3d"])
def test_evolve_warns_on_coarse_phase_step(case):
    g, p, sym, f0 = coarse_phase_case(case)
    scale = propagator_module._Splitting(g, 1e-3, p, sym).phase_scale(f0.values)
    rho = np.abs(f0.values) ** 2
    want = tables.potential(p, g) + p.lambda1 * rho
    if sym is not None:
        dipolar = p.lambda2 * apply_kernel(sym, rho)
        assert np.max(np.abs(dipolar)) > 0.1 * scale
        want = want + dipolar
    assert_close(scale, float(np.max(np.abs(want))), rel=1e-13)

    def two_steps(dt, **kwargs):
        evolve(f0, p, sym, dt=dt, T=2.0 * dt, observables=False, **kwargs)

    above, below = (math.pi / scale) * (1.0 + 1e-12), (math.pi / scale) * (1.0 - 1e-12)
    with pytest.warns(RuntimeWarning, match="nonlinear phase") as caught:
        two_steps(above)
    # one warning, reported at evolve's caller
    assert len(caught) == 1 and caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_steps(below)
        two_steps(above, warn_resolution=False)


def test_evolve_counts_T_and_sample_times_from_the_initial_time():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.5, 0.0)
    f0 = gaussian(g, 1.0)
    late = WaveField(f0.values, g, t=0.5)
    seen, seen0 = [], []
    series, out = evolve(
        late, p, dt=1e-2, T=0.2, monitor=MonitorSpec(stride=7),
        callback=lambda f: seen.append((f.t, f.values.copy())), sample_times=[0.1, 0.2],
    )
    series0, out0 = evolve(
        f0, p, dt=1e-2, T=0.2, monitor=MonitorSpec(stride=7),
        callback=lambda f: seen0.append(f.values.copy()), sample_times=[0.1, 0.2],
    )
    assert [t for t, _ in seen] == pytest.approx([0.6, 0.7])
    assert out.t == pytest.approx(0.7)
    t = series.column("t")
    assert t[0] == 0.5 and t[-1] == pytest.approx(0.7)
    assert t - 0.5 == pytest.approx(series0.column("t"))
    # the step does not read t: the late run is the same run, shifted
    for (_, values), values0 in zip(seen, seen0):
        assert np.array_equal(values, values0)
    assert np.array_equal(out.values, out0.values)
    # sample time 0 is field0 itself, which no step reaches
    with pytest.raises(ValueError, match=r"outside \(0, T\], counted from field0.t"):
        evolve(late, p, dt=1e-2, T=0.2, sample_times=[0.0])


def test_evolve_stops_with_collapse_report():
    # supercritical focusing cubic problem in 2D
    g = make_grid(2, [12.0, 12.0], [64, 64])
    p = PhysicalParams(2, (1.0, 1.0), -8.0, 0.0)
    f0 = gaussian(g, 1.0)
    f0 = WaveField(2.0 * f0.values, g)
    series, out = evolve(
        f0, p, dt=5e-4, T=3.0, monitor=MonitorSpec(stride=5), warn_resolution=False
    )
    assert isinstance(out, CollapseReport)
    assert out.reason in ("gradient-threshold", "spectral-tail")
    assert 0.0 < out.t_stop < 0.5
    assert out.field.t == pytest.approx(out.t_stop)
    assert "collapse" in out.describe()
    assert series.column("t")[-1] == pytest.approx(out.t_stop)


def test_evolve_gradient_threshold_stops_run():
    g = make_grid(2, [12.0, 12.0], [64, 64])
    p = PhysicalParams(2, (1.0, 1.0), -8.0, 0.0)
    f0 = gaussian(g, 1.0)
    f0 = WaveField(2.0 * f0.values, g)
    series, out = evolve(
        f0, p, dt=5e-4, T=3.0,
        monitor=MonitorSpec(stride=2, grad_threshold=50.0, spectral_tail=1.0),
        warn_resolution=False,
    )
    assert isinstance(out, CollapseReport)
    assert out.reason == "gradient-threshold"
    assert out.grad_sq >= 50.0


def test_evolve_rejects_nonfinite_initial_data():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.0, 0.0)
    f0 = gaussian(g, 1.0)
    f0.values[0] = np.nan
    with pytest.raises(ValueError):
        evolve(f0, p, dt=1e-3, T=0.1)


def test_snapshot_roundtrip(tmp_path):
    g = make_grid(2, [14.0, 10.0], [32, 16])
    f = gaussian(g, 1.1)
    f.t = 0.75
    path = tmp_path / "state.gpef"
    write_snapshot(f, path)
    raw = path.read_bytes()
    assert raw.startswith(b"GPEF v1 2 32 16 14 10 0.75\n")
    back = read_snapshot(path)
    assert back.t == 0.75
    assert back.grid.shape == (32, 16)
    assert back.grid.extents == (14.0, 10.0)
    assert np.array_equal(back.values, f.values)


def test_snapshot_grid_check(tmp_path):
    g = make_grid(1, [16.0], [64])
    f = gaussian(g, 1.0)
    path = tmp_path / "state.gpef"
    write_snapshot(f, path)
    back = read_snapshot(path, grid=g)
    assert back.grid is g
    other = make_grid(1, [12.0], [64])
    with pytest.raises(GridError):
        read_snapshot(path, grid=other)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_snapshot_of_a_non_finite_time_leaves_no_file(tmp_path, t):
    g = make_grid(1, [16.0], [64])
    path = tmp_path / "state.gpef"
    with pytest.raises(ValueError, match="^snapshot time must be finite"):
        write_snapshot(WaveField(gaussian(g, 1.0).values, g, t), path)
    assert not path.exists()


def test_snapshot_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.gpef"
    path.write_bytes(b"HELLO v9 nonsense\n\x00\x01")
    with pytest.raises(ValueError):
        read_snapshot(path)


OFF_CENTRE = (0.4, -0.3, 0.5)


def chirped_dipolar_gaussian(grid, center=OFF_CENTRE):
    """Anisotropic Gaussian with a quadratic phase, unit mass, off-centre by default.

    Its dipolar energy, variance rate and top-octave tail (about 3.5e-6 at
    32^3) are all well away from zero, so relative comparisons mean
    something.  Centred at the origin on a lattice whose spacings are
    binary fractions, it equals its mirror image bit for bit, and evolve
    runs it on the octant.
    """
    widths, beta = (0.7, 0.8, 1.2), 0.4
    arg = sum(
        -((x - c) ** 2) / (2.0 * w * w) + 0.5j * beta * (x - c) ** 2
        for x, c, w in zip(grid.coord_mesh, center, widths)
    )
    values = np.exp(arg)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    return WaveField(values, grid)


CENTRED = (0.0, 0.0, 0.0)


def dipolar_problem(center=OFF_CENTRE, points=(32, 32, 32)):
    """The chirped dipolar Gaussian at center; it is mirror-even along the axes where center is 0."""
    g = make_grid(3, [10.0, 10.0, 12.0], points)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    f0 = chirped_dipolar_gaussian(g, center)
    even = tuple(a for a, c in enumerate(center) if c == 0.0)
    assert grid_module.mirror_even_axes(f0.values) == even
    return g, p, build_symbol(g, Analytic3D()), f0


# Tests that take every layout loop over these centres: the off-centre field
# runs the full lattice, its centred twin the octant, the one displaced
# along z alone the lattice even along x and y (the last axis periodic), and
# the one displaced along x alone the lattice even along y and z, where the
# real transform halves a leading axis.
LAYOUTS = (OFF_CENTRE, CENTRED, (0.0, 0.0, 0.5), (0.4, 0.0, 0.0))


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


def test_evolve_samples_match_standalone_observables():
    for center in LAYOUTS:
        g, p, sym, f0 = dipolar_problem(center)
        fields = []
        series, _ = evolve(
            f0, p, sym, dt=1e-3, T=0.02, monitor=MonitorSpec(stride=5),
            callback=lambda f: fields.append(f.copy()), warn_resolution=False,
        )
        assert len(fields) == len(series) == 5
        for record, field in zip(series, fields):
            assert field.grid is g
            e = energy(field, p, sym)
            y, ydot = variance_and_rate(field)
            assert record.t == field.t
            assert_close(record.mass, mass(field))
            assert_close(record.maxpsi, max_abs(field))
            assert_close(record.Ekin, e.kinetic)
            assert_close(record.Epot, e.potential)
            assert_close(record.Ecubic, e.cubic)
            assert_close(record.Edip, e.dipolar)
            assert_close(record.E, e.total)
            assert_close(record.gradsq, gradient_norm_sq(field))
            assert_close(record.y, y)
            assert_close(record.ydot, ydot)

        # The tail the monitor reads is the standalone one too.
        _, report = evolve(
            f0, p, sym, dt=1e-3, T=0.02,
            monitor=MonitorSpec(stride=5, spectral_tail=0.0), warn_resolution=False,
        )
        assert isinstance(report, CollapseReport)
        assert report.reason == "spectral-tail"
        assert report.tail_fraction > 1e-7
        assert report.field.grid is g
        assert_close(report.tail_fraction, spectral_tail_fraction(report.field))


def test_strang_steps_match_evolve_and_keep_their_input():
    for center in LAYOUTS:
        g, p, sym, f0 = dipolar_problem(center)
        n, dt = 12, 1e-3
        field = f0
        for _ in range(n):
            before = field.values.copy()
            out = strang_step(field, dt, p, sym)
            assert np.array_equal(field.values, before)
            field = out
        before = f0.values.copy()
        _, final = evolve(
            f0, p, sym, dt=dt, T=n * dt, monitor=MonitorSpec(stride=100),
            warn_resolution=False,
        )
        assert np.array_equal(f0.values, before)
        assert final.t == pytest.approx(field.t, abs=1e-15)
        scale = float(np.max(np.abs(final.values)))
        assert np.max(np.abs(field.values - final.values)) <= 1e-12 * scale


class CountingFFT:
    """Stands in for scipy.fft and counts the package's transforms.

    It counts each transform and its axis passes (one per transformed
    axis): complex and real nD FFTs (fftn, ifftn, rfftn, irfftn, which
    the benchmark's tracer spans), and the octant's type-I DCTs (dctn,
    idctn), on complex data ("dct_c") or on real data ("dct_r").  It
    refuses every other transform of scipy.fft, a DCT of another type
    included, so that no transform escapes the count.
    """

    KINDS = {"fftn": "c2c", "ifftn": "c2c", "rfftn": "r2c", "irfftn": "r2c", "dctn": "dct", "idctn": "dct"}
    # the fft, fft2, hfft, dct, dst and fht families, forward and inverse
    OTHER_TRANSFORMS = ("fft", "fft2", "fftn", "dct", "dctn", "dst", "dstn", "fht")
    ALL = ("c2c", "r2c", "dct_c", "dct_r")

    def __init__(self):
        self.counts = dict.fromkeys(self.ALL, 0)
        self.passes = dict.fromkeys(self.ALL, 0)
        # the (kind, axes) of each transform since the last take
        self.calls = []
        self.workers = set()
        # evolve's recorder thread transforms beside the calling thread
        self.lock = threading.Lock()

    def __getattr__(self, name):
        fn = getattr(scipy_fft, name)
        kind = self.KINDS.get(name)
        if kind is None:
            if name.endswith(self.OTHER_TRANSFORMS):
                raise AssertionError(f"scipy.fft.{name} is a transform the tracer does not span")
            return fn
        signature = inspect.signature(fn)

        def counted(x, *args, **kwargs):
            call = signature.bind(x, *args, **kwargs)
            call.apply_defaults()
            got = call.arguments
            counted_kind = kind
            if kind == "dct":
                if got["type"] != 1:
                    raise AssertionError(f"scipy.fft.{name} of type {got['type']} is not counted")
                counted_kind = "dct_c" if np.iscomplexobj(x) else "dct_r"
            axes, s = got["axes"], got["s"]
            passes = len(axes) if axes is not None else len(s) if s is not None else np.ndim(x)
            with self.lock:
                self.counts[counted_kind] += 1
                self.passes[counted_kind] += passes
                self.calls.append((counted_kind, axes))
                self.workers.add(got["workers"])
            return fn(x, *args, **kwargs)

        return counted

    def take(self, passes=False, kinds=("c2c", "r2c")):
        """Transforms (or axis passes) of the given kinds since the last take of any."""
        with self.lock:
            got = self.passes if passes else self.counts
            out = tuple(got[kind] for kind in kinds)
            self.counts = dict.fromkeys(self.ALL, 0)
            self.passes = dict.fromkeys(self.ALL, 0)
            self.calls = []
        return out


@pytest.fixture
def counting_fft(monkeypatch):
    # SpectralGrid's raw transforms are the package's one transform path
    proxy = CountingFFT()
    monkeypatch.setattr(grid_module, "_fft", proxy)
    return proxy


class NoTransforms:
    """Stands in for scipy.fft where the package must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"a transform ({name}) bypassed SpectralGrid")


def test_every_transform_goes_through_the_grid(monkeypatch):
    for module in (kernel_module, state_module, propagator_module):
        monkeypatch.setattr(module, "_fft", NoTransforms())
    for center in LAYOUTS:
        g, p, sym, f0 = dipolar_problem(center)
        fields = []
        # T is no multiple of dt, so the last step re-splits the carried half step
        series, final = evolve(
            f0, p, sym, dt=1e-3, T=0.0065, monitor=MonitorSpec(stride=2),
            callback=lambda f: fields.append(f.t), warn_resolution=False,
        )
        assert len(series) == len(fields) == 5 and final.t == pytest.approx(0.0065)
        strang_step(f0, 1e-3, p, sym)
        energy(f0, p, sym)
        quartic_norm_spectral(f0)
        apply_kernel(sym, state_module.density(f0))
        classify(f0, p, sym)
    u0, _ = linear_eigenstate(make_grid(1, [10.0], [24]), (1.0,))
    setup = ReductionSetup(0.2, (1.0, 1.0, 1.0), 0.5, 0.0, u0, "1d")
    ref = make_grid(3, [8.0, 8.0, 10.0], [16, 16, 24])
    rows = epsilon_sweep(setup, [0.2, 0.141], ref, 2e-3, 0.1, n_samples=2)
    assert [r["epsilon"] for r in rows] == [0.2, 0.141]
    # nor does any module but grid name the worker count
    for module in (kernel_module, state_module, propagator_module):
        assert not hasattr(module, "FFT_WORKERS")


@pytest.mark.parametrize("name", ["fft", "ifft", "rfft", "irfft", "fft2", "irfft2", "hfftn", "idst", "fht"])
def test_counting_fft_refuses_transforms_the_tracer_does_not_span(name):
    with pytest.raises(AssertionError, match="does not span"):
        getattr(CountingFFT(), name)
    assert CountingFFT().fftfreq is scipy_fft.fftfreq


def test_counting_fft_counts_type_1_dcts_and_refuses_the_others():
    counter = CountingFFT()
    x = np.random.default_rng(2).standard_normal((5, 6, 7))
    for name in ("dct", "dst", "dstn", "idstn"):
        with pytest.raises(AssertionError, match="does not span"):
            getattr(counter, name)
    for name, kwargs in (("dctn", {}), ("dctn", dict(type=2)), ("idctn", dict(type=3))):
        with pytest.raises(AssertionError, match="is not counted"):
            getattr(counter, name)(x, **kwargs)
    got = counter.dctn(x + 1j * x, type=1, axes=(1,), workers=1)
    assert np.array_equal(got, scipy_fft.dctn(x + 1j * x, type=1, axes=(1,)))
    counter.idctn(x, 1, workers=1)
    assert counter.take(kinds=("dct_c", "dct_r")) == (1, 1)
    counter.dctn(x + 1j * x, type=1, axes=(1,))
    counter.idctn(x, 1)
    counter.rfftn(x)
    assert counter.take(passes=True, kinds=CountingFFT.ALL) == (0, 3, 1, 3)


def test_transform_budget_per_step_and_sample(counting_fft):
    g, p, sym, f0 = dipolar_problem()

    def run(n_steps, stride, passes):
        evolve(
            f0, p, sym, dt=1e-3, T=n_steps * 1e-3,
            monitor=MonitorSpec(stride=stride), warn_resolution=False,
        )
        return counting_fft.take(passes)

    # Counted in transforms and in axis passes, three per 3D transform.
    # The runs of 3 and 6 steps sample only at t = 0 and at the end: a
    # step is 2 complex and 2 real 3D transforms.  Sampling every step
    # adds five samples over the same six steps.  A record takes psi (one
    # transform, 3 passes) and, per axis, one-axis transforms there and
    # back for the variance rate: 9 complex passes, where full transforms
    # took 12; the dipolar energy takes one real transform.
    for passes, per_step, per_record in ((False, (2, 2), (1 + 2 * 3, 1)), (True, (6, 6), (9, 3))):
        short, long_, dense = run(3, 100, passes), run(6, 100, passes), run(6, 1, passes)
        assert (long_[0] - short[0], long_[1] - short[1]) == (3 * per_step[0], 3 * per_step[1])
        assert (dense[0] - long_[0], dense[1] - long_[1]) == (5 * per_record[0], 5 * per_record[1])

    # A field given without a spectrum takes one forward transform, shared.
    energy(f0, p, sym)
    assert counting_fft.take(passes=True) == (3, 3)
    record_observables(f0, p, sym)
    assert counting_fft.take(passes=True) == (3 + 6, 3)

    strang_step(f0, 1e-3, p, sym)
    assert counting_fft.take() == (4, 2)
    # Every transform runs on the calling thread alone.
    assert counting_fft.workers == {1}


def test_octant_transform_budget_per_step_and_sample(counting_fft):
    g, p, sym, f0 = dipolar_problem(CENTRED)

    def run(n_steps, stride, passes):
        evolve(
            f0, p, sym, dt=1e-3, T=n_steps * 1e-3,
            monitor=MonitorSpec(stride=stride), warn_resolution=False,
        )
        return counting_fft.take(passes, kinds=CountingFFT.ALL)

    # The even run takes no FFT at all.  Counted as (FFT c2c, FFT r2c,
    # complex DCT-I, real DCT-I), in transforms and in axis passes: a step
    # is 2 complex and 2 real 3D DCT-Is, the full lattice's (2, 2) FFTs.
    # A record takes psi (one transform, 3 passes) and, per axis, a
    # one-axis DCT-I there and back for the variance rate: 9 complex
    # passes, as on the full lattice; the dipolar energy takes one real
    # DCT-I.
    for passes, per_step, per_record in ((False, (2, 2), (1 + 2 * 3, 1)), (True, (6, 6), (9, 3))):
        short, long_, dense = run(3, 100, passes), run(6, 100, passes), run(6, 1, passes)
        assert short[:2] == long_[:2] == dense[:2] == (0, 0)
        assert (long_[2] - short[2], long_[3] - short[3]) == (3 * per_step[0], 3 * per_step[1])
        assert (dense[2] - long_[2], dense[3] - long_[3]) == (5 * per_record[0], 5 * per_record[1])
    # Every transform runs on the calling thread alone.
    assert counting_fft.workers == {1}


@pytest.mark.parametrize("center, displaced", [((0.0, 0.0, 0.5), 2), ((0.4, 0.0, 0.0), 0)])
def test_mixed_transform_budget_per_step_and_sample(counting_fft, center, displaced):
    g, p, sym, f0 = dipolar_problem(center)

    def run(n_steps, stride):
        evolve(
            f0, p, sym, dt=1e-3, T=n_steps * 1e-3,
            monitor=MonitorSpec(stride=stride), warn_resolution=False,
        )
        return counting_fft.take(True, kinds=CountingFFT.ALL)

    # Counted in axis passes as (FFT c2c, FFT r2c, complex DCT-I, real
    # DCT-I): each 3D transform is an FFT along the displaced axis and a
    # DCT-I along the two others, the real one's inverse on the complex
    # half spectrum.  A step is 2 complex and 2 real transforms.  A record
    # takes psi (one transform), one-axis transforms there and back along
    # each axis for the variance rate (an FFT along the displaced axis, a
    # DCT-I along the others) and one real transform.
    per_step, per_record = (2, 2, 4 + 2, 2), (1 + 2, 1, 2 + 4, 2)
    short, long_, dense = run(3, 100), run(6, 100), run(6, 1)
    assert tuple(b - a for a, b in zip(short, long_)) == tuple(3 * k for k in per_step)
    assert tuple(b - a for a, b in zip(long_, dense)) == tuple(5 * k for k in per_record)
    # the FFT runs along the displaced axis alone, the DCT-I along the others
    evolve(f0, p, sym, dt=1e-3, T=2e-3, monitor=MonitorSpec(stride=1), warn_resolution=False)
    calls = counting_fft.calls
    even = tuple(a for a in range(3) if a != displaced)
    assert {axes for kind, axes in calls if kind in ("c2c", "r2c")} == {(displaced,)}
    assert {axes for kind, axes in calls if kind.startswith("dct")} == {even} | {(a,) for a in even}


def test_mixed_fields_write_and_classify_as_their_full_fields(tmp_path):
    for center in LAYOUTS[2:]:
        g, p, sym, f0 = dipolar_problem(center)
        _, final = evolve(f0, p, sym, dt=1e-3, T=0.004, warn_resolution=False)
        # the final field is held on its mixed lattice
        even = tuple(a for a, c in enumerate(center) if c == 0.0)
        assert final.grid is g and final.table.shape == g.sublattice(even).shape
        held_path, full_path = tmp_path / "held.gpef", tmp_path / "full.gpef"
        write_snapshot(final, held_path)
        assert final.table is not None
        write_snapshot(WaveField(final.values, g, final.t), full_path)
        assert held_path.read_bytes() == full_path.read_bytes()
        # classify reads the mixed lattice; the nudged field the full one
        got, want = classify(f0, p, sym).evidence, classify(nudged(f0), p, sym).evidence
        for key in ("E", "M", "grad_sq", "xphi_sq"):
            assert_close(got[key], want[key])


def nudged(field):
    """field with one value moved by one ulp, so that it is no longer mirror-even."""
    values = field.values.copy()
    index = tuple(n // 4 + 1 for n in values.shape)
    values[index] = np.nextafter(values[index].real, np.inf) + 1j * values[index].imag
    assert not tables.is_mirror_even(values)
    return WaveField(values, field.grid, field.t)


EVEN_RUNS = {
    1: ((16.0,), (64,), (1.0,), 1.0, 0.5, Effective1D(1.0, 1.2)),
    2: ((12.0, 12.0), (32, 48), (1.0, 1.3), 1.0, 0.4, Effective2D(2.0)),
    3: ((10.0, 10.0, 12.0), (32, 32, 32), (1.0, 0.9, 1.1), 1.0, 0.3, Analytic3D()),
}


@pytest.mark.parametrize("dim", sorted(EVEN_RUNS))
def test_an_even_run_matches_the_full_lattice_run(dim, counting_fft):
    extents, points, omega, lambda1, lambda2, prov = EVEN_RUNS[dim]
    g = make_grid(dim, extents, points)
    p = PhysicalParams(dim, omega, lambda1, lambda2)
    sym = build_symbol(g, prov)
    even = chirped_gaussian(g, center=np.zeros(dim))
    assert tables.is_mirror_even(even.values)
    runs = {}
    for name, f0 in (("even", even), ("nudged", nudged(even))):
        fields = []
        # T is no multiple of dt, so the last step re-splits the carried half step
        series, final = evolve(
            f0, p, sym, dt=1e-3, T=0.0207, monitor=MonitorSpec(stride=3),
            callback=lambda f: fields.append(f.copy()), sample_times=[0.006, 0.0207],
            warn_resolution=False,
        )
        runs[name] = series, fields, final, counting_fft.take(kinds=CountingFFT.ALL)
    (series, fields, final, counts), (series_n, fields_n, final_n, counts_n) = (
        runs["even"], runs["nudged"],
    )
    # the nudged field runs the full lattice, the even one the octant alone
    assert counts[:2] == (0, 0) and counts[2] > 0 and counts[3] > 0
    assert counts_n[0] > 0 and counts_n[1] > 0 and counts_n[2:] == (0, 0)
    assert len(series) == len(series_n) == 8
    for name in CSV_HEADER.split(","):
        a, b = series.column(name), series_n.column(name)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    # the caller sees full lattices
    for a, b in zip(fields + [final], fields_n + [final_n]):
        assert a.grid is g and a.values.shape == g.shape and a.t == b.t
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))
        assert tables.is_mirror_even(a.values)


def test_an_even_collapse_stops_like_the_full_lattice_run():
    # criterion 6's collapse on a 32^3 lattice
    g = make_grid(3, (15.0, 15.0, 30.0), (32, 32, 32))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    phi = make_unstable_data(g, 0.5, -3.0)
    assert tables.is_mirror_even(phi.values)
    reports = []
    for f0 in (phi, nudged(phi)):
        # the check before the first step sees the same tail on either lattice
        with pytest.warns(RuntimeWarning, match="marginally resolved"):
            _, out = evolve(f0, p, sym, dt=1e-3, T=1.6, monitor=MonitorSpec(stride=5))
        assert isinstance(out, CollapseReport)
        reports.append(out)
    even, full = reports
    assert (even.step, even.reason) == (full.step, full.reason)
    assert even.t_stop == full.t_stop
    assert_close(even.tail_fraction, full.tail_fraction, rel=1e-10)
    assert_close(even.grad_sq, full.grad_sq, rel=1e-10)
    assert even.field.grid is g


def traced_peak(fn):
    """fn's result and the peak of traced memory it allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_an_even_run_allocates_no_full_size_lattice(monkeypatch):
    g, p, sym, f0 = dipolar_problem(CENTRED, points=(64, 64, 64))
    octant, osym = g.octant, sym.octant
    # caches a run fills once
    osym.half_values, octant.row_weights, octant.coord_mesh, octant.freq_mesh
    full_real = 8 * g.size
    one_octant = 16 * octant.size
    assert 3 * one_octant < full_real

    # A step allocates the convolution's real spectrum and real lattice.
    split = propagator_module._Splitting(octant, 1e-3, p, osym)
    y = octant.restrict(f0.values)
    _, peak = traced_peak(lambda: split.kinetic(split.advance(y), split.full))
    assert peak <= one_octant + 2**16

    # A record in flight, as evolve submits it: beside psi, which takes over
    # the spectrum's array, the density, a work lattice and the variance
    # rate's difference lattice, all on the octant.
    psi = WaveField(y, octant)
    want = record_observables(psi, p, osym)
    spectrum = state_module.field_spectrum(psi)
    gradient_norm_sq(psi, spectrum)
    got, peak = traced_peak(
        lambda: propagator_module._record(None, spectrum, octant, 0.0, 1, p, osym)
    )
    # measured 2.42 octant lattices
    assert peak <= 3 * one_octant
    for name in ("mass", "E", "Edip", "y", "ydot", "maxpsi", "gradsq"):
        assert_close(getattr(got, name), getattr(want, name))

    # The whole loop, records in flight included: between one step's
    # B substep and the next, the memory in use grows by less than one full
    # complex lattice.
    real_phase = propagator_module._nonlinear_phase
    growth, last = [], []

    def phase(*args):
        current, peak = tracemalloc.get_traced_memory()
        if last:
            growth.append(peak - last[0])
        tracemalloc.reset_peak()
        last[:] = [current]
        return real_phase(*args)

    monkeypatch.setattr(propagator_module, "_nonlinear_phase", phase)
    traced_peak(lambda: evolve(f0, p, sym, dt=1e-3, T=0.008, monitor=MonitorSpec(stride=1)))
    assert len(growth) == 7
    # measured 1.0-3.1 octant lattices: a step, a sample's array and a
    # record on the recorder thread may overlap
    assert max(growth) <= 5 * one_octant < 16 * g.size


def test_an_octant_step_forms_one_real_octant_lattice():
    g, p, sym, f0 = dipolar_problem(CENTRED, points=(64, 64, 64))
    octant, osym = g.octant, sym.octant
    osym.half_values, octant.coord_mesh, octant.freq_mesh
    split = propagator_module._Splitting(octant, 1e-3, p, osym)
    y = octant.restrict(f0.values)
    # the convolution's spectrum, transformed back in place, becomes the
    # potential: one real octant lattice, and block scratch
    _, peak = traced_peak(lambda: split.kinetic(split.advance(y), split.full))
    assert peak <= 8 * octant.size + 2**16


def test_snapshots_form_no_full_lattice_copy(tmp_path):
    g = make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64))
    held = make_unstable_data(g, 0.5, -3.0)
    full = WaveField(g.octant.unfold(held.table), g, held.t)
    lattice = 16 * g.size
    held_path, full_path = tmp_path / "held.gpef", tmp_path / "full.gpef"
    # an octant-held field is written a plane at a time, a full one from
    # its own array
    _, peak = traced_peak(lambda: write_snapshot(held, held_path))
    assert peak < lattice and held.table is not None
    _, peak = traced_peak(lambda: write_snapshot(full, full_path))
    assert peak <= 2**16
    # both write the bytes tobytes gives the full lattice
    payload = full.values.astype("<c16").tobytes()
    assert held_path.read_bytes() == full_path.read_bytes()
    assert full_path.read_bytes().endswith(b"\n" + payload)
    # reading fills the field's one array
    back, peak = traced_peak(lambda: read_snapshot(held_path, grid=g))
    assert lattice <= peak <= lattice + 2**16
    assert back.grid is g and back.values.tobytes() == payload


def test_symbol_classify_and_evolve_allocate_no_full_size_lattice():
    # build_symbol, classify and evolve of centred data, as a collapse run
    # calls them: the symbol stays on its octant, classify reads the octant
    # and evolve runs there, and the final field is octant-held, so no full
    # lattice is formed at all
    g, p, _, f0 = dipolar_problem(CENTRED, points=(64, 64, 64))

    def run():
        sym = build_symbol(g, Analytic3D())
        cert = classify(f0, p, sym)
        return sym, cert, evolve(f0, p, sym, dt=1e-3, T=0.008, monitor=MonitorSpec(stride=1))

    (sym, cert, (series, final)), found = large_allocations(run, 8 * g.size)
    assert found == []
    assert final.grid is g and final.t == pytest.approx(0.008)
    assert final.table is not None
    assert len(series) == 9 and cert.evidence["M"] == pytest.approx(mass(f0), rel=1e-12)
    assert "values" not in vars(sym)


def test_a_collapse_run_forms_no_full_lattice_until_its_field_is_read():
    # criterion 6's set-up at 64^3, as a collapse run calls it: the data is
    # built on its octant, the symbol stays there, classify and evolve run
    # there and the report's field is octant-held
    g = make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)

    def run():
        phi = make_unstable_data(g, 0.5, -3.0)
        sym = build_symbol(g, Analytic3D())
        cert = classify(phi, p, sym)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            series, report = evolve(phi, p, sym, dt=1e-3, T=1.6, monitor=MonitorSpec(stride=5))
        return cert, report

    (cert, report), found = large_allocations(run, 8 * g.size)
    assert found == []
    assert cert.verdict == "BlowupCertified" and isinstance(report, CollapseReport)
    field = report.field
    assert field.grid is g and field.table is not None
    # the first read of its values forms the one full complex lattice
    values, peak = traced_peak(lambda: field.values)
    assert 16 * g.size <= peak <= 16 * g.size + 2**16
    again, peak = traced_peak(lambda: field.values)
    assert again is values and peak == 0


def test_nonlinear_phase_rotor_matches_exp_i_theta():
    theta = np.concatenate(
        [
            [math.pi, -math.pi, 0.0, 0.5 * math.pi, -0.5 * math.pi, 1e3, -1e3],
            np.random.default_rng(5).uniform(-1e3, 1e3, 57),
            np.linspace(-7.0, 7.0, 64),
        ]
    )
    p = PhysicalParams(1, (0.0,), 0.0, 0.0)
    values = np.ones(theta.shape, dtype=complex)
    split = propagator_module._Splitting(make_grid(1, [1.0], [theta.size]), 1.0, p, None)
    # the trap term is theta itself: V = -theta at dt = 1
    split.potential = grid_module.MeshBlocks(np.add, [-theta])
    propagator_module._nonlinear_phase(split, values)
    assert np.max(np.abs(values - np.exp(1j * theta))) <= 1e-15
    assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-15
    assert values[0].real == -1.0 and values[1].real == -1.0


def kinetic_factors(grid, dt):
    """Per-axis factors exp(-i dt xi_j^2 / 4) and exp(-i dt xi_j^2 / 2)."""
    squares = [f * f for f in grid.freq_mesh]
    return (
        [np.exp(s * (-0.25j * dt)) for s in squares],
        [np.exp(s * (-0.5j * dt)) for s in squares],
    )


class UnblockedSplitting:
    """The splitting step with full-lattice passes, as it ran unblocked.

    Full-lattice work buffers, the trap term (-dt/2) V and the kinetic
    multipliers khalf and kfull precomputed, the latter as full-lattice
    mesh_products of the per-axis factors: the reference the blocked
    step must match bit for bit.
    """

    def __init__(self, grid, dt, params, symbol, potential):
        self.dt, self.params, self.symbol = dt, params, symbol
        self.rho = np.empty(grid.shape)
        self.phase = np.empty(grid.shape)
        self.rotor = np.empty(grid.shape, dtype=complex)
        half, full = kinetic_factors(grid, dt)
        self.khalf = np.ascontiguousarray(grid_module.mesh_product(half))
        self.kfull = np.ascontiguousarray(grid_module.mesh_product(full))
        assert self.khalf.shape == self.kfull.shape == grid.shape
        self.trap_dt = (-0.5 * dt) * potential

    def advance(self, values):
        rho, phase, rotor = self.rho, self.phase, self.rotor
        dt, params = self.dt, self.params
        np.multiply(values.real, values.real, out=rho)
        np.multiply(values.imag, values.imag, out=phase)
        rho += phase
        np.multiply(rho, -0.5 * dt * params.lambda1, out=phase)
        phase += self.trap_dt
        if params.lambda2 != 0.0:
            phi = scipy_fft.irfftn(
                scipy_fft.rfftn(rho) * self.symbol.half_values, s=rho.shape
            )
            phi *= -0.5 * dt * params.lambda2
            phase += phi
        np.tan(phase, out=phase)
        np.multiply(phase, phase, out=rho)
        rho += 1.0
        np.divide(2.0, rho, out=rho)
        np.subtract(rho, 1.0, out=rotor.real)
        np.multiply(phase, rho, out=rotor.imag)
        values *= rotor
        return scipy_fft.fftn(values, overwrite_x=True)

    @staticmethod
    def kinetic(spec, multiplier):
        spec *= multiplier
        return scipy_fft.ifftn(spec, overwrite_x=True)


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


BLOCK = propagator_module._BLOCK

# Lattices below, at and above one block, one of them not a multiple of it.
BLOCKED_CASES = [
    # dim, extents, points, omega, lambda1, lambda2, symbol provenance
    (1, (20.0,), (64,), (1.0,), 1.0, 0.5, Effective1D(1.0, 1.0)),
    (1, (400.0,), (BLOCK,), (0.01,), 2.0, 0.0, None),
    (1, (600.0,), (BLOCK + 4464,), (0.01,), 0.0, 0.0, None),
    (2, (14.0, 12.0), (32, 24), (1.0, 1.3), 1.0, 0.4, Effective2D(2.0)),
    (2, (24.0, 24.0), (256, 256), (1.0, 1.0), 0.0, 0.3, Effective2D(1.0)),
    (3, (10.0, 10.0, 12.0), (16, 16, 16), (1.0, 1.0, 1.0), 1.0, 0.3, Analytic3D()),
    (3, (10.0, 10.0, 12.0), (64, 64, 16), (1.0, 1.0, 1.0), 1.0, 0.0, None),
    (3, (10.0, 10.0, 12.0), (40, 40, 48), (1.0, 0.9, 1.1), 1.0, 0.3, Analytic3D()),
    (3, (10.0, 10.0, 12.0), (40, 40, 48), (1.0, 0.9, 1.1), 0.0, -0.8, Analytic3D()),
]


def chirped_gaussian(grid, center=None):
    if center is None:
        center = np.linspace(0.3, -0.2, grid.dim)
    arg = sum(
        -((x - c) ** 2) / (0.12 * L) ** 2 + 0.3j * (x - c) ** 2
        for x, c, L in zip(grid.coord_mesh, center, grid.extents)
    )
    values = np.exp(arg)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    return WaveField(values, grid)


@pytest.mark.parametrize("dim, extents, points, omega, lambda1, lambda2, prov", BLOCKED_CASES)
def test_blocked_step_is_bit_identical(dim, extents, points, omega, lambda1, lambda2, prov):
    g = make_grid(dim, extents, points)
    p = PhysicalParams(dim, omega, lambda1, lambda2)
    sym = build_symbol(g, prov) if prov is not None else None
    f0 = chirped_gaussian(g)
    dt = 2.0**-9
    potential = tables.potential(p, g)
    ref = UnblockedSplitting(g, dt, p, sym, potential)
    split = propagator_module._Splitting(g, dt, p, sym)
    for phase, table in ((split.half, ref.khalf), (split.full, ref.kfull)):
        got = split.multiply(np.ones(g.shape, dtype=complex), phase, np.empty(g.shape, dtype=complex))
        assert np.array_equal(bits(got), bits(table * (1.0 + 0.0j)))

    # advance, then each kinetic multiply
    y_ref, y = f0.values.copy(), f0.values.copy()
    w_ref, w = ref.advance(y_ref), split.advance(y)
    assert np.array_equal(bits(w), bits(w_ref))
    half_ref = ref.kinetic(w_ref.copy(), ref.khalf)
    assert np.array_equal(bits(split.kinetic(w.copy(), split.half)), bits(half_ref))
    full_ref = ref.kinetic(w_ref, ref.kfull)
    assert np.array_equal(bits(split.kinetic(w, split.full)), bits(full_ref))

    # one strang_step
    y_ref = ref.kinetic(scipy_fft.fftn(f0.values), ref.khalf)
    out_ref = ref.kinetic(ref.advance(y_ref), ref.khalf)
    out = strang_step(f0, dt, p, sym)
    assert np.array_equal(bits(out.values), bits(out_ref))

    # a 20-step evolve, with samples on the way
    n = 20
    y_ref = scipy_fft.ifftn(scipy_fft.fftn(f0.values) * ref.khalf, overwrite_x=True)
    for step in range(1, n + 1):
        w_ref = ref.advance(y_ref)
        if step < n:
            y_ref = ref.kinetic(w_ref, ref.kfull)
    psi_ref = scipy_fft.ifftn(w_ref * ref.khalf)
    _, final = evolve(
        f0, p, sym, dt=dt, T=n * dt,
        monitor=MonitorSpec(stride=7, grad_threshold=math.inf, spectral_tail=1.0),
        warn_resolution=False, observables=False,
    )
    assert final.t == n * dt
    assert np.array_equal(bits(final.values), bits(psi_ref))


@pytest.mark.parametrize("points", [(16, 16, 16), (64, 64, 16), (40, 40, 48), (96, 96, 96)])
def test_splitting_holds_two_full_lattices(points):
    # The step holds one full lattice, rho, and the kinetic phases no
    # longer: beside rho, every array it owns, those of its MeshBlocks
    # included, is at most a block long.
    g = make_grid(3, (10.0, 10.0, 12.0), points)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    split = propagator_module._Splitting(g, 1e-3, p, build_symbol(g, Analytic3D()))

    def owned(obj, prefix=""):
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                yield prefix + name, value
            elif isinstance(value, grid_module.MeshBlocks):
                yield from owned(value, f"{prefix}{name}.")

    arrays = dict(owned(split))
    assert {"potential.last", "half.last", "full.last"} <= arrays.keys()
    full = {name for name, value in arrays.items() if np.shares_memory(value, split.rho)}
    assert full == {"rho"} and split.rho.shape == g.shape
    block = min(BLOCK, g.size)
    for name in arrays.keys() - full:
        assert arrays[name].size <= block, name
    # a lattice of one block keeps its tables whole
    assert (split.half.table is not None) == (g.size <= BLOCK)
    # a new dt swaps the factors and allocates no lattice
    tracemalloc.start()
    try:
        split.set_dt(2e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two kept tables at most, and numpy's iterator buffers
    assert peak <= 2 * 16 * block + 2**19
    assert split.rho is arrays["rho"]

    # the check before the first step sums in the split's rho and scratch:
    # it allocates the convolution's half spectrum and real lattice only
    values = chirped_dipolar_gaussian(g).values
    half = math.prod(g.shape[:-1]) * (g.shape[-1] // 2 + 1)
    split.symbol.half_values  # the symbol caches its half spectrum on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        split.phase_scale(values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * half + 8 * g.size + 2**16
    assert split.rho is arrays["rho"]


def test_a_record_in_flight_holds_psi_and_one_work_lattice():
    g = make_grid(3, (10.0, 10.0, 12.0), (64, 64, 64))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f = chirped_dipolar_gaussian(g)
    want = record_observables(f, p, sym)
    sym.half_values, g.coords, g.freqs, g.coord_mesh, g.freq_mesh

    # psi is materialized in place: it takes over the spectrum's array
    spectrum = state_module.field_spectrum(f)
    array = spectrum.values
    psi = propagator_module._materialize(spectrum, g, 0.0, 0)
    assert np.shares_memory(psi.values, array)
    with pytest.raises(RuntimeError, match="spend"):
        spectrum.values
    assert spectrum._power_sums is not None

    # a record as evolve submits it, from a spectrum whose sums the
    # monitor took: beside the spectrum's array, which becomes psi, one
    # complex work lattice (the density and the half spectrum of the
    # dipolar energy, or the variance rate's) and block scratch
    spectrum = state_module.field_spectrum(f)
    gradient_norm_sq(f, spectrum)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = propagator_module._record(None, spectrum, g, f.t, 1, p, sym)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * g.size + 2**21
    for name in ("mass", "E", "Ekin", "Epot", "Ecubic", "Edip", "y", "ydot", "maxpsi", "gradsq"):
        assert_close(getattr(got, name), getattr(want, name))


def test_samples_reuse_one_array_unless_psi_is_handed_out(monkeypatch):
    g, p, sym, f0 = dipolar_problem()
    real_spectrum = propagator_module.FieldSpectrum
    addresses = []

    def spectrum(values, *args):
        addresses.append(values.__array_interface__["data"][0])
        return real_spectrum(values, *args)

    monkeypatch.setattr(propagator_module, "FieldSpectrum", spectrum)
    kept = []
    _, final = evolve(
        f0, p, sym, dt=1e-3, T=0.012, monitor=MonitorSpec(stride=2),
        callback=lambda f: kept.append((f, f.values.copy())), sample_times=[6e-3],
        warn_resolution=False,
    )
    # samples at steps 2, 4, 6 (the callback's), 8, 10 and 12 (the end): the
    # callback keeps the array of step 6, so step 8 takes a new one
    a, b = addresses[0], addresses[3]
    assert addresses == [a, a, a, b, b, b] and a != b
    (field, values), = kept
    assert field.values.__array_interface__["data"][0] == a
    assert np.array_equal(field.values, values)
    assert final.values.__array_interface__["data"][0] == b


def test_a_3d_classify_and_evolve_build_no_trap_or_grid_lattice(monkeypatch):
    g = make_grid(3, (12.0, 12.0, 14.0), (32, 32, 32))
    p = PhysicalParams(3, (1.0, 0.9, 1.1), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f0, _ = linear_eigenstate(g, (1.2, 1.0, 0.8))

    # the package has no full-lattice trap builder; the test helper builds it
    assert not hasattr(PhysicalParams, "potential")
    classify(f0, p, sym)
    # T is no multiple of dt, so the last step re-splits the carried half step
    series, final = evolve(f0, p, sym, dt=1e-3, T=0.0125, monitor=MonitorSpec(stride=4))
    assert final.t == pytest.approx(0.0125) and len(series) == 5
    assert not {"ksq", "radius_sq", "top_octave_mask"} & vars(g).keys()


def test_virial_identity_holds_along_a_recorded_series():
    # With a harmonic trap and lambda2 = 0, y'' = 4 Ekin - 4 Epot + 6 Ecubic
    # in 3D.  Integrated along the series by Simpson's rule it gives the
    # recorded ydot - ydot(0), and ydot integrated gives y - y(0): this ties
    # the Ekin, Epot, Ecubic and y sums to the separately computed ydot.
    from scipy.integrate import cumulative_simpson

    g = make_grid(3, (12.0, 12.0, 12.0), (32, 32, 32))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.0)
    f0, _ = linear_eigenstate(g, (1.5, 1.5, 0.7))
    series, _ = evolve(
        f0, p, None, dt=1e-3, T=2.0, monitor=MonitorSpec(stride=4), warn_resolution=False
    )
    t, y, ydot = series.column("t"), series.column("y"), series.column("ydot")
    yddot = 4.0 * series.column("Ekin") - 4.0 * series.column("Epot") + 6.0 * series.column("Ecubic")
    # the cloud breathes: ydot reaches 0.58
    assert len(series) == 501 and np.max(np.abs(ydot)) > 0.5
    # measured 1.22e-6, the floor of this lattice and dt
    residual = cumulative_simpson(yddot, x=t, initial=0.0) - (ydot - ydot[0])
    assert np.max(np.abs(residual)) <= 2e-6
    # measured 4.8e-8, Simpson's error at this sampling
    residual = cumulative_simpson(ydot, x=t, initial=0.0) - (y - y[0])
    assert np.max(np.abs(residual)) <= 1e-7


def test_strang_step_with_phase_beyond_pi_keeps_mass_and_reverses():
    g = make_grid(2, [12.0, 12.0], [32, 32])
    p = PhysicalParams(2, (1.0, 1.0), 1.0, 0.0)
    dt = 0.1
    assert dt * np.max(tables.potential(p, g)) > math.pi
    f0 = gaussian(g, 1.2)
    m0 = mass(f0)
    fwd = f0
    for _ in range(20):
        fwd = strang_step(fwd, dt, p)
    assert mass(fwd) == pytest.approx(m0, rel=1e-13)
    back = fwd
    for _ in range(20):
        back = strang_step(back, -dt, p)
    assert np.max(np.abs(back.values - f0.values)) < 1e-11


def test_monitor_only_run_gives_the_same_snapshots():
    for center in LAYOUTS:
        g, p, sym, f0 = dipolar_problem(center)
        runs = {}
        for observables in (True, False):
            fields = []
            series, final = evolve(
                f0, p, sym, dt=1e-3, T=0.012, monitor=MonitorSpec(stride=4),
                callback=lambda f: fields.append(f.copy()), warn_resolution=False,
                observables=observables,
            )
            runs[observables] = (series, fields, final)
        (series, fields, final), (empty, monitored, final_m) = runs[True], runs[False]
        assert len(series) == 4 and len(empty) == 0
        assert len(fields) == len(monitored) == 4
        for a, b in zip(fields + [final], monitored + [final_m]):
            assert a.t == b.t
            assert np.array_equal(a.values, b.values)


def test_monitor_only_run_gives_the_same_collapse_report():
    g = make_grid(2, [12.0, 12.0], [64, 64])
    p = PhysicalParams(2, (1.0, 1.0), -8.0, 0.0)
    f0 = WaveField(2.0 * gaussian(g, 1.0).values, g)
    reports = []
    for observables in (True, False):
        _, out = evolve(
            f0, p, dt=5e-4, T=3.0, monitor=MonitorSpec(stride=5),
            warn_resolution=False, observables=observables,
        )
        assert isinstance(out, CollapseReport)
        reports.append(out)
    full, monitored = reports
    assert (monitored.step, monitored.reason) == (full.step, full.reason)
    assert monitored.grad_sq == full.grad_sq
    assert monitored.tail_fraction == full.tail_fraction
    assert monitored.t_stop == full.t_stop
    assert np.array_equal(monitored.field.values, full.field.values)


def test_monitor_only_samples_add_no_transform(counting_fft):
    g, p, sym, f0 = dipolar_problem()

    def run(stride, **kwargs):
        evolve(
            f0, p, sym, dt=1e-3, T=6e-3, monitor=MonitorSpec(stride=stride),
            warn_resolution=False, observables=False, **kwargs,
        )
        return counting_fft.take()

    # spectrum of field0, first half step, six forward and five inverse
    # step transforms, the final field
    sparse = run(100)
    assert sparse == (1 + 1 + 6 + 5 + 1, 6 * 2)
    # five more samples over the same six steps
    assert run(1) == sparse
    # each callback step materializes its field: one inverse transform
    assert run(1, callback=lambda f: None, sample_times=[2e-3, 4e-3]) == (
        sparse[0] + 2, sparse[1],
    )


def test_monitor_only_sample_detects_nonfinite_field():
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 1.0, 0.0)
    f0 = gaussian(g, 1.0)
    f0 = WaveField(1e160 * f0.values, g)
    # the monitor runs on the calling thread whether or not records are taken
    for observables in (False, True):
        with pytest.raises(NonFiniteStateError), np.errstate(all="ignore"):
            evolve(
                f0, p, dt=1e-3, T=0.1, monitor=MonitorSpec(stride=2),
                warn_resolution=False, observables=observables,
            )


def test_error_in_a_record_propagates_and_leaves_no_thread(monkeypatch):
    g, p, sym, f0 = dipolar_problem()
    real_record = propagator_module.record_observables
    calls = []

    class RecordFailed(RuntimeError):
        pass

    def failing_record(*args, **kwargs):
        calls.append(args[0].t)
        if len(calls) == 3:
            raise RecordFailed("third sample")
        return real_record(*args, **kwargs)

    monkeypatch.setattr(propagator_module, "record_observables", failing_record)
    threads = threading.active_count()
    with pytest.raises(RecordFailed, match="third sample"):
        evolve(
            f0, p, sym, dt=1e-3, T=0.02, monitor=MonitorSpec(stride=2),
            warn_resolution=False,
        )
    assert threading.active_count() == threads
    # the loop met the failure at the next sample, not at the end
    assert len(calls) == 3


def test_records_taken_beside_the_loop_match_their_fields():
    for center in LAYOUTS:
        g, p, sym, f0 = dipolar_problem(center)
        kwargs = dict(dt=1e-3, T=0.01, monitor=MonitorSpec(stride=1), warn_resolution=False)
        fields = []
        held, _ = evolve(f0, p, sym, callback=lambda f: fields.append(f.copy()), **kwargs)
        # without a callback the recorder materializes psi while the loop steps
        # on; a short switch interval makes the two threads interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            beside, _ = evolve(f0, p, sym, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert len(fields) == len(held) == len(beside) == 11
        assert beside.records == held.records
        for record, field in zip(beside, fields):
            e = energy(field, p, sym)
            y, ydot = variance_and_rate(field)
            assert record.t == field.t
            assert_close(record.mass, mass(field))
            assert_close(record.maxpsi, max_abs(field))
            assert_close(record.E, e.total)
            assert_close(record.Edip, e.dipolar)
            assert_close(record.gradsq, gradient_norm_sq(field))
            assert_close(record.y, y)
            assert_close(record.ydot, ydot)


def test_callback_runs_on_the_calling_thread_after_its_record(monkeypatch):
    g, p, sym, f0 = dipolar_problem()
    real_record = propagator_module.record_observables
    events = []

    def logged_record(field, *args, **kwargs):
        out = real_record(field, *args, **kwargs)
        events.append(("record", field.t))
        return out

    def callback(field):
        assert threading.current_thread() is threading.main_thread()
        events.append(("callback", field.t))

    monkeypatch.setattr(propagator_module, "record_observables", logged_record)
    evolve(
        f0, p, sym, dt=1e-3, T=0.012, monitor=MonitorSpec(stride=2),
        callback=callback, sample_times=[4e-3, 0.012], warn_resolution=False,
    )
    t = [1e-3 * k for k in range(0, 13, 2)]
    records = [("record", pytest.approx(tk)) for tk in t]
    assert events == records[:3] + [("callback", pytest.approx(4e-3))] + records[3:] + [
        ("callback", pytest.approx(0.012))
    ]


def test_monitor_only_run_starts_no_thread():
    g, p, sym, f0 = dipolar_problem()
    threads = threading.active_count()
    seen = []
    for observables in (False, True):
        evolve(
            f0, p, sym, dt=1e-3, T=4e-3, monitor=MonitorSpec(stride=2),
            callback=lambda f: seen.append(threading.active_count()),
            warn_resolution=False, observables=observables,
        )
    # the recorder thread lives only while a run records observables
    assert seen == [threads] * 3 + [threads + 1] * 3
    assert threading.active_count() == threads
