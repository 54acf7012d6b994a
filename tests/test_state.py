import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as scipy_fft

from dipgpe import (
    Analytic3D,
    Effective1D,
    Effective2D,
    EnergyBreakdown,
    GridError,
    KernelRealityError,
    KernelSymbol,
    MonitorSpec,
    ObservableRecord,
    ObservableSeries,
    PhysicalParams,
    WaveField,
    apply_kernel,
    build_symbol,
    check_resolution,
    classify,
    density,
    energy,
    evolve,
    field_std,
    gradient_norm_sq,
    linear_eigenstate,
    make_grid,
    make_unstable_data,
    mass,
    max_abs,
    quartic_norm,
    quartic_norm_spectral,
    record_observables,
    spectral_tail_fraction,
    strang_step,
    variance_and_rate,
)
from dipgpe.grid import _BLOCK, mirror_even_axes
from dipgpe.kernel import _pair_symbol_real
from dipgpe import state as state_module
from dipgpe.state import CSV_HEADER, _sum_sq, field_spectrum, variance

import lattice_tables as tables
from allocations import large_allocations


def gaussian_field(grid, sigma, center=None):
    """Normalized isotropic Gaussian exp(-|x - c|^2 / (2 sigma^2))."""
    if center is None:
        center = [0.0] * grid.dim
    r2 = sum((c - c0) ** 2 for c, c0 in zip(grid.coord_mesh, center))
    amp = (math.pi * sigma**2) ** (-grid.dim / 4.0)
    return WaveField(amp * np.exp(-r2 / (2.0 * sigma**2)), grid)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(2, (1.0,), 0.0, 0.0)
    with pytest.raises(ValueError):
        PhysicalParams(3, (1.0, -1.0, 1.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        PhysicalParams(0, (), 0.0, 0.0)
    p = PhysicalParams(3, (2.0, 1.0, 3.0), 1.0, 0.1)
    assert p.omega_min == 1.0


def test_stable_regime_predicate():
    assert PhysicalParams(3, (1, 1, 1), 1.0, 0.0).in_stable_regime()
    assert PhysicalParams(3, (1, 1, 1), 4.2, 1.0).in_stable_regime()
    assert not PhysicalParams(3, (1, 1, 1), 4.1, 1.0).in_stable_regime()
    assert not PhysicalParams(3, (1, 1, 1), -0.1, 0.0).in_stable_regime()
    assert not PhysicalParams(3, (1, 1, 1), 1.0, -0.1).in_stable_regime()


def test_potential_mesh():
    g = make_grid(2, [8.0, 8.0], [16, 16])
    p = PhysicalParams(2, (1.0, 2.0), 0.0, 0.0)
    v = tables.potential(p, g)
    x1, x2 = g.coord_mesh
    assert np.allclose(v, 0.5 * (x1**2 + 4.0 * x2**2), atol=1e-14)
    with pytest.raises(GridError):
        tables.potential(PhysicalParams(3, (1, 1, 1), 0.0, 0.0), g)


def test_wavefield_shape_check():
    g = make_grid(1, [8.0], [16])
    with pytest.raises(GridError):
        WaveField(np.zeros(8, dtype=complex), g)
    f = WaveField(np.zeros(16), g)
    assert f.values.dtype == np.complex128
    f.values[3] = np.nan
    with pytest.raises(ValueError):
        f.validate_finite()


def test_octant_held_fields_write_through_once_read():
    g = make_grid(3, (18.0, 18.0, 36.0), (16, 16, 16))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    # a monitor that never trips: the lattice is too coarse to follow collapse
    monitor = MonitorSpec(stride=2, grad_factor=1e300, spectral_tail=1.0)
    run = dict(dt=1e-3, T=0.004, monitor=monitor, warn_resolution=False)

    def made():
        return make_unstable_data(g, 0.5, -3.0)

    def evolved():
        _, final = evolve(made(), p, sym, **run)
        return final

    # a run reads an octant-held field0's table and leaves it as it was
    f0 = made()
    before = f0.table.copy()
    classify(f0, p, sym)
    evolve(f0, p, sym, **run)
    assert f0.table is not None
    assert np.array_equal(f0.table.view(np.uint64), before.view(np.uint64))

    for make in (made, evolved):
        f = make()
        table = f.table
        assert f.grid is g and table.shape == g.octant.shape
        # copy copies the table alone
        c = f.copy()
        assert c.table is not None and not np.shares_memory(c.table, table)
        assert np.array_equal(c.table, table) and (c.grid, c.t) == (f.grid, f.t)
        # the first read mirrors the table; from then on values is the field
        values = f.values
        assert f.table is None and f.values is values and values.shape == g.shape
        assert np.array_equal(values[g.octant.index], table)
        assert f.copy().table is None
        f.values[3, 4, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            f.validate_finite()
        with pytest.raises(ValueError, match="non-finite"):
            evolve(f, p, sym, **run)
        with pytest.raises(ValueError, match="non-finite"):
            classify(f, p, sym)

    # an array of neither the lattice's shape nor a sublattice's is refused
    for shape in ((9, 9, 8), (16, 16, 10), (8, 8, 8), (16, 16)):
        with pytest.raises(GridError):
            WaveField(np.zeros(shape, dtype=complex), g)
    # one even along z alone is held there
    mixed = WaveField(np.zeros((16, 16, 9)), g)
    assert mixed.table is not None and mixed.values.shape == g.shape
    # on the octant itself, the octant's shape is the field's
    on_octant = WaveField(np.zeros(g.octant.shape), g.octant)
    assert on_octant.table is None and on_octant.values.shape == g.octant.shape


def test_mass_of_normalized_gaussian():
    g = make_grid(3, [14.0, 14.0, 14.0], [32, 32, 32])
    f = gaussian_field(g, 1.0)
    assert mass(f) == pytest.approx(1.0, abs=1e-12)
    f2 = WaveField(2.0 * f.values, g)
    assert mass(f2) == pytest.approx(4.0, abs=1e-11)


def test_ground_state_energy_is_three_halves():
    g = make_grid(3, [14.0, 14.0, 14.0], [32, 32, 32])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.0)
    f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    e = energy(f, p)
    assert e.total == pytest.approx(1.5, abs=1e-8)
    assert e.kinetic == pytest.approx(0.75, abs=1e-8)
    assert e.potential == pytest.approx(0.75, abs=1e-8)
    assert e.cubic == 0.0
    assert e.dipolar == 0.0


def test_gaussian_energy_formula():
    # kinetic d/(4 sigma^2), trap omega^2 sigma^2 d / 4 for an isotropic
    # normalized Gaussian of width sigma
    g = make_grid(2, [16.0, 16.0], [64, 64])
    sigma, omega = 1.3, 0.7
    p = PhysicalParams(2, (omega, omega), 0.0, 0.0)
    f = gaussian_field(g, sigma)
    e = energy(f, p)
    assert e.kinetic == pytest.approx(2.0 / (4.0 * sigma**2), rel=1e-10)
    assert e.potential == pytest.approx(omega**2 * sigma**2 * 2.0 / 4.0, rel=1e-10)


def test_energy_requires_symbol_for_dipolar_coupling():
    g = make_grid(3, [10.0, 10.0, 10.0], [16, 16, 16])
    p = PhysicalParams(3, (1, 1, 1), 0.0, 0.5)
    f = gaussian_field(g, 1.0)
    with pytest.raises(ValueError):
        energy(f, p)


def test_dipolar_energy_vanishes_for_radial_data():
    g = make_grid(3, [14.0, 14.0, 14.0], [32, 32, 32])
    p = PhysicalParams(3, (1, 1, 1), 0.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f = gaussian_field(g, 1.1)
    e = energy(f, p, sym)
    assert abs(e.dipolar) < 1e-12


@pytest.mark.parametrize(
    "shape", [(8, 10, 12), (12, 8, 8)], ids=["3d-anisotropic", "3d-short-last-axis"]
)
def test_dipolar_energy_parseval_matches_convolution(shape):
    # The one-real-transform pairing equals rho . (K * rho) from the full
    # complex transform pair, Nyquist planes included.
    g = make_grid(3, [9.0, 10.0, 11.0], shape)
    p = PhysicalParams(3, (1, 1, 1), 0.0, 0.7)
    sym = build_symbol(g, Analytic3D())
    rng = np.random.default_rng(5)
    f = WaveField(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape), g)
    rho = density(f)
    direct = 0.5 * p.lambda2 * float(np.sum(rho * apply_kernel(sym, rho))) * g.cell_volume
    assert energy(f, p, sym).dipolar == pytest.approx(direct, rel=1e-12)


def test_odd_symbol_raises_from_energy_and_evolve():
    g = make_grid(1, [12.0], [32])
    p = PhysicalParams(1, (1.0,), 0.0, 0.5)
    f = gaussian_field(g, 1.0)
    # an odd table makes no symbol, so none reaches energy or evolve
    with pytest.raises(KernelRealityError, match="not even along axis 0"):
        KernelSymbol(0.1 * g.freqs[0], Effective1D(1.0, 1.0), g)
    # An even symbol built by hand passes the same check without validate().
    even = KernelSymbol(-0.1 * g.freqs[0] ** 2, Effective1D(1.0, 1.0), g)
    rho = density(f)
    direct = 0.5 * p.lambda2 * float(np.sum(rho * apply_kernel(even, rho))) * g.cell_volume
    assert energy(f, p, even).dipolar == pytest.approx(direct, rel=1e-12)


def test_interaction_positive_in_stable_cone():
    # lambda1 >= (4 pi / 3) lambda2 >= 0 makes the combined quartic term
    # nonnegative mode by mode
    g = make_grid(3, [12.0, 12.0, 12.0], [24, 24, 24])
    lam2 = 1.0
    lam1 = 4.0 * math.pi / 3.0 * lam2 + 0.01
    p = PhysicalParams(3, (1, 1, 1), lam1, lam2)
    assert p.in_stable_regime()
    sym = build_symbol(g, Analytic3D())
    rng = np.random.default_rng(21)
    x1, x2, x3 = g.coord_mesh
    base = np.exp(-0.5 * (x1**2 + 0.6 * x2**2 + 2.0 * x3**2))
    f = WaveField(base * (1.0 + 0.2 * rng.random(g.shape)), g)
    e = energy(f, p, sym)
    assert e.cubic + e.dipolar > 0.0


def test_variance_of_gaussian():
    g = make_grid(1, [32.0], [128])
    sigma = 1.7
    f = gaussian_field(g, sigma)
    y, ydot = variance_and_rate(f)
    assert y == pytest.approx(sigma**2 / 2.0, rel=1e-10)
    assert abs(ydot) < 1e-12


def test_variance_rate_of_quadratic_phase():
    # multiplying by exp(i beta |x|^2 / 2) turns on dy/dt = 2 beta y
    g = make_grid(2, [18.0, 18.0], [64, 64])
    beta = 0.37
    f = gaussian_field(g, 1.2)
    r2 = g.coord_mesh[0] ** 2 + g.coord_mesh[1] ** 2
    g_field = WaveField(f.values * np.exp(0.5j * beta * r2), g)
    y, ydot = variance_and_rate(g_field)
    assert ydot == pytest.approx(2.0 * beta * y, rel=1e-9)


def chirped_field(grid):
    center = np.linspace(0.4, -0.3, grid.dim)
    arg = sum(
        -((x - c) ** 2) / (0.1 * L) ** 2 + 0.4j * (x - c) ** 2 + 0.7j * x
        for x, c, L in zip(grid.coord_mesh, center, grid.extents)
    )
    return WaveField(np.exp(arg), grid)


def variance_rate_with_a_real_buffer(field):
    """dy/dt summed in a separate real lattice, from the same one-axis transforms."""
    grid = field.grid
    psi = field.values
    acc = 0.0
    for axis, (freq, coord) in enumerate(zip(grid.freq_mesh, grid.coord_mesh)):
        g = scipy_fft.ifftn(scipy_fft.fftn(psi, axes=(axis,)) * freq, axes=(axis,))
        g *= coord
        re = psi.real * g.real
        re += psi.imag * g.imag
        acc += float(np.sum(re))
    return 2.0 * acc * grid.cell_volume


@pytest.mark.parametrize(
    "dim, extents, points",
    [(1, (16.0,), (96,)), (2, (14.0, 12.0), (48, 40)), (3, (10.0, 10.0, 12.0), (24, 20, 32))],
)
def test_variance_rate_summed_in_place_is_bit_identical(dim, extents, points):
    f = chirped_field(make_grid(dim, extents, points))
    want = variance_rate_with_a_real_buffer(f)
    _, got = variance_and_rate(f)
    assert want != 0.0
    assert np.array([got]).view(np.uint64)[0] == np.array([want]).view(np.uint64)[0]


def variance_rate_by_full_transforms(field):
    """dy/dt with d_j psi = ifftn(i xi_j fftn(psi)), the full-transform formula."""
    grid = field.grid
    psi = field.values
    spectrum = scipy_fft.fftn(psi)
    acc = 0.0
    for freq, coord in zip(grid.freq_mesh, grid.coord_mesh):
        d_psi = scipy_fft.ifftn(1j * freq * spectrum)
        acc += float(np.sum(np.imag(np.conj(psi) * coord * d_psi)))
    return 2.0 * acc * grid.cell_volume


@pytest.mark.parametrize(
    "dim, extents, points",
    [(1, (16.0,), (96,)), (2, (14.0, 12.0), (48, 40)), (3, (10.0, 11.0, 12.0), (24, 20, 32))],
)
def test_variance_rate_by_one_axis_transforms_matches_full_transforms(dim, extents, points):
    f = off_centre_chirped(make_grid(dim, extents, points), chirp=0.3)
    want = variance_rate_by_full_transforms(f)
    _, got = variance_and_rate(f)
    assert abs(want) > 1e-2
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_gradient_norm_is_kept_on_its_spectrum():
    g = make_grid(3, (10.0, 10.0, 12.0), (32, 32, 32))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f = chirped_field(g)
    fresh = record_observables(f, p, sym, spectrum=field_spectrum(f))
    spectrum = field_spectrum(f)
    grad_sq = gradient_norm_sq(f, spectrum)
    # the second call on the same grid sums nothing: no lattice is allocated
    tracemalloc.start()
    try:
        assert gradient_norm_sq(f, spectrum) == grad_sq
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.size * 8
    rec = record_observables(f, p, sym, spectrum=spectrum)
    assert rec == fresh
    assert rec.gradsq == grad_sq
    # another grid of the same shape sums again on its own frequencies
    g2 = make_grid(3, (20.0, 20.0, 24.0), (32, 32, 32))
    f2 = WaveField(f.values, g2)
    assert gradient_norm_sq(f2, spectrum) == gradient_norm_sq(f2, field_spectrum(f2))
    assert gradient_norm_sq(f2, spectrum) != grad_sq


def test_quartic_norm_routes_agree():
    g = make_grid(2, [12.0, 12.0], [32, 32])
    rng = np.random.default_rng(33)
    f = WaveField(
        rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape), g
    )
    a = quartic_norm(f)
    b = quartic_norm_spectral(f)
    assert abs(a - b) <= 1e-10 * abs(a)


def test_gradient_norm_of_plane_wave():
    g = make_grid(1, [16.0], [64])
    k = 3 * 2.0 * math.pi / 16.0
    f = WaveField(np.exp(1j * k * g.coords[0]), g)
    assert gradient_norm_sq(f) == pytest.approx(k**2 * 16.0, rel=1e-12)


def test_max_abs_and_density():
    g = make_grid(1, [8.0], [16])
    f = gaussian_field(g, 1.0)
    assert max_abs(f) == pytest.approx((math.pi) ** (-0.25), rel=1e-6)
    assert np.allclose(density(f), np.abs(f.values) ** 2)


def test_field_std_matches_width():
    g = make_grid(2, [20.0, 20.0], [64, 64])
    f = gaussian_field(g, 1.5)
    stds = field_std(f)
    assert stds[0] == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-8)
    assert stds[1] == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-8)


def test_spectral_tail_small_for_resolved_field():
    g = make_grid(1, [24.0], [128])
    f = gaussian_field(g, 1.0)
    assert spectral_tail_fraction(f) < 1e-12


def test_check_resolution_warns_on_narrow_box():
    g = make_grid(1, [8.0], [64])
    f = gaussian_field(g, 1.5)  # box is under 8 density sigmas wide
    with pytest.warns(RuntimeWarning, match="box extent"):
        check_resolution(f)


def test_energy_breakdown_total():
    e = EnergyBreakdown(kinetic=1.0, potential=2.0, cubic=0.25, dipolar=-0.5)
    assert e.total == pytest.approx(2.75)


def test_observable_record_rejects_inconsistent_total():
    with pytest.raises(ValueError):
        ObservableRecord(
            t=0.0,
            mass=1.0,
            E=2.0,
            Ekin=1.0,
            Epot=0.5,
            Ecubic=0.1,
            Edip=0.0,
            y=1.0,
            ydot=0.0,
            maxpsi=1.0,
            gradsq=2.0,
        )


def test_record_observables_consistency():
    g = make_grid(2, [14.0, 14.0], [48, 48])
    p = PhysicalParams(2, (1.0, 1.0), 0.8, 0.0)
    f = gaussian_field(g, 1.1)
    rec = record_observables(f, p)
    assert rec.t == 0.0
    assert rec.mass == pytest.approx(1.0, abs=1e-12)
    assert rec.gradsq == pytest.approx(2.0 * rec.Ekin, rel=1e-15)
    assert rec.E == pytest.approx(rec.Ekin + rec.Epot + rec.Ecubic + rec.Edip)


def test_series_append_and_columns():
    s = ObservableSeries()
    kwargs = dict(
        mass=1.0, E=1.0, Ekin=1.0, Epot=0.0, Ecubic=0.0, Edip=0.0,
        y=1.0, ydot=0.0, maxpsi=1.0, gradsq=2.0,
    )
    s.append(ObservableRecord(t=0.0, **kwargs))
    s.append(ObservableRecord(t=0.5, **kwargs))
    with pytest.raises(ValueError):
        s.append(ObservableRecord(t=0.5, **kwargs))
    assert len(s) == 2
    assert np.array_equal(s.column("t"), [0.0, 0.5])
    assert np.array_equal(s.column("gradsq"), [2.0, 2.0])


def test_series_csv_roundtrip(tmp_path):
    g = make_grid(1, [16.0], [64])
    p = PhysicalParams(1, (1.0,), 0.3, 0.0)
    s = ObservableSeries()
    for t, sigma in ((0.0, 1.0), (0.25, 1.1), (0.5, 0.93)):
        f = gaussian_field(g, sigma)
        f.t = t
        s.append(record_observables(f, p))
    path = tmp_path / "series.csv"
    s.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq"
    back = ObservableSeries.from_csv(path)
    assert len(back) == 3
    for a, b in zip(s, back):
        for name in ("t", "mass", "E", "Ekin", "y", "ydot", "maxpsi", "gradsq"):
            assert getattr(a, name) == getattr(b, name)


def test_series_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError):
        ObservableSeries.from_csv(path)


def off_centre_chirped(grid, chirp=0.15):
    """Off-centre anisotropic Gaussian with a chirp and a drift, unit lattice mass."""
    centre = (0.4, -0.3, 0.25)[: grid.dim]
    widths = (0.8, 1.1, 1.5)[: grid.dim]
    arg = sum(
        -((x - c) ** 2) / (2.0 * w * w) + 1j * chirp * (x - c) ** 2 + 0.3j * x
        for x, c, w in zip(grid.coord_mesh, centre, widths)
    )
    values = np.exp(arg)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    return WaveField(values, grid)


def reference_sums(f, p, sym):
    """Every moment a sample takes, as full-lattice sums."""
    g = f.grid
    dv = g.cell_volume
    rho = np.abs(f.values) ** 2
    power = np.abs(scipy_fft.fftn(f.values)) ** 2
    stds = []
    for x in g.coord_mesh:
        mean = np.sum(x * rho) / np.sum(rho)
        stds.append(math.sqrt(np.sum((x - mean) ** 2 * rho) / np.sum(rho)))
    dipolar = 0.0 if sym is None else np.sum(rho * apply_kernel(sym, rho))
    return {
        "mass": np.sum(rho) * dv,
        "Epot": np.sum(tables.potential(p, g) * rho) * dv,
        "Ecubic": 0.5 * p.lambda1 * np.sum(rho * rho) * dv,
        "Edip": 0.5 * p.lambda2 * dipolar * dv,
        "y": np.sum(tables.radius_sq(g) * rho) * dv,
        "gradsq": np.sum(tables.ksq(g) * power) * dv / g.size,
        "tail": np.sum(power[tables.top_octave_mask(g)]) / np.sum(power),
        "std": tuple(stds),
    }


SUM_CASES = [
    # dim, extents, points, omega, lambda2, symbol provenance
    (1, (16.0,), (96,), (1.3,), 0.6, Effective1D(1.0, 1.5)),
    (1, (900.0,), (_BLOCK + 4464,), (0.02,), 0.0, None),
    (2, (14.0, 12.0), (48, 40), (1.0, 1.4), 0.4, Effective2D(1.5)),
    (2, (10.0, 700.0), (8, _BLOCK + 96), (1.0, 0.03), 0.0, None),
    (3, (10.0, 10.0, 12.0), (24, 20, 32), (1.0, 0.8, 1.2), 0.7, Analytic3D()),
]


@pytest.mark.parametrize("dim, extents, points, omega, lambda2, prov", SUM_CASES)
def test_marginal_and_slab_sums_match_full_lattice_formulas(dim, extents, points, omega, lambda2, prov):
    g = make_grid(dim, extents, points)
    p = PhysicalParams(dim, omega, 0.9, lambda2)
    sym = build_symbol(g, prov) if prov is not None else None
    f = off_centre_chirped(g)
    want = reference_sums(f, p, sym)
    rec = record_observables(f, p, sym)
    e = energy(f, p, sym)
    got = {
        "mass": [rec.mass, mass(f)],
        "Epot": [rec.Epot, e.potential],
        "Ecubic": [rec.Ecubic, e.cubic],
        "Edip": [rec.Edip, e.dipolar],
        "y": [rec.y, variance(f)],
        "gradsq": [rec.gradsq, gradient_norm_sq(f), 2.0 * e.kinetic],
        "tail": [spectral_tail_fraction(f)],
    }
    for name, values in got.items():
        for value in values:
            assert value == pytest.approx(want[name], rel=1e-13, abs=0.0), name
    assert (rec.Edip != 0.0) == (sym is not None)
    assert want["tail"] > 0.0
    for a, b in zip(field_std(f), want["std"]):
        assert a == pytest.approx(b, rel=1e-13)


def test_a_tail_far_below_roundoff_is_summed_not_subtracted():
    # criterion 6's data starts at a tail of 2e-26; total - low would read 0
    # or 1e-16 of noise, the disjoint boxes read the tail itself
    g = make_grid(3, (16.0, 16.0, 16.0), (80, 80, 80))
    centre, widths = (0.3, -0.2, 0.1), (1.0, 1.1, 0.9)
    f = WaveField(
        np.exp(sum(-((x - c) ** 2) / (2 * w * w) for x, c, w in zip(g.coord_mesh, centre, widths))),
        g,
    )
    power = np.abs(scipy_fft.fftn(f.values)) ** 2
    want = np.sum(power[tables.top_octave_mask(g)]) / np.sum(power)
    assert 0.0 < want < 1e-20
    assert spectral_tail_fraction(f) == pytest.approx(want, rel=1e-13)


def test_record_with_its_spectrum_allocates_about_one_complex_lattice():
    g = make_grid(3, (10.0, 10.0, 12.0), (64, 64, 64))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f = off_centre_chirped(g, chirp=0.05)
    spectrum = field_spectrum(f)
    sym.half_values, g.coords, g.freqs, g.coord_mesh, g.freq_mesh
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record_observables(f, p, sym, spectrum=spectrum)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one complex lattice, the density and the half spectrum of the dipolar
    # energy or the gradient buffer, plus block scratch
    assert peak <= 16 * g.size + 2**21
    assert not {"ksq", "radius_sq", "top_octave_mask"} & vars(g).keys()


def rate_term_with_a_fresh_difference(grid, psi, g, axis):
    """_rate_term as it was with D = P[k-1] - P[k+1] formed as a new lattice."""
    coord, freq = grid.coords[axis], grid.freqs[axis]

    def along(a, v):
        return v.reshape([-1 if b == a else 1 for b in range(grid.dim)])

    def at(index):
        return (slice(None),) * axis + (index,)

    def weighted_sum(lattice):
        for b, w in enumerate(grid.weights):
            if b != axis and w is not None:
                lattice *= along(b, w)
        return float(np.sum(lattice))

    np.copyto(g, psi)
    g = grid.fft(g, axis, overwrite=True)
    if grid.weights[axis] is None:
        g *= grid.freq_mesh[axis]
        g = grid.ifft(g, axis, overwrite=True)
        g *= grid.coord_mesh[axis]
        re, im = g.real, g.imag
        np.multiply(psi.real, re, out=re)
        np.multiply(psi.imag, im, out=im)
        re += im
        return weighted_sum(re)
    n = grid.full.shape[axis]
    N = n // 2
    psi0, psi_nyquist = psi[at(slice(0, 1))], g[at(slice(N, N + 1))]
    edge = psi0.real * psi_nyquist.real + psi0.imag * psi_nyquist.imag
    total = float(coord[0] * (freq[N] / n)) * weighted_sum(edge)
    factor = np.zeros(N + 1)
    factor[1:N] = freq[1:N] / np.sin(np.arange(1, N) * (math.pi / N))
    g *= along(axis, factor)
    g = grid.ifft(g, axis, overwrite=True)
    d = g[at(slice(0, N - 1))] - g[at(slice(2, N + 1))]
    inner = psi[at(slice(1, N))]
    re, im = d.real, d.imag
    np.multiply(re, inner.imag, out=re)
    np.multiply(im, inner.real, out=im)
    re -= im
    re *= along(axis, coord[1:N])
    return total + weighted_sum(re)


@pytest.mark.parametrize(
    "dim, points",
    # N - 1 points of D along an even axis: 7, 8 and 6, then 8, 7 and 5
    [(1, (16,)), (1, (18,)), (3, (16, 18, 14)), (3, (18, 16, 12))],
)
def test_rate_term_over_its_work_lattice_is_the_fresh_difference_bit_for_bit(dim, points):
    g = make_grid(dim, (10.0, 11.0, 12.0)[:dim], points)
    lattices = [g, g.octant] + [g.sublattice((a,)) for a in range(dim) if dim > 1]
    rng = np.random.default_rng(35)
    for lattice in lattices:
        psi = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        for axis in range(dim):
            got = state_module._rate_term(lattice, psi, np.empty_like(psi), axis)
            want = rate_term_with_a_fresh_difference(lattice, psi, np.empty_like(psi), axis)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (lattice.shape, axis)


def test_a_record_of_held_data_given_its_spectrum_forms_the_work_lattice_alone():
    # criterion 6's data at 64^3, held by its octant table: a record given
    # its spectrum allocates one complex lattice's bytes at once, the
    # variance rate's work lattice; the density, a real lattice, comes with
    # 32 KiB of scratch, and each axis' D = P[k-1] - P[k+1] lies in the
    # work lattice
    g = make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    field = make_unstable_data(g, 0.5, -3.0)
    lattice = field.held()[1]
    assert field.table is not None and lattice.shape == g.octant.shape
    spectrum = field_spectrum(field)
    want = record_observables(field, p, sym, spectrum)
    got, found = large_allocations(lambda: record_observables(field, p, sym, spectrum), 16 * lattice.size)
    assert got == want
    names = {"density", "_variance_rate", "_rate_term"}
    assert [sorted(names & stacks) for stacks in found] == [["_variance_rate"]]


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lattice_sums_allocate_no_lattice():
    # every sum reduces over the (rows, last axis) view in place: no power,
    # weighted power or squared lattice, not even a block of one
    g = make_grid(3, (10.0, 10.0, 12.0), (64, 64, 64))
    sym = build_symbol(g, Analytic3D())
    f = off_centre_chirped(g, chirp=0.05)
    rho = density(f)
    spectrum = field_spectrum(f)
    g.coords, g.freqs, sym.half_values
    sixteenth = g.size  # bytes: 1/16 of a complex lattice

    def monitor():
        gradient_norm_sq(f, spectrum)
        spectral_tail_fraction(f, spectrum)

    assert peak_bytes(monitor) <= sixteenth
    half_spectrum = 16 * sym.half_values.size
    assert peak_bytes(lambda: _pair_symbol_real(sym, rho)) <= half_spectrum + sixteenth
    assert peak_bytes(lambda: _sum_sq(rho, g)) <= 2**16


def test_dipolar_energy_of_an_axisymmetric_gaussian_matches_its_closed_form():
    # E_dip = -lambda2 f(kappa) / (3 sqrt(2 pi) s_perp^2 s_z) for unit mass,
    # kappa = s_perp / s_z, with psi's widths s (O'Dell, Giovanazzi and
    # Eberlein, PRL 92, 250401 (2004)).  The rest is the periodic images of
    # the 1/r^3 kernel on an L = 24 box.
    s_perp, s_z = 1.0, 2.0
    g = make_grid(3, (24.0, 24.0, 24.0), (64, 64, 64))
    f, _ = linear_eigenstate(g, (s_perp**-2, s_perp**-2, s_z**-2))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    k = s_perp / s_z
    e = 1.0 - k * k
    f_kappa = (1.0 + 2.0 * k * k) / e - 3.0 * k * k * math.atanh(math.sqrt(e)) / e**1.5
    exact = -p.lambda2 * f_kappa / (3.0 * math.sqrt(2.0 * math.pi) * s_perp**2 * s_z)
    got = energy(f, p, build_symbol(g, Analytic3D())).dipolar
    assert abs(got - exact) <= 5e-4 * abs(exact)


def mirror_even(values):
    """values averaged with their mirror image along every axis, u[k] == u[(n - k) % n]."""
    for axis, n in enumerate(values.shape):
        values = 0.5 * (values + np.take(values, (-np.arange(n)) % n, axis=axis))
    return values


OCTANT_OBSERVABLE_CASES = [
    (1, (16.0,), (64,), (0.9,), 0.3, Effective1D(1.0, 1.3)),
    (2, (12.0, 10.0), (32, 24), (1.0, 1.4), 0.4, Effective2D(2.0)),
    (3, (10.0, 12.0, 14.0), (16, 8, 24), (1.0, 0.8, 1.2), 0.3, Analytic3D()),
    (3, (15.0, 15.0, 30.0), (32, 32, 32), (1.0, 1.0, 1.0), -0.7, Analytic3D()),
]


@pytest.mark.parametrize("dim, extents, points, omega, lambda2, prov", OCTANT_OBSERVABLE_CASES)
def test_octant_observables_are_the_full_lattice_ones(dim, extents, points, omega, lambda2, prov):
    # a smooth chirped field and a rough random one, whose Nyquist modes
    # and box-edge values carry weight: the variance rate's edge term
    # (x = -L/2) and Nyquist term show up in the second
    g = make_grid(dim, extents, points)
    o = g.octant
    p = PhysicalParams(dim, omega, 1.0, lambda2)
    sym = build_symbol(g, prov)
    rng = np.random.default_rng(dim)
    chirped = np.exp(sum(-(x * x) / (0.15 * L) ** 2 + 0.4j * x * x for x, L in zip(g.coord_mesh, extents)))
    rough = mirror_even(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    for values in (chirped, rough):
        full = WaveField(values, g)
        octant = WaveField(o.restrict(values), o)
        want = record_observables(full, p, sym)
        got = record_observables(octant, p, sym.octant)
        for name in ("mass", "E", "Ekin", "Epot", "Ecubic", "Edip", "y", "ydot", "maxpsi", "gradsq"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-12 * abs(b), (name, a, b)
        for a, b in zip(field_std(octant), field_std(full)):
            assert abs(a - b) <= 1e-12 * b
        assert spectral_tail_fraction(octant) == pytest.approx(spectral_tail_fraction(full), rel=1e-12)
        assert quartic_norm(octant) == pytest.approx(quartic_norm(full), rel=1e-12)


def test_the_octant_symbol_is_the_even_symbol_on_the_octant():
    g = make_grid(3, (10.0, 12.0, 14.0), (16, 8, 24))
    sym = build_symbol(g, Analytic3D())
    o = g.octant
    osym = sym.octant
    assert osym is sym.octant and osym.grid is o and osym.provenance == sym.provenance
    assert np.array_equal(osym.values, sym.values[o.index]) and osym.values.flags.c_contiguous
    assert osym.half_values is osym.values
    rho = o.restrict(density(WaveField(mirror_even(np.random.default_rng(1).random(g.shape) + 0j), g)))
    full_rho = o.unfold(rho)
    assert _pair_symbol_real(osym, rho) == pytest.approx(_pair_symbol_real(sym, full_rho), rel=1e-12)
    # an odd table makes no symbol, so none reaches an octant
    g1 = make_grid(1, [12.0], [32])
    with pytest.raises(KernelRealityError):
        KernelSymbol(0.1 * g1.freqs[0], Effective1D(1.0, 1.0), g1)


def test_observables_are_python_floats_and_the_quartic_norms_agree_on_every_lattice():
    # a field centred in x and y and displaced along z, held on the full
    # lattice, on the lattice even along x and y, and its centred twin on
    # the octant; the spectral quartic norm is the weighted Parseval sum
    g = make_grid(3, (10.0, 10.0, 12.0), (16, 16, 16))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    x, y, z = g.coord_mesh
    for center, even in ((0.7, (0, 1)), (0.0, (0, 1, 2))):
        values = np.exp(-(x * x + y * y) / 2.0 - (z - center) ** 2 / 2.0 + 0.3j * z * z)
        lattice = g.sublattice(even)
        held = WaveField(lattice.restrict(values), lattice)
        for field, s in ((WaveField(values, g), sym), (held, sym.on(lattice))):
            assert abs(quartic_norm_spectral(field) - quartic_norm(field)) <= 1e-13 * quartic_norm(field)
            e = energy(field, p, s)
            rec = record_observables(field, p, s)
            got = [
                mass(field), max_abs(field), gradient_norm_sq(field), quartic_norm(field),
                quartic_norm_spectral(field), spectral_tail_fraction(field),
                *variance_and_rate(field), *field_std(field),
                e.kinetic, e.potential, e.cubic, e.dipolar, e.total,
                *(getattr(rec, name) for name in CSV_HEADER.split(",")),
            ]
            assert all(type(v) is float for v in got), [type(v) for v in got]


def held_twins(grid, even):
    """A chirped Gaussian of grid, mirror-even along even alone: held there, and whole."""
    x, y, z = grid.coord_mesh
    center = 0.0 if 2 in even else 0.7
    values = np.exp(-(x * x + y * y) / 2.0 - (z - center) ** 2 / 2.0 + 0.3j * z * z)
    assert mirror_even_axes(values) == tuple(even)
    return WaveField(grid.sublattice(even).restrict(values), grid), WaveField(values, grid)


def _observables(field, p, sym):
    """Every standalone observable of a field, as floats and arrays, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        check_resolution(field)
    e = energy(field, p, sym)
    rec = record_observables(field, p, sym)
    floats = {
        "mass": mass(field), "max_abs": max_abs(field), "variance": variance(field),
        "quartic_norm": quartic_norm(field), "quartic_norm_spectral": quartic_norm_spectral(field),
        "gradient_norm_sq": gradient_norm_sq(field),
        "spectral_tail_fraction": spectral_tail_fraction(field),
        **dict(zip(("y", "ydot"), variance_and_rate(field))),
        **{f"std{a}": s for a, s in enumerate(field_std(field))},
        **{f"E.{k}": getattr(e, k) for k in ("kinetic", "potential", "cubic", "dipolar", "total")},
        **{f"record.{k}": getattr(rec, k) for k in CSV_HEADER.split(",")},
    }
    values, lattice = field.held()
    arrays = {"density": density(field), "spectrum": lattice.fft(values)}
    return floats, arrays, [str(w.message) for w in caught]


@pytest.mark.parametrize("even", [(0, 1, 2), (0, 1)])
def test_observables_classify_and_strang_step_read_a_held_field_where_it_is_held(even):
    # on the octant and on the lattice even along x and y alone: each read
    # leaves the field held, and gives the whole field's value
    g = make_grid(3, (10.0, 10.0, 12.0), (16, 16, 32))
    lattice = g.sublattice(even)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    held, full = held_twins(g, even)
    got, got_arrays, got_warnings = _observables(held, p, sym)
    assert held.table is not None and held.table.shape == lattice.shape
    want, want_arrays, want_warnings = _observables(full, p, sym)
    for name, b in want.items():
        assert abs(got[name] - b) <= 1e-12 * abs(b), (name, got[name], b)
    assert got_warnings == want_warnings
    assert np.array_equal(lattice.unfold(got_arrays["density"]), want_arrays["density"])
    spectrum = want_arrays["spectrum"][lattice.index]
    assert np.max(np.abs(got_arrays["spectrum"] - spectrum)) <= 1e-12 * np.max(np.abs(spectrum))

    cert, cert_full = classify(held, p, sym), classify(full, p, sym)
    assert held.table is not None and cert.verdict == cert_full.verdict
    for key, b in cert_full.evidence.items():
        assert cert.evidence[key] == pytest.approx(b, rel=1e-12, abs=0.0), key

    step = strang_step(held, 1e-3, p, sym)
    assert held.table is not None
    assert step.grid is g and step.t == held.t + 1e-3
    assert step.table is not None and step.table.shape == lattice.shape
    want_step = strang_step(full, 1e-3, p, sym).values
    assert np.max(np.abs(step.values - want_step)) <= 1e-12 * np.max(np.abs(want_step))


def test_observables_of_a_held_field_allocate_no_full_lattice():
    g = make_grid(3, (10.0, 10.0, 12.0), (64, 64, 64))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    for even in ((0, 1, 2), (0, 1)):
        held, _ = held_twins(g, even)
        _, found = large_allocations(lambda: _observables(held, p, sym), 8 * g.size)
        assert found == [], even
        assert held.table is not None


def test_a_full_field_reads_a_symbol_of_its_box_from_any_of_its_lattices():
    # the symbol is put on the field's lattice by its octant table, so the
    # octant's symbol and a mixed lattice's give the full symbol's bits
    g = make_grid(3, (10.0, 12.0, 14.0), (16, 8, 24))
    p = PhysicalParams(3, (1.0, 0.8, 1.2), 1.0, 0.3)
    sym = build_symbol(g, Analytic3D())
    f = off_centre_chirped(g, chirp=0.05)
    for other in (sym.octant, sym.on(g.sublattice((1,)))):
        assert energy(f, p, other) == energy(f, p, sym)
        assert record_observables(f, p, other) == record_observables(f, p, sym)
