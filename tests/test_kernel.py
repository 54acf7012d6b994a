import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import dipgpe
import numpy as np
import pytest
from scipy import integrate, special

from dipgpe import (
    Analytic3D,
    Effective1D,
    Effective2D,
    GridError,
    KernelRealityError,
    KernelSymbol,
    QuadratureError,
    apply_kernel,
    bessel_radial_check,
    build_symbol,
    make_grid,
    symbol1d_effective,
    symbol2d_effective,
    symbol3d,
)
from dipgpe import kernel
from dipgpe.cli import run_command

FOUR_PI_THIRD = 4.0 * math.pi / 3.0


def test_symbol3d_axis_values():
    assert symbol3d(0.0, 0.0, 2.5) == pytest.approx(2.0 * FOUR_PI_THIRD, rel=1e-15)
    assert symbol3d(1.7, 0.0, 0.0) == pytest.approx(-FOUR_PI_THIRD, rel=1e-15)
    assert symbol3d(0.0, -0.4, 0.0) == pytest.approx(-FOUR_PI_THIRD, rel=1e-15)


def test_symbol3d_origin_and_magic_direction():
    assert symbol3d(0.0, 0.0, 0.0) == 0.0
    assert symbol3d(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert symbol3d(-2.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_symbol3d_homogeneity_and_evenness():
    rng = np.random.default_rng(11)
    xi = rng.uniform(-5, 5, size=(3, 200))
    v = symbol3d(xi[0], xi[1], xi[2])
    assert np.allclose(symbol3d(3.0 * xi[0], 3.0 * xi[1], 3.0 * xi[2]), v, atol=1e-13)
    assert np.allclose(symbol3d(-xi[0], -xi[1], -xi[2]), v, atol=1e-15)
    assert v.min() >= -FOUR_PI_THIRD - 1e-12
    assert v.max() <= 2.0 * FOUR_PI_THIRD + 1e-12


def test_symbol3d_scalar_returns_float():
    out = symbol3d(0.3, 0.1, 0.2)
    assert isinstance(out, float)


def test_bessel_radial_identity_tight():
    value = bessel_radial_check(1.0e4, 1.0e-6)
    assert abs(value - 1.0 / 3.0) < 1.0e-6


def test_bessel_radial_identity_loose_cutoff():
    value = bessel_radial_check(1.0e2, 1.0e-3)
    assert abs(value - 1.0 / 3.0) < 1.0e-3


def test_bessel_radial_check_rejects_small_cutoff():
    with pytest.raises(ValueError):
        bessel_radial_check(50.0, 1.0e-3)


def test_bessel_radial_check_flags_unreachable_tolerance():
    with pytest.raises(QuadratureError):
        bessel_radial_check(1.0e2, 1.0e-5)


def test_symbol1d_isotropic_closed_form():
    # for omega1 = omega2 = w the transverse average has the closed form
    # -4w/3 + xi3^2 exp(y) E1(y) with y = xi3^2 / (4 w)
    for w in (1.0, 2.3):
        for xi3 in (0.5, 1.0, 2.0, 5.0):
            y = xi3**2 / (4.0 * w)
            expected = -4.0 * w / 3.0 + xi3**2 * math.exp(y) * special.exp1(y)
            got = symbol1d_effective(xi3, w, w)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_symbol1d_frozen_values():
    assert symbol1d_effective(0.0, 1.0, 1.0) == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert symbol1d_effective(1.0, 1.0, 1.0) == pytest.approx(
        0.007552111498060, abs=1e-10
    )
    assert symbol1d_effective(1000.0, 1.0, 1.0) == pytest.approx(
        2.666650666794665, abs=1e-9
    )
    # anisotropic value frozen from a direct 2D quadrature of the transverse average
    assert symbol1d_effective(0.7, 1.3, 0.6) == pytest.approx(
        -0.32624308643928, abs=1e-9
    )


def test_symbol1d_anisotropic_against_plane_quadrature():
    # independent oracle: integrate the raw symbol against the Fourier
    # transform of the transverse ground-state density over the plane
    omega1, omega2 = 1.3, 0.6
    xi3 = 0.7

    def integrand(xi2, xi1):
        w = math.exp(-(xi1**2) / (4.0 * omega1) - xi2**2 / (4.0 * omega2))
        return symbol3d(xi1, xi2, xi3) * w

    plane, _ = integrate.dblquad(integrand, -40, 40, -40, 40, epsabs=1e-11)
    norm = (2.0 * math.pi) ** 2
    assert symbol1d_effective(xi3, omega1, omega2) == pytest.approx(
        plane / norm, abs=1e-8
    )


def test_symbol1d_limits():
    assert symbol1d_effective(0.0, 2.0, 2.0) == pytest.approx(-8.0 / 3.0, abs=1e-10)
    # large-argument limit approaches (8/3) sqrt(omega1 omega2)
    assert symbol1d_effective(200.0, 2.0, 2.0) == pytest.approx(
        16.0 / 3.0, rel=2e-3
    )


def test_symbol2d_closed_form():
    # (8/3) sqrt(pi w3) - 2 pi R erfcx(R / (2 sqrt(w3))) with R = |xi_perp|
    for w3 in (1.0, 0.7):
        for r in (0.3, 1.0, 5.0):
            expected = (8.0 / 3.0) * math.sqrt(math.pi * w3) - 2.0 * math.pi * r * special.erfcx(
                r / (2.0 * math.sqrt(w3))
            )
            got = symbol2d_effective(r, 0.0, w3)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_symbol2d_frozen_values():
    assert symbol2d_effective(0.0, 0.0, 1.0) == pytest.approx(
        4.726543602414709, abs=1e-10
    )
    assert symbol2d_effective(0.0, 0.0, 1.0) == pytest.approx(
        (8.0 / 3.0) * math.sqrt(math.pi), abs=1e-12
    )
    assert symbol2d_effective(1000.0, 0.0, 1.0) == pytest.approx(
        -(4.0 / 3.0) * math.sqrt(math.pi), abs=1e-4
    )
    assert -(4.0 / 3.0) * math.sqrt(math.pi) == pytest.approx(
        -2.3632718012073547, abs=1e-15
    )


def test_symbol2d_rotational_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(-4, 4, size=2)
        r = math.hypot(a, b)
        assert symbol2d_effective(a, b, 1.4) == pytest.approx(
            symbol2d_effective(r, 0.0, 1.4), rel=1e-12, abs=1e-12
        )


def test_build_symbol_3d_lattice():
    g = make_grid(3, [12.0, 12.0, 12.0], [16, 16, 16])
    sym = build_symbol(g, Analytic3D())
    assert sym.values.shape == g.shape
    assert sym.values[0, 0, 0] == 0.0
    # axis modes realize the exact extremes
    assert sym.values.max() == pytest.approx(2.0 * FOUR_PI_THIRD, rel=1e-14)
    assert sym.values.min() == pytest.approx(-FOUR_PI_THIRD, rel=1e-14)
    assert sym.values[0, 0, 3] == pytest.approx(2.0 * FOUR_PI_THIRD, rel=1e-14)
    assert sym.values[5, 0, 0] == pytest.approx(-FOUR_PI_THIRD, rel=1e-14)


def test_build_symbol_1d_values_match_pointwise():
    # the tabulated angular mean against the quadrature reference; the
    # larger trap ratios need more nodes in the mean
    g = make_grid(1, [16.0], [64])
    xi = np.abs(g.freqs[0])
    for omega1, omega2 in ((1.0, 1.0), (1.2, 0.8), (1.3, 0.6), (10.0, 0.5)):
        sym = build_symbol(g, Effective1D(omega1, omega2))
        direct = np.array([symbol1d_effective(k, omega1, omega2) for k in xi])
        assert np.max(np.abs(sym.values - direct)) <= 1e-13
        assert sym.values[0] == pytest.approx(
            -(4.0 / 3.0) * math.sqrt(omega1 * omega2), abs=1e-10
        )


def test_build_symbol_2d_values_match_pointwise():
    g = make_grid(2, [18.0, 14.0], [16, 12])
    sym = build_symbol(g, Effective2D(0.9))
    xi1, xi2 = np.meshgrid(*g.freqs, indexing="ij")
    direct = np.array(
        [
            [symbol2d_effective(a, b, 0.9) for a, b in zip(row1, row2)]
            for row1, row2 in zip(xi1, xi2)
        ]
    )
    assert np.allclose(sym.values, direct, atol=1e-10)


@pytest.mark.parametrize(
    "shape, extents, omega3",
    [
        ((16, 12), (18.0, 14.0), 0.9),
        ((64, 64), (16.0, 16.0), 1.0),
        ((24, 24), (12.0, 12.0), 100.0),
    ],
)
def test_effective2d_symbol_is_the_closed_form(shape, extents, omega3):
    g = make_grid(2, extents, shape)
    values = build_symbol(g, Effective2D(omega3)).values
    magnitudes, inverse = np.unique(np.sqrt(g.ksq), return_inverse=True)
    reference = np.array([symbol2d_effective(r, 0.0, omega3) for r in magnitudes])
    assert np.max(np.abs(values - reference[inverse].reshape(shape))) <= 1e-13
    mirrored = values[np.ix_(*[-np.arange(n) % n for n in shape])]
    assert np.array_equal(values.view(np.uint64), mirrored.view(np.uint64))


def test_built_symbol_checks_evenness_once(monkeypatch):
    calls = []
    is_even = KernelSymbol._is_even

    def counted(self):
        calls.append(self)
        return is_even(self)

    monkeypatch.setattr(KernelSymbol, "_is_even", counted)
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())
    sym.half_values
    sym.validate()
    assert len(calls) == 1


def test_build_symbol_dim_mismatch():
    g = make_grid(1, [20.0], [32])
    with pytest.raises(GridError):
        build_symbol(g, Analytic3D())
    g3 = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    with pytest.raises(GridError):
        build_symbol(g3, Effective1D(1.0, 1.0))


@pytest.mark.parametrize("omega1, omega2", [(1.0, 1.0), (1.3, 0.6)])
def test_effective1d_symbol_stays_finite_where_exp_overflows(omega1, omega2):
    # |xi3| reaches 128 pi, so xi3^2 / (4 omega) passes 710, where e^z is inf
    g = make_grid(1, [4.0], [512])
    values = build_symbol(g, Effective1D(omega1, omega2)).values
    xi = np.abs(g.freqs[0])
    assert xi.max() ** 2 / (4.0 * max(omega1, omega2)) > 710.0
    assert np.isfinite(values).all()
    envelope = math.sqrt(omega1 * omega2)
    assert values.min() >= -(4.0 / 3.0) * envelope
    assert values.max() <= (8.0 / 3.0) * envelope
    top = int(np.argmax(xi))
    assert abs(values[top] - symbol1d_effective(xi[top], omega1, omega2)) <= 1e-12


def test_scaled_exp1_series_takes_over_from_the_direct_form():
    z = np.geomspace(1.0, 700.0, 200)
    direct = z * np.exp(z) * special.exp1(z)
    assert np.max(np.abs(kernel._z_exp_exp1(z) / direct - 1.0)) <= 1e-15
    edges = kernel._z_exp_exp1(np.array([0.0, 1e300]))
    assert edges.tolist() == [0.0, 1.0]


def test_effective1d_rejects_nonpositive_trap_frequencies(capsys):
    g = make_grid(1, [16.0], [32])
    for omegas in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="trap frequencies must be positive"):
            build_symbol(g, Effective1D(*omegas))
    assert run_command(["kernel", "--dim", "1", "--omega", "0,1"]) == 1
    assert "trap frequencies must be positive" in capsys.readouterr().err


def test_kernel_symbol_validate_rejects_out_of_range():
    g = make_grid(1, [16.0], [16])
    bad = np.full(g.shape, 100.0)
    with pytest.raises(ValueError):
        KernelSymbol(1, bad, Effective1D(1.0, 1.0), g).validate()


def test_kernel_symbol_validate_rejects_odd_part():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())
    values = sym.values.copy()
    values[1, 2, 3] += 0.5  # break evenness at a non-Nyquist mode
    with pytest.raises(ValueError):
        KernelSymbol(3, values, Analytic3D(), g).validate()


def test_evenness_tolerance_holds_off_the_nyquist_planes():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())

    def perturbed(index, delta):
        values = sym.values.copy()
        values[index] += delta
        return KernelSymbol(3, values, Analytic3D(), g)

    # |s(k) - s(-k)| <= 1e-12 is the rule: 2e-12 at an interior mode breaks it
    with pytest.raises(ValueError, match="not even"):
        perturbed((1, 2, 3), 2e-12).validate()
    perturbed((1, 2, 3), 0.5e-12).validate()
    # the same 2e-12 on a Nyquist plane (index n // 2 = 4) is not checked
    for index in ((4, 2, 3), (1, 4, 3), (1, 2, 4)):
        perturbed(index, 2e-12).validate()


@pytest.mark.parametrize(
    "extents, shape",
    [
        ((8.0, 8.0, 8.0), (8, 8, 8)),
        ((5.0, 9.0, 13.0), (10, 12, 14)),
        ((15.0, 15.0, 30.0), (96, 96, 96)),
    ],
)
def test_symbol_from_one_octant_equals_the_full_lattice_formula(extents, shape):
    g = make_grid(3, extents, shape)
    values = build_symbol(g, Analytic3D()).values
    full = np.ascontiguousarray(np.broadcast_to(symbol3d(*g.freq_mesh), g.shape))
    assert values.flags.c_contiguous
    assert np.array_equal(values.view(np.uint64), full.view(np.uint64))


def _is_even_by_gather(values):
    """The evenness rule evaluated with one np.ix_ gather of s(-k)."""
    shape = values.shape
    diff = values - values[np.ix_(*[-np.arange(n) % n for n in shape])]
    for axis, n in enumerate(shape):
        diff[(slice(None),) * axis + (n // 2,)] = 0.0
    return bool(np.abs(diff).max() <= 1e-12)


def _even_symbol(shape):
    extents = tuple(3.0 + n for n in shape)
    g = make_grid(len(shape), extents, shape)
    # a function of |xi|^2 is even bit for bit on the lattice
    values = np.cos(g.ksq)
    provenance = {1: Effective1D(1.0, 1.0), 2: Effective2D(1.0), 3: Analytic3D()}[g.dim]
    return g, values, provenance


@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 10, 12), (16,), (12, 8)])
def test_evenness_check_agrees_with_the_gather(shape):
    g, base, provenance = _even_symbol(shape)
    rng = np.random.default_rng(sum(shape))
    n = np.array(shape)

    def index(kind):
        if kind == "interior":
            k = rng.integers(1, n // 2)
            return tuple(k * rng.choice([-1, 1], size=len(shape)) % n)
        if kind == "nyquist":
            k = rng.integers(0, n)
            axis = rng.integers(len(shape))
            k[axis] = n[axis] // 2
            return tuple(k)
        if kind == "origin":
            return (0,) * len(shape)
        return tuple(rng.choice([0, -1], size=len(shape)) % n)  # a corner

    verdicts = set()
    for trial in range(200):
        values = base.copy()
        for _ in range(rng.integers(1, 4)):
            kind = rng.choice(["interior", "nyquist", "origin", "corner"])
            delta = rng.choice([0.5e-12, 2e-12, -2e-12, 1e-3])
            values[index(kind)] += delta
        expected = _is_even_by_gather(values)
        assert KernelSymbol(g.dim, values, provenance, g)._is_even() is expected, trial
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_nan_off_the_nyquist_planes_fails_the_evenness_check():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    values = build_symbol(g, Analytic3D()).values.copy()
    values[1, 2, 3] = math.nan
    with pytest.raises(KernelRealityError):
        KernelSymbol(3, values, Analytic3D(), g).half_values
    with pytest.raises(ValueError, match="non-finite"):
        KernelSymbol(3, values, Analytic3D(), g).validate()


def test_apply_kernel_zero_and_linearity():
    g = make_grid(3, [10.0, 10.0, 10.0], [16, 16, 16])
    sym = build_symbol(g, Analytic3D())
    zero = apply_kernel(sym, np.zeros(g.shape))
    assert np.all(zero == 0.0)
    rng = np.random.default_rng(2)
    rho1 = rng.random(g.shape)
    rho2 = rng.random(g.shape)
    lhs = apply_kernel(sym, 2.0 * rho1 - 0.5 * rho2)
    rhs = 2.0 * apply_kernel(sym, rho1) - 0.5 * apply_kernel(sym, rho2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_apply_kernel_rejects_complex_density():
    g = make_grid(1, [8.0], [16])
    sym = build_symbol(g, Effective1D(1.0, 1.0))
    with pytest.raises(TypeError):
        apply_kernel(sym, np.zeros(g.shape, dtype=complex))


def test_apply_kernel_output_is_real_for_even_symbol():
    g = make_grid(3, [10.0, 10.0, 10.0], [16, 16, 16])
    sym = build_symbol(g, Analytic3D())
    rng = np.random.default_rng(9)
    rho = rng.random(g.shape)
    phi = apply_kernel(sym, rho)
    assert phi.dtype == np.float64
    assert phi.shape == g.shape


def test_apply_kernel_flags_odd_symbol():
    g = make_grid(1, [8.0], [16])
    xi = g.freqs[0]
    values = 0.1 * xi  # odd multiplier produces an imaginary response
    sym = KernelSymbol(1, values, Effective1D(1.0, 1.0), g)
    rho = np.exp(-g.coords[0] ** 2)
    with pytest.raises(KernelRealityError):
        apply_kernel(sym, rho)


def test_radial_pairing_cancels_on_cubic_lattice():
    g = make_grid(3, [16.0, 16.0, 16.0], [48, 48, 48])
    sym = build_symbol(g, Analytic3D())
    x1, x2, x3 = g.coord_mesh
    rho = np.exp(-(x1**2 + x2**2 + x3**2))
    phi = apply_kernel(sym, rho)
    pairing = float(np.sum(phi * rho)) * g.cell_volume
    scale = float(np.sum(rho**2)) * g.cell_volume
    assert abs(pairing) < 1e-13 * scale


def test_elongated_pairing_matches_continuum_quadrature():
    # density stretched 4x along the distinguished axis; the continuum value
    # -24.7619053945756 comes from reducing the pairing to nested 1D integrals
    g = make_grid(3, [16.0, 16.0, 16.0], [48, 48, 48])
    sym = build_symbol(g, Analytic3D())
    x1, x2, x3 = g.coord_mesh
    sp, s3 = 0.7, 2.8
    rho = np.exp(-(x1**2 + x2**2) / (2.0 * sp**2) - x3**2 / (2.0 * s3**2))
    phi = apply_kernel(sym, rho)
    pairing = float(np.sum(phi * rho)) * g.cell_volume
    oracle = -24.7619053945756
    assert pairing < 0.0
    assert abs(pairing - oracle) / abs(oracle) < 0.05


# Runs in a fresh interpreter: the test process has loaded scipy.integrate
# already.  Prints whether scipy.integrate is loaded after each stage.
_FOOTPRINT_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    loaded = lambda: "scipy.integrate" in sys.modules
    stages = {}
    import dipgpe
    from dipgpe import (Analytic3D, Effective1D, Effective2D, MonitorSpec,
                        PhysicalParams, build_symbol, classify, evolve,
                        linear_eigenstate, make_grid, symbol1d_effective)
    stages["import"] = loaded()
    g3 = make_grid(3, [8.0] * 3, [16] * 3)
    symbol = build_symbol(g3, Analytic3D())
    stages["analytic3d"] = loaded()
    params = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    phi, _ = linear_eigenstate(g3, params.omega)
    classify(phi, params, symbol)
    stages["classify"] = loaded()
    _, out = evolve(phi, params, symbol, dt=1e-3, T=1e-2, monitor=MonitorSpec(stride=5))
    stages["evolve"] = loaded()
    stages["evolve_outcome"] = type(out).__name__
    build_symbol(make_grid(2, [12.0] * 2, [16] * 2), Effective2D(2.0))
    stages["effective2d"] = loaded()
    g1 = make_grid(1, [16.0], [32])
    values = build_symbol(g1, Effective1D(1.2, 0.8)).values
    stages["effective1d"] = loaded()
    oracle = [symbol1d_effective(x, 1.2, 0.8) for x in g1.freqs[0]]
    gap = np.max(np.abs(values - oracle))
    stages["effective1d_matches"] = bool(gap <= 1e-13)
    print(json.dumps(stages))
    """
)


def test_scipy_integrate_loads_only_for_a_quadrature(tmp_path):
    src = str(Path(dipgpe.__file__).resolve().parents[1])
    home = tmp_path / "home"
    home.mkdir()
    env = dict(os.environ, PYTHONPATH=src, HOME=str(home))
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": False,
        "analytic3d": False,
        "classify": False,
        "evolve": False,
        "evolve_outcome": "WaveField",
        "effective2d": False,
        "effective1d": False,
        "effective1d_matches": True,
    }
    # building symbols and evolving leave no file under HOME
    assert list(home.iterdir()) == []
