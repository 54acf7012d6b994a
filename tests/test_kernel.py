import math

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
    QuadratureSpec,
    apply_kernel,
    bessel_radial_check,
    build_symbol,
    make_grid,
    symbol1d_effective,
    symbol2d_effective,
    symbol3d,
)

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


def test_quadrature_spec_is_frozen():
    spec = QuadratureSpec()
    assert spec.abs_tol == 1e-12
    with pytest.raises(AttributeError):
        spec.abs_tol = 1e-3


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


def test_build_symbol_1d_values_match_pointwise(tmp_path, monkeypatch):
    monkeypatch.setenv("GPE_CACHE_DIR", str(tmp_path))  # empty: tabulate afresh
    g = make_grid(1, [20.0], [32])
    sym = build_symbol(g, Effective1D(1.0, 1.0))
    xi = g.freqs[0]
    direct = np.array([symbol1d_effective(abs(k), 1.0, 1.0) for k in xi])
    assert np.allclose(sym.values, direct, atol=1e-12)
    assert sym.values[0] == pytest.approx(-4.0 / 3.0, abs=1e-10)


def test_build_symbol_2d_values_match_pointwise(tmp_path, monkeypatch):
    monkeypatch.setenv("GPE_CACHE_DIR", str(tmp_path))  # empty: tabulate afresh
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


def test_build_symbol_dim_mismatch():
    g = make_grid(1, [20.0], [32])
    with pytest.raises(GridError):
        build_symbol(g, Analytic3D())
    g3 = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    with pytest.raises(GridError):
        build_symbol(g3, Effective1D(1.0, 1.0))


def test_symbol_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("GPE_CACHE_DIR", str(tmp_path))
    g = make_grid(1, [20.0], [48])
    prov = Effective1D(1.2, 0.8)
    sym1 = build_symbol(g, prov)
    files = list(tmp_path.glob("symbol-*.gpek1"))
    assert len(files) == 1
    header = files[0].read_bytes().split(b"\n", 1)[0]
    assert header.startswith(b"GPEK1 v1 1 48")
    sym2 = build_symbol(g, prov)
    assert np.array_equal(sym1.values, sym2.values)


def test_symbol_cache_corruption_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv("GPE_CACHE_DIR", str(tmp_path))
    g = make_grid(1, [16.0], [32])
    prov = Effective1D(1.0, 1.0)
    sym1 = build_symbol(g, prov)
    target = next(tmp_path.glob("symbol-*.gpek1"))
    target.write_bytes(b"GPEK1 v1 garbage\n" + b"\x00" * 64)
    sym2 = build_symbol(g, prov)
    assert np.allclose(sym1.values, sym2.values, atol=1e-15)


def test_symbol_cache_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GPE_CACHE_DIR", str(tmp_path / "envcache"))
    g = make_grid(1, [16.0], [32])
    build_symbol(g, Effective1D(0.5, 0.5))
    assert list((tmp_path / "envcache").glob("symbol-*.gpek1"))


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
