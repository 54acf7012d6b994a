import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import dipgpe
import numpy as np
import pytest
from scipy import integrate, special

from dipgpe import (
    Analytic3D,
    ConfigError,
    Effective1D,
    Effective2D,
    GridError,
    KernelRealityError,
    KernelSymbol,
    QuadratureError,
    apply_kernel,
    bessel_radial_check,
    build_symbol,
    build_symbol_from_config,
    make_grid,
    parse_config,
    symbol1d_effective,
    symbol2d_effective,
    symbol3d,
)
from dipgpe import cli, kernel
from dipgpe.cli import run_command

import lattice_tables as tables
from allocations import large_allocations

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


def _symbol3d_by_where(xi1, xi2, xi3):
    """The 3D symbol as whole-array expressions with np.where: the bit-for-bit reference."""
    xi1, xi2, xi3 = (np.asarray(x, dtype=float) for x in (xi1, xi2, xi3))
    nsq = xi1 * xi1 + xi2 * xi2 + xi3 * xi3
    num = 2.0 * xi3 * xi3 - xi1 * xi1 - xi2 * xi2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = FOUR_PI_THIRD * np.where(nsq > 0.0, num / np.where(nsq > 0.0, nsq, 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize(
    "shape, axes",
    [
        ((64, 64, 64), ()),
        ((64, 64, 64), (0, 1, 2)),
        ((64, 64, 64), (1,)),
        ((16, 20, 30), ()),
        ((16, 20, 30), (0, 1, 2)),
        # a first-axis row of 90000 elements, more than a block, is a block alone
        ((8, 300, 300), ()),
    ],
)
def test_symbol3d_on_frequency_meshes_is_the_where_expression_bit_for_bit(shape, axes):
    g = make_grid(3, (15.0, 15.0, 30.0), shape).sublattice(axes)
    got = symbol3d(*g.freq_mesh)
    want = _symbol3d_by_where(*g.freq_mesh)
    assert got.shape == want.shape == g.shape
    assert got.tobytes() == want.tobytes()


def test_symbol3d_on_arrays_and_scalars_is_the_where_expression_bit_for_bit():
    # 1d arrays over several blocks, with zero and signed-zero triples away
    # from index 0 and a component whose square underflows to zero
    rng = np.random.default_rng(5)
    xi = rng.normal(scale=3.0, size=(3, 100_000))
    xi[:, 7::13] = 0.0
    xi[0, 7::26] = -0.0
    xi[2, 11::29] = 1.2e-162
    xi[:2, 11::29] = 0.0
    got, want = symbol3d(*xi), _symbol3d_by_where(*xi)
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(got == 0.0) > 100_000 // 13
    for triple in [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.0, 0.0, 1.2e-162), (1.7, 0.0, 0.0),
                   (0.0, 0.0, 2.5), (1.0, 1.0, 1.0), (0.3, -0.1, 0.2)]:
        got, want = symbol3d(*triple), _symbol3d_by_where(*triple)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), triple


def test_symbol3d_propagates_nan_so_validate_refuses_it():
    assert math.isnan(symbol3d(math.nan, 0.0, 0.0))
    assert math.isnan(symbol3d(0.0, 0.0, math.nan))
    got = symbol3d([math.nan, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert math.isnan(got[0]) and got[1] == -FOUR_PI_THIRD and got[2] == 0.0
    g = make_grid(3, (8.0, 8.0, 8.0), (8, 8, 8))
    xi = [f.copy() for f in g.octant.freq_mesh]
    xi[1][0, 2, 0] = math.nan
    table = symbol3d(*xi)
    assert np.isnan(table[:, 2, :]).all() and np.isfinite(np.delete(table, 2, axis=1)).all()
    with pytest.raises(ValueError, match="non-finite"):
        KernelSymbol(table, Analytic3D(), g).validate()


def test_the_3d_table_is_the_one_octant_sized_allocation_of_a_build():
    # symbol3d writes its one table in blocks, with block-sized scratch and
    # partial sums on the meshes' planes, so a build of a 64^3 grid's
    # symbol allocates an octant-sized array once: the table
    octant_size = 33**3
    sym, found = large_allocations(
        lambda: build_symbol(make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64)), Analytic3D()),
        8 * octant_size,
    )
    assert sym.table.size == octant_size
    assert len(found) == 1 and "symbol3d" in found[0]


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
    magnitudes, inverse = np.unique(np.sqrt(tables.ksq(g)), return_inverse=True)
    reference = np.array([symbol2d_effective(r, 0.0, omega3) for r in magnitudes])
    assert np.max(np.abs(values - reference[inverse].reshape(shape))) <= 1e-13
    mirrored = values[np.ix_(*[-np.arange(n) % n for n in shape])]
    assert np.array_equal(values.view(np.uint64), mirrored.view(np.uint64))


def test_built_symbol_checks_evenness_once(monkeypatch):
    calls = []
    check = kernel._check_mirror_even

    def counted(values):
        calls.append(values)
        check(values)

    monkeypatch.setattr(kernel, "_check_mirror_even", counted)
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    # a built symbol is even by construction: no check at all
    sym = build_symbol(g, Analytic3D())
    sym.half_values
    sym.octant
    sym.values
    sym.validate()
    assert len(calls) == 0
    # one built from full-lattice values checks once, at construction
    full = sym.values.copy()
    hand = KernelSymbol(full, Analytic3D(), g)
    assert len(calls) == 1 and calls[0] is full
    hand.half_values
    hand.octant
    hand.values
    hand.validate()
    assert len(calls) == 1


def test_build_symbol_dim_mismatch():
    g = make_grid(1, [20.0], [32])
    with pytest.raises(GridError):
        build_symbol(g, Analytic3D())
    g3 = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    with pytest.raises(GridError):
        build_symbol(g3, Effective1D(1.0, 1.0))


def test_symbol_takes_its_dimension_from_its_grid():
    g3 = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    table = build_symbol(g3, Analytic3D()).table
    symbol = KernelSymbol(table, Analytic3D(), g3)
    assert symbol.octant.grid is g3.octant and symbol.octant.grid.even == (0, 1, 2)
    # a provenance of another dimension is refused before any table is read
    with pytest.raises(GridError, match="provenance is 1-dimensional but grid is 3-dimensional"):
        KernelSymbol(table, Effective1D(1.0, 1.0), g3)
    g1 = make_grid(1, [20.0], [32])
    with pytest.raises(GridError, match="provenance is 3-dimensional but grid is 1-dimensional"):
        KernelSymbol(None, Analytic3D(), g1)


def _closed_form(octant, kind, omegas):
    """Each family's table on an octant, written out from its formula."""
    if kind == "analytic3d":
        return symbol3d(*octant.freq_mesh)
    if kind == "effective1d":
        return kernel._effective1d_table(np.abs(octant.freqs[0]), *omegas)
    (w3,) = omegas
    xi1, xi2 = octant.freq_mesh
    r = np.sqrt(xi1 * xi1 + xi2 * xi2)
    return (8.0 / 3.0) * math.sqrt(math.pi * w3) - 2.0 * math.pi * r * special.erfcx(
        r / (2.0 * math.sqrt(w3))
    )


FAMILY_GRIDS = {
    "analytic3d": "grid.dim = 3\ngrid.extents = 12, 12, 16\ngrid.points = 24, 24, 32\n"
    "params.omega = 1, 1, 1\n",
    "effective1d": "grid.dim = 1\ngrid.extents = 20\ngrid.points = 64\nparams.omega = 1\n"
    "kernel.transverse_omega = 0.7, 3\n",
    "effective2d": "grid.dim = 2\ngrid.extents = 12, 14\ngrid.points = 32, 48\n"
    "params.omega = 1, 1\nkernel.transverse_omega = 2.5\n",
}


@pytest.mark.parametrize("kind", ["analytic3d", "effective1d", "effective2d"])
@pytest.mark.parametrize("named", [True, False], ids=["kind", "auto"])
def test_each_kernel_kind_is_its_closed_form_bit_for_bit(kind, named):
    text = FAMILY_GRIDS[kind] + "params.lambda1 = 1.0\nparams.lambda2 = 0.5\n"
    if named:
        text += f"kernel.kind = {kind}\n"
    config = parse_config(text)
    grid = config.grid.build()
    symbol = build_symbol_from_config(config, grid)
    omegas = config.kernel.transverse_omega or ()
    assert type(symbol.provenance) is kernel._FAMILIES[kind][0]
    assert symbol.table.tobytes() == _closed_form(grid.octant, kind, omegas).tobytes()


@pytest.mark.parametrize("dim, kind", [(1, "effective1d"), (2, "effective2d"), (3, "analytic3d")])
def test_kernel_flag_mode_tabulates_its_dimension_s_family(monkeypatch, dim, kind):
    built = []

    def recorded(grid, provenance):
        built.append(dipgpe.build_symbol(grid, provenance))
        return built[-1]

    monkeypatch.setattr(cli, "build_symbol", recorded)
    assert run_command(["kernel", "--dim", str(dim), "--points", "8", "--out", os.devnull]) == 0
    (symbol,) = built
    omegas = (1.0,) * kernel._FAMILIES[kind][1]
    assert symbol.table.tobytes() == _closed_form(symbol.grid.octant, kind, omegas).tobytes()


def test_kernel_kinds_keep_their_order_and_transverse_count_messages(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(FAMILY_GRIDS["analytic3d"] + "params.lambda1 = 1\nparams.lambda2 = 0\n"
                     "kernel.kind = radial\n")
    assert err.value.errors == [
        "line 7: key 'kernel.kind': expected one of auto, analytic3d, effective1d, "
        "effective2d, none; got 'radial'"
    ]
    # (kind, the grid's transverse_omega, a wrong one, the count the message names)
    wrong = [
        ("effective1d", "0.7, 3", "0.7", "2 entries"),
        ("effective2d", "2.5", "2.5, 1", "1 entry"),
    ]
    for kind, right, bad, count in wrong:
        for named in ("", f"kernel.kind = {kind}\n"):
            text = FAMILY_GRIDS[kind].replace(f"omega = {right}", f"omega = {bad}")
            text += "params.lambda1 = 1\nparams.lambda2 = 0.5\n" + named
            config = parse_config(text)
            message = f"kernel.kind = {kind} requires kernel.transverse_omega with {count}"
            with pytest.raises(ConfigError) as err:
                build_symbol_from_config(config, config.grid.build())
            assert err.value.errors == [message]
            path = tmp_path / f"{kind}.cfg"
            path.write_text(text)
            assert run_command(["kernel", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    for dim, omegas, count in ((1, "1", 2), (2, "1,1", 1)):
        assert run_command(["kernel", "--dim", str(dim), "--omega", omegas]) == 1
        needs = f"--omega needs {count} value(s) for the {dim}D symbol"
        assert capsys.readouterr().err == f"error: {needs}\n"


@dataclass(frozen=True)
class _Flat:
    """A stand-in family: the constant symbol, with its own range rule."""

    level: float
    dim = 2

    def table(self, octant):
        return np.full(octant.shape, self.level)

    def check(self, table):
        if np.any(table != self.level):
            raise ValueError("flat symbol is not flat")


def test_a_stand_in_provenance_builds_and_validates_through_build_symbol(monkeypatch):
    g = make_grid(2, [8.0, 10.0], [8, 12])
    symbol = build_symbol(g, _Flat(0.25))
    assert symbol.table.shape == g.octant.shape
    assert np.array_equal(symbol.values, np.full(g.shape, 0.25))
    assert np.array_equal(symbol.half_values, np.full(g.half_shape, 0.25))
    symbol.octant.validate()
    # validate refuses a non-finite table itself, then leaves the range to check
    with pytest.raises(ValueError, match="non-finite"):
        build_symbol(g, _Flat(math.nan))
    monkeypatch.setattr(_Flat, "table", lambda self, octant: np.eye(*octant.shape))
    with pytest.raises(ValueError, match="flat symbol is not flat"):
        build_symbol(g, _Flat(1.0))


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
        KernelSymbol(bad, Effective1D(1.0, 1.0), g).validate()


def test_kernel_symbol_validate_rejects_odd_part():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())
    values = sym.values.copy()
    values[1, 2, 3] += 0.5  # break evenness at a non-Nyquist mode
    # refused at construction, before validate could run
    with pytest.raises(KernelRealityError, match="not even along axis 0"):
        KernelSymbol(values, Analytic3D(), g)


def test_tilted_dipole_table_is_refused_at_construction():
    # a dipole along (1, 0, 1)/sqrt(2): its symbol is even under xi -> -xi
    # off the Nyquist planes, but not along each axis, so its octant does
    # not stand for it
    g = make_grid(3, [12.0, 12.0, 12.0], [16, 16, 16])
    xi1, xi2, xi3 = (np.broadcast_to(f, g.shape) for f in g.freq_mesh)
    nsq = xi1 * xi1 + xi2 * xi2 + xi3 * xi3
    along = 0.5 * (xi1 + xi3) ** 2
    tilted = np.where(nsq > 0.0, 3.0 * along / np.where(nsq > 0.0, nsq, 1.0) - 1.0, 0.0)
    tilted *= FOUR_PI_THIRD
    diff = tilted - tilted[np.ix_(*[-np.arange(n) % n for n in g.shape])]
    for axis, n in enumerate(g.shape):
        diff[(slice(None),) * axis + (n // 2,)] = 0.0
    assert np.max(np.abs(diff)) <= 1e-12
    with pytest.raises(KernelRealityError, match="not even along axis 0"):
        KernelSymbol(tilted, Analytic3D(), g)


def test_evenness_tolerance_holds_off_the_nyquist_planes():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())

    def perturbed(index, delta):
        values = sym.values.copy()
        values[index] += delta
        return KernelSymbol(values, Analytic3D(), g)

    # |s(k) - s(k mirrored along one axis)| <= 1e-12 on every axis is the
    # rule: 2e-12 at an interior mode breaks it
    with pytest.raises(KernelRealityError, match="not even along axis 0"):
        perturbed((1, 2, 3), 2e-12)
    perturbed((1, 2, 3), 0.5e-12).validate()
    # on a Nyquist plane (index n // 2 = 4) the same 2e-12 is found along
    # the other axes
    for index, axis in (((4, 2, 3), 1), ((1, 4, 3), 0), ((1, 2, 4), 0)):
        with pytest.raises(KernelRealityError, match=f"not even along axis {axis}"):
            perturbed(index, 2e-12)
    # a point that is its own image along every axis is compared with nothing
    for index in ((4, 0, 4), (4, 4, 0), (4, 4, 4)):
        perturbed(index, 2e-12).validate()
    # a table even to within 1e-12 is held by its octant: the octant's
    # value reaches every image, and a value off the octant is dropped
    kept = perturbed((1, 2, 3), 0.5e-12)
    assert kept.values[7, 6, 5] == kept.values[1, 2, 3] == sym.values[1, 2, 3] + 0.5e-12
    dropped = perturbed((7, 6, 5), 0.5e-12)
    assert np.array_equal(dropped.values, sym.values)


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


def _full_lattice_table(g, provenance):
    """Each family's symbol evaluated at every point of the full lattice."""
    if isinstance(provenance, Analytic3D):
        return np.ascontiguousarray(np.broadcast_to(symbol3d(*g.freq_mesh), g.shape))
    if isinstance(provenance, Effective2D):
        w3 = provenance.omega3
        r = np.sqrt(tables.ksq(g))
        return (8.0 / 3.0) * math.sqrt(math.pi * w3) - 2.0 * math.pi * r * special.erfcx(
            r / (2.0 * math.sqrt(w3))
        )
    magnitudes, inverse = np.unique(np.abs(g.freqs[0]), return_inverse=True)
    return kernel._effective1d_table(magnitudes, provenance.omega1, provenance.omega2)[inverse]


@pytest.mark.parametrize(
    "extents, shape, provenance",
    [
        ((15.0, 15.0, 30.0), (96, 96, 96), Analytic3D()),
        # 14/24 and 14/12 are no binary fractions
        ((10.0, 12.0, 14.0), (16, 8, 24), Analytic3D()),
        ((18.0, 14.0), (16, 12), Effective2D(0.9)),
        ((16.0,), (64,), Effective1D(1.3, 0.6)),
        ((16.0,), (48,), Effective1D(1.0, 1.0)),
    ],
)
def test_symbol_layouts_are_the_full_lattice_tables(extents, shape, provenance):
    g = make_grid(len(shape), extents, shape)
    sym = build_symbol(g, provenance)
    o = g.octant
    # built and checked on the octant: no full-size array until values is read
    assert not any(
        isinstance(v, np.ndarray) and v.size >= g.size for v in vars(sym).values()
    )
    assert sym.octant.grid is o and sym.octant.values.shape == o.shape
    full = _full_lattice_table(g, provenance)
    half = np.ascontiguousarray(full[tuple(slice(0, m) for m in g.half_shape)])
    assert sym.half_values.flags.c_contiguous
    assert np.array_equal(sym.half_values.view(np.uint64), half.view(np.uint64))
    assert "values" not in vars(sym)
    values = sym.values
    assert values.flags.c_contiguous and values.shape == g.shape
    assert np.array_equal(values.view(np.uint64), full.view(np.uint64))
    assert np.array_equal(sym.octant.values.view(np.uint64), values[o.index].view(np.uint64))
    assert sym.values is values and sym.octant.half_values is sym.octant.values


def test_mirrored_layouts_allocate_only_themselves():
    g = make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64))
    sym = build_symbol(g, Analytic3D())
    for name in ("half_values", "values"):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layout = getattr(sym, name)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= layout.nbytes + 2**16, name


def _is_even_by_gather(values):
    """The evenness rule evaluated with one np.take gather of the mirror image per axis."""
    for axis, n in enumerate(values.shape):
        mirrored = np.take(values, -np.arange(n) % n, axis=axis)
        if not (np.abs(values - mirrored).max() <= 1e-12):
            return False
    return True


def _constructs(g, values, provenance):
    """Whether KernelSymbol accepts values as a full-lattice table."""
    try:
        KernelSymbol(values, provenance, g)
    except KernelRealityError:
        return False
    return True


def _even_symbol(shape):
    extents = tuple(3.0 + n for n in shape)
    g = make_grid(len(shape), extents, shape)
    # a function of |xi|^2 is even bit for bit on the lattice
    values = np.cos(tables.ksq(g))
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
        assert _constructs(g, values, provenance) is expected, trial
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_nan_off_the_nyquist_planes_fails_the_evenness_check():
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    values = build_symbol(g, Analytic3D()).values.copy()
    nan_inside = values.copy()
    nan_inside[1, 2, 3] = math.nan
    with pytest.raises(KernelRealityError):
        KernelSymbol(nan_inside, Analytic3D(), g)
    # a point that is its own image along every axis is compared with
    # nothing, so validate finds its NaN in the table
    nan_alone = values.copy()
    nan_alone[4, 0, 4] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        KernelSymbol(nan_alone, Analytic3D(), g).validate()


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_kernel_rejects_a_non_finite_density(bad):
    # one NaN used to come back as 512 NaN outputs: the residue check
    # residue > 1e-8 * scale is false when both sides are NaN
    g = make_grid(3, [8.0, 8.0, 8.0], [8, 8, 8])
    sym = build_symbol(g, Analytic3D())
    rho = np.exp(-(tables.radius_sq(g)))
    rho[1, 2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply_kernel(sym, rho)


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
    sym = build_symbol(g, Effective1D(1.0, 1.0))
    # an odd multiplier produces an imaginary response; the constructor
    # refuses odd tables, so one is set in place of the full lattice
    sym.values = 0.1 * g.freqs[0]
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
