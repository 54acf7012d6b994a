import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as scipy_fft

from dipgpe import Analytic3D, Effective2D, GridError, PhysicalParams, build_symbol, make_grid
from dipgpe.grid import (
    _BLOCK,
    MeshBlocks,
    SpectralGrid,
    lattice_blocks,
    mirror_even_axes,
    mesh_product,
    mesh_sum,
    top_band,
)
from dipgpe.kernel import _pair_symbol_real
from dipgpe.state import FieldSpectrum, _marginals, _sum_sq

import lattice_tables as tables


def test_spacings_1d():
    g = make_grid(1, [16.0], [64])
    assert g.steps == (0.25,)
    assert g.freq_steps[0] == pytest.approx(math.pi / 8, rel=0, abs=1e-15)
    assert g.cell_volume == 0.25
    assert g.size == 64


def test_total_points_3d():
    g = make_grid(3, [16.0, 16.0, 16.0], [32, 32, 32])
    assert g.size == 32768
    assert g.shape == (32, 32, 32)


def test_rejects_bad_construction():
    with pytest.raises(GridError):
        make_grid(4, [1.0] * 4, [8] * 4)
    with pytest.raises(GridError):
        make_grid(2, [8.0], [16, 16])
    with pytest.raises(GridError):
        make_grid(1, [8.0], [15])
    with pytest.raises(GridError):
        make_grid(1, [8.0], [4])
    with pytest.raises(GridError):
        make_grid(1, [-8.0], [16])
    with pytest.raises(GridError):
        make_grid(1, [math.inf], [16])


def test_rejects_extents_whose_frequencies_overflow():
    with pytest.raises(GridError, match="overflow"):
        make_grid(2, [1e-300, 1.0], [8, 8])
    # the largest |xi|^2 is still finite here
    assert np.isfinite(np.max(tables.ksq(make_grid(1, [1e-150], [8]))))


def test_coordinates_cover_half_open_box():
    g = make_grid(1, [10.0], [20])
    x = g.coords[0]
    assert x[0] == -5.0
    assert x[-1] == pytest.approx(4.5)
    assert np.allclose(np.diff(x), 0.5)


def test_frequencies_match_fftfreq_layout():
    g = make_grid(1, [8.0], [16])
    xi = g.freqs[0]
    expected = 2.0 * np.pi * np.fft.fftfreq(16, d=0.5)
    assert np.array_equal(xi, expected)
    # every positive frequency has its negative partner except Nyquist
    assert xi[1] == pytest.approx(np.pi / 4)
    assert xi[8] == pytest.approx(-2.0 * np.pi)


def test_forward_constant_field():
    g = make_grid(2, [12.0, 12.0], [32, 32])
    u = np.full(g.shape, 2.5, dtype=complex)
    uh = g.forward_transform(u)
    assert uh[0, 0] == pytest.approx(2.5 * 144.0, rel=1e-13)
    rest = np.abs(uh).sum() - abs(uh[0, 0])
    assert rest <= 1e-9 * abs(uh[0, 0])


def test_forward_plane_wave_hits_single_mode():
    g = make_grid(1, [16.0], [64])
    k = 4 * 2.0 * np.pi / 16.0
    u = np.exp(1j * k * g.coords[0])
    uh = g.forward_transform(u)
    assert abs(uh[4]) == pytest.approx(16.0, rel=1e-12)
    others = np.abs(np.delete(uh, 4))
    assert others.max() < 1e-10


def test_forward_gaussian_matches_continuum():
    # exp(-x^2/2) has transform sqrt(2 pi) exp(-xi^2/2)
    g = make_grid(1, [32.0], [256])
    u = np.exp(-0.5 * g.coords[0] ** 2).astype(complex)
    uh = g.forward_transform(u)
    xi = g.freqs[0]
    expected = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * xi**2)
    window = np.abs(xi) <= 4.0
    assert np.max(np.abs(uh[window] - expected[window])) < 1e-8


def test_roundtrip_and_plancherel():
    rng = np.random.default_rng(7)
    g = make_grid(2, [10.0, 14.0], [32, 48])
    u = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    uh = g.forward_transform(u)
    back = g.inverse_transform(uh)
    assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))
    phys = np.sum(np.abs(u) ** 2) * g.cell_volume
    spec = np.sum(np.abs(uh) ** 2) * np.prod(g.freq_steps) / (2.0 * np.pi) ** 2
    assert phys == pytest.approx(spec, rel=1e-12)


def test_forward_matches_direct_sum():
    rng = np.random.default_rng(3)
    g = make_grid(1, [5.0], [8])
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = g.coords[0]
    xi = g.freqs[0]
    direct = g.steps[0] * np.array(
        [np.sum(u * np.exp(-1j * k * x)) for k in xi]
    )
    uh = g.forward_transform(u)
    assert np.max(np.abs(uh - direct)) < 1e-12


def test_inverse_matches_direct_sum():
    rng = np.random.default_rng(4)
    g = make_grid(1, [5.0], [8])
    uh = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = g.coords[0]
    xi = g.freqs[0]
    dxi = g.freq_steps[0] / (2.0 * np.pi)
    direct = dxi * np.array([np.sum(uh * np.exp(1j * xi * p)) for p in x])
    u = g.inverse_transform(uh)
    assert np.max(np.abs(u - direct)) < 1e-12


@pytest.mark.parametrize(
    "extents, points",
    [([8.0], [16]), ([10.0, 14.0], [16, 24]), ([6.0, 8.0, 10.0], [8, 12, 10])],
)
def test_raw_transforms_are_the_scipy_calls_bit_for_bit(extents, points):
    g = make_grid(len(points), extents, points)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(g.shape)
    u = x + 1j * rng.standard_normal(g.shape)
    for axis in (None, *range(g.dim)):
        axes = None if axis is None else (axis,)
        for overwrite in (False, True):
            for method, raw in ((g.fft, scipy_fft.fftn), (g.ifft, scipy_fft.ifftn)):
                got = method(u.copy(), axis, overwrite=overwrite)
                want = raw(u.copy(), axes=axes, workers=1, overwrite_x=overwrite)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    spectrum = g.rfft(x)
    assert np.array_equal(spectrum.view(np.uint64), scipy_fft.rfftn(x, workers=1).view(np.uint64))
    back = g.irfft(spectrum)
    assert back.shape == g.shape
    want = scipy_fft.irfftn(spectrum, s=g.shape, workers=1)
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
    back = g.irfft(spectrum.copy(), overwrite=True)
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
    # the octant's real pair is the type-I DCT pair; its inverse runs in place
    o = g.octant
    table = o.rfft(o.restrict(x))
    assert np.array_equal(
        table.view(np.uint64), scipy_fft.dctn(o.restrict(x), type=1, workers=1).view(np.uint64)
    )
    want = scipy_fft.idctn(table, type=1, workers=1)
    assert np.array_equal(o.irfft(table).view(np.uint64), want.view(np.uint64))
    work = table.copy()
    back = o.irfft(work, overwrite=True)
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
    assert np.shares_memory(back, work)


def test_transform_rejects_wrong_shape():
    g = make_grid(2, [8.0, 8.0], [16, 16])
    with pytest.raises(GridError):
        g.forward_transform(np.zeros((16, 8), dtype=complex))
    with pytest.raises(GridError):
        g.inverse_transform(np.zeros((8, 16), dtype=complex))


def test_ksq_is_sum_of_squares():
    g = make_grid(3, [8.0, 10.0, 12.0], [16, 16, 16])
    xi1, xi2, xi3 = np.meshgrid(*g.freqs, indexing="ij")
    assert np.allclose(tables.ksq(g), xi1**2 + xi2**2 + xi3**2, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_tables_equal_the_accumulation_from_zeros(dim):
    g = make_grid(dim, [8.0, 10.0, 12.0][:dim], [16, 10, 12][:dim])
    omega = (1.0, 0.0, 1.7)[:dim]

    def accumulated(terms):
        out = np.zeros(g.shape)
        for term in terms:
            out = out + term
        return out

    cases = [
        (tables.ksq(g), accumulated(f * f for f in g.freq_mesh)),
        (tables.radius_sq(g), accumulated(c * c for c in g.coord_mesh)),
        (
            tables.potential(PhysicalParams(dim, omega, 0.0, 0.0), g),
            accumulated((0.5 * w * w) * (c * c) for w, c in zip(omega, g.coord_mesh)),
        ),
    ]
    for table, expected in cases:
        assert table.shape == g.shape and table.flags.c_contiguous
        assert not any(np.shares_memory(table, m) for m in g.freq_mesh + g.coord_mesh)
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mesh_product_equals_the_accumulation_from_ones(dim):
    g = make_grid(dim, [8.0, 10.0, 12.0][:dim], [16, 10, 12][:dim])
    factors = [np.exp(-0.3 * (a + 1) * c * c) for a, c in enumerate(g.coord_mesh)]
    expected = np.ones(g.shape)
    for f in factors:
        expected = expected * f
    table = mesh_product(factors)
    assert table.shape == g.shape and table.flags.c_contiguous
    assert table.tobytes() == expected.tobytes()
    if dim > 1:
        # the factors of some axes stay broadcastable against the lattice
        assert mesh_product(factors[1:]).shape == (1,) + g.shape[1:]


def test_top_octave_mask_counts():
    g = make_grid(1, [8.0], [16])
    # indices with |k| >= 4 out of k in -8..7: k = -8..-4 and 4..7
    assert int(tables.top_octave_mask(g).sum()) == 9
    g2 = make_grid(2, [8.0, 8.0], [8, 8])
    # per axis |k| >= 2 leaves a 3x3 block of False
    assert int((~tables.top_octave_mask(g2)).sum()) == 9


@pytest.mark.parametrize("n", [8, 10, 16, 96, 130])
def test_top_band_is_the_top_octave_of_an_axis(n):
    k = np.rint(np.fft.fftfreq(n) * n).astype(int)
    want = np.flatnonzero(np.abs(k) >= n // 4)
    band = top_band(n)
    assert np.array_equal(np.arange(n)[band], want)


# Shapes whose last axis fits a block many times, once, not at all.
BLOCK_SHAPES = [(16,), (6, 10), (5, 7, 9), (3, _BLOCK // 2 + 3), (2, _BLOCK + 4464), (_BLOCK + 96,)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_lattice_blocks_tile_whole_rows_or_one_row(shape):
    blocks = lattice_blocks(shape)
    m = shape[-1]
    assert blocks[0][0] == 0 and blocks[-1][1] == math.prod(shape)
    for (_, stop), (start, _) in zip(blocks, blocks[1:]):
        assert stop == start
    for start, stop in blocks:
        assert 0 < stop - start <= _BLOCK
        whole_rows = start % m == 0 and (stop - start) % m == 0
        one_row = start // m == (stop - 1) // m
        assert whole_rows or one_row


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_mesh_sum_blocks_are_bit_for_bit_the_mesh_sum(shape):
    # and the product blocks the mesh_product, of complex factors
    axes = [np.linspace(-1.3, 2.1, n) ** 2 for n in shape]
    sparse = [
        x.reshape([-1 if b == a else 1 for b in range(len(shape))]) for a, x in enumerate(axes)
    ]
    cases = [
        (np.add, mesh_sum, [(0.5 + a) * x for a, x in enumerate(sparse)], float),
        (np.multiply, mesh_product, [np.exp((-0.3j - 0.1 * a) * x) for a, x in enumerate(sparse)], complex),
    ]
    for op, mesh, terms, dtype in cases:
        want = np.ascontiguousarray(mesh(terms)).reshape(-1)
        got = np.empty(math.prod(shape), dtype=dtype)
        blocks = MeshBlocks(op, terms)
        for start, stop in lattice_blocks(shape):
            out = np.full(stop - start, np.nan, dtype=dtype)
            got[start:stop] = blocks.block(start, stop, out)
        assert got.tobytes() == want.tobytes()
        # a lattice of one block, or of one axis, is kept whole
        assert (blocks.table is not None) == (len(shape) == 1 or got.size <= _BLOCK)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_axis_sums_give_marginals_and_band_rows(shape):
    # the row, column and top-band row sums of a density and of a power
    # |v|^2, on rows longer than a block and a 1D lattice past one block
    rng = np.random.default_rng(len(shape))
    values = rng.random(shape)
    v = np.sqrt(values) * np.exp(2j * np.pi * rng.random(shape))
    # make_grid takes even counts of at least 8; these sums read only the bands
    g = SpectralGrid(len(shape), (1.0,) * len(shape), shape)
    marginals, total, top = FieldSpectrum(v, g)._power_sums
    for got in (_marginals(values, g), marginals):
        for axis, marginal in enumerate(got):
            others = tuple(b for b in range(len(shape)) if b != axis)
            np.testing.assert_allclose(marginal, values.sum(axis=others), rtol=1e-13)
    mask = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        mask[(slice(None),) * axis + (top_band(n),)] = True
    np.testing.assert_allclose(total, values.sum(), rtol=1e-13)
    np.testing.assert_allclose(top, values[mask].sum(), rtol=1e-13)


def test_sign_mesh_alternates():
    g = make_grid(2, [4.0, 4.0], [8, 8])
    s = g.sign_mesh
    assert s[0, 0] == 1.0
    assert s[1, 0] == -1.0
    assert s[0, 1] == -1.0
    assert s[3, 5] == 1.0


OCTANT_CASES = [((16.0,), (64,)), ((12.0, 10.0), (32, 24)), ((10.0, 12.0, 14.0), (16, 8, 24))]


def even_lattice(shape, rng, dtype=complex):
    """A random lattice equal to its mirror image, u[k] == u[(n - k) % n] per axis."""
    values = rng.standard_normal(shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(shape)
    for axis, n in enumerate(shape):
        mirrored = np.take(values, (-np.arange(n)) % n, axis=axis)
        values = 0.5 * (values + mirrored)
    return values


@pytest.mark.parametrize("extents, points", OCTANT_CASES)
def test_octant_transforms_are_the_full_transforms_on_the_octant(extents, points):
    g = make_grid(len(points), extents, points)
    o = g.octant
    assert o is g.octant and o.full is g and g.full is g
    assert o.shape == tuple(n // 2 + 1 for n in points) and o.size == math.prod(o.shape)
    rng = np.random.default_rng(7)
    u = even_lattice(g.shape, rng)
    assert tables.is_mirror_even(u)
    uo = o.restrict(u)
    assert np.array_equal(o.unfold(uo), u)
    scale = np.max(np.abs(scipy_fft.fftn(u)))
    for axis in (None,) + tuple(range(g.dim)):
        for full, octant in ((g.fft, o.fft), (g.ifft, o.ifft)):
            want = full(u, axis)[o.index]
            assert np.max(np.abs(octant(uo, axis) - want)) <= 1e-14 * scale
    r = even_lattice(g.shape, rng, float)
    rhat = o.rfft(o.restrict(r))
    assert rhat.dtype == float and rhat.shape == o.shape
    assert np.max(np.abs(rhat - g.fft(r)[o.index].real)) <= 1e-14 * np.max(np.abs(rhat))
    assert np.max(np.abs(o.irfft(rhat) - o.restrict(r))) <= 1e-14 * np.max(np.abs(r))
    # in place, as the step transforms
    work = uo.copy()
    assert np.shares_memory(o.fft(work, overwrite=True), work)


def test_unfold_allocates_only_its_output():
    # one block copy per combination of {octant, mirrored piece} per axis,
    # read from the octant: no copy of the source on the way
    g = make_grid(3, (15.0, 15.0, 30.0), (64, 64, 64))
    o = g.octant
    uo = o.restrict(even_lattice(g.shape, np.random.default_rng(5)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = o.unfold(uo)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= u.nbytes + 2**16
    assert tables.is_mirror_even(u) and np.array_equal(u[o.index], uo)


@pytest.mark.parametrize("extents, points", OCTANT_CASES)
def test_octant_layout_and_weights(extents, points):
    g = make_grid(len(points), extents, points)
    o = g.octant
    assert o.steps == g.steps and o.cell_volume == g.cell_volume
    for a, n in enumerate(points):
        assert np.array_equal(o.coords[a], g.coords[a][: n // 2 + 1])
        # the last frequency is the Nyquist one, -pi n / L, its own image
        assert np.array_equal(o.freqs[a], g.freqs[a][: n // 2 + 1])
        assert o.freqs[a][-1] < 0.0
        w = o.weights[a]
        assert w[0] == w[-1] == 1.0 and np.all(w[1:-1] == 2.0) and w.sum() == n
        assert o.bands[a] == slice(n // 4, n // 2 + 1)
    # row weights are an array on every lattice, all ones where no leading
    # axis is even (one row, [1.], in 1D), and count the full lattice
    for lattice in (o, g):
        rw = lattice.row_weights
        assert rw.shape == (math.prod(lattice.shape[:-1]),)
        w = lattice.weights[-1]
        last = lattice.shape[-1] if w is None else float(np.sum(w))
        assert float(np.sum(rw)) * last == g.size
    assert np.all(g.row_weights == 1.0) and np.all(g.half_row_weights == 1.0)
    # one lattice class; the full-lattice tables no run builds are test
    # helpers, and the continuum transforms refuse an even axis
    assert type(o) is type(g) and (o.even, g.even) == (tuple(range(g.dim)), ())
    with pytest.raises(GridError, match="periodic lattice"):
        o.forward_transform(np.zeros(o.shape, dtype=complex))
    for name in ("ksq", "radius_sq", "top_octave_mask"):
        assert not hasattr(g, name) and not hasattr(o, name), name


@pytest.mark.parametrize("extents, points", OCTANT_CASES)
def test_octant_sums_are_the_full_lattice_sums(extents, points):
    g = make_grid(len(points), extents, points)
    o = g.octant
    rng = np.random.default_rng(len(points))
    rho = np.abs(even_lattice(g.shape, rng, float))
    v = even_lattice(g.shape, rng)
    for got, want in zip(_marginals(o.restrict(rho), o), _marginals(rho, g)):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    marginals, total, top = FieldSpectrum(o.restrict(v), o)._power_sums
    full_marginals, full_total, full_top = FieldSpectrum(v, g)._power_sums
    for got, want in zip(marginals, full_marginals):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    np.testing.assert_allclose(total, full_total, rtol=1e-13)
    np.testing.assert_allclose(top, full_top, rtol=1e-13)
    np.testing.assert_allclose(_sum_sq(o.restrict(rho), o), _sum_sq(rho, g), rtol=1e-13)


MIXED_CASES = [
    ((12.0, 10.0), (32, 24), (0,)),
    ((12.0, 10.0), (32, 24), (1,)),
    ((10.0, 12.0, 14.0), (16, 8, 24), (0, 1)),
    ((10.0, 12.0, 14.0), (16, 8, 24), (1, 2)),
    ((10.0, 12.0, 14.0), (16, 8, 24), (1,)),
]


def mixed_lattice(shape, even, rng, dtype=complex):
    """A random lattice equal to its mirror image along the even axes only."""
    values = rng.standard_normal(shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(shape)
    for axis in even:
        n = shape[axis]
        values = 0.5 * (values + np.take(values, (-np.arange(n)) % n, axis=axis))
    return values


@pytest.mark.parametrize("extents, points, even", MIXED_CASES)
def test_mixed_lattices_are_the_full_lattice_at_their_held_indices(extents, points, even):
    g = make_grid(len(points), extents, points)
    m = g.sublattice(even)
    assert m is g.sublattice(even[::-1]) and m.full is g and m.even == even
    assert m.sublattice(range(g.dim)) is g.octant and g.lattice_for(m.shape) is m
    assert m.shape == tuple(n // 2 + 1 if a in even else n for a, n in enumerate(points))
    # the real transform halves the last periodic axis
    halved = max(a for a in range(g.dim) if a not in even)
    assert m.half_shape == tuple(
        n // 2 + 1 if a in even or a == halved else n for a, n in enumerate(points)
    )
    for a, w in enumerate(m.weights):
        assert (w is None) == (a not in even)
    rng = np.random.default_rng(len(even) + 3 * g.dim)
    u = mixed_lattice(g.shape, even, rng)
    assert mirror_even_axes(u) == even
    um = m.restrict(u)
    assert np.array_equal(m.unfold(um), u)
    scale = np.max(np.abs(scipy_fft.fftn(u)))
    for axis in (None,) + tuple(range(g.dim)):
        for full, mixed in ((g.fft, m.fft), (g.ifft, m.ifft)):
            want = full(u, axis)[m.index]
            assert np.max(np.abs(mixed(um, axis) - want)) <= 1e-14 * scale
    r = mixed_lattice(g.shape, even, rng, float)
    rhat = m.rfft(m.restrict(r))
    assert rhat.shape == m.half_shape
    half = tuple(slice(0, k) for k in m.half_shape)
    assert np.max(np.abs(rhat - g.fft(r)[half])) <= 1e-14 * np.max(np.abs(rhat))
    assert np.max(np.abs(m.irfft(rhat) - m.restrict(r))) <= 1e-14 * np.max(np.abs(r))
    # the sums are the full lattice's
    rho = np.abs(r)
    for got, want in zip(_marginals(m.restrict(rho), m), _marginals(rho, g)):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    marginals, total, top = FieldSpectrum(um, m)._power_sums
    full_marginals, full_total, full_top = FieldSpectrum(u, g)._power_sums
    for got, want in zip(marginals, full_marginals):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    np.testing.assert_allclose(total, full_total, rtol=1e-13)
    np.testing.assert_allclose(top, full_top, rtol=1e-13)
    np.testing.assert_allclose(_sum_sq(m.restrict(rho), m), _sum_sq(rho, g), rtol=1e-13)
    sym = build_symbol(g, Analytic3D() if g.dim == 3 else Effective2D(2.0))
    np.testing.assert_allclose(
        _pair_symbol_real(sym.on(m), m.restrict(rho)),
        _pair_symbol_real(sym, rho),
        rtol=1e-13,
    )


def test_mirror_evenness_is_bit_for_bit_on_every_axis():
    rng = np.random.default_rng(3)
    u = even_lattice((8, 10, 12), rng)
    assert tables.is_mirror_even(u) and tables.is_mirror_even(u.real.copy())
    for index in [(1, 0, 0), (0, 9, 0), (0, 0, 7), (0, 0, 0)]:
        v = u.copy()
        v[index] = np.nextafter(v[index].real, np.inf) + 1j * v[index].imag
        # indices 0 and n/2 are their own images, so moving them keeps it even
        assert tables.is_mirror_even(v) == (index == (0, 0, 0))
    # raw bits: -0.0 is not the image of 0.0
    w = np.zeros((8,))
    w[3], w[5] = 0.0, -0.0
    assert not tables.is_mirror_even(w)
