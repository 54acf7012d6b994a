"""Uniform lattices, each axis periodic or even, and the discrete Fourier transform contract.

Everything downstream lives on a tensor-product lattice over the box
``prod_j [-L_j/2, L_j/2)`` with an even number of points per axis.  The
point with index ``i`` along axis ``j`` is ``x_i = (i - N_j/2)*dx_j`` and
the matching angular frequencies are ``xi_k = 2*pi*k/L_j`` for signed
integers ``k`` in ``{-N_j/2, ..., N_j/2 - 1}``, stored in FFT order.

``forward_transform`` and ``inverse_transform`` approximate the continuum
pair

    u_hat(xi) = integral u(x) exp(-i x.xi) dx,
    u(x)     = (2*pi)^(-d) integral u_hat(xi) exp(i x.xi) dxi,

by the trapezoidal rule on the lattice: ``u_hat = dx^d * S * fft(u)``
and ``u = ifft(u_hat * S) / dx^d``.  The sign lattice ``S`` accounts for
the box being centred at the origin while ``fft`` assumes samples
starting at index 0; since the point counts are even, the parity of the
signed frequency integer equals the parity of the raw array index, so a
single per-axis ``(-1)**index`` vector serves both orderings.

Pointwise Fourier multipliers need neither the sign lattice nor the
volume factors (they cancel between the two directions), so operators
elsewhere in the package run between the grid's raw transforms,
``grid.ifft(m * grid.fft(u))``.  Those four methods (fft, ifft, rfft,
irfft) of SpectralGrid are the package's only calls of scipy.fft's
transforms.

A field is mirror-even along an axis when u[k] == u[(n - k) % n] there:
index k holds x_k and index n - k holds -x_k, while index 0 (x = -L/2)
and index n/2 (x = 0) are their own images.  Such a field is fixed by
indices 0..n/2 of that axis, and so is its DFT, which along that axis is
the type-I discrete cosine transform: fftfreq puts -xi_k at index n - k,
so the frequencies pair up the same way.  So each axis of a SpectralGrid
is periodic (all n points, FFT) or even (indices 0..n/2, DCT-I), where
each index stands for its multiplicity of full-lattice points, 1 at
indices 0 and n/2 and 2 in between (``weights``): sums over the full
lattice are sums over the held points with one weight per axis, and
Parseval's 1/N keeps the full lattice's count, ``grid.full.size``.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import fft as _fft

# Every transform in the package runs on one pocketfft worker, the calling
# thread, and SpectralGrid's raw transforms alone read this.  pocketfft
# splits each axis pass statically between its workers and joins them at
# the end of the pass, so with two workers on a shared two-vCPU host every
# pass waits for the vCPU the host runs last, and wall time follows the
# host rather than the work.  Concurrency comes from independent work
# instead: epsilon_sweep runs its members on a thread pool.  pocketfft
# output is bit-identical for any worker count.
FFT_WORKERS = 1


class GridError(ValueError):
    """Raised for invalid grid construction or mismatched field shapes."""


def _accumulate(op, terms) -> np.ndarray:
    """Left-to-right op of per-axis sparse mesh terms, t_1 op t_2 op ... op t_d."""
    total = None
    for term in terms:
        total = term if total is None else op(total, term)
    return total


def _by_rows(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """op(a, b) broadcast, formed one row (index of the first axis) at a time.

    Bit for bit the broadcast op.  numpy's buffered broadcast op keeps
    buffers of up to 2 * np.getbufsize() elements beside its output
    (256 KiB for complex); on one row they are at most twice its size.
    """
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape, np.result_type(a, b))
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    for row in range(shape[0]):
        op(a[row], b[row], out=out[row])
    return out


def mesh_sum(terms) -> np.ndarray:
    """Left-to-right sum of per-axis sparse mesh terms on the full lattice.

    The partial sums stay broadcast over the axes not yet reached, so only
    the last addition fills the full lattice.  Each term of a sparse mesh
    spans its own axis, so the result is a fresh contiguous array of the
    full shape, bit for bit the accumulation 0 + t_1 + ... + t_d.
    """
    return _accumulate(np.add, terms)


def mesh_product(factors) -> np.ndarray:
    """Left-to-right product of per-axis sparse mesh factors.

    The product counterpart of mesh_sum: the partial products stay
    broadcast over the axes not yet reached, and the result is bit for
    bit the accumulation 1 * f_1 * ... * f_d.  With the factors of every
    axis it fills the full lattice once; with those of some axes it
    stays broadcastable against it.
    """
    return _accumulate(np.multiply, factors)


# Elements per block of the package's blocked pointwise passes, which need
# scratch; lattice sums are numpy reductions and take no blocks.  A block's
# real scratch is 512 KiB and its complex scratch 1 MiB, so the work on one
# block runs in cache; a lattice no larger than one block is one block.
_BLOCK = 1 << 16


def lattice_blocks(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Flat [start, stop) ranges of at most _BLOCK elements tiling a C-order lattice.

    Each range is a run of whole rows of the last axis, or a piece of one
    row when a row is longer than a block, so that per-axis terms line up
    with it (see MeshBlocks).
    """
    m = shape[-1]
    size = math.prod(shape)
    if m > _BLOCK:
        return [
            (row + k, row + min(k + _BLOCK, m))
            for row in range(0, size, m)
            for k in range(0, m, _BLOCK)
        ]
    step = (_BLOCK // m) * m
    return [(start, min(start + step, size)) for start in range(0, size, step)]


class MeshBlocks:
    """mesh_sum (op np.add) or mesh_product (op np.multiply), a lattice block at a time.

    The leading axes' partial result is kept, one value per row of the
    last axis, so no full lattice is built: block gives the elements of
    one block of lattice_blocks, each its row's partial result op the
    last axis' term, bit for bit what mesh_sum or mesh_product gives
    there.  A lattice of at most one block, or of one axis, is kept
    whole as that table (formed by _by_rows), and its blocks are views
    of it.
    """

    def __init__(self, op, terms) -> None:
        terms = list(terms)
        self.op = op
        self.last = terms[-1].reshape(-1)
        self.lead = self.table = None
        lead = _accumulate(op, terms[:-1])
        if lead is None:
            self.table = self.last
        elif math.prod(t.size for t in terms) <= _BLOCK:
            self.table = _by_rows(op, lead, terms[-1]).reshape(-1)
        else:
            self.lead = lead.reshape(-1)

    def block(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """The lattice elements [start, stop) of one block of lattice_blocks.

        A view of the kept table, or out (at least stop - start long)
        filled; callers read it and never write to it.
        """
        n = stop - start
        if self.table is not None:
            return self.table[start:stop]
        out = out[:n]
        m = self.last.size
        row, k = divmod(start, m)
        if k == 0 and n % m == 0:
            # each row takes its partial result, then op the last axis'
            # term in place: lead op last, mesh_sum's and mesh_product's order
            rows = out.reshape(-1, m)
            np.copyto(rows, self.lead[row : row + n // m, None])
            self.op(rows, self.last, out=rows)
        else:
            self.op(self.lead[row], self.last[k : k + n], out=out)
        return out


def _mirror_pieces(n: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """The pieces [1, n/2) and (n/2, n) of an axis of even length n.

    Each piece comes with the reversed slice that holds its mirror image:
    index k and index n - k carry opposite coordinates and opposite
    frequencies.  The indices 0 and n/2, their own images, lie in no
    piece.
    """
    h = n // 2
    return (slice(1, h), slice(n - 1, h, -1)), (slice(h + 1, n), slice(h - 1, 0, -1))


def _unfold(table: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """A lattice of the given shape, mirror-even where it is longer than the table.

    Along each axis where shape is longer than the table, which holds
    indices 0..n/2 there, index n - k takes index k; along the others the
    table's axis is taken whole.  Each combination of {the table, the
    mirrored piece (n/2, n)} over the mirrored axes is one block copy
    from the table, so no copy of the output is formed on the way.  With
    no axis to mirror, the table itself is returned.
    """
    if table.shape == tuple(shape):
        return table
    out = np.empty(tuple(shape), dtype=table.dtype)
    blocks = [((), ())]
    for m, n in zip(table.shape, shape):
        pieces = [(slice(0, m), slice(None))]
        if n != m:
            pieces.append(_mirror_pieces(n)[1])
        blocks = [(o + (po,), t + (pt,)) for o, t in blocks for po, pt in pieces]
    for o, t in blocks:
        out[o] = table[t]
    return out


def mirror_even_axes(values: np.ndarray, axes: "Sequence[int] | None" = None) -> tuple[int, ...]:
    """The axes (of axes, or of all) along which values equal their mirror image bit for bit.

    Per axis, the piece [1, n/2) is compared with the mirrored view of
    (n/2, n) as raw bits, so -0.0 differs from 0.0; no copy of the
    lattice is formed.
    """
    bits = values.view(np.uint64).reshape(values.shape + (-1,))
    even = []
    for axis in range(values.ndim) if axes is None else axes:
        (here, there), _ = _mirror_pieces(values.shape[axis])
        head = (slice(None),) * axis
        if np.array_equal(bits[head + (here,)], bits[head + (there,)]):
            even.append(axis)
    return tuple(even)


def _even_weights(n: int) -> np.ndarray:
    """The multiplicities 1, 2, ..., 2, 1 of indices 0..n/2 of an n-point even axis."""
    return np.concatenate([[1.0], np.full(n // 2 - 1, 2.0), [1.0]])


def _row_weights(weights: list, shape: Sequence[int]) -> np.ndarray:
    """Per row of the (rows, last axis) view, the leading axes' weights, 1 along a periodic one."""
    lead = (np.ones(m) if w is None else w for w, m in zip(weights[:-1], shape[:-1]))
    return _accumulate(np.multiply.outer, [np.ones(1), *lead]).reshape(-1)


def fold_rows(sums: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Row sums over an even last axis with its weights, 2 sums - first - last.

    sums are the plain row sums and first and last the row's values at
    indices 0 and n/2, which count once.
    """
    out = 2.0 * sums
    out -= first
    out -= last
    return out


class SpectralGrid:
    """A tensor-product lattice of the box whose axes are each periodic or even.

    shape, given, is the box's point count per axis and even, ascending,
    the even axes; make_grid's lattice is periodic along every axis
    (full).  sublattice(axes) is the one even along axes as well and
    octant the one even along every axis; an even axis holds indices
    0..n/2 (index) and weighs 1, 2, ..., 2, 1, a periodic one weighs None
    (module docstring), and row_weights are all ones where no leading
    axis is even.  coords, freqs, steps and cell_volume are the full
    lattice's at the held indices.  rfft halves the last periodic axis
    (half_shape).  Instances are immutable by convention, their constants
    computed once on first use and their cached meshes shared freely
    across threads.
    """

    def __init__(
        self,
        dim: int,
        extents: Sequence[float],
        shape: Sequence[int],
        even: Sequence[int] = (),
        full: "SpectralGrid | None" = None,
    ) -> None:
        self.dim = dim
        self.extents = tuple(extents)
        self.even = tuple(even)
        # None on a full lattice: a reference to itself would keep it, and
        # all it caches, alive until the cycle collector runs
        self._full = full
        points = tuple(shape)
        self.shape = points
        if self.even:
            self.shape = tuple(n // 2 + 1 if a in self.even else n for a, n in enumerate(points))
        self.size = math.prod(self.shape)
        self.steps = tuple(map(operator.truediv, self.extents, points))
        self.cell_volume = math.prod(self.steps)

    @cached_property
    def index(self) -> tuple[slice, ...]:
        """The held indices of the full lattice, 0..n/2 along an even axis."""
        return tuple(slice(0, m) for m in self.shape)

    @property
    def full(self) -> "SpectralGrid":
        """The lattice periodic along every axis; a full lattice's is itself."""
        return self if self._full is None else self._full

    @cached_property
    def periodic(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.dim) if a not in self.even)

    @cached_property
    def weights(self) -> list:
        return [_even_weights(n) if a in self.even else None for a, n in enumerate(self.full.shape)]

    @cached_property
    def bands(self) -> list[slice]:
        """Per axis, the held indices of the top octave |k| >= n // 4 (top_band)."""
        return [
            slice(n // 4, n // 2 + 1) if a in self.even else top_band(n)
            for a, n in enumerate(self.full.shape)
        ]

    @cached_property
    def half_shape(self) -> tuple[int, ...]:
        """The shape of rfft's layout, which halves the last periodic axis."""
        halved = self.periodic[-1:]
        return tuple(m // 2 + 1 if a in halved else m for a, m in enumerate(self.shape))

    @cached_property
    def _kinds(self) -> tuple:
        """(DCT-I axes, FFT axes) of a transform over the lattice.

        None takes every axis: scipy.fft's explicit axes cost more on small
        lattices, so a lattice of one kind makes the one call with None.
        """
        even, periodic = self.even, self.periodic
        return (even if periodic else None), (periodic if even else None)

    @property
    def freq_steps(self) -> tuple[float, ...]:
        """Frequency spacing per axis, 2*pi / L_j."""
        return tuple(2.0 * math.pi / L for L in self.extents)

    @cached_property
    def coords(self) -> list[np.ndarray]:
        """1d coordinate arrays at the held indices, x_i = (i - n/2) dx per axis.

        Formed from the signed index, so x[n - k] == -x[k] bit for bit on
        every lattice and a centred field is mirror-even whatever L/n is.
        """
        return [
            (np.arange(m) - n // 2) * (L / n)
            for L, n, m in zip(self.extents, self.full.shape, self.shape)
        ]

    @cached_property
    def freqs(self) -> list[np.ndarray]:
        """1d angular-frequency arrays in FFT order at the held indices.

        On an even axis the last one is the Nyquist frequency -pi n / L.
        """
        return [
            2.0 * np.pi * _fft.fftfreq(n, d=L / n)[:m]
            for L, n, m in zip(self.extents, self.full.shape, self.shape)
        ]

    @cached_property
    def coord_mesh(self) -> list[np.ndarray]:
        """Broadcastable (sparse) coordinate meshes."""
        return list(np.meshgrid(*self.coords, indexing="ij", sparse=True))

    @cached_property
    def freq_mesh(self) -> list[np.ndarray]:
        """Broadcastable (sparse) frequency meshes in FFT order."""
        return list(np.meshgrid(*self.freqs, indexing="ij", sparse=True))

    @cached_property
    def row_weights(self) -> np.ndarray:
        return _row_weights(self.weights, self.shape)

    @cached_property
    def half_row_weights(self) -> np.ndarray:
        """row_weights of rfft's layout, where the halved axis weighs 1, 2, ..., 2, 1."""
        weights = list(self.weights)
        for a in self.periodic[-1:]:
            weights[a] = _even_weights(self.full.shape[a])
        return _row_weights(weights, self.half_shape)

    @cached_property
    def octant(self) -> "SpectralGrid":
        """The lattice even along every axis, on which fully mirror-even fields run."""
        return self.sublattice(range(self.dim))

    def sublattice(self, axes: Sequence[int]) -> "SpectralGrid":
        """The lattice of full even along axes and this lattice's even axes (one per set)."""
        even = tuple(sorted(set(self.even).union(axes)))
        lattices = self.full.__dict__.setdefault("_sublattices", {(): self.full})
        if even not in lattices:
            lattices[even] = SpectralGrid(self.dim, self.extents, self.full.shape, even, self.full)
        return lattices[even]

    def lattice_for(self, shape: Sequence[int]) -> "SpectralGrid":
        """The sublattice whose held shape is shape; GridError when there is none."""
        even = [a for a, (m, n) in enumerate(zip(shape, self.full.shape)) if m != n]
        lattice = self.sublattice(even)
        if lattice.shape != tuple(shape):
            raise GridError(f"field shape {tuple(shape)} does not match grid shape {self.shape}")
        return lattice

    def held_product(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The left-to-right product of factors at the held indices, as a new array.

        Each factor broadcasts against the full lattice and spans each of
        its axes whole or at the held indices, and together they span
        every axis.  The leading factors' product stays broadcast, as
        mesh_product's partial products do, and the last multiplication
        fills the held lattice a first-axis row at a time (_by_rows): bit
        for bit mesh_product's lattice at the held indices.
        """
        factors = [f[self.index] for f in factors]
        if len(factors) == 1:
            return factors[0].copy()
        return _by_rows(np.multiply, _accumulate(np.multiply, factors[:-1]), factors[-1])

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The held indices of a lattice of this box's family, as a new contiguous array."""
        return np.ascontiguousarray(values[self.index])

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The full lattice of a field mirror-even along the even axes, from its held values."""
        return _unfold(values, self.full.shape)

    def _check_shape(self, u: np.ndarray) -> None:
        if tuple(u.shape) != self.shape:
            raise GridError(f"field shape {tuple(u.shape)} does not match grid shape {self.shape}")

    @cached_property
    def sign_mesh(self) -> np.ndarray:
        """Centre-shift signs (-1)^(i_1 + ... + i_d) on a periodic lattice."""
        if self.even:
            raise GridError("the sign mesh and continuum transforms need a periodic lattice")
        out = np.ones(self.shape)
        for axis, n in enumerate(self.shape):
            s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            out = out * s.reshape([-1 if a == axis else 1 for a in range(self.dim)])
        return out

    # -- transforms ---------------------------------------------------

    def forward_transform(self, u: np.ndarray) -> np.ndarray:
        """Continuum-normalized forward transform on a periodic frequency lattice.

        Returns u_hat with u_hat[k] ~ integral u(x) exp(-i x.xi_k) dx,
        in FFT order.
        """
        self._check_shape(u)
        return self.cell_volume * (self.sign_mesh * self.fft(u))

    def inverse_transform(self, u_hat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_transform`."""
        self._check_shape(u_hat)
        return self.ifft(u_hat * self.sign_mesh) / self.cell_volume

    # The raw transforms, unnormalized and in FFT order: the DCT-I along
    # the even axes, which scipy.fft runs on the real and imaginary parts
    # of complex data in turn, then the FFT along the periodic ones.  Each
    # equals the full lattice's transform at the held indices.  axis=j
    # transforms along axis j alone; overwrite lets the transform reuse
    # its input.
    def _transform(self, u, axis, overwrite, dct: str, fft: str) -> np.ndarray:
        if axis is None:
            dct_axes, fft_axes = self._kinds
        else:
            dct_axes, fft_axes = ((axis,), ()) if axis in self.even else ((), (axis,))
        if dct_axes != ():
            transform = getattr(_fft, dct)
            u = transform(u, type=1, axes=dct_axes, workers=FFT_WORKERS, overwrite_x=overwrite)
            overwrite = True
        if fft_axes != ():
            transform = getattr(_fft, fft)
            u = transform(u, axes=fft_axes, workers=FFT_WORKERS, overwrite_x=overwrite)
        return u

    def fft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        return self._transform(u, axis, overwrite, "dctn", "fftn")

    def ifft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        return self._transform(u, axis, overwrite, "idctn", "ifftn")

    def rfft(self, u: np.ndarray) -> np.ndarray:
        """The half spectrum of a real lattice, on rfft's layout (half_shape)."""
        return self._transform(u, None, False, "dctn", "rfftn")

    def irfft(self, u_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The real lattice of a half spectrum from rfft.

        Point counts are even, so irfftn's length 2 (m - 1) is the count n.
        """
        return self._transform(u_hat, None, overwrite, "idctn", "irfftn")


def top_band(n: int) -> slice:
    """Indices of the frequencies |k| >= n // 4 of an even n-point axis (FFT order).

    In FFT order they form one contiguous run, k = n // 4 .. n/2 - 1
    followed by -n/2 .. -(n // 4).
    """
    return slice(n // 4, n - n // 4 + 1)


def make_grid(
    dim: int,
    extents: Sequence[float],
    points: Sequence[int],
) -> SpectralGrid:
    """Validate and build a :class:`SpectralGrid`.

    ``extents`` are the box lengths L_j (the box is [-L_j/2, L_j/2)) and
    ``points`` the per-axis point counts, which must be even and at
    least 8 so the top-octave diagnostics are meaningful.
    """
    if dim not in (1, 2, 3):
        raise GridError(f"dim must be 1, 2 or 3, got {dim}")
    extents = tuple(float(L) for L in extents)
    for n in points:
        if not float(n).is_integer():
            raise GridError(f"point counts must be integers, got {n}")
    points = tuple(int(n) for n in points)
    if len(extents) != dim or len(points) != dim:
        raise GridError(
            f"expected {dim} extents and {dim} point counts, "
            f"got {len(extents)} and {len(points)}"
        )
    for L in extents:
        if not (L > 0.0) or not math.isfinite(L):
            raise GridError(f"extents must be positive finite reals, got {L}")
    for n in points:
        if n < 8 or n % 2 != 0:
            raise GridError(f"point counts must be even and >= 8, got {n}")
    # the largest |xi|^2 on the lattice; k*k, because k**2 raises on overflow
    kmax_sq = 0.0
    for L, n in zip(extents, points):
        k = math.pi * n / L
        kmax_sq += k * k
    if not math.isfinite(kmax_sq):
        raise GridError(
            f"extents {extents} are too small for {points} points: "
            "the lattice frequencies overflow"
        )
    return SpectralGrid(dim, extents, points)
