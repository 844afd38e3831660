"""Finite truncations of Z^n and T^n with the exact Fourier calculus on them.

A :class:`LatticeWindow` is the cube of integer points with ``|k_j| <= N``;
a :class:`TorusGrid` is the uniform grid ``x = j/M`` on the torus.  The
transforms are zero-padded FFTs of the exact finite sums, which are exact
for data supported in the window whenever ``M >= 2N+1``, so quadrature
error never enters tests.  :func:`shift_coefficients` writes a symbol's
samples in shift form, the coefficients of the lattice shifts its operator
is made of; its finite sections are gathers from them.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AliasingError, DimensionMismatchError, ParseError

TWO_PI = 2.0 * math.pi


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller receives the same object."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def _window_axis(N: int) -> np.ndarray:
    return _frozen(np.arange(-N, N + 1))


@lru_cache(maxsize=64)
def _window_points(n: int, N: int) -> np.ndarray:
    grids = np.meshgrid(*[_window_axis(N)] * n, indexing="ij")
    return _frozen(np.stack([g.ravel() for g in grids], axis=-1))


@lru_cache(maxsize=64)
def _radial_weights(n: int, N: int) -> np.ndarray:
    return _frozen(1.0 + np.linalg.norm(_window_points(n, N), axis=1))


@lru_cache(maxsize=64)
def _grid_axis(M: int) -> np.ndarray:
    return _frozen(np.arange(M) / M)


@lru_cache(maxsize=64)
def _grid_nodes(n: int, M: int) -> np.ndarray:
    grids = np.meshgrid(*[_grid_axis(M)] * n, indexing="ij")
    return _frozen(np.stack([g.ravel() for g in grids], axis=-1))


@dataclass(frozen=True)
class LatticeWindow:
    """Cube ``{k in Z^n : |k_j| <= N}`` in lexicographic order."""

    n: int
    N: int

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("dimension and half-width must be positive")

    @property
    def side(self) -> int:
        return 2 * self.N + 1

    @property
    def size(self) -> int:
        return self.side ** self.n

    @property
    def shape(self) -> tuple:
        """Axis lengths of the window as an n-dimensional array."""
        return (self.side,) * self.n

    @property
    def points(self) -> np.ndarray:
        """(size, n) integer array, lexicographic in k."""
        return _window_points(self.n, self.N)

    @property
    def axis(self) -> np.ndarray:
        """(side,) integer array -N..N, the values each coordinate takes."""
        return _window_axis(self.N)

    @property
    def radial_weight(self) -> np.ndarray:
        """(size,) array 1 + |k|, the weight of the symbol-class estimates."""
        return _radial_weights(self.n, self.N)

    def index_of(self, k) -> int:
        k = np.asarray(k, dtype=int)
        if k.shape != (self.n,):
            raise DimensionMismatchError(f"point of dimension {k.shape} on window of dimension {self.n}")
        if np.any(np.abs(k) > self.N):
            raise IndexError(f"point {k.tolist()} outside window N={self.N}")
        idx = 0
        for j in range(self.n):
            idx = idx * self.side + (int(k[j]) + self.N)
        return idx

    def contains(self, k) -> bool:
        k = np.asarray(k, dtype=int)
        return k.shape == (self.n,) and bool(np.all(np.abs(k) <= self.N))

    def interior_mask(self, margin: int) -> np.ndarray:
        """Boolean mask of points at least ``margin`` layers from the boundary."""
        return np.all(np.abs(self.points) <= self.N - margin, axis=1)

    def shell_labels(self) -> np.ndarray:
        """Dyadic shell index j with 2^j <= 1+|k| < 2^{j+1} per point."""
        return np.floor(np.log2(self.radial_weight)).astype(int)

    def shell_sups(self, values: np.ndarray, mask: np.ndarray):
        """Per-shell sup of ``values`` over the points selected by ``mask``.

        Returns the shells present under the mask in increasing order, the
        sup on each and the row where it is attained (the first on ties).
        """
        labels = self.shell_labels()
        shells = sorted(set(labels[mask]))
        sups, rows = [], []
        for j in shells:
            idx = np.flatnonzero((labels == j) & mask)
            best = int(idx[np.argmax(values[idx])])
            sups.append(float(values[best]))
            rows.append(best)
        return shells, sups, rows


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid ``x = j/M`` on the n-torus; quadrature weight M^-n."""

    n: int
    M: int

    def __post_init__(self):
        if self.n < 1 or self.M < 1:
            raise ValueError("dimension and grid size must be positive")

    @property
    def size(self) -> int:
        return self.M ** self.n

    @property
    def shape(self) -> tuple:
        """Axis lengths of the grid as an n-dimensional array."""
        return (self.M,) * self.n

    @property
    def nodes(self) -> np.ndarray:
        """(size, n) array of nodes in [0,1)^n, lexicographic in j."""
        return _grid_nodes(self.n, self.M)

    @property
    def axis(self) -> np.ndarray:
        """(M,) array of the values j/M each coordinate takes."""
        return _grid_axis(self.M)

    @property
    def weight(self) -> float:
        return self.M ** (-self.n)


def default_grid(window: LatticeWindow) -> TorusGrid:
    """Odd grid M = 2N+3, exact for all kernels from window-supported data."""
    return TorusGrid(window.n, 2 * window.N + 3)


def _check_resolution(window: LatticeWindow, grid: TorusGrid) -> None:
    """Refuse a grid of another dimension or one too coarse for the window."""
    if window.n != grid.n:
        raise DimensionMismatchError(f"window dimension {window.n} != grid dimension {grid.n}")
    if grid.M < 2 * window.N + 1:
        raise AliasingError(
            f"grid M={grid.M} cannot resolve window N={window.N} (need M >= {2 * window.N + 1})")


@dataclass
class LatticeSequence:
    """Complex values on a window, extended by zero outside it."""

    window: LatticeWindow
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.shape[0] != self.window.size:
            raise DimensionMismatchError(
                f"{self.values.shape[0]} values on a window of {self.window.size} points"
            )

    @classmethod
    def zeros(cls, window: LatticeWindow) -> "LatticeSequence":
        return cls(window, np.zeros(window.size, dtype=complex))

    @classmethod
    def delta(cls, window: LatticeWindow, k=None) -> "LatticeSequence":
        f = cls.zeros(window)
        if k is None:
            k = np.zeros(window.n, dtype=int)
        f.values[window.index_of(k)] = 1.0
        return f

    @classmethod
    def random(cls, window: LatticeWindow, rng: np.random.Generator,
               margin: int = 0) -> "LatticeSequence":
        """Seeded complex Gaussian data, optionally zero within ``margin`` of the boundary."""
        v = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
        if margin > 0:
            v = np.where(window.interior_mask(margin), v, 0.0)
        return cls(window, v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __getitem__(self, k) -> complex:
        return complex(self.values[self.window.index_of(k)])


@dataclass
class TorusFunction:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.shape[0] != self.grid.size:
            raise DimensionMismatchError(
                f"{self.values.shape[0]} values on a grid of {self.grid.size} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("torus function carries non-finite values")


@dataclass(frozen=True)
class MultiIndex:
    entries: tuple

    def __init__(self, entries):
        entries = tuple(int(e) for e in np.atleast_1d(entries))
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def multiindex_range(n: int, max_order: int):
    """All alpha in N0^n with |alpha| <= max_order, lexicographic."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(MultiIndex(prefix))
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a)

    rec([], max_order)
    return out


def binomial_multi(alpha: MultiIndex, beta: MultiIndex) -> int:
    return int(np.prod([math.comb(a, b) for a, b in zip(alpha, beta)]))


def multiindices_leq(alpha: MultiIndex):
    """All beta <= alpha componentwise."""
    axes = [range(a + 1) for a in alpha]
    grids = np.meshgrid(*[list(ax) for ax in axes], indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=-1)
    return [MultiIndex(c) for c in combos]


# -- transform kernels -------------------------------------------------------

@lru_cache(maxsize=32)
def _dft_matrix(n: int, N: int, M: int) -> np.ndarray:
    """(grid.size, window.size) matrix E with E[x,k] = exp(-2 pi i k.x)."""
    K = _window_points(n, N).astype(float)
    X = _grid_nodes(n, M)
    return _frozen(np.exp(-1j * TWO_PI * (X @ K.T)))


def phase_matrix(window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
    """(window.size, grid.size) matrix with entries exp(+2 pi i k.x)."""
    return _dft_matrix(window.n, window.N, grid.M).conj().T


@lru_cache(maxsize=64)
def _grid_slots(n: int, N: int, M: int) -> np.ndarray:
    """(window.size,) flat grid index of k mod M for each window point k."""
    return _frozen(np.ravel_multi_index((_window_points(n, N) % M).T, (M,) * n))


def forward_dft(f: LatticeSequence, grid: TorusGrid) -> TorusFunction:
    """Sampled transform F(x) = sum_k exp(-2 pi i k.x) f(k) over the window.

    Each f(k) is added into slot k mod M of an M^n array whose FFT is F; on
    a grid with M < 2N+1 the points that share a slot alias into one sum.
    """
    if grid.n != f.window.n:
        raise DimensionMismatchError(f"grid dimension {grid.n} != window dimension {f.window.n}")
    buf = np.zeros(grid.size, dtype=complex)
    np.add.at(buf, _grid_slots(f.window.n, f.window.N, grid.M), f.values)
    return TorusFunction(grid, np.fft.fftn(buf.reshape(grid.shape)).reshape(-1))


def inverse_dft(F: TorusFunction, window: LatticeWindow) -> LatticeSequence:
    """f(k) = M^-n sum_x exp(+2 pi i k.x) F(x); refuses aliasing grids."""
    _check_resolution(window, F.grid)
    f = np.fft.ifftn(F.values.reshape(F.grid.shape)).reshape(-1)
    return LatticeSequence(window, f[_grid_slots(window.n, window.N, F.grid.M)])


def shift_coefficients(values: np.ndarray, window: LatticeWindow,
                       grid: TorusGrid) -> np.ndarray:
    """Shift form C[k, m] = M^-n sum_x exp(-2 pi i m.x) sigma(k, x) of samples.

    ``values`` holds sigma on window x grid as a (window.size, grid.size)
    array; column m of C is the flat grid index of m mod M.  T_sigma acts as
    sum_m C[k, m] f(k + m), so its section on a resolved window is the
    gather A[k, l] = C[k, (l - k) mod M] through :func:`_shift_index`.
    """
    arr = np.asarray(values).reshape((window.size,) + grid.shape)
    # a given output buffer spares fftn one temporary per axis
    C = np.fft.fftn(arr, axes=tuple(range(1, grid.n + 1)), norm="forward",
                    out=np.empty(arr.shape, dtype=complex))
    return C.reshape(window.size, grid.size)


def shift_samples(coeffs: np.ndarray, window: LatticeWindow,
                  grid: TorusGrid) -> np.ndarray:
    """Samples sigma(k, x) = sum_m C[k, m] exp(2 pi i m.x); inverts shift_coefficients."""
    arr = np.asarray(coeffs).reshape((window.size,) + grid.shape)
    S = np.fft.ifftn(arr, axes=tuple(range(1, grid.n + 1)), norm="forward",
                     out=np.empty(arr.shape, dtype=complex))
    return S.reshape(window.size, grid.size)


@lru_cache(maxsize=64)
def _shift_index(n: int, N: int, M: int) -> tuple:
    """Index of the finite section in the shift form, axis by axis.

    Applied to C viewed as ``window.shape + grid.shape``, it gives the
    (2N+1,) * 2n array C[k, (l - k) mod M] at [k, l].  For each k the map
    l -> (l - k) mod M is one to one when M >= 2N+1, so scattering through
    the same index inverts the gather.
    """
    ks = _frozen(np.arange(2 * N + 1))
    diff = _frozen((ks[None, :] - ks[:, None]) % M)
    rows, cols = [], []
    for j in range(n):
        shape = [1] * (2 * n)
        shape[j] = ks.size
        rows.append(ks.reshape(shape))
        shape[n + j] = ks.size
        cols.append(diff.reshape(shape))
    return tuple(rows + cols)


def torus_quadrature(F: TorusFunction) -> complex:
    """Exact mean M^-n sum_x F(x); the integral for resolved trig polynomials."""
    return complex(F.grid.weight * np.sum(F.values))


# -- difference calculus -----------------------------------------------------

def _shift_values(f: LatticeSequence, shift) -> np.ndarray:
    """Values of k -> f(k + shift) on the window, zero beyond it."""
    w = f.window
    arr = f.values.reshape((w.side,) * w.n)
    out = np.zeros_like(arr)
    src = []
    dst = []
    for s in shift:
        s = int(s)
        if abs(s) >= w.side:
            return out.reshape(-1)
        if s >= 0:
            src.append(slice(s, w.side))
            dst.append(slice(0, w.side - s))
        else:
            src.append(slice(0, w.side + s))
            dst.append(slice(-s, w.side))
    out[tuple(dst)] = arr[tuple(src)]
    return out.reshape(-1)


@dataclass
class DifferenceResult:
    """Difference of a window-truncated sequence plus its validity margin.

    Points within ``margin`` layers of the affected boundary used the
    zero extension and are flagged in ``valid_mask``.
    """

    sequence: LatticeSequence
    margin: int
    valid_mask: np.ndarray = field(repr=False, default=None)


def forward_difference(f: LatticeSequence, alpha: MultiIndex) -> DifferenceResult:
    """Iterated forward difference; upper-boundary margin of |alpha| layers."""
    if alpha.n != f.window.n:
        raise DimensionMismatchError("multi-index dimension mismatch")
    vals = f.values
    w = f.window
    for j, a in enumerate(alpha):
        e = np.zeros(w.n, dtype=int)
        e[j] = 1
        g = LatticeSequence(w, vals)
        for _ in range(a):
            vals = _shift_values(g, e) - g.values
            g = LatticeSequence(w, vals)
    m = alpha.order
    pts = w.points
    valid = np.all(pts + np.array(tuple(alpha)) <= w.N, axis=1)
    return DifferenceResult(LatticeSequence(w, vals), m, valid)


def backward_difference(f: LatticeSequence, alpha: MultiIndex) -> DifferenceResult:
    """Iterated backward difference; lower-boundary margin of |alpha| layers."""
    if alpha.n != f.window.n:
        raise DimensionMismatchError("multi-index dimension mismatch")
    vals = f.values
    w = f.window
    for j, a in enumerate(alpha):
        e = np.zeros(w.n, dtype=int)
        e[j] = 1
        g = LatticeSequence(w, vals)
        for _ in range(a):
            vals = g.values - _shift_values(g, -e)
            g = LatticeSequence(w, vals)
    pts = w.points
    valid = np.all(pts - np.array(tuple(alpha)) >= -w.N, axis=1)
    return DifferenceResult(LatticeSequence(w, vals), alpha.order, valid)


def forward_difference_closed_form(f: LatticeSequence, alpha: MultiIndex) -> DifferenceResult:
    """Same operator through the alternating binomial sum over beta <= alpha."""
    if alpha.n != f.window.n:
        raise DimensionMismatchError("multi-index dimension mismatch")
    w = f.window
    acc = np.zeros(w.size, dtype=complex)
    for beta in multiindices_leq(alpha):
        sign = (-1) ** (alpha.order - beta.order)
        acc += sign * binomial_multi(alpha, beta) * _shift_values(f, tuple(beta))
    pts = w.points
    valid = np.all(pts + np.array(tuple(alpha)) <= w.N, axis=1)
    return DifferenceResult(LatticeSequence(w, acc), alpha.order, valid)


# -- sequence file format ----------------------------------------------------

def write_sequence_csv(path, f: LatticeSequence) -> None:
    """CSV with header k1..kn,re,im, one row per window point, lexicographic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k{j + 1}" for j in range(f.window.n)] + ["re", "im"])
        for k, v in zip(f.window.points, f.values):
            writer.writerow([*map(int, k), repr(float(v.real)), repr(float(v.imag))])


def read_sequence_csv(path, window: LatticeWindow = None) -> LatticeSequence:
    """Read a sequence CSV; rows may arrive in any order.

    Without an explicit window, the smallest window covering all listed
    points is used (unlisted points are zero).  A bad header, a malformed
    row, a non-finite value or a point listed twice raises ParseError.
    """
    values = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n = len(header) - 2
        if n < 1 or header != [f"k{j + 1}" for j in range(n)] + ["re", "im"]:
            raise ParseError(f"bad sequence header: {header}")
        for row in reader:
            if not row:
                continue
            try:
                re, im = row[n:]
                k = tuple(int(c) for c in row[:n])
                v = complex(float(re), float(im))
            except ValueError:
                raise ParseError(f"line {reader.line_num}: {row} is not {n} integers "
                                 "and two numbers") from None
            if not cmath.isfinite(v):
                raise ParseError(f"line {reader.line_num}: point {list(k)} carries "
                                 "a non-finite value")
            if k in values:
                raise ParseError(f"line {reader.line_num}: point {list(k)} is listed twice")
            values[k] = v
    if window is None:
        N = max(1, max((max(abs(c) for c in k) for k in values), default=1))
        window = LatticeWindow(n, N)
    elif window.n != n:
        raise DimensionMismatchError(f"file dimension {n} != window dimension {window.n}")
    f = LatticeSequence.zeros(window)
    for k, v in values.items():
        f.values[window.index_of(k)] = v
    return f
