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
def _shells(n: int, N: int):
    """(labels, order, starts, seg): each window point's dyadic shell j,
    2^j <= 1+|k| < 2^{j+1}; the points sorted by shell, in window order
    within one; where each shell's run of ``order`` starts; and the place
    among the shells present of each point of ``order``."""
    labels = np.floor(np.log2(_radial_weights(n, N))).astype(int)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    seg = np.cumsum(np.isin(np.arange(len(order)), starts)) - 1
    return tuple(_frozen(x) for x in (labels, order, starts, seg))


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

    def rows_in(self, other: "LatticeWindow") -> np.ndarray:
        """The index in ``other``, a window of this dimension and at least
        this half-width, of each of this window's points: increasing, since
        both orders are lexicographic."""
        return np.ravel_multi_index((self.points + other.N).T, other.shape)

    def contains(self, k) -> bool:
        k = np.asarray(k, dtype=int)
        return k.shape == (self.n,) and bool(np.all(np.abs(k) <= self.N))

    def interior_mask(self, margin: int) -> np.ndarray:
        """Boolean mask of points at least ``margin`` layers from the boundary."""
        return np.all(np.abs(self.points) <= self.N - margin, axis=1)

    def shell_labels(self) -> np.ndarray:
        """Dyadic shell index j with 2^j <= 1+|k| < 2^{j+1} per point."""
        return _shells(self.n, self.N)[0]

    def shell_sups(self, values: np.ndarray, mask: np.ndarray):
        """Per-shell sup of ``values`` over the points selected by ``mask``.

        Returns the shells present under the mask in increasing order, the
        sup on each and the row where it is attained (the first on ties, a
        NaN as ``np.argmax`` reads it).  One segmented reduction over the
        points sorted by shell (``_shells``) gives every shell's sup.
        """
        labels, order, starts, seg = _shells(self.n, self.N)
        on = np.asarray(mask)[order]
        v = np.where(on, np.asarray(values, dtype=float)[order], -np.inf)
        top = np.maximum.reduceat(v, starts)
        at_top = v == top[seg]
        if np.isnan(top).any():  # np.argmax reads the first NaN as the sup
            at_top |= np.isnan(v)
        present = np.logical_or.reduceat(on, starts)
        # the first point of each present shell at its sup
        hit = np.flatnonzero(at_top & on)
        first = hit[np.searchsorted(seg[hit], np.flatnonzero(present))]
        return list(labels[order[starts[present]]]), v[first].tolist(), order[first].tolist()


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
    """Odd grid M = 2N+3, exact for all kernels from window-supported data.

    ``invft`` reads a grid's window back as N = (M - 3) / 2, so this rule
    stays one-to-one.  The index path, which transforms every row of its
    sections, runs on ``index_grid`` instead: 2N+3 is often a size with a
    large prime factor (515 = 5 * 103 at N = 256), on which a row FFT
    takes two to four times as long."""
    return TorusGrid(window.n, 2 * window.N + 3)


def index_grid(window: LatticeWindow) -> TorusGrid:
    """The smallest odd M >= 2N+3 whose prime factors are all at most 11,
    the grid every window of an index run shares (525 at N = 256, 275 at
    N = 128).  Pocketfft's mixed-radix transforms are fastest on such
    sizes.  M stays odd: on an even grid the x-modes of a symbol that are
    all even alias onto even slots only, and its section falls apart into
    two parity blocks that an odd grid keeps joined."""
    M = 2 * window.N + 3
    while not _smooth(M):
        M += 2
    return TorusGrid(window.n, M)


def _smooth(M: int) -> bool:
    """Whether every prime factor of the odd M is at most 11."""
    for p in (3, 5, 7, 11):
        while M % p == 0:
            M //= p
    return M == 1


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
    array, or on some of the window's rows; column m of C is the flat grid
    index of m mod M.  T_sigma acts as sum_m C[k, m] f(k + m), so its
    section on a resolved window is the gather A[k, l] = C[k, (l - k) mod M];
    for each k the map l -> (l - k) mod M is one to one when M >= 2N+1, so
    scattering the section back inverts the gather.
    """
    arr = np.asarray(values).reshape((-1,) + grid.shape)
    # a given output buffer spares fftn one temporary per axis
    C = np.fft.fftn(arr, axes=tuple(range(1, grid.n + 1)), norm="forward",
                    out=np.empty(arr.shape, dtype=complex))
    return C.reshape(-1, grid.size)


def shift_samples(coeffs: np.ndarray, window: LatticeWindow,
                  grid: TorusGrid) -> np.ndarray:
    """Samples sigma(k, x) = sum_m C[k, m] exp(2 pi i m.x), on all of the
    window's rows or some of them; inverts shift_coefficients."""
    arr = np.asarray(coeffs).reshape((-1,) + grid.shape)
    S = np.fft.ifftn(arr, axes=tuple(range(1, grid.n + 1)), norm="forward",
                     out=np.empty(arr.shape, dtype=complex))
    return S.reshape(-1, grid.size)


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
    return _difference(f, alpha, 1)


def backward_difference(f: LatticeSequence, alpha: MultiIndex) -> DifferenceResult:
    """Iterated backward difference; lower-boundary margin of |alpha| layers."""
    return _difference(f, alpha, -1)


def _difference(f: LatticeSequence, alpha: MultiIndex, step: int) -> DifferenceResult:
    """Forward (``step`` 1) or backward (-1) difference; a point is valid
    when its |alpha| steps stay in the window."""
    if alpha.n != f.window.n:
        raise DimensionMismatchError("multi-index dimension mismatch")
    w = f.window
    vals = f.values
    for j, a in enumerate(alpha):
        e = np.zeros(w.n, dtype=int)
        e[j] = step
        for _ in range(a):
            shifted = _shift_values(LatticeSequence(w, vals), e)
            vals = shifted - vals if step > 0 else vals - shifted
    valid = np.all(np.abs(w.points + step * np.array(tuple(alpha))) <= w.N, axis=1)
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


# -- sequence and torus-sample file formats ---------------------------------

def write_sequence_csv(path, f: LatticeSequence) -> None:
    """CSV with header k1..kn,re,im, one row per window point, lexicographic."""
    _write_rows(path, "k", f.window.points, f.values)


def read_sequence_csv(path) -> LatticeSequence:
    """Read a sequence CSV; rows may arrive in any order.

    The sequence lives on the smallest window covering all listed points
    (unlisted points are zero).  A malformed file raises ParseError.
    """
    n, rows = _read_rows(path, "k", int)
    N = max(1, max((abs(c) for _, k, _ in rows for c in k), default=1))
    window = LatticeWindow(n, N)
    return LatticeSequence(window, _placed(rows, n, window.side, lambda c: c + N))


def write_torus_csv(path, F: TorusFunction) -> None:
    """CSV with header x1..xn,re,im, one row per grid node, lexicographic."""
    _write_rows(path, "x", F.grid.nodes, F.values)


def read_torus_csv(path) -> TorusFunction:
    """Read a torus CSV listing each node of a full M^n grid once, in any
    order; anything else raises ParseError."""
    n, rows = _read_rows(path, "x", float)
    M = round(len(rows) ** (1.0 / n))
    if not rows or M ** n != len(rows):
        raise ParseError(f"torus CSV has {len(rows)} rows, not a full M^n grid")

    def node(c):
        j = round(c * M) if math.isfinite(c) else -1
        if abs(c - j / M) > 1e-9 or not 0 <= j < M:
            raise ParseError(f"coordinate {c} is not a node of the uniform {M}-point grid")
        return j
    return TorusFunction(TorusGrid(n, M), _placed(rows, n, M, node))


def _header(letter: str, n: int) -> list:
    return [f"{letter}{j + 1}" for j in range(n)] + ["re", "im"]


def _write_table(path, header: list, rows) -> None:
    """CSV with one line for the header and one per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_rows(path, letter: str, points: np.ndarray, values: np.ndarray) -> None:
    """CSV with header {letter}1..{letter}n,re,im and one row per point."""
    # tolist gives Python ints and floats, which csv writes as str and repr
    _write_table(path, _header(letter, points.shape[1]),
                 ([*p, repr(float(v.real)), repr(float(v.imag))]
                  for p, v in zip(points.tolist(), values)))


def _read_rows(path, letter: str, coordinate):
    """Dimension n and rows (line, point, value) of a file written by _write_rows;
    ParseError on a bad header or a row that is not n coordinates (read by
    ``coordinate``) and two finite numbers.  Blank lines are skipped."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n = len(header) - 2
        if n < 1 or header != _header(letter, n):
            raise ParseError(f"bad header {header}: need {letter}1..{letter}n,re,im")
        for row in reader:
            if not row:
                continue
            try:
                re, im = row[n:]
                point = tuple(map(coordinate, row[:n]))
                v = complex(float(re), float(im))
            except ValueError:
                raise ParseError(f"line {reader.line_num}: {row} is not {n} coordinates "
                                 "and two numbers") from None
            if not cmath.isfinite(v):
                raise ParseError(f"line {reader.line_num}: point {list(point)} carries "
                                 "a non-finite value")
            rows.append((reader.line_num, point, v))
    return n, rows


def _placed(rows, n: int, side: int, slot) -> np.ndarray:
    """Values of ``rows`` on n axes of length ``side``, flattened
    lexicographically: coordinate c sits at ``slot(c)`` on its axis, and
    points without a row are zero.  A point listed twice raises ParseError."""
    values = np.zeros(side ** n, dtype=complex)
    seen = set()
    for line, point, v in rows:
        idx = 0
        for c in point:
            idx = idx * side + slot(c)
        if idx in seen:
            raise ParseError(f"line {line}: point {list(point)} is listed twice")
        seen.add(idx)
        values[idx] = v
    return values
