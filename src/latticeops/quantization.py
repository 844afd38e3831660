"""Quantization of symbols on truncated l^2(Z^n).

The operator acts by (T_sigma f)(k) = integral of exp(2 pi i k.x)
sigma(k,x) fhat(x) dx; on a window x grid truncation this is exact whenever
the grid resolves the window (M >= 2N+1).  ``apply`` computes it slab by
slab of k_1 rows of sigma's samples (``symbols._slabs``), so it forms no
(P, Q) array, only slabs of about ``symbols._BLOCK`` entries or one k_1
row.  Multiplying the samples by exp(2 pi i k.x) folds the phase in
(``_fold``): the finite section is then
the FFT of each row of the folded samples (``_section``), and one product
with the operator is one matrix-vector product against fhat.  A symbol
that splits exactly as sigma = sum_r a_r(k) b_r(x) (``Symbol._terms``)
needs no samples: a product is R inverse FFTs of b_r fhat, and the
section is sum_r a_r(k) times the shift form of b_r at l - k
(``_factor_section``).  An ``OperatorMatrix`` holds the section, the
folded samples or the factors, and forms the section on first read.
Extraction scatters a section back into the symbol's shift form
(``core.shift_samples``), the exact inverse of assembly.
Composition and adjoints are finite-section constructions, so grid-backed
results carry an interior margin outside which truncation contaminates
the recovered symbol.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    TWO_PI,
    LatticeSequence,
    LatticeWindow,
    TorusGrid,
    forward_dft,
    shift_coefficients,
    shift_samples,
    _check_resolution,
    _dft_matrix,
    _frozen,
    _grid_slots,
    _shift_index,
    _window_axis,
)
from .errors import DimensionMismatchError
from .symbols import NON_FINITE_SAMPLES, DualToroidalSymbol, GridSymbol, Symbol, _slabs

_AXES = "abcdefghijklmnopqrstuvwxyz"  # einsum subscripts: k axes, then x axes
_FOLD_BLOCK = 1 << 16  # phase-table entries ``_fold`` forms at a time


def interior_margin(window: LatticeWindow) -> int:
    """Default layer count treated as truncation-contaminated: N/4, min 1."""
    return max(1, window.N // 4)


class OperatorMatrix:
    """T_sigma on a window, held in one of three forms: its dense finite
    section ``entries``; sigma's samples folded in place,
    W = sigma exp(2 pi i k.x); or sigma's separated factors, sigma = a @ b
    with a (P, R) in k and b (R, Q) in x.

    ``from_symbol`` picks the form: the factors when sigma splits
    (``Symbol._terms``), else the folded samples.  A product ``A @ v`` on
    the folded form is one size-Q transform and one matrix-vector product;
    on the factors it is one forward transform of v, R inverse transforms
    of size Q and R multiply-adds of length P.  The section is formed on
    first read of ``entries`` and replaces the form held before it, so
    later products use the section.
    """

    def __init__(self, window: LatticeWindow, grid: TorusGrid, entries: np.ndarray):
        self.window, self.grid = window, grid
        self.entries = entries

    @classmethod
    def _held(cls, window, grid, folded, factors) -> "OperatorMatrix":
        A = cls.__new__(cls)
        A.window, A.grid = window, grid
        A._entries, A._folded, A._factors = None, folded, factors
        return A

    @classmethod
    def from_samples(cls, samples: np.ndarray, window: LatticeWindow,
                     grid: TorusGrid) -> "OperatorMatrix":
        """The operator of sigma's (window.size, grid.size) samples, folded in place."""
        return cls._held(window, grid, _fold(samples, window, grid), None)

    @classmethod
    def from_factors(cls, a: np.ndarray, b: np.ndarray, window: LatticeWindow,
                     grid: TorusGrid) -> "OperatorMatrix":
        """The operator of sigma = a @ b, a (window.size, R) and b (R, grid.size)."""
        return cls._held(window, grid, None, (a, b))

    @classmethod
    def from_symbol(cls, sigma: Symbol, window: LatticeWindow,
                    grid: TorusGrid) -> "OperatorMatrix":
        """T_sigma from sigma's separated factors, or from its folded samples
        when sigma does not split."""
        terms = sigma._terms(window, grid)
        if terms is None:
            return cls.from_samples(sigma.sample(window, grid), window, grid)
        return cls.from_factors(*terms, window, grid)

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            if self._factors is None:
                self.entries = _section(self._folded, self.window, self.grid)
            else:
                self.entries = _factor_section(*self._factors, self.window, self.grid)
        return self._entries

    @entries.setter
    def entries(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=complex)
        P = self.window.size
        if value.shape != (P, P):
            raise DimensionMismatchError(f"entries shape {value.shape}, window size {P}")
        if not np.all(np.isfinite(value)):
            raise ValueError("operator matrix carries non-finite entries")
        self._entries, self._folded, self._factors = value, None, None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self._entries is not None:
            return self._entries @ v
        window, grid = self.window, self.grid
        vhat = forward_dft(LatticeSequence(window, v), grid).values
        if self._factors is None:
            return grid.weight * (self._folded @ vhat)
        # sum_r a_r(k) M^-n sum_x exp(2 pi i k.x) b_r(x) vhat(x): the
        # inverse FFT of each b_r vhat, read at the grid slot of k
        a, b = self._factors
        U = np.fft.ifftn((b * vhat).reshape((-1,) + grid.shape), axes=tuple(range(1, grid.n + 1)))
        U = U.reshape(len(b), grid.size)[:, _grid_slots(window.n, window.N, grid.M)]
        return np.einsum("kr,rk->k", a, U)

    def matvec(self, f: LatticeSequence) -> LatticeSequence:
        return LatticeSequence(self.window, self @ f.values)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.window, self.grid, self.entries.conj().T)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.entries, compute_uv=False)


def apply(sigma: Symbol, f: LatticeSequence, grid: TorusGrid) -> LatticeSequence:
    """Quantized action: transform, multiply by sigma(k,.), invert with phase.

    The sum over x of exp(2 pi i k.x) sigma(k,x) fhat(x) runs one axis at a
    time against the (2N+1, M) phase table, innermost axis first.  sigma
    comes on its per-axis form (``Symbol._sample_axes``), and an empty slab
    of it shows the axes it reads.  fhat is first summed, once, over the x
    axes sigma does not vary on.  Then, slab by slab of k_1 rows
    (``symbols._slabs``, about ``symbols._BLOCK`` entries of the product
    each), sigma's slab is multiplied into fhat and the remaining x axes
    are summed, x_1 against the slab's rows of the phase table, into the
    slab's output rows.  A product that carries no k_1 axis is one slab.
    So no (P, Q) array is formed: an x-independent symbol multiplies only
    window-sized arrays, and one that varies on every axis holds one slab.
    Refuses non-finite f or samples with ValueError; a NaN or infinite
    sample always leaves its output row non-finite, so checking the output
    is exact.
    """
    window = f.window
    _check_resolution(window, grid)
    if not np.all(np.isfinite(f.values)):
        raise ValueError("sequence carries non-finite values")
    n, zero = window.n, np.zeros(window.n, dtype=int)
    T = forward_dft(f, grid).values.reshape((1,) * n + grid.shape)
    reads = sigma._sample_axes(window, grid, zero, slice(0)).shape  # 0 on k_1 if read
    E = _phases(window.N, grid.M)
    for j in reversed(range(n)):
        if reads[n + j] == 1:
            T = _sum_axis(T, E, j)
    row_size = math.prod(np.broadcast_shapes(reads[1:], T.shape[1:]))
    # a product that carries no k_1 axis is the same in every k_1 row
    slabs = _slabs(window.side, row_size) if reads[0] == 0 or T.shape[0] > 1 else [slice(None)]
    out = np.empty(window.shape, dtype=complex)
    with np.errstate(all="ignore"):  # non-finite samples are refused below
        for rows in slabs:
            S = sigma._sample_axes(window, grid, zero, rows)
            Tr = T[rows] if T.shape[0] > 1 else T  # T is shared by every slab
            if S.shape == np.broadcast_shapes(S.shape, Tr.shape):
                S *= Tr
            else:
                S = S * Tr
            for j in reversed(range(n)):
                if S.shape[n + j] > 1:
                    S = _sum_axis(S, E[rows] if j == 0 else E, j)
            out[rows] = S.reshape(S.shape[:n])
        out = grid.weight * out.reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError(NON_FINITE_SAMPLES)
    return LatticeSequence(window, out)


def _sum_axis(T: np.ndarray, E: np.ndarray, j: int) -> np.ndarray:
    """Sum the 2n-axis array T against the phase table E over x axis j.

    The result runs along k axis j and has length 1 on x axis j; the
    einsum names only the axes of length above 1.
    """
    n = T.ndim // 2
    axes = [a for a in range(2 * n) if T.shape[a] > 1]
    kept = sorted(set(axes) - {n + j} | {j})
    spec = "{},{}{}->{}".format("".join(_AXES[a] for a in axes), _AXES[j], _AXES[n + j],
                               "".join(_AXES[a] for a in kept))
    shape = list(T.shape)
    shape[j], shape[n + j] = E.shape[0], 1
    return np.einsum(spec, T.reshape([T.shape[a] for a in axes]), E).reshape(shape)


@lru_cache(maxsize=64)
def _phase_index(N: int, M: int) -> np.ndarray:
    """(2N+1, M) integer phase (k_j j) mod M for k_j = -N..N and j = 0..M-1.

    Held in the smallest unsigned type that fits M - 1 (two bytes per entry
    up to M = 65536), so a cached table stays an eighth of the size of a
    (P, Q) array at n=1.  Reducing k_j first keeps the products
    nonnegative, where numpy's remainder is about three times faster.
    """
    phase = np.outer(_window_axis(N) % M, np.arange(M))
    phase %= M
    return _frozen(phase.astype(np.min_scalar_type(M - 1)))


def _phases(N: int, M: int, rows: slice = slice(None)) -> np.ndarray:
    """exp(2 pi i k_j x_j) for the k_j = -N..N in ``rows`` and x_j = j/M, j = 0..M-1.

    The phase is read from the table of M-th roots of unity at the integer
    phase reduced mod M (``_phase_index``), so its argument stays below 2 pi.
    """
    roots = np.exp(1j * TWO_PI / M * np.arange(M))
    return roots[_phase_index(N, M)[rows]]


def _fold(values: np.ndarray, window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
    """The folded samples W[k, x] = sigma(k, x) exp(2 pi i k.x), in place.

    ``values`` holds sigma on window x grid as a (window.size, grid.size)
    array; the phase is multiplied in one axis at a time, at most about
    ``_FOLD_BLOCK`` phase entries at once, so at n=1, where one axis's
    table is as large as the samples, no second (P, Q) array is formed.
    """
    n, M = window.n, grid.M
    W = values.reshape(window.shape + grid.shape)
    rows = max(1, _FOLD_BLOCK // M)
    for j in range(n):
        shape = [1] * (2 * n)
        index = [slice(None)] * (2 * n)
        for start in range(0, window.side, rows):
            E = _phases(window.N, M, slice(start, start + rows))
            shape[j], shape[n + j] = E.shape
            index[j] = slice(start, start + rows)
            W[tuple(index)] *= E.reshape(shape)
    return W.reshape(window.size, grid.size)


def _section(W: np.ndarray, window: LatticeWindow, grid: TorusGrid) -> np.ndarray:
    """The finite section A[k, l] = M^-n sum_x exp(-2 pi i l.x) W[k, x] of folded samples W.

    That is the shift form of W (the forward FFT of each row) read at the
    grid slot of l.
    """
    # take, unlike C[:, slots], returns the section in C order, as the
    # products and extractions downstream expect
    return np.take(shift_coefficients(W, window, grid),
                   _grid_slots(window.n, window.N, grid.M), axis=1)


def _factor_section(a: np.ndarray, b: np.ndarray, window: LatticeWindow,
                    grid: TorusGrid) -> np.ndarray:
    """The finite section A[k, l] = sum_r a_r(k) C_r[(l - k) mod M] of sigma = a @ b,
    C_r the shift form of b_r.

    Each term is a multilevel Toeplitz matrix: row k reads C_r at the
    differences l - k in [-2N, 2N]^n, a sliding window over one (4N+1)^n
    table, so the section is R strided passes over P x P entries and no
    transform of size Q per row.
    """
    n, N, P = window.n, window.N, window.size
    C = np.fft.fftn(b.reshape((-1,) + grid.shape), axes=tuple(range(1, n + 1)), norm="forward")
    d = np.arange(-2 * N, 2 * N + 1) % grid.M
    out = np.empty(window.shape * 2, dtype=complex)
    for r in range(a.shape[1]):
        # [k, l] of the reversed window view is table[2N - (k + N) + (l + N)], at l - k
        view = sliding_window_view(C[r][np.ix_(*[d] * n)], window.shape)[(slice(None, None, -1),) * n]
        ar = a[:, r].reshape(window.shape + (1,) * n)
        if r == 0:
            np.multiply(view, ar, out=out)
        else:
            out += view * ar
    return out.reshape(P, P)


def assemble_matrix(sigma: Symbol, window: LatticeWindow, grid: TorusGrid) -> OperatorMatrix:
    """entries(k,l) = quadrature of exp(2 pi i (k-l).x) sigma(k,x), from
    sigma's separated factors or its folded samples (``OperatorMatrix.from_symbol``),
    with the section formed."""
    _check_resolution(window, grid)
    with np.errstate(all="ignore"):  # OperatorMatrix refuses non-finite entries
        A = OperatorMatrix.from_symbol(sigma, window, grid)
        A.entries  # formed now, so non-finite samples are refused at the call
    return A


def assemble_toroidal_matrix(tau: DualToroidalSymbol, window: LatticeWindow,
                             grid: TorusGrid) -> np.ndarray:
    """Grid-side section C(x,y) = M^-n sum_k exp(2 pi i (x-y).k) tau(x,k)."""
    _check_resolution(window, grid)
    T = tau.sample_toroidal(window, grid)          # (Q, P)
    E = _dft_matrix(window.n, window.N, grid.M)    # (Q, P): exp(-2 pi i k.x)
    return grid.weight * ((E.conj() * T) @ E.T)


def extract_symbol(A: OperatorMatrix, order: float = None) -> GridSymbol:
    """Recover the grid-backed symbol sigma(k,x) = exp(-2 pi i k.x) (A e_x)(k).

    Scatters A[k, l] into the shift form at C[k, (l-k) mod M] and
    synthesizes it on the grid: the exact inverse of assemble_matrix.
    """
    window, grid = A.window, A.grid
    _check_resolution(window, grid)
    C = np.zeros(window.shape + grid.shape, dtype=complex)
    C[_shift_index(window.n, window.N, grid.M)] = A.entries.reshape(window.shape * 2)
    values = shift_samples(C, window, grid)
    return GridSymbol(window, grid, values, order=order, interior_margin=interior_margin(window))


def compose(sigma: Symbol, tau: Symbol, window: LatticeWindow,
            grid: TorusGrid) -> GridSymbol:
    """Finite-section product symbol of T_sigma T_tau (orders add)."""
    A = assemble_matrix(sigma, window, grid)
    Bm = assemble_matrix(tau, window, grid)
    order = None
    if sigma.order is not None and tau.order is not None:
        order = sigma.order + tau.order
    prod = OperatorMatrix(window, grid, A.entries @ Bm.entries)
    return extract_symbol(prod, order=order)


def adjoint_symbol(sigma: Symbol, window: LatticeWindow,
                   grid: TorusGrid) -> GridSymbol:
    """Symbol of the formal adjoint via the conjugate-transposed section."""
    A = assemble_matrix(sigma, window, grid)
    return extract_symbol(A.adjoint(), order=sigma.order)

