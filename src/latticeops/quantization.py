"""Quantization of symbols on truncated l^2(Z^n).

The operator acts by (T_sigma f)(k) = integral of exp(2 pi i k.x)
sigma(k,x) fhat(x) dx; on a window x grid truncation this is exact whenever
the grid resolves the window (M >= 2N+1).  ``apply`` computes it slab by
slab of k_1 rows of sigma's samples (``symbols._slabs``), so it forms no
(P, Q) array, only slabs of about ``symbols._BLOCK`` entries or one k_1
row.  The finite section is the gather A[k, l] = C_k[(l - k) mod M] of
the shift coefficients C_k of sigma(k, .).  A symbol that splits exactly
as sigma = sum_r a_r(k) b_r(x) (``Symbol._terms``) needs no samples: a
product is R inverse FFTs of b_r fhat, and C_k = sum_r a_r(k) C_r, C_r
the shift form of b_r.  Any other symbol streams its slabs of samples,
each row transformed once, into the section's rows (``_sampled``); a
parametrix reads each distinct row of tau0 the same way, transformed on
the smallest grid a bound proves enough (``_row_grids``,
``_profile_rows``).  An
``OperatorMatrix`` holds the dense section, the factors or the section
in compressed sparse rows (``SparseRows``), and each of its constructors
refuses a grid that cannot resolve the window.  Each section has one set
of numbers: each row's entries at or above ``_ROUNDOFF`` of its largest,
gathered with no P x P array into the sparse form, or into the dense
section when too full for it (``_assembled``, ``_MAX_FILL``), whose
``entries`` scatter the sparse form bit for bit.  Two sparse forms
multiply in work of the terms they expand, about P m^2 for m entries per
row, instead of P^3 (``OperatorMatrix.product``).  The rows and columns
of a sparse form fall into independent blocks (``_components``), and a
section of several blocks has the union of their singular values
(``_spectrum``): a block of one row or one column its norm, in closed
form, the others one stacked SVD per block size; a section of one block
has those of its P x P SVD.  Extraction scatters a section, or only the
kept entries of a sparse one, back into the symbol's shift form and
synthesizes it (``core.shift_samples``), the exact inverse of assembly.
Composition and adjoints are finite-section constructions, so grid-backed
results carry an interior margin outside which truncation contaminates
the recovered symbol.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

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
    _window_axis,
)
from .errors import DimensionMismatchError
from .symbols import _BLOCK, NON_FINITE_SAMPLES, GridSymbol, Symbol, _blocks, _slabs

NON_FINITE_ENTRIES = "operator matrix carries non-finite entries"
_AXES = "abcdefghijklmnopqrstuvwxyz"  # einsum subscripts: k axes, then x axes


def interior_margin(window: LatticeWindow) -> int:
    """Default layer count treated as truncation-contaminated: N/4, min 1."""
    return max(1, window.N // 4)


# An entry below this fraction of its row's scale is dropped from the
# sparse form: the scale is the row's largest entry for a section built
# from a held form, and the largest term its sums add for a product
# (``_product_blocks``).  Each row comes from a length-Q FFT, a shorter
# one on a grid of the row's own (``_row_grids``), or a sum of such terms,
# which leaves absolute errors of a few eps (2.2e-16) times that scale,
# so such an entry is inside the roundoff of the dense section it stands
# for.  A row of tau0 takes a grid of d < M nodes only when its modes off
# that grid are proven below this fraction of its peak, and the modes the
# grid folds onto the ones it reads below ``_ALIASING``.  The rule is per
# row, not global: the rows of B0 for an order-2 symbol shrink like
# |k|^-2, and a cut against the whole section's largest entry would cut
# the outer ones a thousand times coarser than their own roundoff at n=2
# N=24.  On the index pool at n=1 N=256 it leaves B0 of perturbed_bessel
# 4.4 entries per row (4.8 at eps itself).  B0 of each jump symbol holds exactly 1 on every grid by
# construction: it comes from the exact factors of tau0, each row one
# multiple of one x-mode's shift form, not from sampled rows.
_ROUNDOFF = 1e-15

# On the grid ``_row_grids`` gives a row of tau0, the modes its nodes fold
# onto each coefficient it reads add at most this fraction of the row's
# peak: a tenth of ``_ROUNDOFF``, below the roundoff its transform leaves.
_ALIASING = _ROUNDOFF / 10

# The sparse form is kept while a section holds at most this fraction of
# its row length per row on average, or at most one entry per row
# (``_too_full``); above both the section is held dense.
# Two sections of m entries per row give P m^2 candidate product terms
# against the P^3 multiply-adds of the dense product.  On expr-order0 at
# n=2 N=24 (P=2401, 2 cores, numpy 2.4, OpenBLAS) the sparse B0 (I - A B)
# product, 6.0e6 candidate terms of which the roundoff floor expands a
# third, took about 0.12 s, some 20 ns per candidate term, while zgemm took
# 1.8 s for the P^3 = 1.4e10 multiply-adds, 0.13 ns each: about 150
# multiply-adds per term, so the sparse product is the faster one while
# m < P / sqrt(150), about P / 12.
_MAX_FILL = 1 / 12


class SparseRows(NamedTuple):
    """A P x P section in compressed sparse rows: row k holds the entries
    ``data[indptr[k]:indptr[k + 1]]`` at the columns ``indices[...]``, in
    no set order within the row and each column at most once."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def counts(self) -> np.ndarray:
        """The number of entries of each row."""
        return self.indptr[1:] - self.indptr[:-1]

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), self.counts())


class Blocks(NamedTuple):
    """A partition of a section's rows and columns into independent
    blocks: ``rows[k]`` and ``cols[l]`` are the blocks of row k and column
    l, numbered 0..count-1 by their first row and then, for blocks of one
    empty column, by column; every entry of the section lies in the rows
    and columns of one block."""
    rows: np.ndarray
    cols: np.ndarray
    count: int

    def sizes(self):
        """The number of rows and of columns of each block."""
        return np.bincount(self.rows, minlength=self.count), \
            np.bincount(self.cols, minlength=self.count)

    def places(self, slot: np.ndarray):
        """The place of each row, and of each column, among its block's in
        section order, for the blocks b with ``slot[b] >= 0``; -1 for the
        rows and columns of the others."""
        out = []
        for labels in (self.rows, self.cols):
            place = np.full(len(labels), -1)
            at = np.flatnonzero(slot[labels] >= 0)
            group = slot[labels[at]]
            order = np.argsort(group, kind="stable")
            counts = np.bincount(group, minlength=int(slot.max()) + 1)
            place[at[order]] = np.arange(len(at)) - (np.cumsum(counts) - counts)[group[order]]
            out.append(place)
        return out


class OperatorMatrix:
    """T_sigma on a window, held in one of three forms: its dense finite
    section ``entries``; sigma's separated factors, sigma = a @ b with a
    (P, R) in k and b (R, Q) in x; or its section in compressed sparse
    rows (``sparse``).

    ``from_symbol`` holds the factors when sigma splits, and otherwise
    streams sigma's samples into the section (``_sampled``).  ``A @ v`` on
    the factors is one forward transform of v, R inverse transforms of
    size Q and R multiply-adds of length P; on the sparse form one pass
    over its entries, and v may be a block of columns there and on the
    dense section.  The factors' kept entries are gathered on first read
    of ``sparse`` or ``entries`` into the sparse form, or the dense
    section when too full (``_too_full``), which replaces them.
    ``product`` multiplies two sparse forms in P m^2 work for m entries
    per row.  Every constructor refuses a grid that cannot resolve the
    window (AliasingError), ``from_symbol`` before sampling sigma.
    """

    def __init__(self, window: LatticeWindow, grid: TorusGrid, entries: np.ndarray):
        _check_resolution(window, grid)
        self.window, self.grid = window, grid
        self.entries = entries

    @classmethod
    def _held(cls, window, grid, factors=None, sparse=None) -> "OperatorMatrix":
        _check_resolution(window, grid)
        A = cls.__new__(cls)
        A.window, A.grid = window, grid
        A._entries, A._factors, A._sparse = None, factors, sparse
        return A

    @classmethod
    def from_factors(cls, a: np.ndarray, b: np.ndarray, window: LatticeWindow,
                     grid: TorusGrid) -> "OperatorMatrix":
        """The operator of sigma = a @ b, a (window.size, R) and b (R, grid.size)."""
        return cls._held(window, grid, factors=(a, b))

    @classmethod
    def from_sparse(cls, sparse: SparseRows, window: LatticeWindow,
                    grid: TorusGrid) -> "OperatorMatrix":
        """The operator of a section in compressed sparse rows."""
        return cls._held(window, grid, sparse=sparse)

    @classmethod
    def from_symbol(cls, sigma: Symbol, window: LatticeWindow,
                    grid: TorusGrid) -> "OperatorMatrix":
        """T_sigma from sigma's separated factors, else streamed from its
        samples; nothing is sampled for a grid that cannot resolve the window."""
        _check_resolution(window, grid)
        terms = sigma._terms(window, grid)
        if terms is None:
            return _operator(_sampled(_blocks(sigma, None, window, grid), window, grid), window, grid)
        return cls.from_factors(*terms, window, grid)

    @property
    def entries(self) -> np.ndarray:
        """The dense section, formed on first read by scattering the sparse
        form (``sparse``), so both views hold the same entries."""
        if self._entries is None:
            S = self.sparse  # gathering the factors may leave the section dense
            if self._entries is None:
                self._entries = E = np.zeros((self.window.size,) * 2, dtype=complex)
                E[S.row_ids(), S.indices] = S.data
        return self._entries

    @entries.setter
    def entries(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=complex)
        P = self.window.size
        if value.shape != (P, P):
            raise DimensionMismatchError(f"entries shape {value.shape}, window size {P}")
        if not np.all(np.isfinite(value)):
            raise ValueError(NON_FINITE_ENTRIES)
        self._entries, self._factors, self._sparse = value, None, None

    @property
    def sparse(self):
        """The section as ``SparseRows``, built on first read without a
        P x P array from the factors, which it replaces, or the dense rows;
        None when it is too full (``_too_full``) and the section is dense."""
        if self._sparse is None:
            P = self.window.size
            with np.errstate(all="ignore"):  # non-finite entries are refused by _kept
                if self._entries is None:
                    a, b = self._factors
                    modes = _factor_modes(a, b, self.window, self.grid)
                    S, self._factors = _assembled(_factor_rows(a, modes, self.window,
                                                               self.grid), P), None
                    if not isinstance(S, SparseRows):
                        self._entries, S = S, None
                else:
                    S = _assembled((_kept(self._entries[rows], np.arange(rows.start, rows.stop))
                                    for rows in _slabs(P, P)), P, stop=True)
            # False marks a section measured too full for the sparse form
            self._sparse = S or False
        return self._sparse or None

    def form_report(self) -> dict:
        """The form the section is held in, and its entries per row, mean
        and max; a dense section holds every entry of its rows."""
        S = self.sparse if self._entries is None else None
        if S is None:
            P = self.window.size
            return {"form": "dense", "mean_row_entries": float(P), "max_row_entries": P}
        counts = S.counts()
        return {"form": "sparse", "mean_row_entries": float(np.mean(counts)),
                "max_row_entries": int(np.max(counts))}

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self._entries is not None:
            return self._entries @ v
        if self._sparse:
            # each row of the sparse form sums its entries times the rows of v they meet
            S, out = self._sparse, np.zeros((self.window.size,) + v.shape[1:], dtype=complex)
            rows = np.flatnonzero(S.counts())
            if len(rows):
                terms = S.data.reshape((-1,) + (1,) * (v.ndim - 1)) * v[S.indices]
                out[rows] = np.add.reduceat(terms, S.indptr[rows], axis=0)
            return out
        window, grid = self.window, self.grid
        vhat = forward_dft(LatticeSequence(window, v), grid).values
        # sum_r a_r(k) M^-n sum_x exp(2 pi i k.x) b_r(x) vhat(x): the
        # inverse FFT of each b_r vhat, read at the grid slot of k
        a, b = self._factors
        U = np.fft.ifftn((b * vhat).reshape((-1,) + grid.shape), axes=tuple(range(1, grid.n + 1)))
        U = U.reshape(len(b), grid.size)[:, _grid_slots(window.n, window.N, grid.M)]
        return np.einsum("kr,rk->k", a, U)

    def matvec(self, f: LatticeSequence) -> LatticeSequence:
        return LatticeSequence(self.window, self @ _finite_values(f))

    def product(self, other: "OperatorMatrix", scale: complex = 1.0, shift: complex = 0.0,
                add: "OperatorMatrix" = None) -> "OperatorMatrix":
        """scale * self @ other + shift * I (+ add), as one operator.

        When every operand has a sparse form, the product terms
        self[k, j] other[j, l] are expanded for a block of rows at a time,
        reading other's rows largest entry first, and summed by (k, l) with
        add's entries and the shift after one sort of their keys that keeps
        the terms of one key in the order they were written
        (``_product_blocks``), so the work is the number of terms, about
        P m^2 for m entries per row, and each row drops its entries at
        roundoff level.  The blocks come out sorted by row, so they are the
        sparse form with no further sort (``_assembled``), held dense when
        that leaves it too full.
        Otherwise the product is the dense one of the sections.
        """
        window, grid, P = self.window, self.grid, self.window.size
        operands = [self.sparse, other.sparse] + ([] if add is None else [add.sparse])
        if any(S is None for S in operands):
            E = scale * (self.entries @ other.entries)
            E.flat[::P + 1] += shift
            if add is not None:
                E += add.entries
            return OperatorMatrix(window, grid, E)
        return _operator(_product_blocks(*operands[:2], scale, shift,
                                         operands[2] if add else None), window, grid)

    def principal(self, window: LatticeWindow) -> "OperatorMatrix":
        """The principal sub-section on ``window``, a window of at most this
        one's half-width, on the same grid: the entries of the sparse form in
        its rows and columns, held dense when that is too full for it
        (``_too_full``), or the sub-block of the dense section.  On one grid
        each entry A[k, l] depends on k and l alone, so these are the entries
        a section built on ``window`` holds, save the roundoff its rows drop
        against their in-window peak (``_kept``)."""
        ids, S = window.rows_in(self.window), self.sparse
        if S is None:
            return OperatorMatrix(window, self.grid, self.entries[np.ix_(ids, ids)])
        place = np.full(self.window.size, -1)
        place[ids] = np.arange(window.size)
        rows, cols = place[S.row_ids()], place[S.indices]
        on = (rows >= 0) & (cols >= 0)
        # ids increase, so the kept entries stay sorted by row
        sub = SparseRows(np.searchsorted(rows[on], np.arange(window.size + 1)), cols[on], S.data[on])
        result = OperatorMatrix.from_sparse(sub, window, self.grid)
        if _too_full(len(sub.data), window.size):
            result = OperatorMatrix(window, self.grid, result.entries)
        return result

    def adjoint(self) -> "OperatorMatrix":
        S = self.sparse
        if S is None:
            return OperatorMatrix(self.window, self.grid, self.entries.conj().T)
        order = np.argsort(S.indices, kind="stable")  # the entries by column, then by row
        transposed = SparseRows(np.searchsorted(S.indices[order], np.arange(len(S.indptr))),
                                S.row_ids()[order], S.data[order].conj())
        return OperatorMatrix.from_sparse(transposed, self.window, self.grid)

    def diagonal(self) -> np.ndarray:
        """The section's diagonal entries A[k, k]."""
        if self._entries is not None or self.sparse is None:
            return np.diagonal(self.entries).copy()
        S = self.sparse
        rows = S.row_ids()
        on = S.indices == rows
        out = np.zeros(self.window.size, dtype=complex)
        out[rows[on]] = S.data[on]
        return out

    def symbol_row_maxima(self) -> np.ndarray:
        """max over the grid of |sigma(k, x)| for each row k of the symbol
        ``extract_symbol`` recovers from this section, synthesizing only
        the rows that hold an entry, a slab at a time: a row with none is 0."""
        out = np.zeros(self.window.size)
        for ids, C in _shift_slabs(self):
            out[ids] = np.max(np.abs(shift_samples(C, self.window, self.grid)), axis=1)
        return out

    def blocks(self) -> Blocks:
        """The independent blocks of the section's sparse form
        (``_components``); one block of every row and column when the
        section has no sparse form."""
        S = self.sparse
        if S is None:
            P = self.window.size
            return Blocks(np.zeros(P, dtype=np.intp), np.zeros(P, dtype=np.intp), 1)
        return _components(S)

    def singular_values(self) -> np.ndarray:
        """The section's singular values, descending: block by block when it
        splits (``_spectrum``), padded with zeros to P, and from one P x P
        SVD when it does not."""
        B = self.blocks()
        if B.count == 1:
            return np.linalg.svd(self.entries, compute_uv=False)
        values = _spectrum(self.sparse, B)[2]
        return np.concatenate([np.sort(values)[::-1], np.zeros(self.window.size - values.size)])


def _components(S: SparseRows) -> Blocks:
    """The connected components of the bipartite graph of S's rows and
    columns, one edge per stored entry, so an empty row or column is a
    block of its own.

    Each round hooks the larger of the two roots of every entry that joins
    two components to the smallest root it meets (``np.minimum.at``), then
    jumps pointers until each node points at its root, until no entry
    joins two components.  A root is the smallest node of its component.
    """
    P = len(S.indptr) - 1
    u, v = S.row_ids(), S.indices + P  # row k is node k, column l node P + l
    root = np.arange(2 * P)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(2 * P)
    labels = (np.cumsum(is_root) - 1)[root]
    return Blocks(labels[:P], labels[P:], int(np.sum(is_root)))


def _stacked(sections) -> SparseRows:
    """The pattern of the block-diagonal stack of the square sections
    (``SparseRows``), in order, the rows and columns of each following the
    last one's; its ``data`` is None, as ``_components`` reads none."""
    sizes = [len(S.indptr) - 1 for S in sections]
    rows = np.cumsum([0] + sizes[:-1])
    entries = np.cumsum([0] + [S.indptr[-1] for S in sections])
    return SparseRows(
        np.concatenate([S.indptr[:-1] + e for S, e in zip(sections, entries)] + [entries[-1:]]),
        np.concatenate([S.indices + r for S, r in zip(sections, rows)]), None)


def _spectrum(S: SparseRows, B: Blocks, chosen: np.ndarray = None):
    """(groups, owners, values) of the blocks B of the section S, or of
    those ``chosen`` (a mask over the blocks), that hold rows and columns.

    ``groups`` holds, for each padded block size d, the ids of the blocks
    whose larger side is d, their (g, d, d) stack of each block's rows and
    columns in section order padded with zero rows or columns (None for
    d = 1, blocks of one entry), and its values (g, d), descending;
    ``values`` holds each block's min(rows, columns) singular values and
    ``owners`` the block of each.  The padded rows or columns add only
    zeros past a block's first min(r, c).
    A block of one row or one column has one singular value, the norm of
    its entries, taken in closed form with no LAPACK call: within 2 ulps
    of the exact norm, at any scale.  The other blocks of one size take
    one stacked values-only SVD.
    """
    rows, cols = B.sizes()
    side, full = np.maximum(rows, cols), np.minimum(rows, cols)
    take = full > 0 if chosen is None else (full > 0) & chosen
    k = S.row_ids()
    block = B.rows[k]
    # each block's entries scaled exactly by the power of two 2^-e of its
    # largest, 2^(e-1) <= max |x| < 2^e, so the sum of squares neither
    # overflows nor underflows and the norm rounds only in it and its root
    peak = np.zeros(B.count)
    np.maximum.at(peak, block, np.abs(S.data))
    e = np.frexp(peak)[1]
    re, im = np.ldexp(S.data.real, -e[block]), np.ldexp(S.data.imag, -e[block])
    norms = np.ldexp(np.sqrt(np.bincount(block, re * re + im * im, B.count)), e)
    groups, owners, values = [], [], []
    for d in np.flatnonzero(np.bincount(side[take])):
        ids = np.flatnonzero(take & (side == d))
        s, lone, stack = np.zeros((len(ids), d)), full[ids] == 1, None
        s[lone, 0] = norms[ids[lone]]
        if d > 1:
            slot = np.full(B.count, -1)
            slot[ids] = np.arange(len(ids))
            row_place, col_place = B.places(slot)
            on = slot[block] >= 0
            stack = np.zeros((len(ids), d, d), dtype=complex)
            stack[slot[block[on]], row_place[k[on]], col_place[S.indices[on]]] = S.data[on]
            if not lone.all():
                s[~lone] = np.linalg.svd(stack[~lone], compute_uv=False)
        groups.append((ids, stack, s))
        owners.append(np.repeat(ids, full[ids]))
        values.append(s[np.arange(d) < full[ids][:, None]])
    return groups, np.concatenate([np.zeros(0, dtype=np.intp), *owners]), \
        np.concatenate([np.zeros(0), *values])


def _factor_modes(a: np.ndarray, b: np.ndarray, window: LatticeWindow, grid: TorusGrid):
    """(slots, C): the shift coefficients C_r of the rows b_r of sigma's
    x-factor (``core.shift_coefficients``) at the modes where some C_r is
    above roundoff of its largest, and those modes' per-axis grid slots.
    Refuses non-finite factors or coefficients with ValueError."""
    C = shift_coefficients(b, window, grid)
    mag = np.abs(C)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(mag))):
        raise ValueError(NON_FINITE_ENTRIES)
    modes = np.flatnonzero(np.any((mag >= _ROUNDOFF * np.max(mag, axis=1, keepdims=True))
                                  & (mag > 0), axis=0))
    return np.unravel_index(modes, grid.shape), C[:, modes]


def _row_grids(a: np.ndarray, b: np.ndarray, window: LatticeWindow, grid: TorusGrid):
    """(grids, centres): for each row a(k) of the k-factor of sigma = a @ b,
    the smallest divisor d > 1 of M whose nodes, every (M/d)-th node of
    the grid on each axis, resolve tau0 = 1/sigma(k, .), and the mode m0
    of the row's largest coefficient; M when no smaller divisor is
    proven, so every row of a prime M.

    sigma(k, .) is the trig polynomial s = sum_m s_m e^{2 pi i m.x} of the
    shift coefficients a(k) @ C that the section reads (``_factor_modes``),
    each mode m at its representative in (-M/2, M/2)^n.  With m0 its
    largest mode, s = s_m0 e^{2 pi i m0.x} (1 + r), and on the strip
    |Im x_j| <= h, |r| <= q(h), the largest over the corners c of
    {-1, 1}^n of sum_{m != m0} |s_m / s_m0| e^{2 pi h c.(m - m0)} (the sum
    is convex in Im x).  While q(h) < 1, g = 1 / (1 + r) is analytic there,
    so |g_j| <= z^|j|_1 / (1 - q(h)) for z = e^{-2 pi h} (Trefethen and
    Weideman, SIAM Rev. 56, 2014), and for q(0) < 1/2 its mode 0 is at
    least (1 - 2 q(0)) / (1 - q(0)).  tau0's mode j - m0 is g_j / s_m0, so
    relative to the row's peak it is at most K z^|j|_1,
    K = (1 - q(0)) / ((1 - q(h)) (1 - 2 q(0))).  The d nodes on each axis
    are read at the modes -m0 + j, |j_i| <= H = (d - 1) / 2: a mode off
    them lies below K z^(H+1), and each one read gains the modes d apart,
    at most K ((1 + 2 z^(H+1) / (1 - z^d))^n - 1) in all.  A row takes
    the smallest d for which that sum is at most ``_ALIASING``, which also
    holds the modes off the grid below ``_ROUNDOFF``, at some z of a fixed
    ladder above the least z that keeps q < 1; each z gives its H in
    closed form.  Rows that no divisor passes, those with q(0) >= 1/2
    among them, keep M.  The bound reads the coefficients at their place
    on the section's grid, not their samples on d nodes, where a mode d
    apart looks like one near m0."""
    M = grid.M
    grids, centres = np.full(len(a), M), np.zeros((len(a), grid.n), dtype=int)
    divisors = np.arange(3, M)
    divisors = divisors[M % divisors == 0]
    if not len(divisors):  # a prime M: every row stays on M
        return grids, centres
    slots, C = _factor_modes(a, b, window, grid)
    if not C.shape[1]:  # sigma = 0
        return grids, centres
    C = np.ascontiguousarray(C)  # a slab's product with the strided C took ms at 18225 modes
    signed = np.stack([s - M * (s > M // 2) for s in slots]).astype(float)  # (n, modes)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=grid.n)))
    ladder = np.exp2(-np.arange(9.0))[:, None]  # log of z over its least value
    # a slab of rows at a time, of about _BLOCK (mode, row) pairs, and the
    # ladder only for the rows the budget can fit
    for part in _slabs(len(a), C.shape[1]):
        s = np.ascontiguousarray(np.abs(a[part] @ C).T)  # the moduli, one row per mode
        top, rows = np.argmax(s, axis=0), np.arange(len(s.T))
        centre = signed[:, top]
        centres[part] = centre.T
        with np.errstate(all="ignore"):  # a zero row reads NaN, a far mode overflows q
            rho = s / s[top, rows]
            rho[top, rows] = 0
            offset = signed[:, :, None] - centre[:, None, :]  # (n, modes, rows)
            q0 = np.sum(rho, axis=0)
            # q(h) < 1 needs z above rho_m^(1/|m - m0|) for each m, and a grid of
            # d nodes at least 2 z^(H+1) within the budget
            least = np.max(rho ** (1 / np.maximum(np.sum(np.abs(offset), axis=0), 1)), axis=0)
            fits = (q0 < 0.5) & (2 * least ** ((divisors[-1] + 1) / 2) <= _ALIASING)
            # a row of one mode: tau0 is one multiple of e^{-2 pi i m0.x}
            grids[part][fits & (least == 0)] = divisors[0]
            at = np.flatnonzero(fits & (least > 0))
            if not len(at):
                continue
            log_z = np.log(least[at]) + ladder  # (ladder, rows)
            weights, power = rho[:, None, at], -log_z
            # each corner's exponents c.(m - m0), (corners, modes, 1, rows)
            exponents = np.tensordot(corners, offset[:, :, at], 1)[:, :, None, :]
            q = np.max([np.sum(weights * np.exp(c * power), axis=0) for c in exponents], axis=0)
            K = (1 - q0[at]) / ((1 - q) * (1 - 2 * q0[at]))
            # the largest 2 z^(H+1) / (1 - z^d) within the budget, and the H it
            # takes: first with 1 - z^d <= 1, which bounds d below, then with
            # that d, which makes 1 - z^d no larger than at any d it accepts
            top_E = np.expm1(np.log1p(_ALIASING / K) / grid.n)
            d = 2 * np.ceil(np.log(top_E / 2) / log_z) - 1
            half = np.ceil(np.log(top_E * -np.expm1(d * log_z) / 2) / log_z) - 1
            half = np.min(np.where((q < 1) & (log_z < 0), np.maximum(half, 0), np.inf), axis=0)
            grids[part][at] = np.append(divisors, M)[np.searchsorted(divisors, 2 * half + 1)]
    return grids, centres


def _factor_rows(a: np.ndarray, modes, window: LatticeWindow, grid: TorusGrid):
    """The kept entries (``_kept``) of the section of sigma = a @ b as
    (rows, cols, vals), sorted by row, a block of rows at a time with no
    P x P array: sum_r a_r(k) C_r[(l - k) mod M] at the modes of b
    (``_factor_modes``)."""
    slots, C = modes
    for rows in _slabs(window.size, max(1, C.shape[1])):
        cols, valid = _mode_columns(window.points[rows], slots, window, grid)
        vals = a[rows] @ C
        vals[~valid] = 0
        yield _kept(vals, np.arange(rows.start, rows.stop), cols)


def _factor_sections(a: np.ndarray, b: np.ndarray, windows, grid: TorusGrid) -> list:
    """The operators of sigma = a @ b on each of ``windows``, whose last is
    the largest and a's window: each gathers its window's rows of a
    (``LatticeWindow.rows_in``) against one transform of b
    (``_factor_modes``) and keeps its rows' entries against their own
    in-window peaks (``_kept``), so it is the section ``assemble_matrix``
    builds on its window from the factors sigma gives there."""
    largest = windows[-1]
    with np.errstate(all="ignore"):  # non-finite entries are refused by _kept
        modes = _factor_modes(a, b, largest, grid)
        return [_operator(_factor_rows(a[w.rows_in(largest)], modes, w, grid), w, grid)
                for w in windows]


def _sampled(blocks, window: LatticeWindow, grid: TorusGrid):
    """The kept entries (``_kept``) of a section read from sampled rows, as
    (rows, cols, vals) in no set row order.  ``blocks`` yields (ids, T, ...),
    T the samples of the window points ``ids`` (a slice); each row of T is
    transformed once (``_transformed``) and point k reads its coefficients
    at (l - k) mod M (``_read``).  Refuses non-finite entries (ValueError)."""
    for ids, T, *_ in blocks:
        points = np.arange(ids.start, ids.stop)
        yield from _read(*_transformed(T, window, grid), points, points - ids.start, window, grid)


def _profile_rows(blocks, inverse: np.ndarray, window: LatticeWindow, grid: TorusGrid):
    """The kept entries (``_kept``) of a section whose point k reads the
    shift coefficients of the distinct row inverse[k] (``symbols._profiles``),
    as (rows, cols, vals) in no set row order.  ``blocks`` yields
    (ids, slots, C): the coefficients C of the distinct rows ``ids`` (an
    integer array) at the per-axis grid slots ``slots``, one array for all
    rows or one row of slots per row of C (``_read``)."""
    order = np.argsort(inverse, kind="stable")  # the points by the row they read
    first = np.searchsorted(inverse[order], np.arange(inverse.max() + 2))
    for ids, slots, C in blocks:
        counts = first[ids + 1] - first[ids]
        rows = np.repeat(np.arange(len(ids)), counts)
        start = np.repeat(first[ids] - np.cumsum(counts) + counts, counts)
        yield from _read(slots, C, order[start + np.arange(len(rows))], rows, window, grid)


def _transformed(T: np.ndarray, window: LatticeWindow, grid: TorusGrid):
    """(slots, C): the shift coefficients of the sampled rows T at the modes
    where some row reaches ``_ROUNDOFF`` of its mode 0, and those modes'
    per-axis grid slots.  A row's mode 0 is read at l = k, inside the
    window, so ``_kept`` drops every mode left out.  Refuses non-finite
    coefficients with ValueError."""
    C = shift_coefficients(T, window, grid)
    mag = np.abs(C)
    if not np.isfinite(np.max(mag)):
        raise ValueError(NON_FINITE_ENTRIES)
    modes = np.flatnonzero(np.any(mag >= _ROUNDOFF * mag[:, :1], axis=0))
    return np.unravel_index(modes, grid.shape), C[:, modes]


def _read(slots, C: np.ndarray, points: np.ndarray, rows: np.ndarray, window: LatticeWindow,
          grid: TorusGrid):
    """The kept entries (``_kept``) of the section rows at the window points
    ``points``, point i reading row rows[i] of C, whose column j holds the
    shift coefficient at the grid slot slots[.][j] (per axis), or at
    slots[.][r, j] for row r when the slots are per row; slab by slab."""
    for part in _slabs(len(points), max(1, C.shape[1])):
        at = rows[part]
        cols, valid = _mode_columns(window.points[points[part]],
                                    [s if s.ndim == 1 else s[at] for s in slots], window, grid)
        vals = C[at]
        vals[~valid] = 0
        yield _kept(vals, points[part], cols)


def _mode_columns(K: np.ndarray, slots, window: LatticeWindow, grid: TorusGrid):
    """The columns l of the section rows at the window points K (one per
    row of K) with (l - k) mod M at each grid slot of ``slots`` (per-axis
    coordinates, shared by the rows or one row of slots per row of K), and
    where such an l lies in the window.

    Since M >= 2N+1, each k and slot meet at most one l: per axis
    l_j + N = (k_j + N + s_j) mod M, below 2M before, when it is at most 2N.
    """
    cols, valid = 0, True
    for k, s in zip((K + window.N).T, slots):
        l = k[:, None] + s
        l -= grid.M * (l >= grid.M)
        cols, valid = cols * window.side + l, valid & (l < window.side)
    return cols, valid


def _kept(block: np.ndarray, rows: np.ndarray, cols: np.ndarray = None):
    """(rows, cols, vals) of the dense rows ``block``, row i of it section
    row rows[i]: the nonzero entries at or above ``_ROUNDOFF`` times
    their row's largest.  ``cols`` gives the section column of each block
    entry when the block is not laid out by column.  Refuses non-finite
    entries with ValueError."""
    mag = np.abs(block)
    # a short row is reduced column by column: numpy reduces a short axis slowly
    peak = reduce(np.maximum, mag.T, np.zeros(len(mag))) if mag.shape[1] <= 16 \
        else np.max(mag, axis=1, initial=0.0)  # NaN or inf when some entry is
    if not np.all(np.isfinite(peak)):
        raise ValueError(NON_FINITE_ENTRIES)
    k, j = np.nonzero((mag >= _ROUNDOFF * peak[:, None]) & (mag > 0))
    return rows[k], (j if cols is None else cols[k, j]), block[k, j]


def _row_peaks(S: SparseRows, values: np.ndarray) -> np.ndarray:
    """The largest of ``values`` (one per entry of S) in each row, 0 in a row with none."""
    counts = S.counts()
    if counts.all():
        return np.maximum.reduceat(values, S.indptr[:-1])
    out, rows = np.zeros(len(counts)), counts.nonzero()[0]
    if len(rows):
        out[rows] = np.maximum.reduceat(values, S.indptr[rows])
    return out


def _product_blocks(SA: SparseRows, SB: SparseRows, scale, shift, SC: SparseRows):
    """The kept entries of scale * SA @ SB + shift * I (+ SC) as
    (rows, cols, vals), sorted by row and column, a block of rows of about
    ``symbols._BLOCK`` product terms (at least one row) at a time.

    Row k's scale s_k is the largest term it can hold: max over its
    entries of |scale SA[k, j]| max |SB[j, .]|, the shift or SC's row.
    An entry of row k sums at most one term per entry of SA's row, so the
    terms below _ROUNDOFF s_k / (SA's entries in row k) are not expanded:
    all of them in one sum stay below _ROUNDOFF s_k.  SB's rows are read
    largest entry first, so each entry of SA expands a prefix of its row
    of SB.  The terms are then sorted by (k, l), in the order they were
    written within one key, and summed, and each row keeps the sums at or
    above _ROUNDOFF s_k, the roundoff of a sum of terms as large as s_k.
    """
    P = len(SA.indptr) - 1
    rows_a, mag_a = SA.row_ids(), np.abs(scale) * np.abs(SA.data)
    mag_b = np.abs(SB.data)
    # SB's entries by row, largest first: log2 |b| is finite for a nonzero b
    # and stays within (-1075, 1024), so key j 4096 + 1100 - log2 |b| sorts them
    key = SB.row_ids() * 4096.0 + (1100.0 - np.log2(mag_b))
    order = key.argsort()
    key, cols_b, data_b = key[order], SB.indices[order], SB.data[order]
    s = np.maximum(_row_peaks(SA, mag_a * _row_peaks(SB, mag_b)[SA.indices]), abs(shift))
    if SC is not None:
        s = np.maximum(s, _row_peaks(SC, np.abs(SC.data)))
    if not np.isfinite(s).all():  # an overflowed scale would expand no term at all
        raise ValueError(NON_FINITE_ENTRIES)
    floor = _ROUNDOFF * s / np.maximum(1, SA.counts())
    # each entry of SA expands the entries of its SB row at or above floor / |a|
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = SA.indices * 4096.0 + (1100.0 - np.log2(floor[rows_a] / mag_a))
    j = SA.indices
    per_entry = np.maximum(np.minimum(key.searchsorted(reach, side="right"), SB.indptr[j + 1])
                           - SB.indptr[j], 0)
    before = np.zeros(len(per_entry) + 1, dtype=np.intp)
    np.cumsum(per_entry, out=before[1:])
    before = before[SA.indptr]  # terms before each row
    r0 = 0
    while r0 < P:
        r1 = min(P, max(r0 + 1, int(before.searchsorted(before[r0] + _BLOCK, "right")) - 1))
        e0, e1 = SA.indptr[r0], SA.indptr[r1]
        counts, terms = per_entry[e0:e1], int(before[r1] - before[r0])
        # the place in SB's order of each term: entry e of SA expands its row's first counts[e]
        pos = np.arange(terms) + (SB.indptr[j[e0:e1]] - np.cumsum(counts) + counts).repeat(counts)
        extra = []  # (keys, vals) written after the terms: the shift, then SC's entries
        if shift:
            extra.append((np.arange(r1 - r0) * (P + 1) + r0, np.full(r1 - r0, shift, dtype=complex)))
        if SC is not None:
            c0, c1 = SC.indptr[r0], SC.indptr[r1]
            local = np.arange(r1 - r0).repeat(SC.indptr[r0 + 1:r1 + 1] - SC.indptr[r0:r1])
            extra.append((local * P + SC.indices[c0:c1], SC.data[c0:c1]))
        size = terms + sum(len(k) for k, _ in extra)
        # the key (k - r0) P + l and the value of each term
        keys, vals = np.empty(size, dtype=np.intp), np.empty(size, dtype=complex)
        np.add(((rows_a[e0:e1] - r0) * P).repeat(counts), cols_b[pos], out=keys[:terms])
        np.multiply((scale * SA.data[e0:e1]).repeat(counts), data_b[pos], out=vals[:terms])
        at = terms
        for k, v in extra:
            keys[at:at + len(k)], vals[at:at + len(k)] = k, v
            at += len(k)
        # one sort of the keys with each term's place in the low bits, so the
        # terms of one key stay in the order they were written, then sum runs
        bits = max(1, size.bit_length())
        keys <<= bits
        keys |= np.arange(size)
        keys.sort()
        vals = vals[keys & ((1 << bits) - 1)]
        keys >>= bits
        if size:
            heads = np.concatenate([[0], (keys[1:] != keys[:-1]).nonzero()[0] + 1])
            keys, vals = keys[heads], np.add.reduceat(vals, heads)
        rows, cols = np.divmod(keys, P)
        mag = np.abs(vals)
        if not np.isfinite(mag).all():
            raise ValueError(NON_FINITE_ENTRIES)
        keep = ((mag >= _ROUNDOFF * s[rows + r0]) & (mag > 0)).nonzero()[0]
        yield rows[keep] + r0, cols[keep], vals[keep]
        r0 = r1


def _too_full(count: int, P: int) -> bool:
    """Whether a section of P rows with ``count`` kept entries is held
    dense (``_MAX_FILL``): a diagonal or shift section of any size is not."""
    return count > max(_MAX_FILL * P, 1) * P


def _assembled(blocks, P: int, stop: bool = False):
    """``SparseRows`` of the kept entries (rows, cols, vals) the blocks
    yield, each block holding a row's entries in one run; once too full
    (``_too_full``), None with ``stop``, else the dense section, each block
    scattered into it.  The blocks are written once, each into its rows'
    places in arrays laid out from the per-row counts, so a row keeps its
    entries in the order the blocks yield them; a single block sorted by
    row is the sparse form as it stands."""
    parts, count, E = [], 0, None
    for block in blocks:
        parts.append(block)
        count += len(block[0])
        if E is None and _too_full(count, P):
            if stop:
                return None
            E = np.zeros((P, P), dtype=complex)
        while E is not None and parts:
            rows, cols, vals = parts.pop()
            E[rows, cols] = vals
    if E is not None:
        return E
    parts = [part for part in parts if len(part[0])]
    if len(parts) == 1 and np.all(parts[0][0][1:] >= parts[0][0][:-1]):
        rows, cols, vals = parts[0]
        return SparseRows(np.searchsorted(rows, np.arange(P + 1)), cols, vals)
    runs = []  # each part's first entry of each run of one row, and the run lengths
    for rows, _, _ in parts:
        heads = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
        runs.append((heads, np.diff(heads, append=len(rows))))
    counts = np.zeros(P, dtype=np.intp)
    for (rows, _, _), (heads, lengths) in zip(parts, runs):
        counts[rows[heads]] += lengths
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices, data = np.empty(indptr[-1], dtype=np.intp), np.empty(indptr[-1], dtype=complex)
    fill = indptr[:-1].copy()  # the next free place of each row
    for (rows, cols, vals), (heads, lengths) in zip(parts, runs):
        at = fill[rows[heads]] - heads  # entry i of the part goes to at[its run] + i
        if at.min() == at.max():  # the part fills one stretch in order
            indices[at[0]:at[0] + len(rows)], data[at[0]:at[0] + len(rows)] = cols, vals
        else:
            places = np.repeat(at, lengths) + np.arange(len(rows))
            indices[places], data[places] = cols, vals
        fill[rows[heads]] += lengths
    return SparseRows(indptr, indices, data)


def _operator(blocks, window: LatticeWindow, grid: TorusGrid) -> "OperatorMatrix":
    """The operator of the kept entries the blocks yield (``_assembled``)."""
    S = _assembled(blocks, window.size)
    if isinstance(S, SparseRows):
        return OperatorMatrix.from_sparse(S, window, grid)
    return OperatorMatrix(window, grid, S)


def _shift_slabs(A: OperatorMatrix):
    """A's section in shift form, C[k, (l - k) mod M] = A[k, l], as
    (row ids, C rows), for the rows that hold an entry of the sparse form
    (every row of a dense one), in slabs of about ``symbols._BLOCK``
    entries of C."""
    window, grid, P = A.window, A.grid, A.window.size
    S = A.sparse if A._entries is None else None
    ids = np.arange(P) if S is None else np.flatnonzero(S.counts())
    points = window.points
    for slab in _slabs(len(ids), grid.size):
        rows = ids[slab]
        if S is None:
            dense = A.entries[rows]
            k, cols = np.nonzero(dense)
            vals = dense[k, cols]
        else:
            counts = S.counts()[rows]
            lo, hi = S.indptr[rows[0]], S.indptr[rows[-1] + 1]
            k, cols, vals = np.repeat(np.arange(len(rows)), counts), S.indices[lo:hi], S.data[lo:hi]
        slots = np.ravel_multi_index(((points[cols] - points[rows[k]]) % grid.M).T, grid.shape)
        C = np.zeros((len(rows), grid.size), dtype=complex)
        C[k, slots] = vals
        yield rows, C


def _finite_values(f: LatticeSequence) -> np.ndarray:
    """f's values; every product with f refuses non-finite ones here (ValueError)."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("sequence carries non-finite values")
    return f.values


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
    Refuses non-finite f (``_finite_values``) or samples with ValueError;
    a NaN or infinite sample always leaves its output row non-finite, so
    checking the output is exact.
    """
    window = f.window
    _check_resolution(window, grid)
    _finite_values(f)
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


def _phases(N: int, M: int) -> np.ndarray:
    """exp(2 pi i k_j x_j) for k_j = -N..N and x_j = j/M, j = 0..M-1, read
    from the M-th roots of unity at the integer phase mod M
    (``_phase_index``), so its argument stays below 2 pi."""
    return np.exp(1j * TWO_PI / M * np.arange(M))[_phase_index(N, M)]


def assemble_matrix(sigma: Symbol, window: LatticeWindow, grid: TorusGrid) -> OperatorMatrix:
    """entries(k,l) = quadrature of exp(2 pi i (k-l).x) sigma(k,x), from
    ``OperatorMatrix.from_symbol``, with its sparse form, or its section
    when too full, built, so non-finite samples are refused at the call."""
    with np.errstate(all="ignore"):  # OperatorMatrix refuses non-finite entries
        A = OperatorMatrix.from_symbol(sigma, window, grid)
        A.sparse
    return A


def assemble_toroidal_matrix(sigma: Symbol, window: LatticeWindow,
                             grid: TorusGrid) -> np.ndarray:
    """Grid-side section C(x,y) = M^-n sum_k exp(2 pi i (x-y).k) tau(x,k) of
    sigma's toroidal dual tau(x,k) = conj(sigma(-k,x))."""
    _check_resolution(window, grid)
    # the window is symmetric and lexicographic, so -k sits at row P-1-row(k)
    T = sigma.sample(window, grid)[::-1].conj().T  # (Q, P): tau(x, k)
    E = _dft_matrix(window.n, window.N, grid.M)    # (Q, P): exp(-2 pi i k.x)
    return grid.weight * ((E.conj() * T) @ E.T)


def extract_symbol(A: OperatorMatrix, order: float = None) -> GridSymbol:
    """Recover the grid-backed symbol sigma(k,x) = exp(-2 pi i k.x) (A e_x)(k).

    Scatters A[k, l] into the shift form at C[k, (l-k) mod M], only the
    kept entries of a sparse form, and synthesizes it on the grid slab by
    slab: the exact inverse of assemble_matrix.
    """
    window, grid = A.window, A.grid
    values = np.zeros((window.size, grid.size), dtype=complex)
    for rows, C in _shift_slabs(A):
        values[rows] = shift_samples(C, window, grid)
    return GridSymbol(window, grid, values, order=order, interior_margin=interior_margin(window))


def compose(sigma: Symbol, tau: Symbol, window: LatticeWindow,
            grid: TorusGrid) -> GridSymbol:
    """Finite-section product symbol of T_sigma T_tau (orders add), from
    the sparse product of the two sections when both are sparse."""
    order = None
    if sigma.order is not None and tau.order is not None:
        order = sigma.order + tau.order
    prod = assemble_matrix(sigma, window, grid).product(assemble_matrix(tau, window, grid))
    return extract_symbol(prod, order=order)


def adjoint_symbol(sigma: Symbol, window: LatticeWindow,
                   grid: TorusGrid) -> GridSymbol:
    """Symbol of the formal adjoint via the conjugate-transposed section."""
    return extract_symbol(assemble_matrix(sigma, window, grid).adjoint(), order=sigma.order)

