"""Quantization of symbols on truncated l^2(Z^n).

The operator acts by (T_sigma f)(k) = integral of exp(2 pi i k.x)
sigma(k,x) fhat(x) dx; on a window x grid truncation this is exact whenever
the grid resolves the window (M >= 2N+1).  Finite sections are gathered
from the symbol's shift form (``core.shift_coefficients``), and extraction
scatters a section back into it, so the two are an exact inverse pair.
Composition and adjoints are finite-section constructions, so grid-backed
results carry an interior margin outside which truncation contaminates
the recovered symbol.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

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
    _shift_index,
)
from .errors import DimensionMismatchError
from .symbols import NON_FINITE_SAMPLES, DualToroidalSymbol, GridSymbol, Symbol

_AXES = "abcdefghijklmnopqrstuvwxyz"  # einsum subscripts: k axes, then x axes


def interior_margin(window: LatticeWindow) -> int:
    """Default layer count treated as truncation-contaminated: N/4, min 1."""
    return max(1, window.N // 4)


@dataclass
class OperatorMatrix:
    """Dense finite section of T_sigma on a window."""

    window: LatticeWindow
    grid: TorusGrid
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        P = self.window.size
        if self.entries.shape != (P, P):
            raise DimensionMismatchError(
                f"entries shape {self.entries.shape}, window size {P}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("operator matrix carries non-finite entries")

    def matvec(self, f: LatticeSequence) -> LatticeSequence:
        return LatticeSequence(self.window, self.entries @ f.values)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.window, self.grid, self.entries.conj().T)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.entries, compute_uv=False)


def apply(sigma: Symbol, f: LatticeSequence, grid: TorusGrid) -> LatticeSequence:
    """Quantized action: transform, multiply by sigma(k,.), invert with phase.

    The sum over x of exp(2 pi i k.x) sigma(k,x) fhat(x) runs one axis at a
    time against the (2N+1, M) phase table, innermost axis first.  sigma
    comes on its per-axis form (``Symbol._sample_axes``): fhat is first
    summed over the x axes sigma does not vary on, sigma is multiplied in
    place into one array over the remaining axes, and those x axes are
    summed last.  So an x-independent symbol never forms a (P, Q) array,
    and one that varies on every x axis multiplies fhat into its samples.
    Refuses non-finite f or samples with ValueError; a NaN or infinite
    sample always leaves its output row non-finite, so checking the output
    is exact.
    """
    window = f.window
    _check_resolution(window, grid)
    if not np.all(np.isfinite(f.values)):
        raise ValueError("sequence carries non-finite values")
    n = window.n
    T = forward_dft(f, grid).values.reshape((1,) * n + grid.shape)
    S = sigma._sample_axes(window, grid, np.zeros(n, dtype=int))
    # exp(2 pi i k_j x_j) for one axis, k_j = -N..N and x_j = j/M; the phase
    # k_j j is reduced mod M in integers, so its argument stays below 2 pi
    phase = np.outer(window.axis, np.arange(grid.M)) % grid.M
    E = np.exp(1j * TWO_PI / grid.M * phase)
    with np.errstate(all="ignore"):  # non-finite samples are refused below
        for j in reversed(range(n)):
            if S.shape[n + j] == 1:
                T = _sum_axis(T, E, j)
        union = np.broadcast_shapes(S.shape, T.shape)
        if S.shape == union:
            S *= T
            T = S
        elif T.shape == union:
            T *= S
        else:
            T = T * S
        for j in reversed(range(n)):
            if T.shape[n + j] > 1:
                T = _sum_axis(T, E, j)
        out = grid.weight * T.reshape(-1)
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


def assemble_matrix(sigma: Symbol, window: LatticeWindow, grid: TorusGrid) -> OperatorMatrix:
    """entries(k,l) = quadrature of exp(2 pi i (k-l).x) sigma(k,x), i.e. C[k, (l-k) mod M]."""
    _check_resolution(window, grid)
    with np.errstate(all="ignore"):  # OperatorMatrix refuses non-finite entries
        return _section(sigma.sample(window, grid), window, grid)


def _section(values: np.ndarray, window: LatticeWindow, grid: TorusGrid) -> OperatorMatrix:
    """The finite section of the symbol sampled as ``values`` on a resolved window x grid."""
    C = shift_coefficients(values, window, grid)
    A = C.reshape(window.shape + grid.shape)[_shift_index(window.n, window.N, grid.M)]
    return OperatorMatrix(window, grid, A.reshape(window.size, window.size))


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


# -- matrix file format ------------------------------------------------------

_MAGIC = b"LOPM"


def write_matrix_binary(path, A: OperatorMatrix) -> None:
    """Header + row-major little-endian float64 (re, im) pairs."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<4i", A.window.n, A.window.N, A.grid.n, A.grid.M))
        inter = np.empty(A.entries.size * 2, dtype="<f8")
        inter[0::2] = A.entries.real.ravel()
        inter[1::2] = A.entries.imag.ravel()
        fh.write(inter.tobytes())


def read_matrix_binary(path) -> OperatorMatrix:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an operator-matrix file")
        n, N, gn, M = struct.unpack("<4i", fh.read(16))
        window = LatticeWindow(n, N)
        grid = TorusGrid(gn, M)
        raw = np.frombuffer(fh.read(), dtype="<f8")
        entries = (raw[0::2] + 1j * raw[1::2]).reshape(window.size, window.size)
        return OperatorMatrix(window, grid, entries)


def write_matrix_json(path, A: OperatorMatrix) -> None:
    payload = {
        "window": {"n": A.window.n, "N": A.window.N},
        "grid": {"n": A.grid.n, "M": A.grid.M},
        "entries": np.stack(
            [A.entries.real.ravel(), A.entries.imag.ravel()], axis=-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def read_matrix_json(path) -> OperatorMatrix:
    with open(path) as fh:
        d = json.load(fh)
    window = LatticeWindow(d["window"]["n"], d["window"]["N"])
    grid = TorusGrid(d["grid"]["n"], d["grid"]["M"])
    raw = np.asarray(d["entries"], dtype=float)
    entries = (raw[:, 0] + 1j * raw[:, 1]).reshape(window.size, window.size)
    return OperatorMatrix(window, grid, entries)
