"""Parametrix construction and elliptic solving on finite sections.

The starting guess is the regularized pointwise inverse of the symbol;
Neumann refinement at matrix level multiplies the residual order down by
one per step.  The two-sided graph-norm/Sobolev-norm equivalence and the
preconditioned solver both ride on that parametrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import LatticeSequence, LatticeWindow, TorusGrid, _check_resolution, default_grid
from .errors import ConvergenceError, EllipticityError
from .quantization import (
    OperatorMatrix,
    _section,
    extract_symbol,
    interior_margin,
)
from .sobolev import sobolev_norm
from .symbols import (
    GridSymbol,
    Symbol,
    _certificate,
    check_ellipticity,
    estimate_order,
)


@dataclass
class Parametrix:
    """Finite-section parametrix B_J of A = T_sigma after J Neumann steps.

    Only A and the first step B0 are built eagerly.  ``apply`` gives B_J r
    from matrix-vector products alone.  B_J itself, the defects and the
    symbols extracted from B_J and from them are computed on first access
    and kept, so each P^3 product and each extraction is paid at most once,
    and only by a caller that reads it.
    """
    sigma_matrix: OperatorMatrix = field(repr=False)  # A
    initial: OperatorMatrix = field(repr=False)       # B0, the first step
    sigma_order: float          # m
    steps: int                  # J
    threshold: float
    regularized_points: list    # window indices where delta(k) > 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B_J r: v = B0 r, then J-1 times v <- v + B0 (r - A v)."""
        A, B0 = self.sigma_matrix.entries, self.initial.entries
        v = B0 @ r
        for _ in range(self.steps - 1):
            v += B0 @ (r - A @ v)
        return v

    @cached_property
    def matrix(self) -> OperatorMatrix:
        """B_J, from B_1 = B0 and B_{j+1} = B_j + B0 (I - A B_j)."""
        B = self.initial
        for _ in range(self.steps - 1):
            B = self._step(B)
        return B

    def _step(self, B: OperatorMatrix) -> OperatorMatrix:
        A, B0 = self.sigma_matrix.entries, self.initial.entries
        return OperatorMatrix(B.window, B.grid,
                              B.entries + B0 @ (np.eye(B.window.size) - A @ B.entries))

    def refined(self) -> "Parametrix":
        """The parametrix with one more Neumann step; a B_J already built is
        carried forward by one step, not rebuilt."""
        par = replace(self, steps=self.steps + 1)
        if "matrix" in vars(self):
            par.matrix = self._step(self.matrix)
        return par

    @cached_property
    def left_defect(self) -> OperatorMatrix:
        """B A - I."""
        B, A = self.matrix, self.sigma_matrix
        return OperatorMatrix(B.window, B.grid, B.entries @ A.entries - np.eye(B.window.size))

    @cached_property
    def right_defect(self) -> OperatorMatrix:
        """A B - I."""
        B, A = self.matrix, self.sigma_matrix
        return OperatorMatrix(B.window, B.grid, A.entries @ B.entries - np.eye(B.window.size))

    @cached_property
    def tau(self) -> GridSymbol:
        """Symbol of B, of order -m."""
        return extract_symbol(self.matrix, order=-float(self.sigma_order))

    @cached_property
    def left_residual(self) -> GridSymbol:
        """S with T_tau T_sigma = I + S."""
        return extract_symbol(self.left_defect, order=-float(self.steps))

    @cached_property
    def right_residual(self) -> GridSymbol:
        """R with T_sigma T_tau = I + R."""
        return extract_symbol(self.right_defect, order=-float(self.steps))


def parametrix(sigma: Symbol, m: float, J: int, window: LatticeWindow,
               grid: TorusGrid) -> Parametrix:
    """Approximate inverse of T_sigma with J Neumann steps.

    Step 1 is the regularized pointwise inverse tau0 = conj(sigma) /
    (|sigma|^2 + delta(k)), where delta(k) = floor(k)^2 switches on wherever
    |sigma(k,.)| dips below floor(k) = theta (1+|k|)^m somewhere on the grid;
    each further step applies B <- B + B0 (I - A B), so the right residual
    is (I - A B0)^J.  sigma is sampled once: the certificate, A and B0 all
    come from that array, which becomes tau0 in place once A is built.  No
    P^3 product is formed here: B_J is built only when first read.
    """
    if J < 1:
        raise ValueError("need at least one Neumann step")
    S = sigma.sample(window, grid)
    magnitude = np.abs(S)
    row_min = np.min(magnitude, axis=1)
    rep = _certificate(magnitude, row_min, m, window)
    if not rep.elliptic:
        raise EllipticityError(
            f"symbol not certified elliptic of order {m} on N={window.N}", rep)
    _check_resolution(window, grid)
    theta = rep.C / 2.0
    floor = theta * np.power(window.radial_weight, m)
    low = row_min < floor
    A = _section(S, window, grid)
    np.conjugate(S, out=S)
    np.square(magnitude, out=magnitude)
    magnitude += np.where(low, floor ** 2, 0.0)[:, None]
    S /= magnitude
    B0 = _section(S, window, grid)
    return Parametrix(A, B0, m, J, theta, np.where(low)[0].tolist())


@dataclass
class DecayReport:
    powers: list
    shell_sups: dict          # p -> per-shell sup of (1+|k|)^p |rho|
    shells: list
    schwartz_like: bool
    tail_estimates: dict      # p -> bound on the off-window weighted sum


def residual_decay_report(rho: GridSymbol, P: int) -> DecayReport:
    """Weighted shell sups of a grid-backed residual for powers p = 0..P.

    The verdict requires every power's shell profile to decrease strictly
    from its peak through the last shell.  Shells contaminated by the
    interior margin are excluded.
    """
    if P < 0:
        raise ValueError("the decay report needs a nonnegative power")
    window = rho.window
    mask = window.interior_mask(rho.interior_margin)
    rowmax = np.max(np.abs(rho.sample(window, rho.grid)), axis=1)
    sups = {}
    tails = {}
    for p in range(P + 1):
        shells, sups[p], _ = window.shell_sups(rowmax * np.power(window.radial_weight, p), mask)
        tails[p] = _tail_bound(sups[p], shells, window)
    verdict = all(_decreasing_from_peak(sups[p]) for p in range(P + 1))
    return DecayReport(list(range(P + 1)), sups, shells, verdict, tails)


def _decreasing_from_peak(prof) -> bool:
    if len(prof) < 2:
        return False
    if max(prof) == 0.0:
        return True
    # ties at the top are fine; the decrease is judged from the last peak
    peak = len(prof) - 1 - int(np.argmax(prof[::-1]))
    if peak >= len(prof) - 1:
        return False
    tail = prof[peak:]
    return all(b < a for a, b in zip(tail, tail[1:]))


def _tail_bound(prof, shells, window) -> float:
    """Geometric extrapolation of the last shells beyond the window.

    With per-shell sup s_j and observed decay ratio q < 1, the off-window
    shell sups are bounded by s_last q, s_last q^2, ...; each shell holds
    O((2^j)^n) points, so the sum converges when q 2^n < 1 and is reported
    as infinity otherwise.
    """
    pos = [s for s in prof if s > 0]
    if not pos or prof[-1] == 0.0:
        return 0.0
    if len(pos) < 2:
        return math.inf
    q = prof[-1] / max(prof[-2], 1e-300)
    n = window.n
    growth = q * (2.0 ** n)
    if growth >= 1.0:
        return math.inf
    # points per off-window shell j: < (2^{j+1})^n; first off shell carries
    # s_last * q
    j_last = shells[-1]
    first_count = (2.0 ** (j_last + 2)) ** n
    return prof[-1] * q * first_count / (1.0 - growth)


@dataclass
class ADNReport:
    C1: float
    C2: float
    samples: int
    ratios: list
    seed: int
    rerun_N: int = None
    rerun_C1: float = None
    rerun_C2: float = None

    def to_dict(self):
        return {
            "C1": self.C1, "C2": self.C2, "samples": self.samples,
            "seed": self.seed, "rerun_N": self.rerun_N,
            "rerun_C1": self.rerun_C1, "rerun_C2": self.rerun_C2,
        }


def _adn_ratios(sigma, m, window, grid, samples, rng):
    from .quantization import apply as q_apply

    margin = interior_margin(window)
    ratios = []
    for _ in range(samples):
        u = LatticeSequence.random(window, rng, margin=margin)
        denom = sobolev_norm(m, u)
        if denom == 0.0:
            continue
        Tu = q_apply(sigma, u, grid)
        ratios.append((Tu.norm() + u.norm()) / denom)
    return ratios


def adn_verify(sigma: Symbol, m: float, window: LatticeWindow, grid: TorusGrid,
               samples: int = 100, seed: int = 42) -> ADNReport:
    """Observed two-sided constants of the graph-norm / Sobolev-norm
    equivalence on random interior-supported data; rerun at doubled N."""
    if m < 0:
        # ||u||_2 / ||u||_{m,2} is unbounded for m < 0, so no finite C2 exists
        raise ValueError("the equivalence needs nonnegative order")
    rep = check_ellipticity(sigma, m, window, grid)
    if not rep.elliptic:
        raise EllipticityError("graph-norm equivalence requires an elliptic symbol", rep)
    rng = np.random.default_rng(seed)
    ratios = _adn_ratios(sigma, m, window, grid, samples, rng)
    window2 = LatticeWindow(window.n, 2 * window.N)
    grid2 = default_grid(window2)
    rng2 = np.random.default_rng(seed)
    ratios2 = _adn_ratios(sigma, m, window2, grid2, samples, rng2)
    return ADNReport(
        C1=float(min(ratios)), C2=float(max(ratios)), samples=len(ratios),
        ratios=[float(r) for r in ratios], seed=seed,
        rerun_N=window2.N, rerun_C1=float(min(ratios2)), rerun_C2=float(max(ratios2)))


@dataclass
class SolveResult:
    solution: LatticeSequence
    residual_interior: float
    residual_boundary: float
    iterations: int
    fallback_reason: str        # None, "divergence", "stall" or "iteration cap"
    residual_history: list

    @property
    def fallback_used(self) -> bool:
        return self.fallback_reason is not None

    def report_dict(self):
        return {
            "residual_interior": self.residual_interior,
            "residual_boundary": self.residual_boundary,
            "iterations": self.iterations,
            "fallback_used": self.fallback_used,
            "fallback_reason": self.fallback_reason,
            "residual_history": list(self.residual_history),
        }


def solve(sigma: Symbol, m: float, f: LatticeSequence, window: LatticeWindow,
          grid: TorusGrid, tol: float = 1e-8, J: int = 2, max_iter: int = 500) -> SolveResult:
    """Parametrix-preconditioned residual iteration for T_sigma u = f.

    Each iteration applies B_J to the residual matrix-free (2J-1 products
    with A or B0), so no P^3 product is formed unless the iteration falls
    back to a dense direct solve: as soon as the interior residual rises
    above its starting value (divergence), when it stalls (< 10% reduction
    over 20 iterations) or when the cap is reached without meeting tol.
    The result records which of the three caused a fallback and the
    interior residual of every iterate.  Raises ConvergenceError only if
    even the direct solve misses the target.
    """
    par = parametrix(sigma, m, J, window, grid)
    A = par.sigma_matrix.entries
    margin = interior_margin(window)
    mask = window.interior_mask(margin)
    fnorm = f.norm() if f.norm() > 0 else 1.0

    def split_residual(u):
        r = f.values - A @ u
        ri = float(np.linalg.norm(r[mask])) / fnorm
        rb = float(np.linalg.norm(r[~mask])) / fnorm
        return r, ri, rb

    u = np.zeros(window.size, dtype=complex)
    history = []
    reason = "iteration cap"
    it = 0
    for it in range(1, max_iter + 1):
        r, ri, rb = split_residual(u)
        history.append(ri)
        if ri <= tol:
            return SolveResult(LatticeSequence(window, u), ri, rb, it - 1,
                               None, history)
        if ri > history[0]:
            reason = "divergence"
            break
        if len(history) > 20 and history[-1] > 0.9 * history[-21]:
            reason = "stall"
            break
        u = u + par.apply(r)
    u = np.linalg.solve(A, f.values)
    _, ri, rb = split_residual(u)
    history.append(ri)
    if ri <= tol:
        return SolveResult(LatticeSequence(window, u), ri, rb, it, reason, history)
    raise ConvergenceError(
        f"interior residual {ri:.3e} above tol {tol:.3e} even after direct solve",
        best_iterate=LatticeSequence(window, u), residual_history=history)


def residual_order_sequence(sigma: Symbol, m: float, window: LatticeWindow,
                            grid: TorusGrid, J_max: int = 3) -> list:
    """Estimated order of the left residual for J = 1..J_max, refining one parametrix."""
    orders = []
    par = None
    for _ in range(J_max):
        par = parametrix(sigma, m, 1, window, grid) if par is None else par.refined()
        est = estimate_order(par.left_residual, window, grid, alpha_max=0, beta_max=0)
        orders.append(est.m_hat)
    return orders


__all__ = [
    "Parametrix", "parametrix", "DecayReport", "residual_decay_report",
    "ADNReport", "adn_verify", "SolveResult", "solve",
    "residual_order_sequence",
]
