"""Parametrix construction and elliptic solving on finite sections.

The starting guess is the pointwise inverse of the symbol: exact factors
for one k-only times x-only term at each k (one term, or a jump symbol),
else streamed from its samples into kept rows, each distinct row of a
split symbol transformed on the smallest grid a decay bound proves
enough (``quantization._row_grids``).  Neumann refinement at
matrix level multiplies the residual order down by one per step.  The
two-sided graph-norm/Sobolev-norm equivalence and the preconditioned
solver both ride on that parametrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import LatticeSequence, LatticeWindow, TorusGrid, default_grid, shift_coefficients
from .errors import ConvergenceError, EllipticityError
from .quantization import OperatorMatrix, _finite_values, _operator, _profile_rows, _row_grids, \
    _sampled, _transformed, apply as q_apply, extract_symbol, interior_margin
from .sobolev import sobolev_norm
from .symbols import (
    GridSymbol,
    Symbol,
    _blocks,
    _certificate,
    _decreasing_from_peak,
    _finite_factors,
    _one_term_per_row,
    _profiles,
    _row_minima,
    _shell_slope,
    _slabs,
    check_ellipticity,
)


@dataclass
class Parametrix:
    """Finite-section parametrix B_J of A = T_sigma after J Neumann steps.

    A (``sigma_matrix``) and the first step B0 (``initial``) are held as
    factors or as sections, as ``parametrix`` built them, so ``apply``
    gives B_J r from products A v and B0 v alone: a few size-Q transforms
    on factors, one pass over a sparse section's entries.  Built on first
    read and kept, each at most once: B_J (``matrix``) and the defects,
    ``OperatorMatrix.product``s, sparse when A's and B0's sections are
    sparse enough and dense otherwise, so a caller that only applies the
    parametrix, or reads the defects of a sparse one, forms no P x P array.
    The residuals' sizes are the defects' ``symbol_row_maxima``;
    ``left_residual`` extracts a symbol.  ``restricted`` gives the
    parametrix of a smaller window's section on the same grid from B0 and
    the certificate's row minima.
    """
    sigma_matrix: OperatorMatrix  # A
    initial: OperatorMatrix       # B0
    steps: int                    # J
    row_minima: np.ndarray        # min over the grid of |sigma(k, x)| per row

    def restricted(self, A: OperatorMatrix, m: float) -> "Parametrix":
        """The J-step parametrix of A, a section on a smaller window of
        this one's grid.  Its B0 is the principal sub-section of this B0
        (``OperatorMatrix.principal``) and its certificate of order m reads
        this one's row minima on A's rows, the same samples of sigma, so
        nothing is sampled or transformed again.  Raises
        EllipticityError when that certificate fails."""
        window, grid = A.window, self.initial.grid
        if A.grid != grid:
            raise ValueError(f"section on M={A.grid.M}, parametrix on M={grid.M}")
        row_min = self.row_minima[window.rows_in(self.initial.window)]
        _certify(row_min, m, window)
        return Parametrix(A, self.initial.principal(window), self.steps, row_min)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B_J r: v = B0 r, then J-1 times v <- v + B0 (r - A v)."""
        A, B0 = self.sigma_matrix, self.initial
        v = B0 @ r
        for _ in range(self.steps - 1):
            v += B0 @ (r - A @ v)
        return v

    @cached_property
    def matrix(self) -> OperatorMatrix:
        """B_J, from B_1 = B0 and B_{j+1} = B_j + B0 (I - A B_j)."""
        A, B0 = self.sigma_matrix, self.initial
        B = B0
        for _ in range(self.steps - 1):
            B = B0.product(A.product(B, scale=-1.0, shift=1.0), add=B)
        return B

    @cached_property
    def left_defect(self) -> OperatorMatrix:
        """B A - I."""
        return self.matrix.product(self.sigma_matrix, shift=-1.0)

    @cached_property
    def right_defect(self) -> OperatorMatrix:
        """A B - I."""
        return self.sigma_matrix.product(self.matrix, shift=-1.0)

    def form_report(self) -> dict:
        """The form of B_J and of each defect, with its entries per row."""
        return {"B_J": self.matrix.form_report(),
                "left_defect": self.left_defect.form_report(),
                "right_defect": self.right_defect.form_report()}

    @cached_property
    def left_residual(self) -> GridSymbol:
        """S with T_tau T_sigma = I + S."""
        return extract_symbol(self.left_defect, order=-float(self.steps))


def parametrix(sigma: Symbol, m: float, J: int, window: LatticeWindow,
               grid: TorusGrid) -> Parametrix:
    """Approximate inverse of T_sigma with J Neumann steps.

    Step 1 is the pointwise inverse tau0 = conj(sigma) / |sigma|^2; each
    further step applies B <- B + B0 (I - A B), so the right residual is
    (I - A B0)^J.  sigma is evaluated once, and A and B0 take their form
    from how it splits (``Symbol._terms``):

    - one separated term a_r(k) b_r(x) at each k (``_one_term_per_row``:
      one term, or a jump symbol's step(k1) e^{2 pi i d x1} + (1 - step(k1))):
      A is held as its factors and B0 as the exact factors of
      tau0 = sum_r [a_r != 0] (1/a_r)(1/b_r) over the terms some k reads
      (``_reciprocal_factors``), and the certificate reads
      sum_r |a_r| min |b_r|;
    - several terms at some k: A is held as its factors; sigma(k, .) =
      a(k) @ b depends on k only through the row a(k), so one pass over
      the distinct rows (``_profiles``) gives their minima of |sigma| over
      the whole grid.  Each distinct row's tau0 is transformed once, on
      the smallest divisor d of M that ``quantization._row_grids`` proves
      resolves it, sampled at every (M/d)-th node per axis
      (``_on_sub_grids``), and each row of B0 reads its shift
      coefficients at their modes mod M (``_profile_rows``).  A row the
      bound leaves at M is transformed from the pass that gives its
      minimum, so on a prime M every row is;
    - no split: one pass over sigma's slabs gives the row minima, A's
      rows and, from each slab's tau0, B0's.

    Rows stream into kept sparse rows (``quantization._sampled``,
    ``quantization._profile_rows``), so no (P, Q) array is formed; a slab
    whose minimum is 0 gives B0 none, as the certificate refuses sigma.
    The row minima are kept.
    """
    return _parametrix(sigma, sigma._terms(window, grid), m, J, window, grid)


def _parametrix(sigma: Symbol, terms, m: float, J: int, window: LatticeWindow,
                grid: TorusGrid, A: OperatorMatrix = None) -> Parametrix:
    """``parametrix`` from sigma's separated factors ``terms``
    (``Symbol._terms`` on window and grid, or None), with A, when given,
    as the section of sigma it reads instead of one built here."""
    if J < 1:
        raise ValueError("need at least one Neumann step")
    if _one_term_per_row(terms):
        row_min = _row_minima(sigma, terms, window, grid)
        _certify(row_min, m, window)
        return Parametrix(OperatorMatrix.from_factors(*terms, window, grid) if A is None else A,
                          OperatorMatrix.from_factors(*_reciprocal_factors(*terms), window, grid),
                          J, row_min)
    minima, rows_of_A, source, inverse = [], [], terms, slice(None)
    if terms is not None:
        a, inverse = _profiles(terms[0])
        source = a, terms[1]
        _finite_factors(*source)
        grids, centres = _row_grids(*source, window, grid)
        placed = grids < grid.M

    def at_full_grid():
        # every row's minimum, and tau0 of the rows left on the whole grid
        for ids, S, magnitude in _blocks(sigma, source, window, grid):
            minima.append(np.min(magnitude, axis=1))
            if terms is None and A is None:
                rows_of_A.extend(_sampled([(ids, S)], window, grid))
            if minima[-1].min() == 0:  # the certificate refuses sigma
                continue
            if terms is None:
                yield ids, _reciprocal(S, magnitude)
                continue
            ids, keep = np.arange(ids.start, ids.stop), ~placed[ids]
            if not keep.all():
                ids, S, magnitude = ids[keep], S[keep], magnitude[keep]
            if len(ids):
                yield (ids, *_transformed(_reciprocal(S, magnitude), window, grid))

    with np.errstate(all="ignore"):  # non-finite entries are refused by _read
        if terms is None:
            rows_of_B0 = list(_sampled(at_full_grid(), window, grid))
        else:
            placed_rows = _on_sub_grids(*source, grids, centres, window, grid)
            rows_of_B0 = list(_profile_rows(itertools.chain(at_full_grid(), placed_rows),
                                            inverse, window, grid))
    row_min = np.concatenate(minima)[inverse]
    _certify(row_min, m, window)
    if A is None:
        A = OperatorMatrix.from_factors(*terms, window, grid) if terms is not None else \
            _operator(rows_of_A, window, grid)
    return Parametrix(A, _operator(rows_of_B0, window, grid), J, row_min)


def _reciprocal(S: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """tau0 = conj(S) / |S|^2 from the samples S and their moduli, written
    over both."""
    # conj(S * (1 / |S|^2)): a complex division by |S|^2 takes twice as
    # long and flips the sign of zero imaginary parts
    recip = np.reciprocal(np.square(magnitude, out=magnitude), out=magnitude)
    return np.conj(np.multiply(S, recip, out=S), out=S)


def _on_sub_grids(a: np.ndarray, b: np.ndarray, grids: np.ndarray, centres: np.ndarray,
                  window: LatticeWindow, grid: TorusGrid):
    """(ids, slots, C) for the distinct rows a(k) of sigma = a @ b that
    ``_row_grids`` places on a grid of d < M nodes per axis: tau0 sampled
    on every (M/d)-th node of the grid, a[ids] @ b there, and transformed
    at length d^n, rows of one d together in slabs of about
    ``symbols._BLOCK`` samples.  A row's d^n coefficients stand for the
    modes -m0 + j, |j_i| <= (d - 1) / 2, around the mode where its tau0
    peaks (m0 its ``_row_grids`` centre), each read at its slot mod M."""
    n, M = grid.n, grid.M
    for d in np.unique(grids[grids < M]):
        sub, ids_d = TorusGrid(n, int(d)), np.flatnonzero(grids == d)
        nodes = b.reshape((len(b),) + grid.shape)[(slice(None),) + (slice(None, None, M // d),) * n]
        nodes = nodes.reshape(len(b), sub.size)
        residues = np.unravel_index(np.arange(sub.size), sub.shape)
        half = (d - 1) // 2
        for rows in _slabs(len(ids_d), sub.size):
            ids = ids_d[rows]
            S = a[ids] @ nodes
            C = shift_coefficients(_reciprocal(S, np.abs(S)), window, sub)
            m0 = centres[ids]
            yield ids, [((r + m0[:, [j]] + half) % d - half - m0[:, [j]]) % M
                        for j, r in enumerate(residues)], C


def _reciprocal_factors(a: np.ndarray, b: np.ndarray):
    """The factors of tau0 = 1/sigma for factors (a, b) of one term per row:
    sum_r [a_r(k) != 0] (1 / a_r(k)) (1 / b_r(x)), exact.  A term that no
    window point reads is dropped, so a zero of its b_r is not divided by;
    one term needs no mask, since a certified a of one column has no zero."""
    if a.shape[1] == 1:
        return 1 / a, 1 / b
    active = np.any(a != 0, axis=0)
    a, b = a[:, active], b[active]
    with np.errstate(all="ignore"):  # 1/0 off a's support, replaced by 0
        return np.where(a != 0, 1 / a, 0), 1 / b


def _certify(row_min: np.ndarray, m: float, window: LatticeWindow) -> None:
    """Refuse, with EllipticityError, a symbol whose row minima of |sigma|
    fail the certificate of order m (``symbols._certificate``) on window."""
    rep = _certificate(row_min, m, window)
    if not rep.elliptic:
        raise EllipticityError(
            f"symbol not certified elliptic of order {m} on N={window.N}", rep)


@dataclass
class DecayReport:
    powers: list
    shell_sups: dict          # p -> per-shell sup of (1+|k|)^p |rho|
    shells: list
    schwartz_like: bool


def _weighted_shell_sups(rowmax: np.ndarray, window: LatticeWindow, power: int, margin=None):
    """The shells and per-shell sups of (1+|k|)^power |rho| from the row
    sups max over x of |rho(k, x)| of a residual, on the rows at least
    ``margin`` layers inside the window (default ``interior_margin``).
    Rows below 1e-13 max(1, the largest) read as 0: at roundoff level they
    are exact zeros of the residual in disguise."""
    floor = 1e-13 * max(1.0, float(np.max(rowmax)))
    weighted = np.where(rowmax < floor, 0.0, rowmax) * np.power(window.radial_weight, power)
    mask = window.interior_mask(interior_margin(window) if margin is None else margin)
    return window.shell_sups(weighted, mask)[:2]


def _decay_report(rowmax: np.ndarray, window: LatticeWindow, P: int, margin=None) -> DecayReport:
    """``residual_decay_report`` from the residual's row sups ``rowmax``."""
    if P < 0:
        raise ValueError("the decay report needs a nonnegative power")
    sups = {}
    for p in range(P + 1):
        shells, sups[p] = _weighted_shell_sups(rowmax, window, p, margin)
    verdict = all(_decreasing_from_peak(sups[p]) for p in range(P + 1))
    return DecayReport(list(range(P + 1)), sups, shells, verdict)


def residual_decay_report(rho: GridSymbol, P: int) -> DecayReport:
    """Weighted shell sups of a grid-backed residual for powers p = 0..P.

    The verdict requires every power's shell profile to decrease strictly
    from its peak through the last shell.  Shells contaminated by the
    interior margin are excluded, and rows at roundoff level count as
    zero (``_weighted_shell_sups``), so a residual that is pure roundoff
    is zero, which decays.
    """
    return _decay_report(np.max(np.abs(rho.values), axis=1), rho.window, P, rho.interior_margin)


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


def _adn_ratios(sigma, m, window, grid, samples, rng):
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

    The residual f - A u and each application of B_J (2J-1 products with
    A or B0) run on the forms the parametrix holds, factors or sparse
    sections, so no P x P array is formed, save a section too full for
    the sparse form, unless the iteration falls back to a dense direct
    solve on the section of A: as soon as the interior residual rises
    above its starting value (divergence), when it stalls (< 10% reduction
    over 20 iterations) or when the cap is reached without meeting tol.
    The result records which of the three caused a fallback and the
    interior residual of every iterate.  Raises ConvergenceError only if
    even the direct solve misses the target or finds the section singular
    (an exact section of an operator with a cokernel, say), with the
    residual history and the last iterate.
    """
    _finite_values(f)
    par = parametrix(sigma, m, J, window, grid)
    margin = interior_margin(window)
    mask = window.interior_mask(margin)
    fnorm = f.norm() or 1.0

    def split_residual(u):
        r = f.values - par.sigma_matrix @ u
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
    try:
        u = np.linalg.solve(par.sigma_matrix.entries, f.values)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(
            f"direct solve after the {reason} found the section singular ({e})",
            best_iterate=LatticeSequence(window, u), residual_history=history) from e
    _, ri, rb = split_residual(u)
    history.append(ri)
    if ri <= tol:
        return SolveResult(LatticeSequence(window, u), ri, rb, it, reason, history)
    raise ConvergenceError(
        f"interior residual {ri:.3e} above tol {tol:.3e} even after direct solve",
        best_iterate=LatticeSequence(window, u), residual_history=history)


def residual_order_sequence(sigma: Symbol, m: float, window: LatticeWindow,
                            grid: TorusGrid) -> list:
    """Estimated order of the left residual for J = 1, 2, 3.

    One parametrix is built; its copies at J steps share A and B0, so
    sigma is evaluated once and each section is formed once.  Each order
    is ``estimate_order``'s m_hat at alpha_max = beta_max = 0, read from
    the left defect's row maxima.
    """
    par = parametrix(sigma, m, 1, window, grid)
    rows = (replace(par, steps=J).left_defect.symbol_row_maxima() for J in (1, 2, 3))
    return [_shell_slope(r, window.interior_mask(0), window, float(np.max(r)))[0] for r in rows]


__all__ = [
    "Parametrix", "parametrix", "DecayReport", "residual_decay_report",
    "ADNReport", "adn_verify", "SolveResult", "solve",
    "residual_order_sequence",
]
