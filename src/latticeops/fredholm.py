"""Fredholm index of elliptic order-0 operators, two independent ways.

Route one counts kernel and cokernel dimensions on growing finite
sections (``assemble_matrix``, or the A of the parametrix at the largest
window of ``full_index_report``).  A section whose sparse pattern falls
apart into independent blocks (``OperatorMatrix.blocks``) takes its
singular values block by block; a block with values below the rank
threshold takes an orthonormal basis of each null space from its own
SVD, its trailing right singular vectors for the kernel and its trailing
left ones for the cokernel.  A section of one block is decided from its
parametrix defects S = B_J A - I and R = A B_J - I (Atkinson's theorem
made quantitative), with sparse products only: Schur(S) < 1 certifies
it invertible, and otherwise a seeded randomized subspace iteration on
S bounds every singular value of A past the r defect directions above
SV_THRESHOLD, while a Rayleigh-Ritz step on the range of S (of R^H for
the cokernel), turned by S while its largest Ritz value falls, finds the
null vectors.  A section neither decides runs its P x P SVD.
A square section always balances raw null counts, so null vectors are
attributed to the operator only when they live in the interior of the
window: truncation artifacts concentrate their mass in the boundary
margin and are discarded.  Route two evaluates the trace formula on the
parametrix residuals, with an explicit bound on the off-window tail
before an integer verdict is allowed.  Every window of a run shares one
grid, the largest window's ``index_grid``, and ``full_index_report``
builds one parametrix, at the largest window: the trace route reads it
there, and each smaller one-block section reads its restriction
(``Parametrix.restricted``), so tau0 is sampled and transformed once.
``svd_index`` builds that parametrix too, once a one-block section
needs it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import LatticeWindow, index_grid
from .errors import EllipticityError
from .elliptic import _weighted_shell_sups, parametrix
from .quantization import assemble_matrix, interior_margin
from .symbols import EllipticityReport, Symbol, check_ellipticity

RANK_TOL = 1e-8
GAP_REQUIRED = 100.0
EPS = np.finfo(float).eps
SV_THRESHOLD = 0.1    # defect singular values above it, near-kernel ones below
_FIRST_BLOCK = 8      # columns of the first randomized block (``_top_right_singular``)
_POWER_STEPS = 2      # power steps of its subspace iteration


def _interior_null_count(null_basis: np.ndarray, mask: np.ndarray) -> int:
    """Dimension of the null space visible in the interior.

    Columns are orthonormal; the singular values of their interior
    restriction are cosines of principal angles to the interior
    subspace.  A genuine null vector scores near 1, a boundary artifact
    near 0; the cut sits at 1/2.
    """
    sv = np.linalg.svd(null_basis[mask, :], compute_uv=False)
    return int(np.sum(sv >= 0.5))


def _sections(windows, n: int):
    """Each distinct window of half-width in ``windows``, smallest first,
    with the one grid they all share, the largest window's ``index_grid``."""
    Ns = sorted(set(windows))
    grid = index_grid(LatticeWindow(n, Ns[-1]))
    for N in Ns:
        yield LatticeWindow(n, N), grid


@dataclass
class WindowEvidence:
    N: int
    dim_ker: int
    dim_coker: int
    raw_null_count: int
    gap: float
    blocks: int           # independent blocks of the section, an empty row or column one each
    largest_block: int    # max(rows, columns) of the largest block
    route: str            # "blocks", "certified", "deflated" or "dense" (``_window_evidence``)
    lower_bound: float = None  # certified bound on the smallest non-null singular value

    to_dict = asdict


@dataclass
class IndexReport:
    windows: list
    dim_ker: list
    dim_coker: list
    gap_evidence: list
    svd_index: int = None            # None encodes "unstable"
    trace_index_raw: float = None
    trace_index: int = None          # None encodes "unresolved"
    agreement: bool = None
    tail_bound: float = None
    trace_sections: dict = None      # form and entries per row of B_J and the defects

    to_dict = asdict


def _block_null_counts(B, groups, smax: float, mask: np.ndarray):
    """Interior kernel and cokernel counts of a section, block by
    block: its null spaces are the direct sums of its blocks', and the
    mask acts on each coordinate, so the counts add.  An empty column is a
    unit kernel vector and an empty row a unit cokernel vector.  A block
    with r null values takes its null bases from the SVD with vectors of
    its padded square (``OperatorMatrix._spectrum``), U s V^H: the last r
    columns of V for the kernel and of U for the cokernel; the padded rows
    and columns count as boundary."""
    rows, cols = B.sizes()
    ker = int(np.sum(mask[rows[B.cols] == 0]))
    coker = int(np.sum(mask[cols[B.rows] == 0]))
    for ids, stack, s in groups:
        d = stack.shape[1]
        nulls = np.sum(s < RANK_TOL * smax, axis=1)
        held = np.flatnonzero(nulls)
        if not held.size:
            continue
        U, _, Vh = np.linalg.svd(stack[held])
        for i, left, right_h in zip(held, U, Vh):
            b, r = ids[i], int(nulls[i])
            on_rows, on_cols = np.zeros(d, dtype=bool), np.zeros(d, dtype=bool)
            on_rows[:rows[b]], on_cols[:cols[b]] = mask[B.rows == b], mask[B.cols == b]
            ker += _interior_null_count(right_h[-r:].conj().T, on_cols)
            coker += _interior_null_count(left[:, -r:], on_rows)
    return ker, coker


def _spectral_evidence(A, B, mask: np.ndarray):
    """(route, raw, ker, coker, gap, bound) of A's section from its
    singular values, block by block when it splits (B, ``A._spectrum``)
    and from one P x P SVD when it does not."""
    B, groups, s = A._spectrum(B)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    raw = int(np.sum(s < RANK_TOL * smax))
    gap, ker, coker = np.inf, 0, 0
    if raw:
        # s descends: s[-raw] is the largest null value and s[-raw - 1]
        # the smallest non-null one.  Null values below the roundoff
        # floor P eps s_max of the SVD are read as the floor, and an
        # all-null section has no gap at all.
        gap = 0.0 if raw == s.size else float(s[-raw - 1] / max(s[-raw], s.size * EPS * smax))
        ker, coker = _block_null_counts(B, groups, smax, mask)
    return "blocks" if B.count > 1 else "dense", raw, ker, coker, gap, None


def _norms(K) -> tuple:
    """(Schur, Frobenius, row) of K's section, from one pass over its
    sparse form or its entries: the Schur-test bound
    (max row sum * max column sum of |K|)^(1/2) >= ||K||, the Frobenius
    norm, and the largest row norm, <= ||K||."""
    S = K.sparse
    if S is None:
        mag = np.abs(K.entries)
        rows, cols, squares = np.sum(mag, axis=1), np.sum(mag, axis=0), np.sum(mag ** 2, axis=1)
    else:
        P, mag, k = K.window.size, np.abs(S.data), S.row_ids()
        rows, cols = np.bincount(k, mag, P), np.bincount(S.indices, mag, P)
        squares = np.bincount(k, mag ** 2, P)
    return float(np.sqrt(np.max(rows) * np.max(cols))), float(np.sqrt(np.sum(squares))), \
        float(np.sqrt(np.max(squares)))


def _orth(X: np.ndarray) -> np.ndarray:
    return np.linalg.qr(X)[0]


def _top_right_singular(K, Kh, rng):
    """An orthonormal basis of the right singular vectors of K with values
    above SV_THRESHOLD, or None when they take half the section.
    Randomized subspace iteration (Halko, Martinsson and Tropp, SIAM Rev.
    53, 2011, Alg. 4.4) on a block of seeded Gaussian columns with
    ``_POWER_STEPS`` power steps, the block doubling until its smallest
    value is below the threshold.  Kh is K^H."""
    P, k = K.window.size, _FIRST_BLOCK
    while 2 * k <= P:
        Q = _orth(K @ (rng.standard_normal((P, k)) + 1j * rng.standard_normal((P, k))))
        for _ in range(_POWER_STEPS):
            Q = _orth(K @ _orth(Kh @ Q))
        V, s, _ = np.linalg.svd(Kh @ Q, full_matrices=False)  # Q^H K = W s V^H
        r = int(np.sum(s > SV_THRESHOLD))
        if r < k:
            return V[:, :r]
        k *= 2
    return None


def _deflated_side(M, K, Kh, margin: float, low: float, rng):
    """(theta, null basis, largest null Ritz value) of M, with
    K = B M - I, or None.

    theta = (||K||_F^2 - ||K Y||_F^2)^(1/2) bounds every singular value of
    K past the r of Y (``_top_right_singular``), so
    ||M v|| >= (1 - theta) ||v|| / ||B|| for v orthogonal to Y, and at
    most r singular values of M lie below that bound (Courant-Fischer).
    ``margin`` adds the roundoff of K's sparse products.  A null vector
    has K v = -v, so it lies in the range of K, not in Y's span: the
    Rayleigh-Ritz step runs on the span X of K Y, K's left singular
    vectors, turned by K (whose eigenvalue -1 on the null space dominates
    the rest) until all r Ritz values, the singular values of M X, are
    below ``low``.  By interlacing M then has r singular values below
    ``low``, and X spans their vectors.  None when r is 0 (Schur(K) is
    the bound then), when a turn fails to lower the largest Ritz value
    (a plateau above ``low``), or when the block grows too large.
    """
    Y = _top_right_singular(K, Kh, rng)
    if Y is None or not Y.shape[1]:
        return None
    P, frob = K.window.size, _norms(K)[1]
    X = K @ Y
    # the difference of squares is exact to a few eps ||K||_F^2 per term
    theta = np.sqrt(max(0.0, frob ** 2 - np.linalg.norm(X) ** 2) + P * EPS * frob ** 2) + margin
    X = _orth(X)
    top, last = np.linalg.svd(M @ X, compute_uv=False)[0], np.inf
    while low <= top < last:
        X, last = _orth(K @ X), top
        top = np.linalg.svd(M @ X, compute_uv=False)[0]
    return (theta, X, float(top)) if top < low else None


def _defect_evidence(par, mask: np.ndarray):
    """(route, raw, ker, coker, gap, bound) of the section of par's A from
    the parametrix defects S = B_J A - I and R = A B_J - I, with no P x P
    SVD, or None when they do not decide.

    By ||A v|| >= ||B_J A v|| / ||B_J|| >= (1 - ||S||) ||v|| / ||B_J||,
    Schur(S) < 1 certifies the section invertible: no null values and an
    infinite gap, as its SVD would report.  Otherwise the kernel side
    deflates on S (``_deflated_side``) and the cokernel side on R^H, whose
    null vectors are A^H's.  The counts are those of the section's SVD
    when every one of the r defect values above SV_THRESHOLD on each side
    is a null Ritz value and the bound (1 - theta) / Schur(B_J) on the
    (r+1)-th smallest singular value lies above RANK_TOL ||A||.  The
    gap's numerator is that bound, its denominator the largest null Ritz
    value, read no lower than the floor P eps s_max, with s_max >= ||A||
    from the Schur test.
    """
    A, B, S = par.sigma_matrix, par.matrix, par.left_defect
    P = A.window.size
    a_schur, _, a_row = _norms(A)
    b_schur = _norms(B)[0]
    # the defects hold B_J A - I to within the roundoff of their sums of at
    # most P terms each, and of the entries dropped below _ROUNDOFF of a
    # row's scale: under P (eps + 1e-15) (|B_J| |A| + I) entrywise, whose
    # Schur bound is below this
    margin = 8 * P * EPS * (b_schur * a_schur + 1)
    low, high = RANK_TOL * a_row, RANK_TOL * a_schur  # ||A|| lies between a_row and a_schur
    bound = (1 - _norms(S)[0] - margin) / b_schur
    if bound > high:
        return "certified", 0, 0, 0, np.inf, bound
    rng = np.random.default_rng(0)
    right = _deflated_side(A, S, S.adjoint(), margin, low, rng)
    if right is None or (1 - right[0]) / b_schur <= high:
        return None
    theta, kernel, null = right
    R = par.right_defect
    left = _deflated_side(A.adjoint(), R.adjoint(), R, margin, low, rng)
    if left is None or left[1].shape[1] != kernel.shape[1]:
        return None
    theta_left, cokernel, null_left = left
    bound = (1 - min(theta, theta_left)) / b_schur
    gap = bound / max(null, null_left, P * EPS * a_schur)
    return "deflated", kernel.shape[1], _interior_null_count(kernel, mask), \
        _interior_null_count(cokernel, mask), float(gap), float(bound)


def _window_evidence(A, par) -> WindowEvidence:
    """Counts, gap and blocks of the section A on its window, and the route
    that decided them.  ``par()`` gives the J-step parametrix of sigma on
    the run's largest window and on A's grid, or None when sigma is not
    certified elliptic there; it is called only for a section of one
    block.  A is split into the independent blocks of its pattern
    (``OperatorMatrix.blocks``).  A section of several blocks takes its
    values and null bases block by block ("blocks").  A section of one
    block is decided from the defects of a parametrix that reads A
    (``_defect_evidence``: "certified" or "deflated"): par itself when A
    is its A, else par restricted to A (``Parametrix.restricted``, so
    sigma is not sampled again).  Its dense SVD decides when there is no
    such parametrix, when sigma is not certified elliptic on A's window or
    when the defects do not decide ("dense")."""
    window, B = A.window, A.blocks()
    mask = window.interior_mask(interior_margin(window))
    found, largest = None, par() if B.count == 1 else None
    if largest is not None:
        try:
            own = largest.sigma_matrix is A
            found = _defect_evidence(largest if own else largest.restricted(A, 0.0), mask)
        except EllipticityError:
            pass
    route, raw, ker, coker, gap, bound = found or _spectral_evidence(A, B, mask)
    rows, cols = B.sizes()
    return WindowEvidence(window.N, ker, coker, raw, gap, B.count,
                          int(np.max(np.maximum(rows, cols))), route, bound)


def _stabilized(evidence: list) -> IndexReport:
    """The report of the windows' evidence, smallest window first, with
    its verdict (``svd_index``)."""
    stable = (
        len(evidence) >= 2
        and evidence[-1].dim_ker == evidence[-2].dim_ker
        and evidence[-1].dim_coker == evidence[-2].dim_coker
        and evidence[-1].gap >= GAP_REQUIRED
        and evidence[-2].gap >= GAP_REQUIRED
    )
    idx = evidence[-1].dim_ker - evidence[-1].dim_coker if stable else None
    return IndexReport(
        windows=[e.N for e in evidence],
        dim_ker=[e.dim_ker for e in evidence],
        dim_coker=[e.dim_coker for e in evidence],
        gap_evidence=evidence,
        svd_index=idx,
    )


def svd_index(sigma: Symbol, windows, n: int = 1) -> IndexReport:
    """Kernel/cokernel counts across the distinct windows, smallest first,
    on the largest window's ``index_grid`` (``_window_evidence``), each
    section released before the next is built.  The three-step parametrix
    of sigma on the largest window is built when the first section of one
    block needs it, and then read by every such section; the largest
    window's section is then its A.

    Stabilized when the last two windows agree on both counts and both
    show a 100x gap between null and non-null singular values; otherwise,
    and with fewer than two distinct windows, the verdict is left unstable
    (None), never an exception.
    """
    sections = list(_sections(windows, n))
    largest, grid = sections[-1]
    built = []

    def par():
        if not built:
            try:
                built.append(parametrix(sigma, 0.0, 3, largest, grid))
            except EllipticityError:
                built.append(None)
        return built[0]

    def section(window):
        if window == largest and built and built[0] is not None:
            return built[0].sigma_matrix
        return assemble_matrix(sigma, window, grid)

    return _stabilized([_window_evidence(section(window), par) for window, _ in sections])


@dataclass
class TraceIndexResult:
    trace_index_raw: float
    trace_index: int  # None when unresolved
    tail_bound: float
    sections: dict    # Parametrix.form_report of the parametrix read


def _weighted_tail_bound(rowmax: np.ndarray, window: LatticeWindow, power: int) -> float:
    """Off-window bound for sum |rho(k)| from shellwise (1+|k|)^power sups.

    ``rowmax`` holds max over x of |rho(k, x)| for each window row, read
    on the interior shells as ``_weighted_shell_sups`` reads them.  If
    (1+|k|)^power |rho| <= s* on the observed interior shells and the same
    envelope persists beyond the window, the off-window sum is below
    s* 2^(n+1) / (N+1) for power = n+1.
    """
    _, sups = _weighted_shell_sups(rowmax, window, power)
    if not sups:
        return np.inf
    # require the envelope itself to be non-increasing on the outer shells,
    # otherwise extrapolation is not justified; all-zero sups bound 0
    outer = sups[len(sups) // 2:]
    if len(outer) >= 2 and outer[-1] > 2.0 * max(outer[:-1]):
        return np.inf
    return max(sups[-2:]) * 2.0 ** (window.n + 1) / (window.N + 1.0)


def trace_index(sigma: Symbol, window: LatticeWindow, J: int = 3) -> TraceIndexResult:
    """Index via the residual traces of a parametrix.

    With T_tau T_sigma = I - T1 and T_sigma T_tau = I - T2, the index is
    the sum over k of the x-averages of (symbol of T1) - (symbol of T2);
    here summed over interior window points with a certified tail bound.
    T1 and T2 are the negated parametrix defects; on a grid with
    M >= 2N+1 the x-average of an extracted symbol at row k is exactly
    the (k,k) matrix entry.  The grid is the window's ``index_grid``.  The
    diagonals come from the defects' sparse forms when they are sparse,
    and the tail bound reads the defects' row maxima
    (``symbol_row_maxima``), so no residual symbol is extracted.
    """
    par = parametrix(sigma, 0.0, J, window, index_grid(window))  # raises on non-elliptic
    return _trace(par, window)


def _trace(par, window: LatticeWindow) -> TraceIndexResult:
    """``trace_index`` from the parametrix par on window."""
    left, right = par.left_defect, par.right_defect
    mask = window.interior_mask(interior_margin(window))
    raw = float(np.real(np.sum((right.diagonal() - left.diagonal())[mask])))
    # the bound reads only |T1| and |T2|, the parametrix residuals' magnitudes
    tail = _weighted_tail_bound(left.symbol_row_maxima(), window, window.n + 1) + \
        _weighted_tail_bound(right.symbol_row_maxima(), window, window.n + 1)
    verdict = None
    if tail < 0.05 and abs(raw - round(raw)) < 0.25:
        verdict = int(round(raw))
    return TraceIndexResult(raw, verdict, float(tail), par.form_report())


def full_index_report(sigma: Symbol, windows, n: int = 1, J: int = 3) -> IndexReport:
    """svd_index across windows plus trace_index at the largest one, from
    one J-step parametrix: every window runs on the largest one's
    ``index_grid``, tau0 is sampled and transformed once, at the largest
    window, and each smaller one-block section reads the restriction of
    that parametrix (``_window_evidence``), so J applies at every window."""
    sections = list(_sections(windows, n))
    window, grid = sections[-1]
    par = parametrix(sigma, 0.0, J, window, grid)  # raises on non-elliptic
    report = _stabilized([
        _window_evidence(par.sigma_matrix if w == window else assemble_matrix(sigma, w, grid),
                         lambda: par)
        for w, _ in sections])
    tr = _trace(par, window)
    report.trace_index_raw = tr.trace_index_raw
    report.trace_index = tr.trace_index
    report.tail_bound = tr.tail_bound
    report.trace_sections = tr.sections
    if report.svd_index is not None and report.trace_index is not None:
        report.agreement = report.svd_index == report.trace_index
    return report


@dataclass
class AtkinsonReport:
    windows: list
    left_counts: list    # singular values of T_tau T_sigma - I above 0.1
    right_counts: list   # singular values of T_sigma T_tau - I above 0.1
    sizes: list
    bounded: bool        # None with fewer than two distinct windows

    to_dict = asdict


def atkinson_check(sigma: Symbol, windows, n: int = 1) -> AtkinsonReport:
    """Compactness surrogate for the two defects of the two-step parametrix.

    The count of singular values above SV_THRESHOLD must not grow with
    the section size; bounded means the largest of the distinct windows
    adds at most two over the smallest.  One window shows no growth
    either way, so bounded is then None.
    """
    Ns, lc, rc, sizes = [], [], [], []
    for window, grid in _sections(windows, n):
        par = parametrix(sigma, 0.0, 2, window, grid)
        Ns.append(window.N)
        lc.append(int(np.sum(par.left_defect.singular_values() > SV_THRESHOLD)))
        rc.append(int(np.sum(par.right_defect.singular_values() > SV_THRESHOLD)))
        sizes.append(window.size)
    bounded = (lc[-1] <= lc[0] + 2 and rc[-1] <= rc[0] + 2) if len(Ns) >= 2 else None
    return AtkinsonReport(Ns, lc, rc, sizes, bounded)


@dataclass
class ProbeReport:
    elliptic: bool
    ellipticity: EllipticityReport
    atkinson: AtkinsonReport = None
    near_kernel_counts: list = None
    windows: list = None
    consistent: bool = None          # None with fewer than two distinct windows

    to_dict = asdict


def fredholm_ellipticity_probe(sigma: Symbol, windows, n: int = 1) -> ProbeReport:
    """Two-sided diagnostic; reports and never raises.

    Elliptic branch: the parametrix defects must pass the compactness
    surrogate.  Non-elliptic branch: the near-kernel (singular values
    below SV_THRESHOLD) must grow with the window.  Either way, fewer
    than two distinct windows give no verdict (consistent is None).
    """
    windows = sorted(set(windows))
    window = LatticeWindow(n, windows[-1])
    # Fredholmness on l^2 is a statement about order-0 behavior, so the
    # certificate is always taken at m = 0 regardless of declared order.
    rep = check_ellipticity(sigma, 0.0, window, index_grid(window))
    if rep.elliptic:
        try:
            atk = atkinson_check(sigma, windows, n=n)
        except EllipticityError:
            return ProbeReport(True, rep, consistent=False)
        return ProbeReport(True, rep, atkinson=atk, windows=windows,
                           consistent=atk.bounded)
    counts = [int(np.sum(assemble_matrix(sigma, w, g).singular_values() < SV_THRESHOLD))
              for w, g in _sections(windows, n)]
    growing = all(b > a for a, b in zip(counts, counts[1:])) if len(counts) >= 2 else None
    return ProbeReport(False, rep, near_kernel_counts=counts, windows=windows,
                       consistent=growing)
