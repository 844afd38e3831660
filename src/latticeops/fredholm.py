"""Fredholm index of elliptic order-0 operators, two independent ways.

Route one counts kernel and cokernel dimensions on growing finite
sections.  A section whose sparse pattern falls apart into independent
blocks takes its singular values block by block; a block with values
below the rank threshold takes an orthonormal basis of each null space
from its own SVD, its trailing right singular vectors for the kernel and
its trailing left ones for the cokernel.  A section of one block is
decided from its parametrix defects S = B_J A - I and R = A B_J - I
(Atkinson's theorem made quantitative), with sparse products only:
Schur(S) < 1 certifies it invertible, and otherwise a seeded randomized
subspace iteration on S bounds every singular value of A past the r
defect directions above SV_THRESHOLD, while a Rayleigh-Ritz step on the
range of S (of R^H for the cokernel), turned by S while its largest Ritz
value falls, finds the null vectors.  A section neither decides runs its
P x P SVD.  A square section always balances raw null counts, so null
vectors are attributed to the operator only when they live in the
interior of the window: truncation artifacts concentrate their mass in
the boundary margin and are discarded.  Route two evaluates the trace
formula on the parametrix residuals, with an explicit bound on the
off-window tail before an integer verdict is allowed.

``svd_index`` and ``full_index_report`` share one index run
(``_index_run``), which pays once for what every window needs.  Every
window shares one grid, the largest window's ``index_grid``, and sigma
is evaluated once, at the largest window: when it splits, each window's
section is gathered from those factors, its own rows kept against their
in-window peaks (``quantization._factor_sections``).  The sparse sections
are stacked block-diagonally and decided in one pass (``_evidence``): one
split into blocks, one values-only SVD per block size across all the
split windows, and one null-basis pass, each block read against its own
window's s_max.  One parametrix is built, at the largest window: the
trace route reads it there, and each smaller one-block section reads its
restriction (``Parametrix.restricted``), so tau0 is sampled and
transformed once.  ``svd_index`` builds it only when a section of one
block needs it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import LatticeWindow, index_grid
from .errors import EllipticityError
from .elliptic import _parametrix, _weighted_shell_sups, parametrix
from .quantization import (
    Blocks,
    _components,
    _factor_sections,
    _spectrum,
    _stacked,
    assemble_matrix,
    interior_margin,
)
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
    near 0; the cut sits at 1/2.  One vector's cosine is the norm of its
    interior part.
    """
    if null_basis.shape[1] == 1:
        return int(np.linalg.norm(null_basis[mask, 0]) >= 0.5)
    sv = np.linalg.svd(null_basis[mask, :], compute_uv=False)
    return int(np.sum(sv >= 0.5))


def _interior(window: LatticeWindow) -> np.ndarray:
    """The window's points at least ``interior_margin`` layers inside it."""
    return window.interior_mask(interior_margin(window))


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


def _block_null_counts(B: Blocks, owner: np.ndarray, win: np.ndarray, groups, smax: np.ndarray,
                       mask: np.ndarray, windows: int):
    """Interior kernel and cokernel counts of each window of a stack of
    sections, block by block: a section's null spaces are the direct sums
    of its blocks', and the mask acts on each coordinate, so the counts
    add.  ``owner`` gives the window of each row (and column) of the
    stack, ``win`` that of each block, ``smax[b]`` the largest singular
    value of block b's window, and ``groups`` the padded stacks of the
    blocks and their values (``quantization._spectrum``).  An empty column
    is a unit kernel vector and an empty row a unit cokernel vector.  A
    block with r values below RANK_TOL times its window's s_max takes its
    null bases from the SVD with vectors of its padded square, U s V^H:
    the last r columns of V for the kernel and of U for the cokernel; the
    padded rows and columns count as boundary, and a block of one entry
    is its own basis."""
    rows, cols = B.sizes()
    ker = np.bincount(owner, mask & (rows[B.cols] == 0), windows).astype(int)
    coker = np.bincount(owner, mask & (cols[B.rows] == 0), windows).astype(int)
    for ids, stack, s in groups:
        d = s.shape[1]
        nulls = np.sum(s < RANK_TOL * smax[ids][:, None], axis=1)
        held = np.flatnonzero(nulls)
        if not held.size:
            continue
        slot = np.full(B.count, -1)
        slot[ids[held]] = np.arange(held.size)
        row_place, col_place = B.places(slot)
        on_rows, on_cols = np.zeros((2, held.size, d), dtype=bool)
        for on, labels, place in ((on_rows, B.rows, row_place), (on_cols, B.cols, col_place)):
            at = np.flatnonzero(place >= 0)
            on[slot[labels[at]], place[at]] = mask[at]
        if d == 1:
            U = Vh = np.ones((held.size, 1, 1))
        else:
            U, _, Vh = np.linalg.svd(stack[held])
        for i, left, right_h, on_r, on_c in zip(held, U, Vh, on_rows, on_cols):
            w, r = win[ids[i]], int(nulls[i])
            ker[w] += _interior_null_count(right_h[-r:].conj().T, on_c)
            coker[w] += _interior_null_count(left[:, -r:], on_r)
    return ker, coker


def _spectral_evidence(B: Blocks, owner: np.ndarray, win: np.ndarray, spectrum, sizes: list,
                       decided, mask: np.ndarray) -> dict:
    """{i: (route, raw, ker, coker, gap, bound)} of each window i in
    ``decided`` of a stack of sections of ``sizes`` rows (and columns)
    each, in order, from the singular values of its blocks B
    (``quantization._spectrum``: groups, owners, values), ``owner`` the
    window of each row (and column) and ``win`` that of each block:
    "blocks" for a section of several blocks, "dense" for one.  Each
    window's values are the union of its blocks', padded with zeros to
    its P, and its null test reads its own s_max."""
    groups, owners, values = spectrum
    count, of_value = np.bincount(win, minlength=len(sizes)), win[owners]
    smax, found = np.ones(len(sizes)), {}
    for i in decided:
        s = np.sort(values[of_value == i])[::-1]
        s = np.concatenate([s, np.zeros(sizes[i] - s.size)])
        smax[i] = s[0] if s[0] > 0 else 1.0
        raw = int(np.sum(s < RANK_TOL * smax[i]))
        # s descends: s[-raw] is the largest null value and s[-raw - 1]
        # the smallest non-null one.  Null values below the roundoff floor
        # P eps s_max of the SVD are read as the floor, and an all-null
        # section has no gap at all.
        gap = np.inf if not raw else 0.0 if raw == s.size else \
            float(s[-raw - 1] / max(s[-raw], s.size * EPS * smax[i]))
        found[i] = ["blocks" if count[i] > 1 else "dense", raw, 0, 0, gap, None]
    ker, coker = _block_null_counts(B, owner, win, groups, smax[win], mask, len(sizes))
    for i, f in found.items():
        f[2:4] = int(ker[i]), int(coker[i])
    return {i: tuple(f) for i, f in found.items()}


def _dense_evidence(A) -> tuple:
    """(route, raw, ker, coker, gap, bound) of A's section from its P x P SVD."""
    E, P = A.entries, A.window.size
    s = np.linalg.svd(E, compute_uv=False)
    one = np.zeros(P, dtype=np.intp)
    spectrum = [(one[:1], E[None], s[None])], one, s
    return _spectral_evidence(Blocks(one, one, 1), one, one[:1], spectrum, [P], [0],
                              _interior(A.window))[0]


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


def _split_evidence(sections: list):
    """(shape, found): the (blocks, largest block) of each section, and
    {i: (route, raw, ker, coker, gap, bound)} of each section i of several
    blocks.  The patterns of the sparse sections are stacked
    block-diagonally and split into their independent blocks in one pass
    (``quantization._components``); every section of several blocks then
    takes its values and null bases from one pass over the blocks of all
    of them (``quantization._spectrum``, ``_spectral_evidence``)."""
    sizes = [A.window.size for A in sections]
    shape = [(1, P) for P in sizes]
    held = [i for i, A in enumerate(sections) if A.sparse is not None]
    if not held:
        return shape, {}
    stack = _stacked([sections[i].sparse for i in held])
    B = _components(stack)
    owner = np.repeat(np.arange(len(held)), [sizes[i] for i in held])
    win = np.empty(B.count, dtype=np.intp)
    win[B.rows], win[B.cols] = owner, owner
    rows, cols = B.sizes()
    widest = np.zeros(len(held), dtype=np.intp)
    np.maximum.at(widest, win, np.maximum(rows, cols))
    count = np.bincount(win, minlength=len(held))
    for j, i in enumerate(held):
        shape[i] = int(count[j]), int(widest[j])
    split = np.flatnonzero(count > 1)
    if not split.size:
        return shape, {}
    mask = np.concatenate([_interior(sections[i].window) for i in held])
    stack = stack._replace(data=np.concatenate([sections[i].sparse.data for i in held]))
    found = _spectral_evidence(B, owner, win, _spectrum(stack, B, (count > 1)[win]),
                               [sizes[i] for i in held], split, mask)
    return shape, {held[j]: f for j, f in found.items()}


def _evidence(sections: list, par) -> list:
    """The ``WindowEvidence`` of each section, in order, and the route
    that decided it.  ``par()`` gives the J-step parametrix of sigma on
    the run's largest window and on the sections' grid, or None when sigma
    is not certified elliptic there; it is called only when a section is
    of one block.

    Every section of several blocks is decided in one stacked pass
    (``_split_evidence``): "blocks".  A section of one block is decided
    from the defects of a parametrix that reads it (``_defect_evidence``:
    "certified" or "deflated"): par itself when the section is its A, else
    par restricted to it (``Parametrix.restricted``, so sigma is not
    sampled again).  Its dense SVD decides when there is no such
    parametrix, when sigma is not certified elliptic on its window or when
    the defects do not decide ("dense")."""
    shape, found = _split_evidence(sections)
    evidence = []
    for i, A in enumerate(sections):
        if i not in found:
            largest = par()
            if largest is not None:
                try:
                    own = largest.sigma_matrix is A
                    found[i] = _defect_evidence(largest if own else largest.restricted(A, 0.0),
                                                _interior(A.window))
                except EllipticityError:
                    pass
            found[i] = found.get(i) or _dense_evidence(A)
        route, raw, ker, coker, gap, bound = found[i]
        evidence.append(WindowEvidence(A.window.N, ker, coker, raw, gap, *shape[i], route, bound))
    return evidence


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


def _index_run(sigma: Symbol, windows, n: int, J: int, eager: bool):
    """(evidence, par): the ``WindowEvidence`` of each distinct window,
    smallest first, on the largest window's ``index_grid``
    (``_evidence``), and the J-step parametrix of sigma on the largest
    window, or None.  sigma is evaluated once: when it splits, every
    window's section is gathered from its factors on the largest window
    (``quantization._factor_sections``), and the parametrix reads the
    largest one's; when it does not, each smaller window streams its
    samples (``assemble_matrix``).  ``eager`` builds the parametrix first
    and raises EllipticityError when sigma is not certified elliptic;
    otherwise it is built when the first section of one block needs it."""
    sections = list(_sections(windows, n))
    largest, grid = sections[-1]
    terms = sigma._terms(largest, grid)
    built = []
    if terms is not None:
        As = _factor_sections(*terms, [w for w, _ in sections], grid)
    else:
        if eager:
            built.append(_parametrix(sigma, None, 0.0, J, largest, grid))
        As = [assemble_matrix(sigma, w, grid) for w, _ in sections[:-1]]
        As.append(built[0].sigma_matrix if built else assemble_matrix(sigma, largest, grid))
    if eager and not built:
        built.append(_parametrix(sigma, terms, 0.0, J, largest, grid, As[-1]))

    def par():
        if not built:
            try:
                built.append(_parametrix(sigma, terms, 0.0, J, largest, grid, As[-1]))
            except EllipticityError:
                built.append(None)
        return built[0]

    return _evidence(As, par), (built[0] if built else None)


def svd_index(sigma: Symbol, windows, n: int = 1) -> IndexReport:
    """Kernel/cokernel counts across the distinct windows, smallest first,
    on the largest window's ``index_grid`` (``_index_run``).  The
    three-step parametrix of sigma on the largest window is built only
    when some section is of one block, and it reads the largest window's
    section.

    Stabilized when the last two windows agree on both counts and both
    show a 100x gap between null and non-null singular values; otherwise,
    and with fewer than two distinct windows, the verdict is left unstable
    (None), never an exception.
    """
    return _stabilized(_index_run(sigma, windows, n, 3, eager=False)[0])


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
    mask = _interior(window)
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
    one run (``_index_run``): every window runs on the largest one's
    ``index_grid``, sigma is evaluated and tau0 transformed once, at the
    largest window, and each smaller one-block section reads the
    restriction of the one J-step parametrix, so J applies at every
    window.  Raises EllipticityError when sigma is not certified
    elliptic on the largest window."""
    evidence, par = _index_run(sigma, windows, n, J, eager=True)
    report = _stabilized(evidence)
    tr = _trace(par, par.sigma_matrix.window)
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
