"""Index computations: finite sections, trace formula, diagnostics."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeops import (
    LatticeWindow,
    atkinson_check,
    bessel_symbol,
    compose,
    default_grid,
    fredholm_ellipticity_probe,
    full_index_report,
    index_grid,
    jump_symbol,
    parse_symbol,
    shipped_symbol,
    svd_index,
    trace_index,
)
from latticeops import elliptic, fredholm, quantization, symbols
from latticeops.elliptic import parametrix
from latticeops.errors import EllipticityError
from latticeops.fredholm import (
    _FIRST_BLOCK,
    RANK_TOL,
    SV_THRESHOLD,
    _deflated_side,
    _interior_null_count,
    _evidence,
    _top_right_singular,
    _weighted_tail_bound,
)
from latticeops.quantization import (
    Blocks,
    OperatorMatrix,
    SparseRows,
    _spectrum,
    adjoint_symbol,
    assemble_matrix,
    extract_symbol,
    interior_margin,
)

WINDOWS = [16, 24, 32]
EPS = np.finfo(float).eps

JUMP2 = "step(k1)*exp({}2*i*twopi*x1) + (1-step(k1))"
PERTURBED_JUMP = "step(k1)*exp(i*twopi*x1) + (1-step(k1)) + 0.15*exp(-i*twopi*x1)/(1+k1^2)"


def _dense_svd_oracle(sigma, N, n=1, grid=None):
    """The section on grid, by default the window's index grid, its counts
    and null bases from the full SVD with U and V^H."""
    w = LatticeWindow(n, N)
    A = assemble_matrix(sigma, w, index_grid(w) if grid is None else grid).entries
    U, s, Vh = np.linalg.svd(A)
    smax = s[0] if s[0] > 0 else 1.0
    null = s < RANK_TOL * smax
    mask = w.interior_mask(interior_margin(w))
    right, left = Vh[null].conj().T, U[:, null]
    return {"A": A, "s": s, "raw": int(np.sum(null)), "smax": smax, "right": right, "left": left,
            "ker": _interior_null_count(right, mask),
            "coker": _interior_null_count(left, mask)}


def _values_only_gap(A):
    """The gap from the values-only SVD, with the null values read no lower
    than the roundoff floor P eps s_max."""
    s = np.linalg.svd(A, compute_uv=False)
    smax = s[0] if s[0] > 0 else 1.0
    raw = int(np.sum(s < RANK_TOL * smax))
    if raw in (0, s.size):
        return np.inf if raw == 0 else 0.0
    return float(s[-raw - 1] / max(s[-raw], s.size * EPS * smax))


def _column_norms(A):
    """The exact singular values, descending, of a section whose exact
    entries are 0, 1/2 or 1 and whose rows hold at most one each (a jump,
    shift or multiplier section): with its roundoff rounded off, E^H E is
    diagonal, so they are E's column norms."""
    E = np.round(2 * A) / 2
    assert np.all(np.count_nonzero(E, axis=1) <= 1)
    return np.sort(np.linalg.norm(E, axis=0))[::-1]


def _cos_paths(A):
    """The exact singular values, descending, of (1-step(k1))*cos(twopi*x1)
    at N = 2n: its blocks are two paths of entries 1/2, n rows by n and by
    n + 1 columns, whose values are cos(j pi/(2n+1)) and cos(j pi/(2n+2)),
    j = 1..n; the other 2n + 1 rows are empty."""
    P = A.shape[0]
    j = np.arange(1, (P - 1) // 4 + 1)
    n = j.size
    s = np.concatenate([np.cos(j * np.pi / (2 * n + 1)), np.cos(j * np.pi / (2 * n + 2)),
                        np.zeros(P - 2 * n)])
    return np.sort(s)[::-1]


def _assert_near_the_exact_values(sigma, N, exact, gap):
    """The section's singular values within 8 eps s_max of the exact ones
    (the backward error of a values-only SVD), and ``gap`` within the
    range of gaps, as svd_index reads them, of values that close."""
    w = LatticeWindow(1, N)
    s = assemble_matrix(sigma, w, default_grid(w)).singular_values()
    tol = 8 * EPS * s[0]
    assert np.all(np.abs(s - exact) <= tol)
    raw = int(np.sum(exact == 0))
    low, top, floor = exact[-raw - 1], exact[0], exact.size * EPS
    assert (low - tol) / (floor * (top + tol)) <= gap <= (low + tol) / (floor * (top - tol))


def test_constant_symbol_index_zero():
    rep = svd_index(parse_symbol("2", 1, order=0), WINDOWS, n=1)
    assert rep.svd_index == 0
    assert rep.dim_ker == [0, 0, 0] and rep.dim_coker == [0, 0, 0]


def test_jump_plus_index_one():
    rep = svd_index(jump_symbol(+1), WINDOWS, n=1)
    assert rep.svd_index == 1
    assert rep.dim_ker[-1] == 1 and rep.dim_coker[-1] == 0
    assert all(g.gap >= 100 for g in rep.gap_evidence)


def test_jump_minus_index_minus_one():
    rep = svd_index(jump_symbol(-1), WINDOWS, n=1)
    assert rep.svd_index == -1
    assert rep.dim_ker[-1] == 0 and rep.dim_coker[-1] == 1


def test_truncated_jump_matrix_oracle():
    # the jump(+1) section maps f(k) -> f(k) for k < 0 and f(k) -> f(k+1)
    # for k >= 0, leaving f(0) unused: exactly one interior kernel vector
    w = LatticeWindow(1, 8)
    A = assemble_matrix(jump_symbol(+1), w, default_grid(w)).entries
    ker = np.zeros(w.size, dtype=complex)
    ker[w.index_of((0,))] = 1.0
    assert np.max(np.abs(A @ ker)) < 1e-12
    assert np.linalg.matrix_rank(A) == w.size - 1


def test_single_window_is_unstable():
    rep = svd_index(jump_symbol(+1), [16], n=1)
    assert rep.svd_index is None


def test_cokernel_matches_adjoint_kernel():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    A = assemble_matrix(jump_symbol(-1), w, g)
    adj = assemble_matrix(adjoint_symbol(jump_symbol(-1), w, g), w, g)
    sv_adj = np.linalg.svd(adj.entries, compute_uv=False)
    # adjoint assembly has the same number of near-null directions
    assert np.sum(sv_adj < 1e-8) == np.sum(A.singular_values() < 1e-8)


def test_trace_index_constant_is_exact_zero():
    rep = trace_index(parse_symbol("2", 1, order=0), LatticeWindow(1, 32), J=3)
    assert abs(rep.trace_index_raw) < 1e-10
    assert rep.trace_index == 0


def test_trace_index_multiplier_zero():
    rep = trace_index(bessel_symbol(0), LatticeWindow(1, 32), J=2)
    assert abs(rep.trace_index_raw) < 1e-10 and rep.trace_index == 0


def test_trace_index_jump_symbols():
    for d in (+1, -1):
        rep = trace_index(jump_symbol(d), LatticeWindow(1, 32), J=3)
        assert abs(rep.trace_index_raw - d) < 0.25
        assert rep.trace_index == d
        assert rep.tail_bound < 0.05


@pytest.mark.parametrize("direction", [+1, -1])
def test_trace_index_matches_x_sums_of_extracted_defects(direction):
    # reference: extract T1 = I - BA and T2 = I - AB and sum their x-averages
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    sigma = jump_symbol(direction)
    par = parametrix(sigma, 0.0, 3, w, g)
    I = np.eye(w.size)
    B, A = par.matrix.entries, par.sigma_matrix.entries
    tau1 = extract_symbol(OperatorMatrix(w, g, I - B @ A))
    tau2 = extract_symbol(OperatorMatrix(w, g, I - A @ B))
    mask = w.interior_mask(interior_margin(w))
    raw = float(np.real(np.sum((g.weight * np.sum(tau1.values - tau2.values, axis=1))[mask])))
    tail = sum(_weighted_tail_bound(np.max(np.abs(tau.values), axis=1), w, 2)
               for tau in (tau1, tau2))
    rep = trace_index(sigma, w, J=3)
    assert abs(rep.trace_index_raw - raw) < 1e-12
    assert rep.tail_bound == tail


def test_trace_index_refuses_non_elliptic():
    with pytest.raises(EllipticityError):
        trace_index(parse_symbol("1/(1+k1^2)", 1, order=0), LatticeWindow(1, 16))


def test_full_report_agreement():
    for sym, expect in [(shipped_symbol("constant"), 0),
                        (shipped_symbol("jump_plus"), 1),
                        (shipped_symbol("jump_minus"), -1)]:
        rep = full_index_report(sym, [16, 32], n=1, J=3)
        assert rep.svd_index == expect
        assert rep.trace_index == expect
        assert rep.agreement is True
        d = rep.to_dict()
        assert d["svd_index"] == expect and d["trace_index"] == expect


def test_index_additivity_under_composition():
    w = LatticeWindow(1, 40)
    g = default_grid(w)
    cases = [
        (jump_symbol(+1), jump_symbol(+1), 2),
        (jump_symbol(+1), jump_symbol(-1), 0),
        (jump_symbol(-1), parse_symbol("2", 1, order=0), -1),
    ]
    for a, b, expect in cases:
        comp = compose(a, b, w, g)
        rep = svd_index(comp, [16, 24], n=1)
        assert rep.svd_index == expect, (expect, rep.dim_ker, rep.dim_coker)


def test_atkinson_bounded_for_elliptic():
    sigma = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2)", 1, order=0)
    rep = atkinson_check(sigma, [32, 64], n=1)
    assert rep.bounded
    assert rep.left_counts[0] == rep.left_counts[1]
    assert rep.right_counts[0] == rep.right_counts[1]


def test_atkinson_constant_defects_vanish():
    rep = atkinson_check(parse_symbol("2", 1, order=0), [16, 32], n=1)
    assert rep.left_counts == [0, 0] and rep.right_counts == [0, 0]


def test_atkinson_jump():
    rep = atkinson_check(jump_symbol(+1), [16, 32], n=1)
    assert rep.bounded


def _per_window_atkinson(sigma, windows):
    """The Atkinson counts of a two-step parametrix built on each distinct
    window, on the largest window's index grid."""
    grid = index_grid(LatticeWindow(1, max(windows)))
    left, right = [], []
    for N in sorted(set(windows)):
        par = parametrix(sigma, 0.0, 2, LatticeWindow(1, N), grid)
        left.append(int(np.sum(par.left_defect.singular_values() > SV_THRESHOLD)))
        right.append(int(np.sum(par.right_defect.singular_values() > SV_THRESHOLD)))
    return left, right


ATKINSON_SYMBOLS = [
    *(pytest.param(shipped_symbol(name), id=name)
      for name in ["constant", "bessel2", "jump_plus", "jump_minus", "perturbed_bessel"]),
    *(pytest.param(parse_symbol(PERTURBED_JUMP.replace("0.15", c), 1, order=0),
                   id=f"perturbed-jump-{c}") for c in ["0.15", "0.3"])]


@pytest.mark.parametrize("windows", [[8, 16, 32], [16, 24, 32]], ids=str)
@pytest.mark.parametrize("sigma", ATKINSON_SYMBOLS)
def test_atkinson_and_svd_index_build_one_parametrix_per_call(sigma, windows, monkeypatch):
    # the largest window's parametrix, whose restriction each smaller
    # window reads, gives the counts of one built on every window
    want = _per_window_atkinson(sigma, windows)
    made, original = [], elliptic._parametrix

    def making(sigma, terms, m, J, window, grid, A=None):
        made.append((J, window.N))
        return original(sigma, terms, m, J, window, grid, A)

    monkeypatch.setattr(elliptic, "_parametrix", making)
    monkeypatch.setattr(fredholm, "_parametrix", making)
    rep = atkinson_check(sigma, windows, n=1)
    assert made == [(2, 32)]
    assert (rep.left_counts, rep.right_counts) == want
    made.clear()
    svd_index(sigma, windows, n=1)
    assert made == [(3, 32)]


def test_svd_index_needs_two_distinct_windows():
    rep = svd_index(jump_symbol(+1), [16, 16], n=1)
    assert rep.windows == [16]
    assert rep.svd_index is None


def test_full_report_with_a_repeated_window_gives_no_agreement():
    rep = full_index_report(jump_symbol(+1), [24, 24], n=1, J=3)
    assert rep.windows == [24] and rep.svd_index is None
    assert rep.trace_index == 1
    assert rep.agreement is None


@pytest.mark.parametrize("windows", [[32], [32, 32]])
def test_atkinson_needs_two_distinct_windows(windows):
    rep = atkinson_check(jump_symbol(+1), windows, n=1)
    assert rep.windows == [32] and len(rep.left_counts) == 1
    assert rep.bounded is None


@pytest.mark.parametrize("sigma", [bessel_symbol(0), parse_symbol("1 - step(k1)", 1, order=0)])
def test_probe_needs_two_distinct_windows(sigma):
    rep = fredholm_ellipticity_probe(sigma, [32, 32], n=1)
    assert rep.windows == [32]
    assert rep.consistent is None


@pytest.mark.parametrize("entry", [full_index_report, svd_index, atkinson_check,
                                   fredholm_ellipticity_probe], ids=lambda f: f.__name__)
def test_an_empty_window_list_is_refused(entry):
    with pytest.raises(ValueError, match="at least one window"):
        entry(jump_symbol(+1), [], n=1)


@pytest.mark.parametrize("smallest,consistent", [(6, False), (7, True)])
def test_a_probe_refused_on_a_smaller_window_is_inconsistent(smallest, consistent):
    # |sigma| dips to 0.05 at k1 = 6: certified elliptic on N = 32, but on
    # N = 6 the dip lies on the outermost shell, which the certificate reads
    # as decay, so the Atkinson check is refused there
    sigma = parse_symbol("1 - 0.95/(1+(k1-6)^2)", 1, order=0)
    rep = fredholm_ellipticity_probe(sigma, [smallest, 32], n=1)
    assert rep.elliptic is True and rep.consistent is consistent
    assert (rep.atkinson is None) is not consistent


def test_a_probe_certified_on_every_window_reads_the_restricted_defects():
    sigma = parse_symbol("(1 - 0.99*exp(-(abs(k1)-6)^2))*(2+exp(i*twopi*x1))", 1, order=0)
    rep = fredholm_ellipticity_probe(sigma, [7, 32], n=1)
    assert (rep.elliptic, rep.consistent) == (True, True)
    assert (rep.atkinson.left_counts, rep.atkinson.right_counts) == ([3, 4], [3, 4])


def test_probe_nests_its_reports():
    rep = fredholm_ellipticity_probe(bessel_symbol(0), [16, 32], n=1)
    d = rep.to_dict()
    assert d["ellipticity"] == rep.ellipticity.to_dict()
    assert d["atkinson"] == rep.atkinson.to_dict()
    assert d["atkinson"]["bounded"] is True


def test_probe_elliptic_branch():
    rep = fredholm_ellipticity_probe(bessel_symbol(0), [16, 32], n=1)
    assert rep.elliptic and rep.consistent


def test_probe_non_elliptic_branch():
    sigma = parse_symbol("1/(1+k1^2)^(1/2)", 1, order=0)
    rep = fredholm_ellipticity_probe(sigma, [16, 32, 64], n=1)
    assert not rep.elliptic
    counts = rep.near_kernel_counts
    assert counts[0] < counts[1] < counts[2]
    assert rep.consistent


def test_probe_vanishing_x_symbol():
    # the zeros of sin(2 pi x) + (1+k^2)^{-1} migrate to x = 0, 1/2 as k
    # grows; the shell-minimum scan needs a window deep enough to see the
    # k^{-2} tail through the near-cancellation noise of the small shells
    sigma = parse_symbol("sin(twopi*x1) + 1/(1+k1^2)", 1, order=0)
    rep = fredholm_ellipticity_probe(sigma, [32, 64], n=1)
    assert not rep.elliptic


@pytest.mark.parametrize("text,raw,gap,index", [
    ("0*k1", [33, 49, 129], 0.0, None),   # all null: no non-null value, no gap
    ("2", [0, 0, 0], np.inf, 0),          # no null value: an infinite gap
])
def test_gap_without_null_or_non_null_values(text, raw, gap, index):
    rep = svd_index(parse_symbol(text, 1, order=0), [16, 24, 64], n=1)
    assert [e.raw_null_count for e in rep.gap_evidence] == raw
    assert [e.gap for e in rep.gap_evidence] == [gap] * 3
    assert rep.svd_index == index


@pytest.mark.parametrize("text,exact", [("1 - step(k1)", _column_norms), ("0*k1", None),
                                        ("step(k1)*exp(i*twopi*x1)", _column_norms),
                                        ("(1-step(k1))*cos(twopi*x1)", _cos_paths)],
                         ids=["1 - step(k1)", "0*k1", "step(k1)*exp(i*twopi*x1)",
                              "(1-step(k1))*cos(twopi*x1)"])
def test_structurally_singular_sections_match_the_dense_svd(text, exact):
    # exactly singular sections: the null-basis solve must stay regular
    sigma = parse_symbol(text, 1, order=0)
    rep = svd_index(sigma, [16, 24, 64], n=1)
    for e in rep.gap_evidence:
        want = _dense_svd_oracle(sigma, e.N)
        assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
            (want["raw"], want["ker"], want["coker"])
        assert e.raw_null_count > 0
        # exact zeros beside non-null values give a finite gap; a split
        # section's values come from other SVDs than the dense one, so
        # they are held to the exact values instead
        assert e.gap < np.inf
        if exact is None:
            assert e.gap == _values_only_gap(want["A"])
        else:
            _assert_near_the_exact_values(sigma, e.N, exact(want["A"]), e.gap)


@pytest.mark.parametrize("sigma,raw,exact", [
    (jump_symbol(+1), 1, _column_norms),
    (jump_symbol(-1), 1, _column_norms),
    (parse_symbol(JUMP2.format(""), 1, order=0), 2, _column_norms),
    (parse_symbol(JUMP2.format("-"), 1, order=0), 2, _column_norms),
    (parse_symbol(PERTURBED_JUMP, 1, order=0), 1, None),
    (shipped_symbol("perturbed_bessel"), 0, None),
], ids=["jump+1", "jump-1", "jump+2", "jump-2", "perturbed-jump", "perturbed_bessel"])
@pytest.mark.parametrize("N", [16, 24, 48])
def test_null_bases_span_the_dense_svd_null_columns(sigma, raw, exact, N):
    want = _dense_svd_oracle(sigma, N)
    assert want["raw"] == raw
    e = svd_index(sigma, [N], n=1).gap_evidence[0]
    gap, A = e.gap, want["A"]
    assert gap >= 100
    if exact is None:  # one block: decided from the parametrix defects, within the SVD's gap
        assert e.route == ("deflated" if raw else "certified")
        assert e.lower_bound <= want["s"][-raw - 1]
        assert gap <= _values_only_gap(A)
    else:
        _assert_near_the_exact_values(sigma, N, exact(A), gap)
    # the floored null value bounds the gap by s_max / (P eps s_max)
    assert raw == 0 or gap <= 1 / (A.shape[0] * np.finfo(float).eps)
    assert (e.raw_null_count, e.dim_ker, e.dim_coker) == (want["raw"], want["ker"], want["coker"])


def test_trace_index_forms_no_p_by_p_array():
    # a one-term symbol: A and B0 are held as factors, and B_J and the
    # defects are sparse, so trace_index holds nothing near one P x P
    # complex array (19 MB at n=2 N=16)
    w = LatticeWindow(2, 16)
    sigma = parse_symbol("(2 + exp(i*twopi*x1))*(1 + 0.5/(1+k1^2+k2^2))", 2, order=0)
    trace_index(sigma, LatticeWindow(2, 4))
    tracemalloc.start()
    try:
        rep = trace_index(sigma, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trace_index == 0
    assert {v["form"] for v in rep.sections.values()} == {"sparse"}
    assert peak < w.size ** 2 * 16


@pytest.mark.parametrize("name,counts", [("jump_plus", (1, 0)), ("jump_minus", (0, 1))])
@pytest.mark.parametrize("N", [32, 64])
def test_null_bases_of_exact_jump_sections(name, counts, N):
    # the jump sections are assembled exact, with no entry below 1e-15 of
    # their row's largest, and split into blocks whose own SVDs give the
    # null bases
    want = _dense_svd_oracle(shipped_symbol(name), N)
    mag = np.abs(want["A"])
    assert not np.any((mag < 1e-15 * np.max(mag, axis=1, keepdims=True)) & (mag > 0))
    assert want["raw"] == 1
    e = svd_index(shipped_symbol(name), [N]).gap_evidence[0]
    assert (e.route, e.raw_null_count) == ("blocks", 1)
    assert (e.dim_ker, e.dim_coker) == counts


def _coefficient():
    """A random nonzero complex coefficient, as expression text."""
    parts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0))
    return parts.map(lambda c: f"(({c[0]}) + ({c[1]})*i)/2")


@st.composite
def _split_symbols(draw):
    """n=1 symbols whose sections split into many blocks: two k-pieces of
    one x-mode each with complex coefficients, a multiplier, or a jump
    across a shifted step."""
    cut = f"step(k1 - ({draw(st.integers(-4, 4))}))"
    modes = st.integers(-3, 3).map(lambda m: f"exp({m}*i*twopi*x1)")
    kind = draw(st.sampled_from(["pieces", "multiplier", "jump"]))
    if kind == "pieces":
        text = f"{cut}*{draw(_coefficient())}*{draw(modes)} + " \
               f"(1 - {cut})*{draw(_coefficient())}*{draw(modes)}"
    elif kind == "multiplier":
        power = draw(st.integers(0, 4))
        text = f"{draw(_coefficient())}*{cut} + {draw(_coefficient())}/(1+k1^2)^{power}"
    else:
        text = f"{cut}*{draw(modes)} + (1 - {cut})"
    return parse_symbol(text, 1, order=0)


@settings(max_examples=30, deadline=None)
@given(_split_symbols(), st.integers(8, 14), st.integers(2, 6))
def test_split_sections_match_the_dense_svd(sigma, N, step):
    windows = [N, N + step]
    rep = svd_index(sigma, windows, n=1)
    # both windows run on the larger one's grid; on a grid as coarse as
    # 2N+3 an x-mode of order 3 aliases into a corner of the section
    g = index_grid(LatticeWindow(1, N + step))
    oracle = []
    for e in rep.gap_evidence:
        want = _dense_svd_oracle(sigma, e.N, grid=g)
        assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
            (want["raw"], want["ker"], want["coker"])
        oracle.append((want["ker"], want["coker"], _values_only_gap(want["A"])))
        A = assemble_matrix(sigma, LatticeWindow(1, e.N), g)
        assert A.blocks().count == e.blocks > 1
        # each route is within 8 eps s_max of the exact values
        dense = np.linalg.svd(want["A"], compute_uv=False)
        assert np.all(np.abs(A.singular_values() - dense) <= 16 * EPS * dense[0])
    (k0, c0, g0), (k1, c1, g1) = oracle
    stable = (k0, c0) == (k1, c1) and min(g0, g1) >= 100
    assert rep.svd_index == (k1 - c1 if stable else None)


def _pattern_blocks(D):
    """The block of each row and column of D's nonzero pattern, numbered by
    first row and then, for an empty column, by column, from a
    breadth-first walk over its rows and columns."""
    P = D.shape[0]
    label, count = -np.ones(2 * P, dtype=int), 0
    for start in range(2 * P):
        if label[start] >= 0:
            continue
        label[start], todo = count, [start]
        while todo:
            node = todo.pop()
            near = np.flatnonzero(D[node]) + P if node < P else np.flatnonzero(D[:, node - P])
            for other in near[label[near] < 0]:
                label[other] = count
                todo.append(other)
        count += 1
    return label[:P], label[P:], count


def _exact_norm(x):
    """The 2-norm of the complex entries x, correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(sum(Decimal(float(z.real)) ** 2 + Decimal(float(z.imag)) ** 2
                         for z in x).sqrt())


def _ulps(got, want):
    return abs(got - want) / math.ulp(want) if want else abs(got) / 5e-324


def _per_block_oracle(D, N):
    """(raw, ker, coker, gap, blocks, largest block) of the section D on
    the n=1 window of half-width N: the counts from its dense SVD with U
    and V^H, and the gap from its blocks' values one block at a time, each
    block's rows and columns in section order padded with zeros to its
    larger side and taking one LAPACK SVD of its own, a block of one row
    or column its exactly rounded norm."""
    w, P = LatticeWindow(1, N), D.shape[0]
    U, s, Vh = np.linalg.svd(D)
    smax = s[0] if s[0] > 0 else 1.0
    null = s < RANK_TOL * smax
    mask = w.interior_mask(interior_margin(w))
    ker = _interior_null_count(Vh[null].conj().T, mask)
    coker = _interior_null_count(U[:, null], mask)
    rows, cols, count = _pattern_blocks(D)
    values, largest = [], 0
    for b in range(count):
        r, c = np.flatnonzero(rows == b), np.flatnonzero(cols == b)
        largest = max(largest, len(r), len(c))
        if not (len(r) and len(c)):
            continue
        d = max(len(r), len(c))
        block = np.zeros((d, d), dtype=complex)
        block[:len(r), :len(c)] = D[np.ix_(r, c)]
        values.extend([_exact_norm(D[np.ix_(r, c)].ravel())] if min(len(r), len(c)) == 1
                      else np.linalg.svd(block, compute_uv=False)[:min(len(r), len(c))])
    v = np.concatenate([np.sort(values)[::-1], np.zeros(P - len(values))])
    vmax = v[0] if v[0] > 0 else 1.0
    raw = int(np.sum(v < RANK_TOL * vmax))
    gap = np.inf if not raw else 0.0 if raw == P else \
        float(v[-raw - 1] / max(v[-raw], P * EPS * vmax))
    return int(np.sum(null)), ker, coker, gap, count, largest


@st.composite
def _split_section(draw):
    """(D, N): a section of an n=1 window whose rows and columns are cut
    into blocks of 1 x 1, 1 x c, r x 1 and larger, and empty rows and
    columns, then permuted; each block of ordinary entries, of entries
    near 1e+-200, or with an entry of 1e-12, and some entries exactly
    zero; or, sometimes, one full block."""
    N = draw(st.integers(1, 5))
    P = 2 * N + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        return rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P)), N
    D = np.zeros((P, P), dtype=complex)
    row_at, col_at = rng.permutation(P), rng.permutation(P)
    r0 = c0 = 0
    while r0 < P or c0 < P:
        kind = draw(st.sampled_from(["1x1", "1xc", "rx1", "rxc", "row", "column"]))
        big = draw(st.integers(2, 4))
        r, c = {"1x1": (1, 1), "1xc": (1, big), "rx1": (big, 1),
                "rxc": (big, draw(st.integers(2, 4))), "row": (1, 0), "column": (0, 1)}[kind]
        r, c = min(r, P - r0), min(c, P - c0)
        if not (r or c):
            continue
        scale = draw(st.sampled_from([1.0, 1.0, 1e200, 1e-200]))
        block = (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))) * scale
        if block.size and draw(st.booleans()):
            block.flat[rng.integers(block.size)] *= 1e-12
        block[rng.random((r, c)) < 0.15] = 0
        D[np.ix_(row_at[r0:r0 + r], col_at[c0:c0 + c])] = block
        r0, c0 = r0 + r, c0 + c
    return D, N


@settings(max_examples=60, deadline=None)
@given(st.lists(_split_section(), min_size=1, max_size=3))
def test_the_stacked_pass_matches_a_per_window_dense_oracle(cases):
    # the run decides every split window in one pass over their stack; a
    # window of one block takes its dense SVD here, with no parametrix.
    # Each value of a block of one row or column is within 2 ulps of its
    # exact norm, so a gap moves by at most two such values and two
    # roundings from the oracle's
    sections = [OperatorMatrix.from_sparse(_sparse_of(D), LatticeWindow(1, N),
                                           index_grid(LatticeWindow(1, N))) for D, N in cases]
    evidence = _evidence(sections, None)
    for e, (D, N) in zip(evidence, cases):
        raw, ker, coker, gap, count, largest = _per_block_oracle(D, N)
        assert (e.N, e.raw_null_count, e.dim_ker, e.dim_coker) == (N, raw, ker, coker)
        assert (e.blocks, e.largest_block) == (count, largest)
        assert e.route == ("blocks" if count > 1 else "dense")
        assert e.gap == gap or _ulps(e.gap, gap) <= 6, (e.gap, gap)


def _sparse_of(D):
    k, l = np.nonzero(D)
    return SparseRows(np.searchsorted(k, np.arange(D.shape[0] + 1)), l, D[k, l])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_block_of_one_row_or_column_takes_its_norm_without_lapack(data):
    # blocks of 1 x c and r x 1 only: their values come with no SVD call,
    # within 2 ulps of the exact norm at any scale, and within 4 of
    # LAPACK's, which is itself up to 4 ulps off near 1e+-200, where it
    # scales the block into range
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1,
                                max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for size, tall in shapes:
        x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) \
            * 10.0 ** data.draw(st.sampled_from([0, -8, 8, -200, 200, -300, 300]))
        blocks.append(x[:, None] if tall else x[None, :])
    P = sum(max(x.shape) for x in blocks)
    D, r0, c0 = np.zeros((P, P), dtype=complex), 0, 0
    for x in blocks:
        D[r0:r0 + x.shape[0], c0:c0 + x.shape[1]] = x
        r0, c0 = r0 + x.shape[0], c0 + x.shape[1]
    rows, cols, count = _pattern_blocks(D)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        original = np.linalg.svd
        mp.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or original(*a, **k))
        _, owners, values = _spectrum(_sparse_of(D), Blocks(rows, cols, count))
    assert not calls
    for b, v in zip(owners, values):
        x = D[np.ix_(rows == b, cols == b)]
        assert _ulps(v, _exact_norm(x.ravel())) <= 2
        assert _ulps(v, np.linalg.svd(x, compute_uv=False)[0]) <= 4


def test_a_jump_run_passes_lapack_no_one_by_one_block(svd_shapes):
    # jump+1's sections are 1 x 1 blocks save one 1 x 2 block each: their
    # values are taken in closed form, and the only SVD is the null basis
    # of the three windows' 1 x 2 blocks, padded to 2 x 2, in one call
    rep = full_index_report(jump_symbol(+1), [128, 192, 256])
    assert (rep.svd_index, rep.trace_index) == (1, 1)
    assert not any(shape[-2:] == (1, 1) for shape, _ in svd_shapes)
    sizes = [shape[-1] for shape, uv in svd_shapes if not uv]
    assert len(sizes) == len(set(sizes)) and min(sizes, default=2) >= 2
    assert svd_shapes == [((3, 2, 2), True)]


def test_split_sections_run_no_p_by_p_svd(svd_shapes):
    # the pattern comes from the factors, and the formed section holds the
    # same entries, so one rebuilt from it splits alike
    rep = svd_index(jump_symbol(+1), [16, 24, 32], n=1)
    assert rep.svd_index == 1
    sizes = {2 * N + 1 for N in rep.windows}
    assert svd_shapes and not any(shape[-2:] == (P, P) for shape, _ in svd_shapes for P in sizes)
    assert [e.largest_block for e in rep.gap_evidence] == [2, 2, 2]


@pytest.mark.parametrize("sigma,largest,index", [
    pytest.param(jump_symbol(+1), 2, 1, id="jump"),
    pytest.param(bessel_symbol(0), 1, 0, id="multiplier")])
def test_one_entry_per_row_is_held_sparse_at_any_size(sigma, largest, index, svd_shapes):
    # below N = 6 one entry per row is above the P/12 fill, and the
    # sections still split into their blocks, as at N = 6
    rep = svd_index(sigma, [4, 5, 6], n=1)
    assert [(e.blocks, e.largest_block) for e in rep.gap_evidence] == \
        [(2 * N + 1, largest) for N in rep.windows]
    assert not any(shape[-2:] == (2 * N + 1,) * 2 for shape, _ in svd_shapes for N in rep.windows)
    assert rep.svd_index == index
    for e in rep.gap_evidence:
        want = _dense_svd_oracle(sigma, e.N)
        assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
            (want["raw"], want["ker"], want["coker"])


@pytest.mark.parametrize("sigma,route", [
    (parse_symbol(PERTURBED_JUMP, 1, order=0), "deflated"),
    (shipped_symbol("perturbed_bessel"), "certified"),
], ids=["perturbed-jump", "perturbed_bessel"])
def test_single_block_sections_run_no_p_by_p_svd(sigma, route, svd_shapes, solve_shapes):
    rep = svd_index(sigma, [16, 24, 32], n=1)
    sizes = {2 * N + 1 for N in rep.windows}
    assert not any(shape[-2:] == (P, P) for shape, _ in svd_shapes for P in sizes)
    assert not any(shape[-2:] == (P, P) for shape in solve_shapes for P in sizes)
    assert [(e.blocks, e.largest_block, e.route) for e in rep.gap_evidence] == \
        [(1, 2 * N + 1, route) for N in rep.windows]
    for e in rep.gap_evidence:
        w = LatticeWindow(1, e.N)
        assert 100 <= e.gap <= _values_only_gap(assemble_matrix(sigma, w, default_grid(w)).entries)


@pytest.mark.parametrize("name", ["perturbed_bessel", "jump_plus", "perturbed_jump"])
def test_full_index_report_streams_each_section_once(name, monkeypatch):
    # sigma is split into its factors once per run, on the largest window,
    # and each window's section is gathered from that run's factors once:
    # the largest window's is the shared parametrix's A, and a one-block
    # window's parametrix reads the section the route built.  The one
    # parametrix is the largest window's, and the smaller ones restrict
    # its B0, so tau0 is sampled and streamed into rows at the largest
    # window only, once, whether its section is sparse or dense.
    # A jump symbol has one term at each k, so its tau0 is held as exact
    # factors, streamed once at the largest window, and nothing is sampled
    sigma = parse_symbol(PERTURBED_JUMP, 1, order=0) if name == "perturbed_jump" \
        else shipped_symbol(name)
    builds, made, split, sections = [], [], [], []
    originals = (quantization._factor_rows, elliptic._profile_rows, fredholm._parametrix,
                 type(sigma)._terms, fredholm._evidence)

    def factors(a, modes, window, grid):
        builds.append((window.N, "factors"))
        return originals[0](a, modes, window, grid)

    def sampled(blocks, inverse, window, grid):
        builds.append((window.N, "samples"))
        return originals[1](blocks, inverse, window, grid)

    def making(sigma, terms, m, J, window, grid, A=None):
        made.append(window.N)
        return originals[2](sigma, terms, m, J, window, grid, A)

    def terms(self, window, grid):
        split.append(window.N)
        return originals[3](self, window, grid)

    def evidence(As, par):
        sections.extend(As)
        return originals[4](As, par)

    monkeypatch.setattr(quantization, "_factor_rows", factors)
    monkeypatch.setattr(elliptic, "_profile_rows", sampled)
    monkeypatch.setattr(fredholm, "_parametrix", making)
    monkeypatch.setattr(type(sigma), "_terms", terms)
    monkeypatch.setattr(fredholm, "_evidence", evidence)
    rep = full_index_report(sigma, WINDOWS)
    assert rep.agreement
    separated = name == "jump_plus"
    assert split == [WINDOWS[-1]]
    assert [builds.count((N, "factors")) for N in WINDOWS] == \
        [1] * (len(WINDOWS) - 1) + [1 + separated]
    assert made == [WINDOWS[-1]]
    assert [N for N, form in builds if form == "samples"] == ([] if separated else [WINDOWS[-1]])
    # each section is the one assemble_matrix builds on its window, bit for bit
    monkeypatch.undo()
    assert [A.window.N for A in sections] == WINDOWS
    for A in sections:
        want = assemble_matrix(sigma, A.window, A.grid)
        assert (A.sparse is None) == (want.sparse is None)
        if A.sparse is None:
            assert np.array_equal(A.entries, want.entries)
        else:
            assert all(np.array_equal(x, y) for x, y in zip(A.sparse, want.sparse))


def test_an_n2_jump_index_run_samples_nothing(monkeypatch):
    # one term at each k: the certificate reads the factors, tau0 is held as
    # exact factors, and no sample array of sigma or tau0 is formed
    called = []

    def refused(name):
        def record(*args, **kwargs):
            called.append(name)
            raise AssertionError(name)
        return record

    for module in (symbols, elliptic, quantization):
        monkeypatch.setattr(module, "_blocks", refused("_blocks"))
    for module in (elliptic, quantization):
        monkeypatch.setattr(module, "_sampled", refused("_sampled"))
    sigma = parse_symbol("step(k1)*exp(i*twopi*x1) + (1-step(k1))", 2, order=0)
    rep = full_index_report(sigma, WINDOWS, n=2)
    assert called == []
    # a shift on the half-space k1 >= 0: one interior kernel vector per
    # interior k2, so the kernel grows with the window and no verdict is given
    assert rep.dim_ker == [2 * (N - N // 4) + 1 for N in WINDOWS]
    assert (rep.dim_coker, rep.svd_index, rep.trace_index) == ([0] * len(WINDOWS), None, None)


def _cosines(basis, oracle):
    """Cosines of the principal angles between two orthonormal bases."""
    return np.linalg.svd(basis.conj().T @ oracle, compute_uv=False)


def test_ritz_on_the_defect_range_finds_the_null_vector_and_on_its_row_space_misses_it():
    # jump+1: S = B_J A - I has one value above the threshold, sqrt 2.  A
    # null vector has S v = -v, so it lies in the range of S (its left
    # singular vectors X), not in its row space (the right ones, Y)
    w = LatticeWindow(1, 16)
    par = parametrix(jump_symbol(+1), 0.0, 3, w, default_grid(w))
    A, S = par.sigma_matrix.entries, par.left_defect.entries
    X, s, Yh = np.linalg.svd(S)
    r = int(np.sum(s > SV_THRESHOLD))
    assert r == 1 and abs(s[0] - np.sqrt(2)) < 1e-12
    on_y = np.linalg.svd(A @ Yh[:r].conj().T, compute_uv=False)
    on_x = np.linalg.svd(A @ X[:, :r], compute_uv=False)
    assert abs(on_y[0] - np.sqrt(0.5)) < 1e-6
    assert on_x[0] < RANK_TOL
    assert np.all(_cosines(X[:, :r], _dense_svd_oracle(jump_symbol(+1), 16)["right"]) >= 1 - 1e-12)


@pytest.mark.parametrize("N", [16, 48])
def test_deflated_null_bases_span_the_dense_svd_null_columns(N):
    # on the perturbed jump the range of S holds the null vector only to
    # about S's next value, 8e-6, so the Ritz basis is turned by S, whose
    # eigenvalue -1 on the null vector dominates
    sigma = parse_symbol(PERTURBED_JUMP, 1, order=0)
    w = LatticeWindow(1, N)
    par = parametrix(sigma, 0.0, 3, w, default_grid(w))
    A, S, R = par.sigma_matrix, par.left_defect, par.right_defect
    want = _dense_svd_oracle(sigma, N)
    low = RANK_TOL * want["smax"]
    rng = np.random.default_rng(0)
    sides = [(_deflated_side(A, S, S.adjoint(), 0.0, low, rng), want["right"]),
             (_deflated_side(A.adjoint(), R.adjoint(), R, 0.0, low, rng), want["left"])]
    for (theta, basis, null), oracle in sides:
        assert basis.shape == oracle.shape == (w.size, 1)
        assert theta < 1e-4 and null < low
        assert np.all(_cosines(basis, oracle) >= 1 - 1e-8)


def _perturbed_jump(m, c):
    """The jump of winding m perturbed by c times the x-mode against the
    winding's, which joins the shift blocks into one."""
    p = -1 if m > 0 else 1
    text = f"step(k1)*exp({m}*i*twopi*x1) + (1-step(k1)) + {c}*exp({p}*i*twopi*x1)/(1+k1^2)"
    return parse_symbol(text, 1, order=0)


@st.composite
def _in_class_symbols(draw):
    """(sigma, n, N): an elliptic order-0 symbol whose section is one
    block: an n=1 jump of winding -2..2 with an x-mode perturbation, an
    n=1 multiplier with one, or an n=2 symbol with x-modes on both axes."""
    c = draw(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.45, 0.5]))
    p = draw(st.sampled_from([-1, 1]))
    kind = draw(st.sampled_from(["jump", "multiplier", "n2"]))
    if kind == "jump":
        return _perturbed_jump(draw(st.sampled_from([-2, -1, 1, 2])), c), 1, \
            draw(st.integers(8, 24))
    if kind == "multiplier":
        a = draw(st.sampled_from([1.5, 2, 3]))
        text = f"{a} + 1/(1+k1^2) + {c}*exp({p}*i*twopi*x1)*(1 + 1/(1+k1^2))"
        return parse_symbol(text, 1, order=0), 1, draw(st.integers(8, 24))
    mode = draw(st.sampled_from(["cos(twopi*x1)", "exp(i*twopi*x1)"]))
    text = f"(2 + {mode} + {c}*cos(twopi*x2))*(1 + 0.5/(1+k1^2+k2^2))"
    return parse_symbol(text, 2, order=0), 2, draw(st.integers(3, 5))


@settings(max_examples=30, deadline=None)
@given(_in_class_symbols())
def test_defect_routes_match_the_dense_svd(case):
    sigma, n, N = case
    e = svd_index(sigma, [N], n=n).gap_evidence[0]
    want = _dense_svd_oracle(sigma, N, n)
    assert (e.raw_null_count, e.dim_ker, e.dim_coker) == (want["raw"], want["ker"], want["coker"])
    assert e.blocks == 1 and e.route in ("certified", "deflated", "dense")
    assert (e.lower_bound is None) == (e.route == "dense")
    if e.route == "certified":
        assert want["raw"] == 0 and e.gap == np.inf
    if e.lower_bound is not None:
        assert 0 < e.lower_bound <= want["s"][-want["raw"] - 1]
        assert e.gap <= _values_only_gap(want["A"])


@settings(max_examples=20, deadline=None)
@given(case=_in_class_symbols(), step=st.integers(1, 4))
def test_a_restricted_parametrix_gives_the_evidence_of_a_direct_one(case, step, same_evidence):
    # full_index_report's and svd_index's smaller windows read the largest
    # one's B0; a three-step parametrix built on each window, on the same
    # grid, gives the same evidence
    sigma, n, N = case
    windows = [N, N + step]
    grid = index_grid(LatticeWindow(n, windows[-1]))
    direct = [_evidence([assemble_matrix(sigma, w, grid)], parametrix(sigma, 0.0, 3, w, grid))[0]
              for w in (LatticeWindow(n, M) for M in windows)]
    same_evidence(full_index_report(sigma, windows, n=n).gap_evidence, direct)
    same_evidence(svd_index(sigma, windows, n=n).gap_evidence, direct)


def test_an_odd_index_grid_keeps_a_symbol_of_even_x2_modes_in_one_block():
    # the x2-modes of cos(twopi*x2)^2 in the denominator are all even, and
    # an even M aliases them onto even slots only: the section would split
    # into two parity blocks and take their SVDs
    sigma = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2+cos(twopi*x2)^2)", 2, order=0)
    rep = full_index_report(sigma, [6, 8], n=2)
    assert rep.svd_index == rep.trace_index == 0
    assert [(e.blocks, e.route) for e in rep.gap_evidence] == [(1, "certified")] * 2


@pytest.mark.parametrize("J,route", [(1, "dense"), (2, "deflated"), (3, "deflated"),
                                     (4, "deflated")])
def test_the_steps_apply_at_every_window(J, route):
    # one step leaves defects too large to decide any window, two or more
    # decide every one; the counts and both verdicts do not depend on J
    rep = full_index_report(_perturbed_jump(1, 0.3), WINDOWS, J=J)
    assert (rep.svd_index, rep.trace_index) == (1, 1)
    assert [(e.route, e.raw_null_count, e.dim_ker, e.dim_coker) for e in rep.gap_evidence] \
        == [(route, 1, 1, 0)] * len(WINDOWS)


@pytest.mark.parametrize("m", [-2, -1, 1, 2])
def test_perturbed_jumps_from_n_16_are_decided_from_the_defects(m):
    # at m = -1 with c = 0.45 and 0.5 the cokernel side's Ritz value needs
    # more than four turns by R^H to fall below the rank threshold; it keeps
    # falling, so the turns go on and no section from N = 16 takes the
    # dense SVD.  At N = 8 some hold a non-null value near the threshold
    # and do, with the same counts.
    for c in (0.1, 0.2, 0.3, 0.4, 0.45, 0.5):
        sigma = _perturbed_jump(m, c)
        for e in svd_index(sigma, [8, 16, 24, 32]).gap_evidence:
            want = _dense_svd_oracle(sigma, e.N)
            assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
                (want["raw"], want["ker"], want["coker"])
            assert e.blocks == 1
            if e.N >= 16:
                assert e.route == ("deflated" if want["raw"] else "certified")
                assert 0 < e.lower_bound <= want["s"][-want["raw"] - 1]


def test_a_ritz_value_that_stops_falling_above_the_threshold_gives_the_side_up():
    # m = -1, c = 0.3 at N = 8: the smallest singular value, 3.2e-8, lies
    # just above RANK_TOL s_max = 1.5e-8, so it is not null; the kernel
    # side's Ritz value falls to 5.6e-8 and stays there, the side is given
    # up and the section takes the dense SVD
    sigma = _perturbed_jump(-1, 0.3)
    w = LatticeWindow(1, 8)
    par = parametrix(sigma, 0.0, 3, w, default_grid(w))
    A, S = par.sigma_matrix, par.left_defect
    want = _dense_svd_oracle(sigma, 8)
    low = RANK_TOL * want["smax"]
    assert _deflated_side(A, S, S.adjoint(), 0.0, low, np.random.default_rng(0)) is None
    e = svd_index(sigma, [8]).gap_evidence[0]
    assert (e.blocks, e.route, e.lower_bound) == (1, "dense", None)
    assert (e.raw_null_count, e.dim_ker, e.dim_coker) == (want["raw"], want["ker"], want["coker"])


def test_n2_one_block_sections_are_certified(svd_shapes):
    sigma = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)",
                         2, order=0)
    rep = full_index_report(sigma, [8, 12], n=2)
    assert rep.svd_index == rep.trace_index == 0
    assert [(e.blocks, e.route) for e in rep.gap_evidence] == [(1, "certified")] * 2
    assert all(0 < e.lower_bound < 2 for e in rep.gap_evidence)
    assert not any(shape[-2:] == (P, P) for shape, _ in svd_shapes for P in (289, 625))


def test_a_one_block_section_outside_the_certificate_takes_the_dense_svd():
    # order -2, so not certified elliptic at m = 0: no parametrix reads it
    sigma = parse_symbol("(2+cos(twopi*x1))/(1+k1^2)", 1, order=0)
    for e in svd_index(sigma, [16, 24]).gap_evidence:
        want = _dense_svd_oracle(sigma, e.N)
        assert (e.blocks, e.route, e.lower_bound) == (1, "dense", None)
        assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
            (want["raw"], want["ker"], want["coker"]) == (0, 0, 0)


WIND_K1 = ("step(k1)*exp(i*twopi*x1)+(1-step(k1))+0.2*exp(i*twopi*x2)/(1+k1^2+k2^2)"
           "+0.1*exp(-i*twopi*x1)/(1+k1^2+k2^2)")


def test_the_randomized_block_doubles_until_the_defect_directions_fit():
    # the step in k1 likely puts sigma outside the class, so only agreement
    # with the dense oracle is pinned, not an index
    sigma = parse_symbol(WIND_K1, 2, order=0)
    w = LatticeWindow(2, 8)
    S = parametrix(sigma, 0.0, 3, w, default_grid(w)).left_defect
    # 17 directions fit no block of 8 or 16 columns: the block doubled twice
    assert _top_right_singular(S, S.adjoint(), np.random.default_rng(0)).shape[1] == 17
    assert 17 > 2 * _FIRST_BLOCK
    e = svd_index(sigma, [8], n=2).gap_evidence[0]
    want = _dense_svd_oracle(sigma, 8, n=2)
    assert (e.blocks, e.route) == (1, "deflated")
    assert (e.raw_null_count, e.dim_ker, e.dim_coker) == (want["raw"], want["ker"], want["coker"])
    assert 0 < e.lower_bound <= want["s"][-want["raw"] - 1]


# per shipped symbol at windows 16, 24 and 32: svd and trace index, and
# each window's route, raw null count, kernel and cokernel counts, blocks
# and largest block
SHIPPED_INDEX = {
    "constant": (0, 0, "blocks", 0, 0, 0, [33, 49, 65], [1, 1, 1]),
    "bessel2": (0, 0, "blocks", 0, 0, 0, [33, 49, 65], [1, 1, 1]),
    "jump_plus": (1, 1, "blocks", 1, 1, 0, [33, 49, 65], [2, 2, 2]),
    "jump_minus": (-1, -1, "blocks", 1, 0, 1, [33, 49, 65], [2, 2, 2]),
    "perturbed_bessel": (0, 0, "certified", 0, 0, 0, [1, 1, 1], [33, 49, 65]),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_INDEX))
def test_shipped_index_reports_are_pinned(name):
    svd, trace, route, raw, ker, coker, blocks, largest = SHIPPED_INDEX[name]
    rep = full_index_report(shipped_symbol(name), WINDOWS)
    assert (rep.svd_index, rep.trace_index) == (svd, trace)
    assert [(e.N, e.route, e.raw_null_count, e.dim_ker, e.dim_coker)
            for e in rep.gap_evidence] == [(N, route, raw, ker, coker) for N in WINDOWS]
    assert [e.blocks for e in rep.gap_evidence] == blocks
    assert [e.largest_block for e in rep.gap_evidence] == largest
