"""Index computations: finite sections, trace formula, diagnostics."""

import tracemalloc

import numpy as np
import pytest

from latticeops import (
    LatticeWindow,
    atkinson_check,
    bessel_symbol,
    compose,
    default_grid,
    fredholm_ellipticity_probe,
    full_index_report,
    jump_symbol,
    parse_symbol,
    shipped_symbol,
    svd_index,
    trace_index,
)
from latticeops.elliptic import parametrix
from latticeops.errors import EllipticityError
from latticeops.fredholm import RANK_TOL, _interior_null_count, _null_basis, _weighted_tail_bound
from latticeops.quantization import (
    OperatorMatrix,
    adjoint_symbol,
    assemble_matrix,
    extract_symbol,
    interior_margin,
)

WINDOWS = [16, 24, 32]

JUMP2 = "step(k1)*exp({}2*i*twopi*x1) + (1-step(k1))"
PERTURBED_JUMP = "step(k1)*exp(i*twopi*x1) + (1-step(k1)) + 0.15*exp(-i*twopi*x1)/(1+k1^2)"


def _dense_svd_oracle(sigma, N):
    """The section, its counts and null bases from the full SVD with U and V^H."""
    w = LatticeWindow(1, N)
    A = assemble_matrix(sigma, w, default_grid(w)).entries
    U, s, Vh = np.linalg.svd(A)
    smax = s[0] if s[0] > 0 else 1.0
    null = s < RANK_TOL * smax
    mask = w.interior_mask(interior_margin(w))
    right, left = Vh[null].conj().T, U[:, null]
    return {"A": A, "raw": int(np.sum(null)), "smax": smax, "right": right, "left": left,
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
    return float(s[-raw - 1] / max(s[-raw], s.size * np.finfo(float).eps * smax))


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


@pytest.mark.parametrize("text", ["1 - step(k1)", "0*k1", "step(k1)*exp(i*twopi*x1)",
                                  "(1-step(k1))*cos(twopi*x1)"])
def test_structurally_singular_sections_match_the_dense_svd(text):
    # exactly singular sections: the null-basis solve must stay regular
    sigma = parse_symbol(text, 1, order=0)
    rep = svd_index(sigma, [16, 24, 64], n=1)
    for e in rep.gap_evidence:
        want = _dense_svd_oracle(sigma, e.N)
        assert (e.raw_null_count, e.dim_ker, e.dim_coker) == \
            (want["raw"], want["ker"], want["coker"])
        assert e.raw_null_count > 0
        # exact zeros beside non-null values give a finite gap
        assert e.gap == _values_only_gap(want["A"]) < np.inf


@pytest.mark.parametrize("sigma,raw", [
    (jump_symbol(+1), 1),
    (jump_symbol(-1), 1),
    (parse_symbol(JUMP2.format(""), 1, order=0), 2),
    (parse_symbol(JUMP2.format("-"), 1, order=0), 2),
    (parse_symbol(PERTURBED_JUMP, 1, order=0), 1),
    (shipped_symbol("perturbed_bessel"), 0),
], ids=["jump+1", "jump-1", "jump+2", "jump-2", "perturbed-jump", "perturbed_bessel"])
@pytest.mark.parametrize("N", [16, 24, 48])
def test_null_bases_span_the_dense_svd_null_columns(sigma, raw, N):
    want = _dense_svd_oracle(sigma, N)
    assert want["raw"] == raw
    gap = svd_index(sigma, [N], n=1).gap_evidence[0].gap
    A = want["A"]
    assert gap == _values_only_gap(A) and gap >= 100
    # the floored null value bounds the gap by s_max / (P eps s_max)
    assert raw == 0 or gap <= 1 / (A.shape[0] * np.finfo(float).eps)
    for M, oracle in ((A, want["right"]), (A.conj().T, want["left"])):
        basis = _null_basis(M, raw, want["smax"])
        assert basis.shape == oracle.shape
        # cosines of the principal angles between the two subspaces
        cosines = np.linalg.svd(basis.conj().T @ oracle, compute_uv=False)
        assert np.all(cosines >= 1 - 1e-8)


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
    # the jump sections with their FFT roundoff cut (entries below 1e-15 of
    # their row's largest set to 0) are exact shift blocks, whose left and
    # right null vectors a shift by delta I does not couple
    want = _dense_svd_oracle(shipped_symbol(name), N)
    A = want["A"].copy()
    mag = np.abs(A)
    cut = mag < 1e-15 * np.max(mag, axis=1, keepdims=True)
    assert np.any(cut & (mag > 0))
    A[cut] = 0
    U, s, Vh = np.linalg.svd(A)
    null = s < RANK_TOL * s[0]
    assert int(np.sum(null)) == want["raw"] == 1
    w = LatticeWindow(1, N)
    mask = w.interior_mask(interior_margin(w))
    bases = []
    for M, oracle in ((A, Vh[null].conj().T), (A.conj().T, U[:, null])):
        basis = _null_basis(M, 1, s[0])
        cosines = np.linalg.svd(basis.conj().T @ oracle, compute_uv=False)
        assert np.all(cosines >= 1 - 1e-8)
        bases.append(basis)
    assert tuple(_interior_null_count(b, mask) for b in bases) == counts
