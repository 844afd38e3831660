"""Quantization: apply, assembly, extraction, composition, adjoints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeops import (
    GridSymbol,
    LatticeSequence,
    LatticeWindow,
    TorusGrid,
    adjoint_symbol,
    apply,
    assemble_matrix,
    bessel_symbol,
    check_ellipticity,
    compose,
    default_grid,
    extract_symbol,
    index_grid,
    interior_margin,
    multiplier_symbol,
    parametrix,
    parse_symbol,
    solve,
)
from latticeops.core import _dft_matrix, forward_dft, phase_matrix
from latticeops.errors import AliasingError, DimensionMismatchError
from latticeops.quantization import (
    _ROUNDOFF,
    OperatorMatrix,
    SparseRows,
    _too_full,
    assemble_toroidal_matrix,
)
from latticeops import symbols
from latticeops.symbols import MAX_TERMS, NON_FINITE_SAMPLES, Symbol, _slabs


@pytest.fixture
def setup():
    w = LatticeWindow(1, 8)
    g = default_grid(w)
    rng = np.random.default_rng(3)
    return w, g, rng


def test_identity_symbol(setup):
    w, g, rng = setup
    f = LatticeSequence.random(w, rng)
    out = apply(parse_symbol("1", 1, order=0), f, g)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_shift_semantics(setup):
    # sigma = e^{2 pi i x} acts as (T f)(k) = f(k+1)
    w, g, rng = setup
    f = LatticeSequence.random(w, rng)
    out = apply(parse_symbol("exp(i*twopi*x1)", 1, order=0), f, g)
    for k in range(-8, 9):
        expected = f[(k + 1,)] if k + 1 <= 8 else 0.0
        assert out[(k,)] == pytest.approx(expected, abs=1e-12)


def test_multiplier_assembles_diagonal(setup):
    w, g, _ = setup
    A = assemble_matrix(bessel_symbol(2), w, g)
    expected = np.diag(1.0 + w.points[:, 0].astype(float) ** 2)
    assert np.max(np.abs(A.entries - expected)) < 1e-10


def test_apply_agrees_with_matvec(setup):
    w, g, rng = setup
    sigma = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    f = LatticeSequence.random(w, rng)
    A = assemble_matrix(sigma, w, g)
    assert np.max(np.abs(A.matvec(f).values - apply(sigma, f, g).values)) < 1e-12


def test_extraction_roundtrip(setup):
    w, g, _ = setup
    sigma = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    A = assemble_matrix(sigma, w, g)
    A2 = assemble_matrix(extract_symbol(A), w, g)
    assert np.max(np.abs(A2.entries - A.entries)) < 1e-10


def dense_section(S, w, g):
    """The direct P^2 Q quadrature of exp(2 pi i (k-l).x) sigma(k,x), as an oracle."""
    return g.weight * ((phase_matrix(w, g) * S) @ _dft_matrix(w.n, w.N, g.M))


def dense_extraction(A, w, g):
    """The direct exp(-2 pi i k.x) sum_l A[k,l] exp(2 pi i l.x), as an oracle."""
    B = phase_matrix(w, g)
    return B.conj() * (A @ B)


def dense_apply(S, f, g):
    """The direct M^-n sum_x exp(2 pi i k.x) sigma(k,x) fhat(x), as an oracle."""
    w = f.window
    return g.weight * np.sum(phase_matrix(w, g) * S * forward_dft(f, g).values, axis=1)


def check_against_dense(n, N, M, seed):
    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((w.size, g.size)) + 1j * rng.standard_normal((w.size, g.size))
    A = assemble_matrix(GridSymbol(w, g, S), w, g)
    assert np.max(np.abs(A.entries - dense_section(S, w, g))) < 1e-12
    ext = extract_symbol(A).values
    assert np.max(np.abs(ext - dense_extraction(A.entries, w, g))) < 1e-12
    f = LatticeSequence.random(w, rng)
    want = dense_apply(S, f, g)
    got = apply(GridSymbol(w, g, S), f, g).values
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assembly_and_extraction_match_the_dense_sums(data):
    # every M in [2N+1, 4N+2], so l - k both wraps modulo M and does not
    n = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, {1: 12, 2: 4, 3: 2}[n]))
    M = data.draw(st.integers(2 * N + 1, 4 * N + 2))
    check_against_dense(n, N, M, data.draw(st.integers(0, 2 ** 32 - 1)))


def _close(got, want):
    return np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sampled_products_match_the_dense_section(data):
    # every M in [2N+1, 4N+2], so (l - k) mod M both wraps and does not
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(1, {1: 12, 2: 4}[n]))
    M = data.draw(st.integers(2 * N + 1, 4 * N + 2))
    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    S = rng.standard_normal((w.size, g.size)) + 1j * rng.standard_normal((w.size, g.size))
    f = LatticeSequence.random(w, rng)
    v = f.values
    # a grid symbol has no split: its samples stream into the section's rows
    A = OperatorMatrix.from_symbol(GridSymbol(w, g, S), w, g)
    assert A._factors is None
    Av = A @ v
    assert _close(Av, dense_section(S, w, g) @ v)
    assert np.array_equal(A.matvec(f).values, Av)
    assert _close(A.entries, dense_section(S, w, g))
    assert np.array_equal(A.matvec(f).values, A.entries @ v)
    # |sigma| >= 2, so the parametrix is certified at order 0
    par = parametrix(GridSymbol(w, g, 3 + S / (1 + np.abs(S))), 0.0, 1, w, g)
    Av, B0v = par.sigma_matrix @ v, par.initial @ v
    assert _close(Av, par.sigma_matrix.entries @ v)
    assert _close(B0v, par.initial.entries @ v)
    # the sections come out in C order, as the dense products downstream expect
    assert par.sigma_matrix.entries.flags["C_CONTIGUOUS"]
    # once built, the sections carry the products
    assert np.array_equal(par.sigma_matrix @ v, par.sigma_matrix.entries @ v)
    assert np.array_equal(par.initial @ v, par.initial.entries @ v)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 4)])
@pytest.mark.parametrize("extra", [0, 2])
def test_assembly_and_extraction_match_the_dense_sums_at_size(n, N, extra):
    check_against_dense(n, N, 2 * N + 1 + extra, seed=N + extra)


# factors that read only k or only x, and one-term divisors free of zeros
_K_FACTORS = ["(1+k1^2)", "1/(2+k1^2)", "step(k1)", "(3+k1^2)^(1/4)", "0.5", "i"]
_X_FACTORS = ["exp(i*twopi*x1)", "(2+cos(twopi*x1))", "x1", "sin(twopi*x1)"]
_DIVISORS = ["(1+k1^2)", "(2+cos(twopi*x1))", "(2+k1^2)*(3-sin(twopi*x1))"]
_N2_FACTORS = ["(1+k1^2+k2^2)", "cos(k2)", "cos(twopi*(x1+x2))", "exp(-i*twopi*x2)"]


def _separable_text(data, n, depth):
    """A random expression in sums, differences, negations, products and
    quotients of k-only and x-only factors: at most 4 terms."""
    factors = _K_FACTORS + _X_FACTORS + (_N2_FACTORS if n == 2 else [])
    op = data.draw(st.sampled_from(["factor", "+", "-", "*", "/", "neg"] if depth else ["factor"]))
    if op == "factor":
        return data.draw(st.sampled_from(factors))
    if op == "neg":
        return f"-({_separable_text(data, n, depth - 1)})"
    right = (data.draw(st.sampled_from(_DIVISORS)) if op == "/"
             else _separable_text(data, n, depth - 1))
    return f"({_separable_text(data, n, depth - 1)}){op}({right})"


def _near(got, want, scale):
    """got matches want to 1e-12 relative to ``scale``, the size of the
    terms that were summed (a cancelling sum keeps their roundoff)."""
    return np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_separated_factors_match_the_samples_and_the_dense_section(data):
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(1, {1: 10, 2: 4}[n]))
    M = data.draw(st.integers(2 * N + 1, 4 * N + 2))
    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    sigma = parse_symbol(_separable_text(data, n, 2), n)
    terms = sigma._terms(w, g)
    assert terms is not None and terms[0].shape[1] <= 4
    a, b = terms
    S = sigma.sample(w, g)
    scale = np.max(np.abs(a) @ np.abs(b))
    assert _near(a @ b, S, scale)
    A = OperatorMatrix.from_symbol(sigma, w, g)
    assert A._factors is not None
    f = LatticeSequence.random(w, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    want = dense_section(S, w, g)
    assert _near(A @ f.values, want @ f.values, scale * np.sum(np.abs(f.values)))
    # the section, formed on first read, replaces the factors
    assert _near(A.entries, want, scale) and A._factors is None
    assert np.array_equal(assemble_matrix(sigma, w, g).entries, A.entries)


@pytest.mark.parametrize("text", ["exp(i*k1*x1)", "cos(twopi*(k1*x1))", "1/(2 + k1*x1)",
                                  "(k1 + x1)^2", "2 + abs(k1 - x1)"])
def test_non_separable_symbols_take_the_folded_form(text):
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    sigma = parse_symbol(text, 1)
    for sym in (sigma, GridSymbol(w, g, sigma.sample(w, g))):
        assert sym._terms(w, g) is None
        A = OperatorMatrix.from_symbol(sym, w, g)
        # no factors: the samples were streamed into the section's rows
        assert A._factors is None and (A._sparse or A._entries is not None)
        assert _close(A.entries, dense_section(sigma.sample(w, g), w, g))


def test_separation_stops_at_the_term_cap():
    w = LatticeWindow(2, 2)
    g = default_grid(w)
    pairs = ["(1 + k1*x1)", "(1 + k2*x2)", "(2 + k1*x2)", "(3 + k2*x1)"]
    for count in range(1, len(pairs) + 1):
        terms = parse_symbol("*".join(pairs[:count]), 2)._terms(w, g)
        if 2 ** count <= MAX_TERMS:
            assert terms[0].shape[1] == 2 ** count
        else:
            assert terms is None


def _nodes(node):
    """The number of nodes of an expression tree."""
    return 1 + sum(_nodes(c) for c in vars(node).values() if hasattr(c, "__dict__"))


def test_separation_visits_each_node_once(monkeypatch):
    # a nested expression of mixed sub-trees at every level: the walk that
    # reads each sub-tree's kinds visits each node once and the split at
    # most once more, so the visits grow with the expression's size
    walked, split = [], []
    kinds, separate = symbols._kinds, symbols._separate

    def counted(record, original):
        def visit(node, *args):
            record.append(node)
            return original(node, *args)
        return visit

    monkeypatch.setattr(symbols, "_kinds", counted(walked, kinds))
    monkeypatch.setattr(symbols, "_separate", counted(split, separate))
    w = LatticeWindow(2, 2)
    g = default_grid(w)
    text = "x1"
    for depth in range(1, 30):
        text = f"(k{1 + depth % 2} + {text})*(1 + x2) - k1*cos(twopi*x{1 + depth % 2})"
        sigma = parse_symbol(text, 2)
        walked.clear()
        split.clear()
        sigma._terms(w, g)
        assert len(walked) == _nodes(sigma.ast)
        assert len(split) <= _nodes(sigma.ast)


@pytest.mark.parametrize("text", ["2 + k1/k1", "2 + (1+k1^2)/sin(twopi*x1)",
                                  "2 + exp(i*twopi*x1)/(k1*(2+cos(twopi*x1)))",
                                  "step(k1)*exp(i*twopi*x1)/k1 + (1-step(k1))",
                                  "(1e200*step(k1))*(1e200*exp(i*twopi*x1)) + (1-step(k1))",
                                  "2 + step(k1-100)/sin(twopi*x1)"])
def test_non_finite_separated_symbols_are_refused_as_before(text):
    # NaN at k1 = 0, or a pole on the grid node x1 = 0; the last three hold
    # one term at each k: an infinite factor at k1 = 0, factors whose
    # product overflows, and a pole in a term no window point reads
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    sigma = parse_symbol(text, 1, order=0)
    assert sigma._terms(w, g) is not None
    f = LatticeSequence.random(w, np.random.default_rng(1))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="operator matrix carries non-finite entries"):
            assemble_matrix(sigma, w, g)
        with pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
            parametrix(sigma, 0.0, 1, w, g)
        with pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
            solve(sigma, 0.0, f, w, g)


EXPR_ORDER0 = "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)"


def _second_apply_peak(sigma, w, g):
    """tracemalloc peak of a second apply call on w x g."""
    f = LatticeSequence.random(w, np.random.default_rng(5))
    apply(sigma, f, g)
    tracemalloc.start()
    try:
        apply(sigma, f, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_holds_one_sample_array_and_no_dft_table():
    w = LatticeWindow(2, 12)
    g = default_grid(w)
    _dft_matrix.cache_clear()
    peak = _second_apply_peak(parse_symbol(EXPR_ORDER0, 2, order=0), w, g)
    assert _dft_matrix.cache_info().currsize == 0
    # one k_1 row of samples at a time, multiplied by fhat in place; every
    # other node of the expression runs on fewer axes than the slab
    assert peak <= 0.25 * w.size * g.size * 16


def _kinds_of_dependence(n):
    """Symbols varying on no x axis, on no k axis, on some axes, on every axis."""
    kinds = [bessel_symbol(2), multiplier_symbol("1/(1+k1^2)", n), parse_symbol("cos(twopi*x1)", n),
             parse_symbol("2+cos(twopi*x1)/(1+k1^2)", n)]
    if n >= 2:
        kinds += [parse_symbol("exp(i*twopi*x1)/(1+k2^2)", n), parse_symbol(EXPR_ORDER0, n)]
    if n == 3:
        kinds += [parse_symbol("x2*k1 + cos(twopi*x3)*k3", n)]
    return kinds


@pytest.mark.parametrize("n,N", [(1, 9), (2, 5), (3, 2)])
def test_apply_matches_the_dense_sum_on_every_kind_of_dependence(n, N):
    w = LatticeWindow(n, N)
    g = TorusGrid(n, 2 * N + 2)
    f = LatticeSequence.random(w, np.random.default_rng(n))
    for sigma in _kinds_of_dependence(n):
        want = dense_apply(sigma.sample(w, g), f, g)
        got = apply(sigma, f, g).values
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), sigma


def _slab_cases(n, w, g):
    """Every kind of dependence, sigma without a split, a grid symbol, and
    symbols that read x_1 but not k_1 or k_1 but not x_1."""
    cases = _kinds_of_dependence(n) + [parse_symbol("2 + exp(i*k1*x1)", n)]
    cases.append(GridSymbol(w, g, cases[-1].sample(w, g)))
    if n == 2:
        cases += [parse_symbol("exp(i*twopi*(x1+x2))*(1+k2^2)", n),
                  parse_symbol("cos(twopi*x2)*(1+k2^2)/(1+k1^2)", n)]
    return cases


@pytest.mark.parametrize("n,N", [(2, 24), (1, 256)])
def test_apply_in_slabs_matches_the_dense_sum(n, N):
    w = LatticeWindow(n, N)
    g = default_grid(w)
    assert len(_slabs(w.side, w.size // w.side * g.size)) > 1
    f = LatticeSequence.random(w, np.random.default_rng(n))
    try:
        for sigma in _slab_cases(n, w, g):
            want = dense_apply(sigma.sample(w, g), f, g)
            got = apply(sigma, f, g).values
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), sigma
    finally:
        _dft_matrix.cache_clear()  # the oracle's (Q, P) table


def test_a_grid_symbol_applies_on_another_grid():
    # every slab resamples its stored rows onto the other grid
    w = LatticeWindow(2, 12)
    g, other = default_grid(w), TorusGrid(2, 2 * w.N + 8)
    values = parse_symbol("2 + exp(i*k1*x1) + cos(twopi*x2)*k1", 2).sample(w, g)
    f = LatticeSequence.random(w, np.random.default_rng(9))
    want = dense_apply(GridSymbol(w, g, values).sample(w, other), f, other)
    _dft_matrix.cache_clear()
    got = apply(GridSymbol(w, g, values), f, other).values
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [bessel_symbol(2, n=2), parse_symbol("cos(twopi*x1)*(1+k2^2)", 2)],
                         ids=["x-independent", "k1-independent"])
def test_a_small_product_is_one_slab(sigma, monkeypatch):
    # the product of bessel2 with the summed fhat is P entries, and one
    # that carries no k_1 axis repeats in every k_1 row: neither is cut
    w = LatticeWindow(2, 24)
    g = default_grid(w)
    slabs = []

    def sample_axes(self, window, grid, shift, rows=slice(None), _original=Symbol._sample_axes):
        slabs.append(range(window.side)[rows])
        return _original(self, window, grid, shift, rows)

    monkeypatch.setattr(Symbol, "_sample_axes", sample_axes)
    apply(sigma, LatticeSequence.random(w, np.random.default_rng(8)), g)
    assert slabs == [range(0), range(w.side)]  # the empty probe, then one slab


@pytest.mark.parametrize("text", ["1/(k1-{N})", "exp(i*k1*x1)/(k1-{N})"])
def test_a_pole_in_the_last_slab_is_refused(text):
    w = LatticeWindow(2, 12)
    g = default_grid(w)
    sigma = parse_symbol(text.format(N=w.N), 2)
    f = LatticeSequence.random(w, np.random.default_rng(7))
    with pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
        apply(sigma, f, g)
    with pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
        check_ellipticity(sigma, 0.0, w, g)


def test_x_independent_apply_forms_no_sample_array():
    w = LatticeWindow(2, 12)
    g = default_grid(w)
    assert _second_apply_peak(bessel_symbol(2, n=2), w, g) < w.size * g.size * 16


def test_apply_refuses_non_finite_values():
    w = LatticeWindow(1, 8)
    g = default_grid(w)
    f = LatticeSequence.random(w, np.random.default_rng(6))
    sigma = parse_symbol("1/k1", 1)  # infinite at k1 = 0
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
            apply(sigma, f, g)
        with pytest.raises(ValueError):
            assemble_matrix(sigma, w, g)
    f.values[3] = np.nan
    with pytest.raises(ValueError, match="sequence carries non-finite values"):
        apply(parse_symbol("2", 1), f, g)


def test_every_product_with_a_non_finite_sequence_refuses_it_as_apply_does():
    # one NaN in f: each form of the operator and solve refuse it up front,
    # where a dense section would return every row NaN and a sparse one
    # every row but one finite
    w = LatticeWindow(1, 8)
    g = default_grid(w)
    P = w.size
    sigma = parse_symbol("2 + cos(twopi*x1)/(1+k1^2)", 1, order=0)
    forms = [OperatorMatrix(w, g, np.eye(P)),
             OperatorMatrix.from_symbol(GridSymbol(w, g, sigma.sample(w, g)), w, g),
             OperatorMatrix.from_symbol(sigma, w, g),
             OperatorMatrix.from_sparse(
                 SparseRows(np.arange(P + 1), np.arange(P), np.ones(P, dtype=complex)), w, g)]
    assert forms[1]._factors is None and forms[2]._factors is not None
    f = LatticeSequence.random(w, np.random.default_rng(6))
    f.values[3] = np.nan
    for A in forms:
        with pytest.raises(ValueError, match="sequence carries non-finite values"):
            A.matvec(f)
    with pytest.raises(ValueError, match="sequence carries non-finite values"):
        solve(sigma, 0.0, f, w, g)


def test_extraction_refuses_aliasing_grid():
    w = LatticeWindow(1, 4)
    with pytest.raises(AliasingError):
        extract_symbol(OperatorMatrix(w, TorusGrid(1, 8), np.eye(w.size)))


@pytest.mark.parametrize("n,N,M", [(1, 8, 16), (1, 8, 5), (2, 3, 6)])
def test_every_constructor_refuses_an_aliasing_grid(n, N, M, monkeypatch):
    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    P, Q = w.size, g.size
    sigma = parse_symbol("2 + cos(twopi*x1)/(1+k1^2)", n)
    calls = [
        lambda: OperatorMatrix(w, g, np.eye(P)),
        lambda: OperatorMatrix.from_factors(np.ones((P, 1)), np.ones((1, Q)), w, g),
        lambda: OperatorMatrix.from_sparse(
            SparseRows(np.arange(P + 1), np.arange(P), np.ones(P, dtype=complex)), w, g),
        lambda: OperatorMatrix.from_symbol(sigma, w, g),
        lambda: assemble_matrix(sigma, w, g),
    ]
    for sampler in ("sample", "_sample_axes", "_terms"):
        monkeypatch.setattr(type(sigma), sampler, lambda *a: pytest.fail("sigma was sampled"))
    for call in calls:
        with pytest.raises(AliasingError):
            call()
    with pytest.raises(DimensionMismatchError):
        OperatorMatrix(w, TorusGrid(n + 1, 2 * N + 1), np.eye(P))


def test_operator_matrix_refuses_a_wrong_shape_or_a_non_finite_entry():
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    with pytest.raises(DimensionMismatchError):
        OperatorMatrix(w, g, np.eye(w.size + 1))
    E = np.eye(w.size)
    E[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(w, g, E)


def test_a_sparse_product_refuses_an_overflow():
    w = LatticeWindow(1, 2)
    g = default_grid(w)
    P = w.size

    def sparse(indptr, cols, value):
        data = np.full(len(cols), value, dtype=complex)
        return OperatorMatrix.from_sparse(SparseRows(np.array(indptr), np.array(cols), data), w, g)

    diagonal = sparse(np.arange(P + 1), np.arange(P), 1e200)
    # row 0 of the first meets rows 0 and 1 of the second: two terms of 1e308
    row = sparse([0, 2, 2, 2, 2, 2], [0, 1], 1e154)
    column = sparse([0, 1, 2, 2, 2, 2], [0, 0], 1e154)
    for A, B in ((diagonal, diagonal), (row, column)):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                A.product(B)


def test_extracted_symbol_matches_on_grid(setup):
    w, g, _ = setup
    sigma = parse_symbol("2+sin(twopi*x1)*step(k1)", 1, order=0)
    ext = extract_symbol(assemble_matrix(sigma, w, g))
    mask = w.interior_mask(ext.interior_margin)
    assert np.max(np.abs(ext.sample(w, g) - sigma.sample(w, g))[mask]) < 1e-10


def test_bessel_composition_exact(setup):
    w, g, _ = setup
    comp = compose(bessel_symbol(1), bessel_symbol(2), w, g)
    mask = w.interior_mask(interior_margin(w))
    gap = np.abs(comp.values - bessel_symbol(3).sample(w, g))[mask]
    assert np.max(gap) < 1e-10
    assert comp.order == pytest.approx(3.0)


def test_composition_shift_multiplier_oracle(setup):
    # compose(e^{2 pi i x}, a(k)) should carry symbol a(k+1) e^{2 pi i x}
    w, g, _ = setup
    shift = parse_symbol("exp(i*twopi*x1)", 1, order=0)
    a = parse_symbol("1/(1+k1^2)", 1, order=-2)
    comp = compose(shift, a, w, g)
    K = w.points[:, 0].astype(float)
    X = g.nodes[:, 0]
    target = (1 / (1 + (K + 1) ** 2))[:, None] * np.exp(2j * np.pi * X)[None, :]
    mask = w.interior_mask(interior_margin(w))
    assert np.max(np.abs(comp.values - target)[mask]) < 1e-12


def test_composition_agrees_with_matrix_product(setup):
    w, g, _ = setup
    s1 = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    s2 = parse_symbol("1+sin(twopi*x1)/(2+k1^2)", 1, order=0)
    prod = assemble_matrix(s1, w, g).entries @ assemble_matrix(s2, w, g).entries
    C = assemble_matrix(compose(s1, s2, w, g), w, g).entries
    mask = w.interior_mask(interior_margin(w))
    assert np.max(np.abs((C - prod)[mask])) < 1e-10


def test_composition_associativity():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    a = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    b = parse_symbol("1+1/(1+k1^2)", 1, order=0)
    c = parse_symbol("exp(i*twopi*x1)/(2+k1^2)+1", 1, order=0)
    left = compose(compose(a, b, w, g), c, w, g)
    right = compose(a, compose(b, c, w, g), w, g)
    mask = w.interior_mask(2 * interior_margin(w))
    assert np.max(np.abs(left.values - right.values)[mask]) < 1e-8


def test_adjoint_pairing(setup):
    w, g, rng = setup
    sigma = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    adj = adjoint_symbol(sigma, w, g)
    m = interior_margin(w)
    for _ in range(5):
        phi = LatticeSequence.random(w, rng, margin=m)
        psi = LatticeSequence.random(w, rng, margin=m)
        lhs = np.vdot(psi.values, apply(sigma, phi, g).values)
        rhs = np.vdot(apply(adj, psi, g).values, phi.values)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_toroidal_duality_identity(setup):
    # A_sigma = M^{-n} E^H C^H E where C is the toroidal assembly of
    # tau(x,k) = conj(sigma(-k,x)); sigma is complex and odd in k, so the
    # identity fails without the conjugate or the reflection
    w, g, _ = setup
    sigma = parse_symbol("2+cos(twopi*x1)/(1+k1^2) + exp(i*twopi*x1)*k1/(1+k1^2)", 1, order=0)
    A = assemble_matrix(sigma, w, g).entries
    C = assemble_toroidal_matrix(sigma, w, g)
    E = phase_matrix(w, g).conj().T  # (Q, P): e^{-2 pi i x l}
    lhs = g.weight * (E.conj().T @ C.conj().T @ E)
    assert np.max(np.abs(lhs - A)) < 1e-8


def _random_section(data, w, rng):
    """A random P x P section: entries of one of several densities, rows
    scaled over 16 decades, some rows empty, or all zero."""
    P = w.size
    density = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    D = (rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P))) * (rng.random((P, P)) < density)
    D *= 10.0 ** rng.uniform(-8, 8, size=(P, 1))
    D[rng.random(P) < 0.2] = 0
    return D


def _sparse_rows(D):
    """The nonzero entries of D in compressed sparse rows, built with numpy alone."""
    k, l = np.nonzero(D)
    return SparseRows(np.searchsorted(k, np.arange(D.shape[0] + 1)), l, D[k, l])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_form_matches_dense_numpy(data):
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(1, {1: 12, 2: 4}[n]))
    w, g = LatticeWindow(n, N), TorusGrid(n, data.draw(st.integers(2 * N + 1, 4 * N + 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    D1, D2, D3 = (_random_section(data, w, rng) for _ in range(3))
    A, B, C = (OperatorMatrix.from_sparse(_sparse_rows(D), w, g) for D in (D1, D2, D3))
    assert np.array_equal(A.entries, D1)
    scale, shift = data.draw(st.sampled_from([(1.0, 0.0), (-1.0, 1.0), (0.5 - 2j, -1.0)]))
    with_add = data.draw(st.booleans())
    got = A.product(B, scale=scale, shift=shift, add=C if with_add else None).entries
    P = w.size
    want = scale * (D1 @ D2) + shift * np.eye(P) + (D3 if with_add else 0)
    # each row agrees to roundoff of the largest term it sums: an empty or
    # all-zero row stays exactly zero, however small its neighbours
    terms = np.max(abs(scale) * (np.abs(D1) @ np.abs(D2)), axis=1)
    terms = np.maximum(terms, abs(shift))
    if with_add:
        terms = np.maximum(terms, np.max(np.abs(D3), axis=1))
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * terms)
    # the diagonal, the adjoint, and the extracted symbol and its row sups
    A = OperatorMatrix.from_sparse(_sparse_rows(D1), w, g)
    assert np.array_equal(A.diagonal(), np.diag(D1))
    assert np.array_equal(A.adjoint().entries, D1.conj().T)
    values = dense_extraction(D1, w, g)
    rows = np.max(np.abs(D1), axis=1, keepdims=True) * P
    assert np.all(np.abs(extract_symbol(A).values - values) <= 1e-12 * rows)
    assert np.all(np.abs(A.symbol_row_maxima() - np.max(np.abs(values), axis=1)) <= 1e-12 * rows[:, 0])
    assert np.array_equal(A.symbol_row_maxima() == 0, ~D1.any(axis=1))
    assert A._entries is None  # none of these densified the sparse form


# pieces that do not split into k-only times x-only factors
_NON_SEPARABLE = {1: ["exp(i*k1*x1)", "1/(3 + sin(k1*x1))", "cos(twopi*(k1*x1))"],
                  2: ["exp(i*k2*x1)", "1/(3 + cos(twopi*x1)/(1+k1^2+k2^2))"]}


def _by_column(S):
    """S's row pointers, and its entries sorted by column within each row."""
    order = np.lexsort((S.indices, S.row_ids()))
    return S.indptr, S.indices[order], S.data[order]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_section_holds_one_set_of_numbers(data):
    # from the factors or the streamed samples of a separable or a
    # non-separable symbol, whose sections split into blocks or not, from
    # dense entries or from sparse rows: the dense and the sparse view hold
    # the same entries, whichever is built first, and a sparse form rebuilt
    # from the dense one is the same
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(1, {1: 12, 2: 4}[n]))
    w, g = LatticeWindow(n, N), TorusGrid(n, data.draw(st.integers(2 * N + 1, 4 * N + 2)))
    form = data.draw(st.sampled_from(["symbol", "samples", "dense", "sparse"]))
    if form in ("symbol", "samples"):
        text = _separable_text(data, n, 2)
        if data.draw(st.booleans()):
            text = f"({text}) + {data.draw(st.sampled_from(_NON_SEPARABLE[n]))}"
        sigma = parse_symbol(text, n)
        build = {"symbol": lambda: OperatorMatrix.from_symbol(sigma, w, g),
                 "samples": lambda: OperatorMatrix.from_symbol(
                     GridSymbol(w, g, sigma.sample(w, g)), w, g)}[form]
    else:
        D = _random_section(data, w, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
        build = {"dense": lambda: OperatorMatrix(w, g, D.copy()),
                 "sparse": lambda: OperatorMatrix.from_sparse(_sparse_rows(D), w, g)}[form]
    A, B = build(), build()
    S = A.sparse  # A builds its sparse form first, B its dense one
    E = B.entries
    assert np.array_equal(A.entries, E)
    mag = np.abs(E)
    assert np.all((mag >= _ROUNDOFF * np.max(mag, axis=1, keepdims=True)) | (mag == 0))
    # only sparse rows given as such are held sparse when too full
    rebuilt = OperatorMatrix(w, g, E.copy())
    assert (rebuilt.sparse is None) == (S is None or _too_full(S.indptr[-1], w.size))
    assert (B.sparse is None) == (S is None)
    for C in (B, rebuilt):
        if C.sparse is not None:
            assert all(np.array_equal(x, y) for x, y in zip(_by_column(C.sparse), _by_column(S)))
            assert all(np.array_equal(x, y) for x, y in zip(C.blocks(), A.blocks()))


@pytest.mark.parametrize("text,N", [  # from the factors, then the streamed samples
    ("2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)", 6),
    ("1/(2 + cos(twopi*x1)/(1+k1^2+k2^2))", 10)])
def test_sparse_form_keeps_the_section_to_roundoff(text, N):
    # and from the dense section alike
    w = LatticeWindow(2, N)
    g = default_grid(w)
    sigma = parse_symbol(text, 2)
    want = dense_section(sigma.sample(w, g), w, g)
    A = OperatorMatrix.from_symbol(sigma, w, g)
    assert A.sparse is not None and A._entries is None
    dense = OperatorMatrix(w, g, want.copy())
    for S in (A.sparse, dense.sparse):
        got = OperatorMatrix.from_sparse(S, w, g).entries
        # relative per row: each row is kept to roundoff of its own largest entry
        assert np.all(np.max(np.abs(got - want), axis=1)
                      <= 1e-12 * np.max(np.abs(want), axis=1))


@pytest.mark.parametrize("text,n,N,big,form", [
    ("2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)", 2, 4, 6, "sparse"),
    ("1/(2.2 + cos(twopi*x1) + cos(twopi*x2))", 2, 4, 6, "dense"),
    # five entries a row: sparse on 129 rows, too full for the sparse form on 33
    ("2 + cos(twopi*x1) + 0.5*cos(2*twopi*x1)", 1, 16, 64, "dense")])
def test_a_principal_sub_section_is_the_smaller_windows_section(text, n, N, big, form):
    small, large = LatticeWindow(n, N), LatticeWindow(n, big)
    g = index_grid(large)
    sigma = parse_symbol(text, n)
    A = assemble_matrix(sigma, large, g)
    sub = A.principal(small)
    want = assemble_matrix(sigma, small, g)
    assert sub.form_report()["form"] == want.form_report()["form"] == form
    ids = small.rows_in(large)
    assert np.array_equal(sub.entries, A.entries[np.ix_(ids, ids)])
    # the rows of the larger section dropped roundoff against their own peak
    want = want.entries
    assert np.all(np.max(np.abs(sub.entries - want), axis=1)
                  <= 1e-12 * np.max(np.abs(want), axis=1))


def test_sparse_form_refuses_non_finite_entries():
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    S = np.ones((w.size, g.size), dtype=complex)
    S[3, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix.from_symbol(GridSymbol(w, g, S), w, g)
    with pytest.raises(ValueError, match="non-finite"):
        compose(parse_symbol("1/(k1 - 1)", 1), parse_symbol("1", 1), w, g)


def _reference_blocks(D):
    """The block of each row and column of D by a breadth-first walk over
    its rows and columns, numbered by their first row and then, for an
    empty column, by column: the loop ``OperatorMatrix.blocks`` replaces."""
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_blocks_and_their_values_match_dense_numpy(data):
    # a random section with its rows and columns permuted within blocks of
    # random sizes, so the blocks are of several sizes and interleaved
    N = data.draw(st.integers(1, 12))
    w = LatticeWindow(1, N)
    g = default_grid(w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    D = _random_section(data, w, rng)
    P = w.size
    cuts = np.sort(rng.choice(np.arange(1, P), size=data.draw(st.integers(0, P - 1)),
                              replace=False))
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, P]):
        D[a:b, :a] = D[a:b, b:] = 0
    D = D[rng.permutation(P)][:, rng.permutation(P)]
    A = OperatorMatrix.from_sparse(_sparse_rows(D), w, g)
    B = A.blocks()
    rows, cols, count = _reference_blocks(D)
    assert np.array_equal(B.rows, rows) and np.array_equal(B.cols, cols) and B.count == count
    want = np.linalg.svd(D, compute_uv=False)
    got = A.singular_values()
    assert got.shape == (P,) and np.all(got[:-1] >= got[1:])
    # the two routes' backward errors add
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * want[0])
    assert (A._entries is None) == (count > 1)  # only one block forms the section
