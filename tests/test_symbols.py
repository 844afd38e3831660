"""Symbol expressions, parsing, order estimation, ellipticity."""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeops import (
    LatticeWindow,
    TorusGrid,
    bessel_symbol,
    check_ellipticity,
    default_grid,
    dual_toroidal_symbol,
    estimate_order,
    eval_symbol,
    jump_symbol,
    multiplier_symbol,
    parse_symbol,
    read_symbol_json,
    write_symbol_json,
)
from latticeops.core import multiindex_range, multiindices_leq
from latticeops.errors import OutOfWindowError, SymbolSyntaxError
from latticeops.quantization import assemble_matrix, extract_symbol
from latticeops.symbols import (
    _FUNCS,
    NON_FINITE_SAMPLES,
    BinOp,
    Const,
    Func,
    GridSymbol,
    Neg,
    Num,
    Var,
    _difference_samples,
    pretty_print,
    s0_decay_profile,
)


def test_parse_constant():
    sigma = parse_symbol("1", 1)
    assert eval_symbol(sigma, (5,), (0.3,)) == pytest.approx(1.0)


def test_parse_character():
    sigma = parse_symbol("exp(i*twopi*x1)", 1)
    assert eval_symbol(sigma, (0,), (0.25,)) == pytest.approx(1j)


def test_parsed_bessel_matches_builtin():
    sigma = parse_symbol("(1+k1^2+k2^2)^(1/2)", 2)
    b = bessel_symbol(1, n=2)
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = tuple(rng.integers(-9, 10, size=2))
        x = tuple(rng.random(2))
        assert eval_symbol(sigma, k, x) == pytest.approx(eval_symbol(b, k, x), abs=1e-14)


def test_syntax_error_carries_position():
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol("1+*2", 1)
    assert exc.value.position is not None


def test_out_of_dimension_variable_rejected():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("k3+1", 2)


def test_caret_needs_constant_exponent():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("2^k1", 1)


def test_bessel_eval_examples():
    assert eval_symbol(bessel_symbol(0), (7,), (0.1,)) == pytest.approx(1.0)
    assert eval_symbol(bessel_symbol(2, n=2), (1, 2), (0.0, 0.0)) == pytest.approx(6.0)
    assert eval_symbol(bessel_symbol(-1, n=2), (2, 2), (0.5, 0.5)) == pytest.approx(1 / 3)


def test_step_jump_branches():
    sigma = parse_symbol("step(k1)*exp(i*twopi*x1)+(1-step(k1))", 1)
    assert eval_symbol(sigma, (-3,), (0.25,)) == pytest.approx(1.0)
    # step(0) = 1 by convention
    assert eval_symbol(sigma, (0,), (0.25,)) == pytest.approx(1j)
    assert eval_symbol(jump_symbol(+1), (-3,), (0.25,)) == pytest.approx(1.0)


@given(st.integers(-20, 20), st.floats(0.0, 0.999))
@settings(max_examples=40, deadline=None)
def test_jump_symbol_matches_expression(k, x):
    sigma = parse_symbol("step(k1)*exp(i*twopi*x1)+(1-step(k1))", 1)
    assert eval_symbol(jump_symbol(+1), (k,), (x,)) == pytest.approx(
        eval_symbol(sigma, (k,), (x,)), abs=1e-12)


def test_pretty_print_roundtrip():
    texts = [
        "1+k1^2",
        "exp(i*twopi*x1)/(1+k1^2)",
        "2-sin(twopi*x1)*step(k1)",
        "-(k1+1)^3/(2+cos(twopi*x1))",
        "sqrt(abs(k1))+1",
    ]
    for t in texts:
        a = parse_symbol(t, 1).ast
        printed = pretty_print(a)
        assert pretty_print(parse_symbol(printed, 1).ast) == printed


def test_x_periodicity():
    sigma = parse_symbol("exp(i*twopi*x1)*(1+k1^2)", 1)
    for x in (0.0, 0.3, 0.77):
        assert eval_symbol(sigma, (4,), (x,)) == pytest.approx(
            eval_symbol(sigma, (4,), (x + 1.0,)))


def test_estimate_order_bessel_family():
    w = LatticeWindow(1, 64)
    g = default_grid(w)
    for s in (-2, -1, 1, 2):
        est = estimate_order(bessel_symbol(s), w, g)
        assert est.m_hat == pytest.approx(s, abs=0.1)


def test_estimate_order_bessel_n2():
    w = LatticeWindow(2, 16)
    g = default_grid(w)
    est = estimate_order(bessel_symbol(2, n=2), w, g)
    assert est.m_hat == pytest.approx(2.0, abs=0.1)


def test_estimate_order_constant_exactly_zero():
    w = LatticeWindow(1, 16)
    est = estimate_order(parse_symbol("1", 1), w, default_grid(w))
    assert est.m_hat == 0.0
    assert all(e.slope == 0.0 for e in est.table)


def test_estimate_order_x_only_symbol():
    w = LatticeWindow(1, 32)
    est = estimate_order(parse_symbol("exp(i*twopi*x1)", 1), w, default_grid(w))
    assert abs(est.m_hat) <= 0.1


def test_estimate_order_needs_enough_shells():
    w = LatticeWindow(1, 4)
    with pytest.raises(ValueError):
        estimate_order(bessel_symbol(1), w, default_grid(w))


def test_ellipticity_bessel_certificate():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    for s in (-2.0, 1.0, 3.0):
        rep = check_ellipticity(bessel_symbol(s), s, w, g)
        assert rep.elliptic
        assert rep.C >= 2 ** (-abs(s) / 2)
        assert rep.M_radius == 0.0


def test_ellipticity_constant():
    w = LatticeWindow(1, 16)
    rep = check_ellipticity(parse_symbol("2", 1), 0.0, w, default_grid(w))
    assert rep.elliptic and rep.C == pytest.approx(2.0)


def test_sin_is_not_elliptic():
    w = LatticeWindow(1, 16)
    rep = check_ellipticity(parse_symbol("sin(twopi*x1)", 1), 0.0, w, default_grid(w))
    assert not rep.elliptic


def test_decaying_symbol_not_elliptic_at_order_zero():
    w = LatticeWindow(1, 32)
    rep = check_ellipticity(parse_symbol("1/(1+k1^2)", 1), 0.0, w, default_grid(w))
    assert not rep.elliptic


def test_jump_symbols_are_order_zero_elliptic():
    # index examples must themselves sit in the order-0 elliptic class
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    for d in (+1, -1):
        est = estimate_order(jump_symbol(d), w, g)
        assert abs(est.m_hat) <= 0.1
        assert check_ellipticity(jump_symbol(d), 0.0, w, g).elliptic


@pytest.mark.parametrize("text", ["k1/k1", "1/k1", "2 + 1/(k1*x1)"])
def test_certificate_refuses_non_finite_samples(text):
    # k1/k1 is NaN and 1/k1 infinite at k1 = 0; before, k1/k1 was certified
    # elliptic with C = NaN
    w = LatticeWindow(1, 8)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
        check_ellipticity(parse_symbol(text, 1), 0.0, w, default_grid(w))


@pytest.mark.parametrize("text", ["x1", "k2", "2", "cos(twopi*x1)", "x1*k1"])
def test_sample_is_a_fresh_writable_array(text):
    w = LatticeWindow(2, 3)
    g = default_grid(w)
    sigma = parse_symbol(text, 2)
    first = sigma.sample(w, g)
    second = sigma.sample(w, g)
    assert first.shape == (w.size, g.size) and first.flags.writeable
    for other in (g.nodes, w.points, second):
        assert not np.shares_memory(first, other)
    first[:] = 0.0
    assert np.array_equal(sigma.sample(w, g), second)


def _eval_allocating(node, kcols, xcols):
    """The expression evaluator with a new array at every node, as an oracle."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return 1j if node.name == "i" else 2.0 * np.pi
    if isinstance(node, Var):
        return (kcols if node.kind == "k" else xcols)[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_allocating(node.child, kcols, xcols)
    if isinstance(node, BinOp):
        a = _eval_allocating(node.left, kcols, xcols)
        b = _eval_allocating(node.right, kcols, xcols)
        if node.op == "^":
            return np.power(np.asarray(a, dtype=complex), b)
        return {"+": operator.add, "-": operator.sub,
                "*": operator.mul, "/": operator.truediv}[node.op](a, b)
    assert isinstance(node, Func)
    v = _eval_allocating(node.arg, kcols, xcols)
    if node.name == "sqrt":
        return np.sqrt(np.asarray(v, dtype=complex))
    if node.name == "abs":
        return np.abs(v) + 0j
    if node.name == "step":
        return np.where(np.real(v) >= 0, 1.0, 0.0) + 0j
    return getattr(np, node.name)(v)  # exp, sin, cos


@pytest.mark.parametrize("text", [
    "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)",
    "(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))",
    "x1*x1 - x1*x1 + k1*x2/(1+k2^2) - (x1 + k1)",
    "k1 - 3 + x2*k2/2 - (1 - x1*k1) * (2 - x2*k2)",
    "-(x1*k1)*cos(x2*k2) - (k1*x1)/(k2*x2 + 7)",
])
def test_in_place_evaluation_matches_allocating_evaluation(text):
    w = LatticeWindow(2, 5)
    g = default_grid(w)
    sigma = parse_symbol(text, 2)
    K = w.points
    kcols = [K[:, j].astype(float)[:, None] for j in range(2)]
    xcols = [g.nodes[:, j][None, :] for j in range(2)]
    want = np.broadcast_to(np.asarray(_eval_allocating(sigma.ast, kcols, xcols), dtype=complex),
                           (w.size, g.size))
    assert np.array_equal(sigma.sample(w, g), want)


def _flat_samples(sigma, w, g, shift):
    """sigma(k + shift, x) evaluated with k on a (P, 1) column and x on a
    (1, Q) row, every node on all P x Q pairs: the reference layout."""
    K = w.points + np.asarray(shift)
    kcols = [K[:, j].astype(float)[:, None] for j in range(w.n)]
    xcols = [g.nodes[:, j][None, :] for j in range(w.n)]
    with np.errstate(all="ignore"):
        if hasattr(sigma, "ast"):
            v = _eval_allocating(sigma.ast, kcols, xcols)
        else:
            v = sigma._eval_cols(kcols, xcols)
    return np.broadcast_to(np.asarray(v, dtype=complex), (w.size, g.size))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(float), np.ascontiguousarray(b).view(float), equal_nan=True)


# one of each node kind: Num only, Var only, k only, x only, mixed, '^',
# every function, and a pole (non-finite samples)
NODE_KINDS = [
    "2", "3*i - twopi", "x1", "k1", "1+k1^2+k2^2", "exp(i*twopi*x1)", "cos(twopi*(x1+x3))",
    "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)",
    "(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))", "(k1 + x2)^(3) - (2*k2)^(-0.5)",
    "sin(k1*x1)", "sqrt(k2 - x1)", "abs(k1 - 0.5*k3)", "step(k1)*exp(i*twopi*x2) + (1 - step(k1))",
    "-(x1*k1)*cos(x2*k2) - (k1*x1)/(k2*x2 + 7)", "1/k1 + x1",
]


def _shifted_window(data, min_n):
    n = data.draw(st.integers(max(min_n, 1), 3))
    N = data.draw(st.integers(1, {1: 6, 2: 3, 3: 2}[n]))
    w = LatticeWindow(n, N)
    g = TorusGrid(n, data.draw(st.integers(1, 7)))
    shift = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return w, g, shift


@pytest.mark.parametrize("text", NODE_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_per_axis_sampling_matches_the_flat_evaluation(text, data):
    sigma = parse_symbol(text, None)
    w, g, shift = _shifted_window(data, sigma.min_n)
    assert _same_bits(sigma.sample_shifted(w, g, shift), _flat_samples(sigma, w, g, shift))


def _expressions(max_index):
    variables = st.builds("{}{}".format, st.sampled_from("kx"), st.integers(1, max_index))
    leaves = st.one_of(st.sampled_from(["2", "0.5", "3", "i", "twopi"]), variables)
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds("-({})".format, sub),
        st.builds("({}){}({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^({})".format, sub, st.sampled_from(["2", "3", "0.5", "-1"])),
        st.builds("{}({})".format, st.sampled_from(_FUNCS), sub),
    ), max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(text=_expressions(3), data=st.data())
def test_random_expressions_sample_as_the_flat_evaluation(text, data):
    sigma = parse_symbol(text, None)
    w, g, shift = _shifted_window(data, sigma.min_n)
    assert _same_bits(sigma.sample_shifted(w, g, shift), _flat_samples(sigma, w, g, shift))


@pytest.mark.parametrize("make", [
    lambda n: bessel_symbol(-1.5), lambda n: bessel_symbol(2, n=n),
    lambda n: multiplier_symbol("1/(1+k1^2)", n), lambda n: jump_symbol(-1, n=n),
], ids=["bessel", "bessel-n", "multiplier", "jump"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_builtin_backends_sample_as_the_flat_evaluation(make, data):
    w, g, shift = _shifted_window(data, 1)
    sigma = make(w.n)
    assert _same_bits(sigma.sample_shifted(w, g, shift), _flat_samples(sigma, w, g, shift))


@pytest.mark.parametrize("M", [11, 14])
def test_grid_difference_rows_match_the_per_point_lookup(M):
    w = LatticeWindow(2, 4)
    g = TorusGrid(2, M)
    sigma = extract_symbol(assemble_matrix(
        parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2)", 2), w, default_grid(w)))
    for alpha in multiindex_range(2, 2):
        acc, valid = _difference_samples(sigma, w, g, alpha)
        want = np.zeros_like(acc)
        want_valid = np.ones(w.size, dtype=bool)
        for beta in multiindices_leq(alpha):
            coeff = (-1) ** (alpha.order - beta.order) * int(
                np.prod([math.comb(a, b) for a, b in zip(alpha, beta)]))
            K = w.points + np.array(tuple(beta))
            inside = np.all(np.abs(K) <= w.N, axis=1)
            want_valid &= inside
            idx = np.array([w.index_of(k) for k in K[inside]], dtype=int)
            part = np.zeros_like(acc)
            if M == sigma.grid.M:
                part[inside] = sigma.values[idx]
            else:
                part[inside] = sigma._interp_rows(idx, g.nodes)
            want += coeff * part
        assert np.array_equal(acc, want) and np.array_equal(valid, want_valid)


@pytest.mark.parametrize("n,N", [(1, 6), (2, 3), (3, 2)])
def test_toroidal_samples_match_the_per_point_permutation(n, N):
    w = LatticeWindow(n, N)
    g = default_grid(w)
    base = parse_symbol("2 + exp(i*twopi*x1)*k1/(1+k1^2) + x{n}*k{n}".format(n=n), n)
    S = base.sample(w, g)
    perm = np.array([w.index_of(-k) for k in w.points])
    assert np.array_equal(dual_toroidal_symbol(base).sample_toroidal(w, g), S[perm].conj().T)


def test_s0_decay_profile():
    w = LatticeWindow(1, 32)
    diag = s0_decay_profile(parse_symbol("exp(i*twopi*x1)/(1+k1^2)", 1),
                            w, default_grid(w), alpha_max=2)
    assert all(d.decaying for d in diag)


def test_dual_toroidal_pointwise():
    sigma = parse_symbol("exp(i*twopi*x1)", 1)
    tau = dual_toroidal_symbol(sigma)
    assert tau.eval((0.25,), (3,)) == pytest.approx(-1j)
    one = dual_toroidal_symbol(parse_symbol("1", 1))
    assert one.eval((0.1,), (2,)) == pytest.approx(1.0)


def test_symbol_json_roundtrip_all_kinds(tmp_path):
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    grid_sym = extract_symbol(assemble_matrix(
        parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0), w, g))
    for i, sigma in enumerate([
            parse_symbol("1+k1^2", 1, order=2.0),
            bessel_symbol(2),
            jump_symbol(-1),
            multiplier_symbol("1/(1+k1^2)", 1, order=-2.0),
            grid_sym]):
        path = tmp_path / f"sym{i}.json"
        write_symbol_json(path, sigma)
        back = read_symbol_json(path)
        rng = np.random.default_rng(i)
        for _ in range(5):
            k = (int(rng.integers(-4, 5)),)
            x = (float(rng.random()),)
            assert eval_symbol(back, k, x) == pytest.approx(
                eval_symbol(sigma, k, x), abs=1e-12)
        d = json.loads(path.read_text())
        assert set(d) >= {"n", "order", "kind"}


def test_grid_symbol_out_of_window():
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    sym = extract_symbol(assemble_matrix(bessel_symbol(0), w, g))
    assert isinstance(sym, GridSymbol)
    with pytest.raises(OutOfWindowError):
        eval_symbol(sym, (9,), (0.0,))
