"""Parametrix construction, decay reports, ADN estimates, solving."""

import itertools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticeops import (
    LatticeSequence,
    LatticeWindow,
    TorusGrid,
    adn_verify,
    apply,
    bessel_symbol,
    check_ellipticity,
    default_grid,
    estimate_order,
    full_index_report,
    index_grid,
    jump_symbol,
    parametrix,
    parse_symbol,
    residual_decay_report,
    shipped_symbol,
    solve,
    sobolev_norm,
    trace_index,
)
from latticeops import elliptic, quantization
from latticeops.core import _smooth
from latticeops.elliptic import residual_order_sequence
from latticeops.errors import ConvergenceError, EllipticityError
from latticeops.quantization import assemble_matrix, extract_symbol, interior_margin
from latticeops.quantization import _ROUNDOFF, OperatorMatrix
from latticeops.symbols import (
    _BLOCK,
    NON_FINITE_SAMPLES,
    GridSymbol,
    Symbol,
    _certificate,
    _one_term_per_row,
    _profiles,
    _row_minima,
)

PERTURBED = "2 + exp(i*twopi*x1)/(1+k1^2)"
# slower-decaying member of the same family; its residual orders stay
# far enough above the double-precision floor to be measurable at J = 3
PERTURBED_SLOW = "2 + exp(i*twopi*x1)/(1+k1^2)^(1/4)"
PERTURBED_JUMP = "step(k1)*exp(i*twopi*x1) + (1-step(k1)) + 0.15*exp(-i*twopi*x1)/(1+k1^2)"


@pytest.fixture
def extractions(monkeypatch):
    """Calls made to extract_symbol through the elliptic and fredholm bindings."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return extract_symbol(*args, **kwargs)

    for module in ("latticeops.elliptic", "latticeops.fredholm"):
        monkeypatch.setattr(f"{module}.extract_symbol", counted, raising=False)
    return calls


def _assert_row_minima_clear_twice_the_floor(sigma, m, w, g):
    """Every row minimum of |sigma| is at least twice the floor theta (1+|k|)^m,
    theta = C/2 from the certificate, up to the rounding of the samples."""
    theta = check_ellipticity(sigma, m, w, g).C / 2.0
    row_min = np.min(np.abs(sigma.sample(w, g)), axis=1)
    assert np.all(row_min >= 2 * theta * np.power(w.radial_weight, m) * (1 - 1e-13))


def test_parametrix_multiplier_is_exact():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    sigma = bessel_symbol(2)
    par = parametrix(sigma, 2.0, 1, w, g)
    assert np.max(np.abs(par.left_residual.values)) < 1e-12
    assert np.max(par.right_defect.symbol_row_maxima()) < 1e-12
    _assert_row_minima_clear_twice_the_floor(sigma, 2.0, w, g)
    # tau0 = 1/sigma on the diagonal
    K = w.points[:, 0].astype(float)
    tau = extract_symbol(par.matrix, order=-2.0)
    assert np.max(np.abs(tau.values - (1.0 / (1 + K ** 2))[:, None])) < 1e-12


def test_parametrix_constant_two():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    par = parametrix(parse_symbol("2", 1, order=0), 0.0, 2, w, g)
    assert np.max(np.abs(extract_symbol(par.matrix, order=0.0).values - 0.5)) < 1e-12
    assert np.max(np.abs(par.left_residual.values)) < 1e-12


def test_parametrix_refuses_non_elliptic():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    with pytest.raises(EllipticityError) as exc:
        parametrix(parse_symbol("sin(twopi*x1)", 1, order=0), 0.0, 1, w, g)
    assert exc.value.report is not None and not exc.value.report.elliptic


def test_parametrix_rejects_zero_steps():
    w = LatticeWindow(1, 16)
    with pytest.raises(ValueError):
        parametrix(parse_symbol("2", 1, order=0), 0.0, 0, w, default_grid(w))


def test_parametrix_matrix_residual_agreement():
    # assemble(left_residual) agrees with B A - I on interior rows
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    sigma = parse_symbol(PERTURBED, 1, order=0)
    par = parametrix(sigma, 0.0, 2, w, g)
    defect = par.matrix.entries @ par.sigma_matrix.entries - np.eye(w.size)
    back = assemble_matrix(par.left_residual, w, g).entries
    mask = w.interior_mask(par.left_residual.interior_margin)
    assert np.max(np.abs((back - defect)[mask])) < 1e-8


def test_parametrix_residuals_are_lazy_and_match_eager_extraction(extractions):
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    par = parametrix(parse_symbol(PERTURBED, 1, order=0), 0.0, 2, w, g)
    assert extractions == []
    B, A = par.matrix.entries, par.sigma_matrix.entries
    eager = extract_symbol(OperatorMatrix(w, g, B @ A - np.eye(w.size)))
    assert np.max(np.abs(par.left_residual.values - eager.values)) < 1e-13
    assert par.left_residual.order == -2.0
    assert par.left_residual is par.left_residual
    assert len(extractions) == 1


def test_solve_extracts_no_symbol(extractions):
    w = LatticeWindow(1, 16)
    f = LatticeSequence.random(w, np.random.default_rng(4))
    solve(parse_symbol(PERTURBED, 1, order=0), 0.0, f, w, default_grid(w))
    assert extractions == []


@pytest.mark.parametrize("J", [1, 2, 3])
def test_parametrix_apply_is_the_matrix_times_the_vector(J):
    w = LatticeWindow(2, 4)
    g = default_grid(w)
    sigma = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2)", 2, order=0)
    par = parametrix(sigma, 0.0, J, w, g)
    r = LatticeSequence.random(w, np.random.default_rng(J)).values
    v = par.apply(r)
    assert "matrix" not in vars(par)
    assert np.max(np.abs(v - par.matrix.entries @ r)) < 1e-12 * np.max(np.abs(v))


def _explicit_solve(sigma, m, f, w, g, tol, J, max_iter=500):
    """Iterations and fallback of solve's loop run with the assembled B_J."""
    par = parametrix(sigma, m, J, w, g)
    A, B = par.sigma_matrix.entries, par.matrix.entries
    mask = w.interior_mask(interior_margin(w))
    fnorm = f.norm() if f.norm() > 0 else 1.0
    u = np.zeros(w.size, dtype=complex)
    history = []
    for it in range(1, max_iter + 1):
        r = f.values - A @ u
        history.append(float(np.linalg.norm(r[mask])) / fnorm)
        if history[-1] <= tol:
            return it - 1, False, u
        if history[-1] > history[0]:
            return it, True, None
        if len(history) > 20 and history[-1] > 0.9 * history[-21]:
            return it, True, None
        u = u + B @ r
    return max_iter, True, None


@pytest.fixture
def built(monkeypatch):
    """Each parametrix built through the elliptic binding, as solve builds it."""
    out = []

    def recorded(*args, _original=elliptic.parametrix, **kwargs):
        out.append(_original(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(elliptic, "parametrix", recorded)
    return out


@pytest.mark.parametrize("text,n,N,m,tol,J", [
    ("bessel", 1, 16, 2.0, 1e-10, 2),
    ("2", 1, 16, 0.0, 1e-12, 2),
    (PERTURBED, 1, 32, 0.0, 1e-8, 2),
    (PERTURBED, 1, 16, 0.0, 1e-8, 2),
    ("2 + exp(i*twopi*x1)/(1+k1^2+k2^2)", 2, 6, 0.0, 1e-10, 3),
], ids=["bessel", "constant", "perturbed-32", "perturbed-16", "n2-J3"])
def test_solve_matches_the_explicit_preconditioner(text, n, N, m, tol, J, built):
    w = LatticeWindow(n, N)
    g = default_grid(w)
    sigma = bessel_symbol(2) if text == "bessel" else parse_symbol(text, n, order=m)
    f = LatticeSequence.random(w, np.random.default_rng(9))
    res = solve(sigma, m, f, w, g, tol=tol, J=J)
    # no P x P product: neither B_J nor a defect was formed
    assert not {"matrix", "left_defect", "right_defect"} & set(vars(built[0]))
    iterations, fallback, u = _explicit_solve(sigma, m, f, w, g, tol, J=J)
    assert (res.iterations, res.fallback_used) == (iterations, fallback)
    assert np.max(np.abs(res.solution.values - u)) < 1e-10 * np.max(np.abs(u))


@pytest.mark.parametrize("sigma,m", [  # the solve-n2 benchmark pool, and n=1
    pytest.param(parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)",
                              2, order=0), 0.0, id="expr-order0"),
    pytest.param(parse_symbol("(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))", 2, order=2),
                 2.0, id="expr-order2"),
    pytest.param(bessel_symbol(2, n=2), 2.0, id="bessel2"),
    pytest.param(parse_symbol(PERTURBED, 1, order=0), 0.0, id="perturbed"),
])
def test_converged_solve_builds_no_section(sigma, m, built):
    w = LatticeWindow(sigma.n, 6 if sigma.n == 2 else 16)
    f = LatticeSequence.random(w, np.random.default_rng(5), margin=interior_margin(w))
    res = solve(sigma, m, f, w, default_grid(w), tol=1e-10)
    assert res.fallback_reason is None and res.residual_interior <= 1e-10
    assert len(built) == 1
    # A is still held as its factors, with no section formed from them
    A = built[0].sigma_matrix
    assert A._factors is not None and A._entries is None and A._sparse is None


def test_divergence_fallback_builds_the_section_of_a_only(built):
    w = LatticeWindow(1, 8)
    f = LatticeSequence.random(w, np.random.default_rng(3), margin=interior_margin(w))
    res = solve(parse_symbol("1 + 3*exp(i*twopi*x1)/(1+k1^2)", 1, order=0), 0.0, f, w,
                default_grid(w), tol=1e-10)
    assert res.fallback_reason == "divergence"
    A = built[0].sigma_matrix
    # each operator is held in one form: A's factors went with its section
    assert A._entries is not None and A._factors is None


def test_residual_order_sequence_builds_each_section_once(monkeypatch):
    w = LatticeWindow(1, 16)
    calls = []
    # a section is built at three sites: the stream of an operator's
    # factors or of tau0's distinct rows into its kept rows, and the first
    # read of a sparse section's entries
    for module, name in ((quantization, "_factor_rows"), (elliptic, "_profile_rows")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    original = quantization.OperatorMatrix.entries

    def scattered(self):
        if self._entries is None:
            calls.append("entries")
        return original.fget(self)

    monkeypatch.setattr(quantization.OperatorMatrix, "entries", property(scattered, original.fset))
    residual_order_sequence(parse_symbol(PERTURBED, 1, order=0), 0.0, w, default_grid(w))
    # A from its factors and B0 from tau0's samples, each once; B0 is too
    # full for the sparse form, so the products read A's entries, once
    assert sorted(calls) == ["_factor_rows", "_profile_rows", "entries"]


def test_trace_index_extracts_no_residual(extractions):
    # the diagonals and the residuals' row sups come from the defects themselves
    trace_index(parse_symbol(PERTURBED, 1, order=0), LatticeWindow(1, 16), J=2)
    assert len(extractions) == 0


def test_parametrix_of_a_near_zero_symbol_stays_dense():
    # min |sigma| = 0.2, so tau0 = 1/sigma has slowly decaying modes: B0
    # keeps every entry of its rows and each section is held dense
    w = LatticeWindow(2, 8)
    g = default_grid(w)
    par = parametrix(parse_symbol("1.2 + cos(twopi*x1)*cos(twopi*x2)", 2, order=0), 0.0, 3, w, g)
    assert par.sigma_matrix.sparse is not None and par.initial.sparse is None
    assert {v["form"] for v in par.form_report().values()} == {"dense"}
    # the products are then the dense ones, bit for bit
    A, B0, I = par.sigma_matrix.entries, par.initial.entries, np.eye(w.size)
    B = B0
    for _ in range(2):
        B = B + B0 @ (I - A @ B)
    assert np.array_equal(par.matrix.entries, B)
    assert np.array_equal(par.left_defect.entries, B @ A - I)
    assert np.array_equal(par.right_defect.entries, A @ B - I)


def test_residual_order_drops_per_step():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    sigma = parse_symbol(PERTURBED_SLOW, 1, order=0)
    orders = residual_order_sequence(sigma, 0.0, w, g)
    drops = [a - b for a, b in zip(orders, orders[1:])]
    assert all(d >= 0.8 for d in drops), (orders, drops)
    # regression guard from the residual order invariant
    for J, o in enumerate(orders, start=1):
        assert o <= -J + 0.5


def test_residual_order_sequence_steps_one_parametrix(monkeypatch):
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    sigma = parse_symbol(PERTURBED_SLOW, 1, order=0)
    separate = [parametrix(sigma, 0.0, J, w, g) for J in (1, 2, 3)]
    want = [estimate_order(par.left_residual, w, g, alpha_max=0, beta_max=0).m_hat
            for par in separate]
    stepped = replace(separate[1], steps=3)
    # a copy at more steps shares A and B0, so their sections carry over
    assert stepped.sigma_matrix is separate[1].sigma_matrix
    assert stepped.initial is separate[1].initial
    assert np.array_equal(stepped.matrix.entries, separate[2].matrix.entries)
    calls = []
    # sigma is evaluated by sampling it or by splitting it into factors
    for name in ("sample", "_terms"):
        def counted(*args, _original=getattr(sigma, name), **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(sigma, name, counted, raising=False)
    parametrix(sigma, 0.0, 2, w, g)
    assert len(calls) == 1
    solve(sigma, 0.0, LatticeSequence.random(w, np.random.default_rng(2)), w, g)
    assert len(calls) == 2
    assert residual_order_sequence(sigma, 0.0, w, g) == want
    assert len(calls) == 3


def _close(got, want):
    return np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _three_pass_parametrix(sigma, m, w, g):
    """A and B0 as built before sigma was sampled once: certificate,
    regularized inverse and A each sampled anew."""
    rep = check_ellipticity(sigma, m, w, g)
    theta = rep.C / 2.0
    S = sigma.sample(w, g)
    floor = theta * np.power(w.radial_weight, m)
    low = np.min(np.abs(S), axis=1) < floor
    delta = np.where(low, floor ** 2, 0.0)
    tau0 = GridSymbol(w, g, S.conj() / (np.abs(S) ** 2 + delta[:, None]))
    return assemble_matrix(sigma, w, g).entries, assemble_matrix(tau0, w, g).entries


@pytest.mark.parametrize("sigma,m", [  # the solve-n2 benchmark pool, and the index pair
    pytest.param(parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)",
                              2, order=0), 0.0, id="expr-order0"),
    pytest.param(parse_symbol("(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))", 2, order=2),
                 2.0, id="expr-order2"),
    pytest.param(bessel_symbol(2, n=2), 2.0, id="bessel2"),
    pytest.param(jump_symbol(+1), 0.0, id="jump+1"),
    pytest.param(jump_symbol(-1), 0.0, id="jump-1"),
])
def test_parametrix_matches_the_three_pass_construction(sigma, m):
    w = LatticeWindow(sigma.n, 8 if sigma.n == 2 else 16)
    g = default_grid(w)
    # each symbol splits into separated factors; its grid copy takes the folded path
    for sym in (sigma, GridSymbol(w, g, sigma.sample(w, g), order=sigma.order)):
        A, B0 = _three_pass_parametrix(sym, m, w, g)
        par = parametrix(sym, m, 2, w, g)
        assert np.array_equal(par.sigma_matrix.entries, A)
        if sym._terms(w, g) is None:
            assert np.array_equal(par.initial.entries, B0)
        else:
            # B0 from the factors: conj(sigma) / |sigma|^2 from a @ b, not from the samples
            assert _close(par.initial.entries, B0)
        _assert_row_minima_clear_twice_the_floor(sym, m, w, g)


def _second_solve_peak(sigma, m, w, g):
    """tracemalloc peak of a second solve call on w x g."""
    f = LatticeSequence.random(w, np.random.default_rng(6), margin=interior_margin(w))
    solve(sigma, m, f, w, g, tol=1e-10)
    tracemalloc.start()
    try:
        solve(sigma, m, f, w, g, tol=1e-10)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


NO_SPLIT = "2 + exp(i*twopi*x1)/(1+k1^2+k2^2+cos(twopi*x2)^2)"


def _kept_entries(call, monkeypatch) -> int:
    """The entries held, once call() returns, by every operator it built:
    a sparse form's kept entries, P^2 for a dense section, the entries of
    factors."""
    built = []
    held, init = OperatorMatrix._held.__func__, OperatorMatrix.__init__

    def recorded(cls, *args, **kwargs):
        built.append(held(cls, *args, **kwargs))
        return built[-1]

    def initialized(self, *args):
        init(self, *args)
        built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(OperatorMatrix, "_held", classmethod(recorded))
        patch.setattr(OperatorMatrix, "__init__", initialized)
        call()

    def entries(A):
        if A._entries is not None:
            return A._entries.size
        return len(A._sparse.data) if A._sparse else sum(x.size for x in A._factors)
    return sum(entries(A) for A in built)


@pytest.mark.parametrize("sigma,m,what", [  # the solve-n2 benchmark pool, and a symbol with no split
    pytest.param(sigma, m, what, id=f"{name}-{what}")
    for name, sigma, m in (
        ("expr-order0", parse_symbol(
            "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)", 2, order=0), 0.0),
        ("expr-order2", parse_symbol("(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))", 2, order=2),
         2.0),
        ("bessel2", bessel_symbol(2, n=2), 2.0),
        ("no-split", parse_symbol(NO_SPLIT, 2, order=0), 0.0))
    for what in ("parametrix", "solve", "assemble_matrix", "full_index_report")
    if not (m and what == "full_index_report")])  # the index is taken at order 0
def test_no_operator_holds_a_sample_array(sigma, m, what, monkeypatch):
    # sigma and tau0 stream slab by slab into kept rows, so what is held at
    # once is some slabs of about symbols._BLOCK samples and the operators'
    # kept entries, up to 64 bytes each while they are gathered, sorted and
    # multiplied.  Below one (P, Q) array, save for the index run, whose
    # sparse products keep more entries than that
    w = LatticeWindow(2, 16)
    g = default_grid(w)
    f = LatticeSequence.random(w, np.random.default_rng(6), margin=interior_margin(w))
    call = {"parametrix": lambda: parametrix(sigma, m, 2, w, g),
            "solve": lambda: solve(sigma, m, f, w, g, tol=1e-10),
            "assemble_matrix": lambda: assemble_matrix(sigma, w, g),
            "full_index_report": lambda: full_index_report(sigma, [16], n=2)}[what]
    bound = 64 * _kept_entries(call, monkeypatch) + 16 * _BLOCK * 16
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert what == "full_index_report" or bound < w.size * g.size * 16


def _second_parametrix_peak(sigma, w, g):
    """tracemalloc peak of a second parametrix call on w x g."""
    parametrix(sigma, 0.0, 1, w, g)
    tracemalloc.start()
    try:
        parametrix(sigma, 0.0, 1, w, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid_backed", [False, True], ids=["expression", "grid"])
def test_parametrix_without_a_split_holds_two_sample_arrays(grid_backed):
    # sigma's slabs are gathered into A's samples beside B0's: two (P, Q)
    # arrays, where a whole sample array and its modulus made 2.5
    w = LatticeWindow(2, 16)
    g = default_grid(w)
    sigma = parse_symbol("2 + exp(i*k1*x1)", 2)
    if grid_backed:
        sigma = GridSymbol(w, g, sigma.sample(w, g))
    assert sigma._terms(w, g) is None
    assert _second_parametrix_peak(sigma, w, g) <= 2.1 * w.size * g.size * 16


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_certified_symbols_regularize_no_point(data):
    # a certified row minimum is at least C (1+|k|)^m, twice the floor
    n = data.draw(st.integers(1, 2))
    w = LatticeWindow(n, data.draw(st.integers(2, {1: 12, 2: 4}[n])))
    g = default_grid(w)
    m = data.draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0]))
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        S = rng.standard_normal((w.size, g.size)) + 1j * rng.standard_normal((w.size, g.size))
        sigma = GridSymbol(w, g, S * w.radial_weight[:, None] ** m)
    else:
        c = data.draw(st.floats(1.0, 3.0))
        d = data.draw(st.floats(-0.9, 0.9))
        sigma = parse_symbol(f"(1+k1^2)^({m}/2)*({c!r} + {d!r}*exp(i*twopi*x1)/(1+k1^2))", n)
    try:
        parametrix(sigma, m, 1, w, g)
    except EllipticityError:
        assume(False)
    _assert_row_minima_clear_twice_the_floor(sigma, m, w, g)


def _coefficient(draw):
    """A nonzero complex coefficient with parts in -3..3, as expression text."""
    re, im = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0)))
    return f"(({re}) + ({im})*i)"


@st.composite
def _one_term_per_row_symbols(draw):
    """(sigma, n, N, live): sum_r a_r(k) b_r(x) with k-supports that do not
    meet, products of step(k_j - c_j) and 1 - step(k_j - c_j), one of them
    sometimes left out so that sigma vanishes there; each b_r a trig
    polynomial whose constant outweighs its modes, so it does not vanish;
    and one more term, zero on every window point, whose b_r vanishes at
    x = 0.  ``live`` counts the terms some window point reads."""
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(4, 12) if n == 1 else st.integers(3, 5))
    sides = []
    for j in range(1, n + 1):
        cut = f"step(k{j} - ({draw(st.integers(-2, 2))}))"
        sides.append([cut, f"(1 - {cut})"])
    pieces = [" * ".join(p) for p in itertools.product(*sides)]
    if draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    terms = []
    for piece in pieces:
        mode = f"exp({draw(st.integers(-2, 2))}*i*twopi*x{draw(st.integers(1, n))})"
        b = f"(4 + {draw(st.sampled_from(['1', '2', '(1+i)']))}*{mode}" \
            f" + cos({draw(st.integers(1, 2))}*twopi*x{n}))"
        a = f"{_coefficient(draw)}*(2 + 1/(1+k1^2))"
        terms.append(f"{piece}*{a}*{b}")
    terms.append("step(k1 - 100)*(1 - exp(i*twopi*x1))")
    return parse_symbol(" + ".join(terms), n, order=0), n, N, len(pieces)


@settings(max_examples=40, deadline=None)
@given(_one_term_per_row_symbols())
def test_one_term_per_row_gives_tau0_as_exact_factors(case):
    sigma, n, N, live = case
    w = LatticeWindow(n, N)
    g = default_grid(w)
    assert _one_term_per_row(sigma._terms(w, g))
    S = sigma.sample(w, g)
    sampled = np.min(np.abs(S), axis=1)
    row_min = _row_minima(sigma, sigma._terms(w, g), w, g)
    assert np.all(np.abs(row_min - sampled) <= 4 * np.finfo(float).eps * sampled)
    rep = check_ellipticity(sigma, 0.0, w, g)
    # a symbol that vanishes on some rows is refused; one that does not may
    # still fail the certificate's decay rule, its row minima spreading 10x
    assert rep.elliptic == _certificate(sampled, 0.0, w).elliptic
    assert live == 2 ** n or not rep.elliptic
    if not rep.elliptic:
        with pytest.raises(EllipticityError):
            parametrix(sigma, 0.0, 1, w, g)
        return
    par = parametrix(sigma, 0.0, 1, w, g)
    # the term zero on the window is dropped, not divided by
    a, b = par.initial._factors
    assert a.shape[1] == b.shape[0] == live
    with np.errstate(all="ignore"):
        tau0 = np.conj(S) / np.abs(S) ** 2
    want = _gathered_section(tau0, w, g)
    got = par.initial.entries
    peak = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * peak)


def _gathered_section(T, w, g):
    """The section whose row k is read from the samples T[k], as an oracle:
    np.fft of each row, gathered at (l - k) mod M for each l in the window."""
    C = np.fft.fftn(T.reshape((-1,) + g.shape), axes=tuple(range(1, w.n + 1)), norm="forward")
    shift = np.moveaxis((w.points[None, :, :] - w.points[:, None, :]) % g.M, -1, 0)
    return np.take_along_axis(C.reshape(len(T), g.size), np.ravel_multi_index(tuple(shift), g.shape),
                              axis=1)


class _Factored(Symbol):
    """sigma = a @ b from given factors, on the one window and grid they fit."""

    def __init__(self, n, a, b):
        self.n, self.order, self.a, self.b = n, 0.0, a, b

    def _terms(self, window, grid):
        return self.a, self.b


def _assert_rows_close(got, want):
    peak = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * peak)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sampled_sections_match_the_gathered_transforms(data):
    # sigma = a @ b with R terms, a k-factor of some distinct rows (all of
    # them distinct or not) and |sigma| >= 1; the same samples as a grid
    # symbol, which has no split
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(2, {1: 10, 2: 4}[n]))
    w, g = LatticeWindow(n, N), TorusGrid(n, data.draw(st.integers(2 * N + 1, 4 * N + 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    R = data.draw(st.integers(2, 4))
    distinct = w.size if data.draw(st.booleans()) else data.draw(st.integers(1, w.size))
    unit = lambda *shape: np.exp(2j * np.pi * rng.random(shape)) * rng.random(shape)
    rows = np.concatenate([np.full((distinct, 1), 4.0 + 0j), unit(distinct, R - 1)], axis=1)
    a = rows[rng.permutation(w.size) % distinct]
    b = np.concatenate([np.ones((1, g.size)), unit(R - 1, g.size)])
    S = a @ b
    tau0 = np.conj(S) / np.abs(S) ** 2
    assert len(_profiles(a)[0]) == len(np.unique(a, axis=0)) == distinct
    for sigma in (_Factored(n, a, b), GridSymbol(w, g, S)):
        par = parametrix(sigma, 0.0, 1, w, g)
        sampled = np.min(np.abs(S), axis=1)
        assert np.all(np.abs(par.row_minima - sampled) <= 4 * np.finfo(float).eps * sampled)
        _assert_rows_close(par.initial.entries, _gathered_section(tau0, w, g))
    # with no split, A is read from sigma's rows as B0 from tau0's
    _assert_rows_close(par.sigma_matrix.entries, _gathered_section(S, w, g))
    _assert_rows_close(OperatorMatrix.from_symbol(sigma, w, g).entries, _gathered_section(S, w, g))


def _full_grid_oracle(a, b, w, g):
    """B0 as the full-grid transform of each row of tau0 = 1/(a @ b),
    gathered at (l - k) mod M, and each row's peak over all M^n modes."""
    S = a @ b
    tau0 = np.conj(S) / np.abs(S) ** 2
    C = np.abs(np.fft.fftn(tau0.reshape((-1,) + g.shape), axes=tuple(range(1, w.n + 1)),
                           norm="forward")).reshape(len(S), -1)
    return _gathered_section(tau0, w, g), np.max(C, axis=1), C


def _is_prime(M):
    return M > 1 and all(M % p for p in range(2, int(M ** 0.5) + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rows_on_sub_grids_match_the_full_grid_transforms(data):
    # sigma = a @ b, b a trig polynomial of a few decaying modes beside one
    # mode m0, which a(k) weighs most; the other weights of a row fall over
    # twelve decades, so rows spread over the divisors of M, on grids of
    # many divisors (odd and 7-smooth) and on prime ones
    n = data.draw(st.integers(1, 2))
    N = data.draw(st.integers(3, {1: 24, 2: 6}[n]))
    odd = range(2 * N + 1, 8 * N + 4, 2)
    prime = data.draw(st.booleans())
    M = data.draw(st.sampled_from([M for M in odd if _is_prime(M)] if prime else
                                  [M for M in odd if not _is_prime(M) and _smooth(M)]))
    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    R = data.draw(st.integers(2, 4))
    x = g.nodes
    b = np.empty((R, g.size), dtype=complex)
    b[0] = np.exp(2j * np.pi * x @ np.array(data.draw(st.lists(st.integers(-1, 1), min_size=n,
                                                               max_size=n))))
    for r in range(1, R):
        b[r] = 0
        for _ in range(data.draw(st.integers(1, 3))):
            m = rng.integers(-2, 3, size=n)
            b[r] += 0.5 ** np.abs(m).sum() * np.exp(2j * np.pi * (rng.random() + x @ m))
    unit = lambda *shape: np.exp(2j * np.pi * rng.random(shape))
    a = np.concatenate([np.full((w.size, 1), 4.0 + 0j),
                        unit(w.size, R - 1) * 10.0 ** rng.uniform(-12, 0, (w.size, 1))], axis=1)
    sigma = _Factored(n, a, b)
    par = parametrix(sigma, 0.0, 1, w, g)
    want, peak, coeffs = _full_grid_oracle(a, b, w, g)
    assert np.all(np.max(np.abs(par.initial.entries - want), axis=1) <= 1e-13 * peak)
    assert np.array_equal(par.row_minima, _row_minima(sigma, (a, b), w, g))
    grids, centres = quantization._row_grids(a, b, w, g)
    assert set(grids) <= {d for d in range(3, M + 1) if M % d == 0}
    # a row's modes off its grid's d^n around -m0 are below 1e-15 of its peak
    modes = (np.indices(g.shape).reshape(n, -1).T + M // 2) % M - M // 2
    offset = (modes[None] + centres[:, None] + M // 2) % M - M // 2
    off = np.max(np.abs(offset), axis=2) > (grids[:, None] - 1) // 2
    assert np.all(np.max(np.where(off, coeffs, 0), axis=1) <= _ROUNDOFF * peak)
    if prime:
        # every row is transformed at M, from the pass that gives its
        # minimum, as when no row had a grid of its own
        assert np.all(grids == M)
        with mock.patch.object(elliptic, "_row_grids", lambda a, b, w, g: (
                np.full(len(a), g.M), np.zeros((len(a), g.n), dtype=int))):
            before = parametrix(sigma, 0.0, 1, w, g).initial
        assert all(np.array_equal(x, y) for x, y in zip(par.initial.sparse or [par.initial.entries],
                                                       before.sparse or [before.entries]))


def test_a_far_mode_is_not_read_as_its_alias_on_a_sub_grid():
    # on 35 nodes e^{2 pi i 36 x} has the samples of e^{2 pi i x}, so a
    # coarse grid would read the far mode as a near one; the bound places
    # the near mode's rows on sub-grids and keeps the far mode's at M = 525
    w, g = LatticeWindow(1, 8), TorusGrid(1, 525)
    for mode, coarse in ((1, True), (36, False)):
        sigma = parse_symbol(f"2 + 0.01*exp(i*twopi*{mode}*x1)/(1+k1^2)", 1, order=0)
        grids = quantization._row_grids(*sigma._terms(w, g), w, g)[0]
        assert np.all(grids < 35) if coarse else np.all(grids == 525)
        want, peak, _ = _full_grid_oracle(*sigma._terms(w, g), w, g)
        got = parametrix(sigma, 0.0, 1, w, g).initial.entries
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * peak)


@pytest.mark.parametrize("text", [
    "1 + (1 - 1/(2+k1^2))*exp(i*twopi*x1)",  # min |sigma| = 1/(2+k1^2): near a zero
    "exp(i*twopi*x1) + (0.6 + 0.1/(1+k1^2))*exp(-i*twopi*x1)",  # no dominant mode
])
def test_a_row_near_a_zero_or_of_no_dominant_mode_keeps_the_full_grid(text):
    w, g = LatticeWindow(1, 16), TorusGrid(1, 525)
    sigma = parse_symbol(text, 1, order=0)
    assert np.all(quantization._row_grids(*sigma._terms(w, g), w, g)[0] == 525)


def test_the_row_grid_bound_streams_a_many_mode_factor():
    # |sin| has coefficients decaying like m^-2, so the x-factor keeps all
    # 55^2 modes and no row of tau0 fits a sub-grid; the bound reads the
    # rows a slab at a time and never forms a (rows, modes) array
    sigma = parse_symbol("2 + abs(sin(twopi*x1))*abs(sin(twopi*x2))/(1+k1^2+k2^2)", 2, order=0)
    w = LatticeWindow(2, 24)
    g = index_grid(w)
    a, b = sigma._terms(w, g)
    a = np.unique(a, axis=0)  # the distinct rows, as the parametrix reads them
    bound = 16 * _BLOCK * 16
    assert bound < len(a) * quantization._factor_modes(a, b, w, g)[1].shape[1] * 16
    tracemalloc.start()
    try:
        grids = quantization._row_grids(a, b, w, g)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert np.all(grids == g.M)


def test_the_perturbed_jump_transforms_each_row_once_on_its_own_grid(monkeypatch):
    # at n=1 N=256 on 525 nodes, the 513 distinct rows of tau0 are each
    # transformed once, on 6837 samples in all: under 5 % of the 513 * 525
    # a transform of every row at M takes
    w = LatticeWindow(1, 256)
    g = index_grid(w)
    transformed, rows = [], []
    full, sub, read = elliptic._transformed, elliptic.shift_coefficients, elliptic._profile_rows

    def counted(transform):
        def count(T, *args):
            transformed.append(T.shape)
            return transform(T, *args)
        return count

    def recorded(blocks, *args):
        def seen():
            for ids, *rest in blocks:
                rows.append(ids)
                yield (ids, *rest)
        return read(seen(), *args)

    monkeypatch.setattr(elliptic, "_transformed", counted(full))
    monkeypatch.setattr(elliptic, "shift_coefficients", counted(sub))
    monkeypatch.setattr(elliptic, "_profile_rows", recorded)
    parametrix(parse_symbol(PERTURBED_JUMP, 1, order=0), 0.0, 3, w, g)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(w.size))
    assert sum(count for count, _ in transformed) == w.size
    assert sum(count * size for count, size in transformed) == 6837 < 0.05 * w.size * g.M


def test_parametrix_refuses_non_finite_samples():
    w = LatticeWindow(1, 8)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=NON_FINITE_SAMPLES):
        parametrix(parse_symbol("2 + k1/k1", 1), 0.0, 1, w, default_grid(w))


@pytest.mark.parametrize("text,max_iter,reason", [
    (PERTURBED, 500, None),
    ("1 + 3*exp(i*twopi*x1)/(1+k1^2)", 500, "divergence"),  # B0 A is far from I
    ("1 + 2.18*exp(i*twopi*x1)/(1+k1^2)", 500, "stall"),  # plateaus below its start
    (PERTURBED, 1, "iteration cap"),
])
def test_solve_reports_why_it_fell_back(text, max_iter, reason):
    w = LatticeWindow(1, 8)
    g = default_grid(w)
    f = LatticeSequence.random(w, np.random.default_rng(3), margin=interior_margin(w))
    res = solve(parse_symbol(text, 1, order=0), 0.0, f, w, g, tol=1e-10, max_iter=max_iter)
    assert res.fallback_reason == reason
    assert res.fallback_used is (reason is not None)
    report = res.report_dict()
    assert report["fallback_reason"] == reason
    assert report["residual_history"] == res.residual_history
    # one entry per iterate, plus the direct solve after a fallback
    assert len(res.residual_history) == res.iterations + 1
    assert res.residual_history[-1] == res.residual_interior <= 1e-10
    # the iterates stay at or below the start, except the last one on divergence
    iterates = res.residual_history[:-1] if res.fallback_used else res.residual_history
    rises = [r > iterates[0] for r in iterates]
    assert rises == [False] * (len(iterates) - 1) + [reason == "divergence"]


@pytest.mark.parametrize("N", [16, 24, 32])
def test_a_singular_direct_solve_raises_convergence_error(N):
    # jump_minus has a cokernel that f meets, and its exact section a zero
    # pivot: the iteration stalls and the direct solve finds it singular
    w = LatticeWindow(1, N)
    f = LatticeSequence.random(w, np.random.default_rng(1), margin=interior_margin(w))
    with pytest.raises(ConvergenceError, match="after the stall found the section singular") as e:
        solve(shipped_symbol("jump_minus"), 0.0, f, w, default_grid(w), tol=1e-10)
    history = e.value.residual_history
    assert len(history) == 22 and all(r > 1e-10 for r in history)
    assert e.value.best_iterate.window == w


def test_a_direct_solve_that_misses_tol_raises_convergence_error():
    # tol 0 is never met: the iteration stalls at roundoff, and the direct
    # solve's residual, also at roundoff, is above it
    w = LatticeWindow(1, 16)
    f = LatticeSequence.random(w, np.random.default_rng(1), margin=interior_margin(w))
    sigma = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2)", 1, order=0)
    with pytest.raises(ConvergenceError, match="above tol .* even after direct solve") as e:
        solve(sigma, 0.0, f, w, default_grid(w), tol=0.0)
    history = e.value.residual_history
    assert 0 < history[-1] < 1e-14 and len(history) > 21
    assert e.value.best_iterate.window == w


def test_negative_orders_and_powers_are_refused():
    w = LatticeWindow(1, 8)
    with pytest.raises(ValueError, match="nonnegative order"):
        adn_verify(bessel_symbol(2), -1.0, w, default_grid(w), samples=3)
    par = parametrix(bessel_symbol(2), 2.0, 1, w, default_grid(w))
    with pytest.raises(ValueError, match="nonnegative power"):
        residual_decay_report(par.left_residual, -1)


def test_decay_report_zero_residual():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    rho = GridSymbol(w, g, np.zeros((w.size, g.size), dtype=complex),
                     order=None, interior_margin=interior_margin(w))
    rep = residual_decay_report(rho, 3)
    assert all(max(rep.shell_sups[p], default=0.0) == 0.0 for p in rep.powers)
    assert rep.schwartz_like


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_decay_report_reads_roundoff_as_zero(n, N):
    # residuals at the 1e-16 level, as a parametrix that inverts its symbol
    # exactly leaves: every seed gives the verdict of the zero residual
    w = LatticeWindow(n, N)
    g = default_grid(w)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((w.size, g.size)) * 10.0 ** rng.uniform(-30, -15, (w.size, 1))
        rho = GridSymbol(w, g, noise.astype(complex), interior_margin=interior_margin(w))
        rep = residual_decay_report(rho, 3)
        assert all(max(rep.shell_sups[p], default=0.0) == 0.0 for p in rep.powers)
        assert rep.schwartz_like


def test_decay_report_superpolynomial():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    K = np.abs(w.points[:, 0].astype(float))
    vals = np.repeat((2.0 ** -K)[:, None], g.size, axis=1).astype(complex)
    rho = GridSymbol(w, g, vals, order=None, interior_margin=1)
    rep = residual_decay_report(rho, 6)
    assert rep.schwartz_like


def test_decay_report_parametrix_residual():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    par = parametrix(parse_symbol(PERTURBED, 1, order=0), 0.0, 3, w, g)
    rep = residual_decay_report(par.left_residual, 3)
    assert rep.schwartz_like


def test_adn_delta_ratio_is_two():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    d = LatticeSequence.delta(w)
    for m in (1.0, 2.0):
        Td = apply(bessel_symbol(m), d, g)
        ratio = (Td.norm() + d.norm()) / sobolev_norm(m, d)
        assert ratio == pytest.approx(2.0, abs=1e-10)


def test_adn_bessel2_ratios_in_range():
    w = LatticeWindow(1, 32)
    rep = adn_verify(bessel_symbol(2), 2.0, w, default_grid(w), samples=100)
    assert 1.0 < rep.C1 <= rep.C2 <= 2.0 + 1e-12
    assert all(1.0 < r <= 2.0 + 1e-12 for r in rep.ratios)


def test_adn_stability_for_perturbed_family():
    w = LatticeWindow(1, 32)
    sigma = parse_symbol(PERTURBED, 1, order=0)
    rep = adn_verify(sigma, 0.0, w, default_grid(w), samples=50)
    assert rep.C1 > 0
    assert rep.rerun_N == 64
    assert abs(rep.rerun_C1 - rep.C1) <= 0.25 * rep.C1
    assert abs(rep.rerun_C2 - rep.C2) <= 0.25 * rep.C2


def test_adn_refuses_non_elliptic():
    w = LatticeWindow(1, 16)
    with pytest.raises(EllipticityError):
        adn_verify(parse_symbol("sin(twopi*x1)", 1, order=0), 0.0,
                   w, default_grid(w), samples=3)


def test_solve_multiplier_delta():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    f = LatticeSequence.delta(w)
    res = solve(bessel_symbol(2), 2.0, f, w, g, tol=1e-10)
    assert res.solution[(0,)] == pytest.approx(1.0, abs=1e-9)
    assert res.residual_interior <= 1e-10


def test_solve_constant_two():
    rng = np.random.default_rng(8)
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    f = LatticeSequence.random(w, rng)
    res = solve(parse_symbol("2", 1, order=0), 0.0, f, w, g, tol=1e-12)
    assert np.max(np.abs(res.solution.values - f.values / 2)) < 1e-10


def test_solve_matches_dense_direct():
    rng = np.random.default_rng(9)
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    sigma = parse_symbol(PERTURBED, 1, order=0)
    f = LatticeSequence.random(w, rng)
    res = solve(sigma, 0.0, f, w, g, tol=1e-8)
    assert res.residual_interior <= 1e-8
    direct = np.linalg.solve(assemble_matrix(sigma, w, g).entries, f.values)
    assert np.max(np.abs(res.solution.values - direct)) < 1e-6
    report = res.report_dict()
    assert set(report) == {"residual_interior", "residual_boundary", "iterations",
                           "fallback_used", "fallback_reason", "residual_history"}


def test_a_restricted_parametrix_reads_the_larger_ones_row_minima_on_its_grid():
    big, small = LatticeWindow(1, 16), LatticeWindow(1, 8)
    sigma = shipped_symbol("perturbed_bessel")
    g = index_grid(big)
    par = parametrix(sigma, 0.0, 2, big, g)
    with pytest.raises(ValueError, match="M=21"):
        par.restricted(assemble_matrix(sigma, small, index_grid(small)), 0.0)
    sub = par.restricted(assemble_matrix(sigma, small, g), 0.0)
    direct = parametrix(sigma, 0.0, 2, small, g)
    assert sub.steps == 2
    assert np.array_equal(sub.row_minima, direct.row_minima)
    assert np.max(np.abs(sub.left_defect.entries - direct.left_defect.entries)) < 1e-14
