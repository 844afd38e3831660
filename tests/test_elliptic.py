"""Parametrix construction, decay reports, ADN estimates, solving."""

import numpy as np
import pytest

from latticeops import (
    LatticeSequence,
    LatticeWindow,
    adn_verify,
    apply,
    bessel_symbol,
    check_ellipticity,
    default_grid,
    estimate_order,
    jump_symbol,
    parametrix,
    parse_symbol,
    residual_decay_report,
    solve,
    sobolev_norm,
    trace_index,
)
from latticeops import elliptic
from latticeops.elliptic import residual_order_sequence
from latticeops.errors import EllipticityError
from latticeops.quantization import assemble_matrix, extract_symbol, interior_margin
from latticeops.quantization import OperatorMatrix
from latticeops.symbols import NON_FINITE_SAMPLES, GridSymbol

PERTURBED = "2 + exp(i*twopi*x1)/(1+k1^2)"
# slower-decaying member of the same family; its residual orders stay
# far enough above the double-precision floor to be measurable at J = 3
PERTURBED_SLOW = "2 + exp(i*twopi*x1)/(1+k1^2)^(1/4)"


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


def test_parametrix_multiplier_is_exact():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    par = parametrix(bessel_symbol(2), 2.0, 1, w, g)
    assert np.max(np.abs(par.left_residual.values)) < 1e-12
    assert np.max(np.abs(par.right_residual.values)) < 1e-12
    assert par.regularized_points == []
    # tau0 = 1/sigma on the diagonal
    K = w.points[:, 0].astype(float)
    assert np.max(np.abs(par.tau.values - (1.0 / (1 + K ** 2))[:, None])) < 1e-12


def test_parametrix_constant_two():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    par = parametrix(parse_symbol("2", 1, order=0), 0.0, 2, w, g)
    assert np.max(np.abs(par.tau.values - 0.5)) < 1e-12
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
    assert par.left_residual.order == -2.0 and par.tau.order == 0.0
    assert par.left_residual is par.left_residual
    assert len(extractions) == 2


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


@pytest.mark.parametrize("text,n,N,m,tol,J", [
    ("bessel", 1, 16, 2.0, 1e-10, 2),
    ("2", 1, 16, 0.0, 1e-12, 2),
    (PERTURBED, 1, 32, 0.0, 1e-8, 2),
    (PERTURBED, 1, 16, 0.0, 1e-8, 2),
    ("2 + exp(i*twopi*x1)/(1+k1^2+k2^2)", 2, 6, 0.0, 1e-10, 3),
], ids=["bessel", "constant", "perturbed-32", "perturbed-16", "n2-J3"])
def test_solve_matches_the_explicit_preconditioner(text, n, N, m, tol, J, monkeypatch):
    w = LatticeWindow(n, N)
    g = default_grid(w)
    sigma = bessel_symbol(2) if text == "bessel" else parse_symbol(text, n, order=m)
    f = LatticeSequence.random(w, np.random.default_rng(9))
    built = []

    def recorded(*args, _original=elliptic.parametrix, **kwargs):
        built.append(_original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(elliptic, "parametrix", recorded)
    res = solve(sigma, m, f, w, g, tol=tol, J=J)
    # no P x P product: neither B_J nor a defect was formed
    assert not {"matrix", "left_defect", "right_defect"} & set(vars(built[0]))
    iterations, fallback, u = _explicit_solve(sigma, m, f, w, g, tol, J=J)
    assert (res.iterations, res.fallback_used) == (iterations, fallback)
    assert np.max(np.abs(res.solution.values - u)) < 1e-10 * np.max(np.abs(u))


def test_trace_index_extracts_each_residual_once(extractions):
    trace_index(parse_symbol(PERTURBED, 1, order=0), LatticeWindow(1, 16), J=2)
    assert len(extractions) == 2


def test_residual_order_drops_per_step():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    sigma = parse_symbol(PERTURBED_SLOW, 1, order=0)
    orders = residual_order_sequence(sigma, 0.0, w, g, J_max=3)
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
    assert np.array_equal(separate[1].refined().matrix.entries, separate[2].matrix.entries)
    calls = []

    def counted(*args, _original=sigma.sample, **kwargs):
        calls.append(args)
        return _original(*args, **kwargs)

    monkeypatch.setattr(sigma, "sample", counted, raising=False)
    parametrix(sigma, 0.0, 2, w, g)
    assert len(calls) == 1
    solve(sigma, 0.0, LatticeSequence.random(w, np.random.default_rng(2)), w, g)
    assert len(calls) == 2
    assert residual_order_sequence(sigma, 0.0, w, g, J_max=3) == want
    assert len(calls) == 3


def _three_pass_parametrix(sigma, m, w, g):
    """A, B0, the regularized points and theta as built before sigma was
    sampled once: certificate, regularized inverse and A each sampled anew."""
    rep = check_ellipticity(sigma, m, w, g)
    theta = rep.C / 2.0
    S = sigma.sample(w, g)
    floor = theta * np.power(w.radial_weight, m)
    low = np.min(np.abs(S), axis=1) < floor
    delta = np.where(low, floor ** 2, 0.0)
    tau0 = GridSymbol(w, g, S.conj() / (np.abs(S) ** 2 + delta[:, None]))
    return (assemble_matrix(sigma, w, g).entries, assemble_matrix(tau0, w, g).entries,
            np.where(low)[0].tolist(), theta)


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
    A, B0, regularized, theta = _three_pass_parametrix(sigma, m, w, g)
    par = parametrix(sigma, m, 2, w, g)
    assert np.array_equal(par.sigma_matrix.entries, A)
    assert np.array_equal(par.initial.entries, B0)
    assert par.regularized_points == regularized
    assert par.threshold == theta


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


def test_decay_report_zero_residual():
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    rho = GridSymbol(w, g, np.zeros((w.size, g.size), dtype=complex),
                     order=None, interior_margin=interior_margin(w))
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
