"""Self-contained property suites, one per library area.

Each suite returns a list of check records {property, passed, observed,
tolerance}; the CLI aggregates them into the verification report.  The
suites are deliberately small versions of the package test suite so a
deployed installation can re-certify itself without pytest.
"""

from __future__ import annotations

import numpy as np

from .core import (
    LatticeSequence,
    LatticeWindow,
    MultiIndex,
    _shift_values,
    backward_difference,
    binomial_multi,
    default_grid,
    forward_dft,
    forward_difference,
    forward_difference_closed_form,
    inverse_dft,
    multiindices_leq,
    torus_quadrature,
)
from .elliptic import adn_verify, parametrix, residual_order_sequence, solve
from .fredholm import atkinson_check, fredholm_ellipticity_probe, full_index_report
from .quantization import (
    apply as q_apply,
    adjoint_symbol,
    assemble_matrix,
    compose,
    extract_symbol,
    interior_margin,
)
from .sobolev import bessel_apply, embedding_check, sobolev_norm
from .symbols import (
    bessel_symbol,
    check_ellipticity,
    estimate_order,
    jump_symbol,
    parse_symbol,
    pretty_print,
    s0_decay_profile,
)

SUITES = ("lattice-core", "symbol-model", "quantize", "sobolev", "elliptic", "fredholm")


def _check(name, observed, tolerance, passed=None):
    if passed is None:
        passed = bool(observed <= tolerance)
    return {"property": name, "passed": bool(passed),
            "observed": float(observed) if np.isscalar(observed) else observed,
            "tolerance": tolerance}


def _leibniz_gap(f, g, alpha, window):
    """Max interior defect of the product rule
    Delta^a(fg) = sum_{b<=a} C(a,b) (Delta^b f)(k) (Delta^{a-b} g)(k+b)."""
    prod = LatticeSequence(window, f.values * g.values)
    lhs = forward_difference(prod, alpha).sequence
    rhs = np.zeros(window.size, dtype=complex)
    for beta in multiindices_leq(alpha):
        df = forward_difference(f, beta).sequence.values
        rem = MultiIndex([a - b for a, b in zip(alpha, beta)])
        dg = forward_difference(g, rem).sequence
        rhs += binomial_multi(alpha, beta) * df * _shift_values(dg, tuple(beta))
    mask = window.interior_mask(alpha.order)
    return float(np.max(np.abs(lhs.values - rhs)[mask]))


def suite_lattice_core(seed=42):
    rng = np.random.default_rng(seed)
    out = []
    worst_pl, worst_rt = 0.0, 0.0
    for n, N in ((1, 8), (2, 4)):
        w = LatticeWindow(n, N)
        g = default_grid(w)
        for _ in range(10):
            f = LatticeSequence.random(w, rng)
            F = forward_dft(f, g)
            pl = abs(f.norm() ** 2 - torus_quadrature(
                type(F)(F.grid, np.abs(F.values) ** 2)).real) / f.norm() ** 2
            rt = np.max(np.abs(inverse_dft(F, w).values - f.values)) / f.norm()
            worst_pl, worst_rt = max(worst_pl, pl), max(worst_rt, rt)
    out.append(_check("plancherel", worst_pl, 1e-10))
    out.append(_check("inversion round-trip", worst_rt, 1e-12))
    w = LatticeWindow(1, 12)
    worst_cf = worst_lb = worst_sp = 0.0
    for alpha in [MultiIndex((1,)), MultiIndex((2,)), MultiIndex((3,))]:
        for _ in range(5):
            f = LatticeSequence.random(w, rng)
            g2 = LatticeSequence.random(w, rng)
            it = forward_difference(f, alpha)
            cf = forward_difference_closed_form(f, alpha)
            worst_cf = max(worst_cf, float(np.max(
                np.abs(it.sequence.values - cf.sequence.values)[it.valid_mask])))
            worst_lb = max(worst_lb, _leibniz_gap(f, g2, alpha, w))
            fs = LatticeSequence.random(w, rng, margin=alpha.order + 1)
            gs = LatticeSequence.random(w, rng, margin=alpha.order + 1)
            lhs = np.sum(fs.values * forward_difference(gs, alpha).sequence.values)
            rhs = (-1) ** alpha.order * np.sum(
                backward_difference(fs, alpha).sequence.values * gs.values)
            worst_sp = max(worst_sp, abs(lhs - rhs))
    out.append(_check("closed-form differences", worst_cf, 1e-13))
    out.append(_check("leibniz formula", worst_lb, 1e-12))
    out.append(_check("summation by parts", worst_sp, 1e-12))
    return out


def suite_symbol_model(seed=42):
    out = []
    texts = ["1+k1^2", "exp(i*twopi*x1)/(1+k1^2)", "2-sin(twopi*x1)*step(k1)"]
    rt = all(pretty_print(parse_symbol(t, 1).ast)
             == pretty_print(parse_symbol(pretty_print(parse_symbol(t, 1).ast), 1).ast)
             for t in texts)
    out.append(_check("parser round-trip", 0.0, 0.0, passed=rt))
    sig = parse_symbol("exp(i*twopi*x1)*(1+k1^2)", 1)
    per = max(abs(sig.eval((3,), (x,)) - sig.eval((3,), (x + 1.0,)))
              for x in (0.0, 0.25, 0.7))
    out.append(_check("x-periodicity", per, 1e-12))
    w = LatticeWindow(1, 64)
    g = default_grid(w)
    worst = max(abs(estimate_order(bessel_symbol(s), w, g).m_hat - s)
                for s in (-2, -1, 1, 2))
    out.append(_check("bessel order estimate", worst, 0.1))
    ok = True
    for s in (-2.0, 0.5, 3.0):
        rep = check_ellipticity(bessel_symbol(s), s, w, g)
        ok = ok and rep.elliptic and rep.C >= 2 ** (-abs(s) / 2) and rep.M_radius == 0.0
    out.append(_check("bessel ellipticity constant", 0.0, 0.0, passed=ok))
    w32 = LatticeWindow(1, 32)
    diag = s0_decay_profile(parse_symbol("exp(i*twopi*x1)/(1+k1^2)", 1),
                            w32, default_grid(w32), alpha_max=2)
    out.append(_check("S0 decay diagnostic", 0.0, 0.0,
                      passed=all(d.decaying for d in diag)))
    return out


def suite_quantize(seed=42):
    rng = np.random.default_rng(seed)
    out = []
    w = LatticeWindow(1, 8)
    g = default_grid(w)
    f = LatticeSequence.random(w, rng)
    one = parse_symbol("1", 1, order=0)
    out.append(_check("identity symbol", float(np.max(np.abs(
        q_apply(one, f, g).values - f.values))), 1e-12))
    A = assemble_matrix(bessel_symbol(2), w, g)
    diag = (1.0 + w.points[:, 0].astype(float) ** 2)
    out.append(_check("multiplier diagonality", float(np.max(np.abs(
        A.entries - np.diag(diag)))), 1e-10))
    sig = parse_symbol("cos(twopi*x1)/(1+k1^2)+2", 1, order=0)
    B = assemble_matrix(sig, w, g)
    B2 = assemble_matrix(extract_symbol(B), w, g)
    out.append(_check("extraction round-trip", float(np.max(np.abs(
        B2.entries - B.entries))), 1e-10))
    mask = w.interior_mask(interior_margin(w))
    comp = compose(bessel_symbol(1), bessel_symbol(2), w, g)
    tgt = bessel_symbol(3).sample(w, g)
    out.append(_check("bessel composition", float(np.max(np.abs(
        comp.values - tgt)[mask])), 1e-10))
    adj = adjoint_symbol(sig, w, g)
    phi = LatticeSequence.random(w, rng, margin=interior_margin(w))
    psi = LatticeSequence.random(w, rng, margin=interior_margin(w))
    lhs = np.vdot(psi.values, q_apply(sig, phi, g).values)
    rhs = np.vdot(q_apply(adj, psi, g).values, phi.values)
    out.append(_check("adjoint pairing", abs(lhs - rhs), 1e-10))
    return out


def suite_sobolev(seed=42):
    rng = np.random.default_rng(seed)
    out = []
    w = LatticeWindow(1, 32)
    u = LatticeSequence.random(w, rng)
    both = bessel_apply(1.5, bessel_apply(-0.5, u))
    out.append(_check("J_s J_t = J_{s+t}", float(np.max(np.abs(
        both.values - bessel_apply(1.0, u).values))), 1e-12))
    iso = abs(sobolev_norm(1.0, bessel_apply(2.0, u)) - sobolev_norm(3.0, u))
    out.append(_check("bessel isometry", iso, 1e-12))
    samples = [LatticeSequence.random(w, rng) for _ in range(20)]
    rep = embedding_check(0.0, 2.0, samples)
    out.append(_check("embedding constant 1", rep.max_ratio, 1.0 + 1e-12))
    return out


def suite_elliptic(seed=42):
    rng = np.random.default_rng(seed)
    out = []
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    par = parametrix(bessel_symbol(2), 2.0, 1, w, g)
    res = float(np.max(par.left_defect.symbol_row_maxima()))
    out.append(_check("multiplier zero residual", res, 1e-12))
    w32 = LatticeWindow(1, 32)
    g32 = default_grid(w32)
    fam = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2)^(1/4)", 1, order=0)
    orders = residual_order_sequence(fam, 0.0, w32, g32)
    drops = [a - b for a, b in zip(orders, orders[1:])]
    out.append(_check("residual order drop", min(drops), 0.8,
                      passed=min(drops) >= 0.8))
    rep = adn_verify(bessel_symbol(2), 2.0, w, g, samples=30, seed=seed)
    out.append(_check("ADN ratios in (1,2]", rep.C2, 2.0 + 1e-12,
                      passed=1.0 < rep.C1 and rep.C2 <= 2.0 + 1e-12))
    sig = parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2)", 1, order=0)
    f = LatticeSequence.random(w32, rng)
    result = solve(sig, 0.0, f, w32, g32, tol=1e-8)
    direct = np.linalg.solve(assemble_matrix(sig, w32, g32).entries, f.values)
    out.append(_check("solve matches direct", float(np.max(np.abs(
        result.solution.values - direct))), 1e-6))
    return out


def suite_fredholm(seed=42):
    out = []
    shipped = [("constant", parse_symbol("2", 1, order=0), 0),
               ("jump +1", jump_symbol(+1), 1),
               ("jump -1", jump_symbol(-1), -1)]
    for name, sym, expect in shipped:
        rep = full_index_report(sym, [16, 32], n=1, J=3)
        ok = (rep.svd_index == expect and rep.trace_index == expect
              and rep.agreement)
        out.append(_check(f"index of {name} symbol", 0.0, 0.0, passed=ok))
    atk = atkinson_check(parse_symbol("2 + exp(i*twopi*x1)/(1+k1^2)", 1, order=0),
                         [16, 32], n=1)
    out.append(_check("atkinson boundedness", 0.0, 0.0, passed=atk.bounded))
    probe = fredholm_ellipticity_probe(
        parse_symbol("1/(1+k1^2)^(1/2)", 1, order=0), [16, 32, 64], n=1)
    out.append(_check("non-elliptic near-kernel growth", 0.0, 0.0,
                      passed=(not probe.elliptic) and probe.consistent))
    return out


_SUITE_FUNCS = {
    "lattice-core": suite_lattice_core,
    "symbol-model": suite_symbol_model,
    "quantize": suite_quantize,
    "sobolev": suite_sobolev,
    "elliptic": suite_elliptic,
    "fredholm": suite_fredholm,
}


def run_suites(names=None, seed=42) -> dict:
    """Run the selected suites; raises KeyError on an unknown suite name."""
    if names is None or names == ["all"]:
        names = list(SUITES)
    results = {}
    for name in names:
        if name not in _SUITE_FUNCS:
            raise KeyError(name)
        results[name] = _SUITE_FUNCS[name](seed=seed)
    all_passed = all(c["passed"] for checks in results.values() for c in checks)
    return {"suites": results, "all_passed": all_passed}
