"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with the pytest progress output.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from latticeops import (
    LatticeSequence,
    LatticeWindow,
    MultiIndex,
    TorusFunction,
    TorusGrid,
    assemble_matrix,
    adn_verify,
    atkinson_check,
    backward_difference,
    bessel_apply,
    bessel_symbol,
    compose,
    default_grid,
    forward_dft,
    forward_difference,
    forward_difference_closed_form,
    fredholm_ellipticity_probe,
    full_index_report,
    inclusion_spectrum,
    interior_margin,
    inverse_dft,
    parametrix,
    parse_symbol,
    residual_decay_report,
    shipped_symbol,
    smoothing_spectrum,
    sobolev_norm,
    torus_quadrature,
)
from latticeops.cli import main as cli_main
from latticeops.elliptic import residual_order_sequence
from latticeops.verify import _leibniz_gap

PERTURBED = "2 + exp(i*twopi*x1)/(1+k1^2)"
PERTURBED_SLOW = "2 + exp(i*twopi*x1)/(1+k1^2)^(1/4)"


def _gate(num, label, ok, elapsed=None, cap=None):
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s"
        timing += f" < {cap:.0f}s)" if cap is not None else ")"
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}{timing}")
    assert ok, f"criterion {num}: {label}"
    if cap is not None:
        assert elapsed < cap, f"criterion {num}: runtime {elapsed:.2f}s over {cap}s cap"


def test_criterion_01_fourier_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_pl = worst_rt = 0.0
    total = 0
    for n in (1, 2):
        for N in (8, 16):
            w = LatticeWindow(n, N)
            grid = TorusGrid(n, 2 * N + 3)
            for _ in range(25):
                f = LatticeSequence.random(w, rng)
                F = forward_dft(f, grid)
                quad = torus_quadrature(
                    TorusFunction(grid, np.abs(F.values) ** 2)).real
                worst_pl = max(worst_pl,
                               abs(f.norm() ** 2 - quad) / f.norm() ** 2)
                back = inverse_dft(F, w)
                worst_rt = max(worst_rt,
                               np.max(np.abs(back.values - f.values)) / f.norm())
                total += 1
    elapsed = time.perf_counter() - t0
    ok = total == 100 and worst_pl <= 1e-10 and worst_rt <= 1e-12
    _gate(1, f"Plancherel {worst_pl:.2e} <= 1e-10, round-trip {worst_rt:.2e} "
          f"<= 1e-12 over {total} sequences", ok, elapsed, 5.0)


def test_criterion_02_difference_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    alphas = [MultiIndex(a) for a in
              [(1,), (2,), (3,)]] + [MultiIndex(a) for a in
                                     [(1, 0), (1, 1), (2, 1), (0, 3)]]
    worst_cf = worst_lb = worst_sp = 0.0
    pairs = 0
    while pairs < 50:
        for alpha in alphas:
            n = len(tuple(alpha))
            w = LatticeWindow(n, 10 if n == 1 else 5)
            f = LatticeSequence.random(w, rng)
            g = LatticeSequence.random(w, rng)
            it = forward_difference(f, alpha)
            cf = forward_difference_closed_form(f, alpha)
            worst_cf = max(worst_cf, float(np.max(np.abs(
                it.sequence.values - cf.sequence.values)[it.valid_mask])))
            worst_lb = max(worst_lb, _leibniz_gap(f, g, alpha, w))
            m = alpha.order + 1
            fs = LatticeSequence.random(w, rng, margin=m)
            gs = LatticeSequence.random(w, rng, margin=m)
            lhs = np.sum(fs.values * forward_difference(gs, alpha).sequence.values)
            rhs = (-1) ** alpha.order * np.sum(
                backward_difference(fs, alpha).sequence.values * gs.values)
            worst_sp = max(worst_sp, abs(lhs - rhs))
            pairs += 1
            if pairs >= 50:
                break
    elapsed = time.perf_counter() - t0
    ok = worst_cf <= 1e-12 and worst_lb <= 1e-12 and worst_sp <= 1e-12
    _gate(2, f"closed-form {worst_cf:.2e}, product rule {worst_lb:.2e}, "
          f"summation by parts {worst_sp:.2e}, all <= 1e-12", ok, elapsed, 5.0)


def test_criterion_03_multiplier_exactness():
    rng = np.random.default_rng(42)
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    A = assemble_matrix(parse_symbol("1", 1, order=0), w, g)
    id_gap = float(np.max(np.abs(A.entries - np.eye(w.size))))
    B = assemble_matrix(bessel_symbol(2), w, g)
    offdiag = float(np.max(np.abs(B.entries - np.diag(np.diag(B.entries)))))
    worst_semi = worst_iso = 0.0
    for _ in range(20):
        u = LatticeSequence.random(w, rng)
        both = bessel_apply(1.5, bessel_apply(-0.5, u))
        worst_semi = max(worst_semi, float(np.max(np.abs(
            both.values - bessel_apply(1.0, u).values))))
        # the isometry defect is measured relative to the norm scale
        worst_iso = max(worst_iso, abs(
            sobolev_norm(1.0, bessel_apply(2.0, u)) - sobolev_norm(3.0, u))
            / sobolev_norm(3.0, u))
    ok = max(id_gap, offdiag, worst_semi, worst_iso) <= 1e-12
    _gate(3, f"identity {id_gap:.2e}, diagonality {offdiag:.2e}, "
          f"semigroup {worst_semi:.2e}, isometry {worst_iso:.2e}, "
          "all <= 1e-12", ok)


def test_criterion_04_composition_oracle():
    rng = np.random.default_rng(42)
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    sig = parse_symbol(PERTURBED, 1, order=0)
    tau = parse_symbol("1 + exp(-i*twopi*x1)/(2+k1^2)", 1, order=0)
    mask = w.interior_mask(interior_margin(w))
    comp = compose(sig, tau, w, g)
    prod = assemble_matrix(sig, w, g).entries @ assemble_matrix(tau, w, g).entries
    back = assemble_matrix(comp, w, g).entries
    oracle_gap = float(np.max(np.abs(back - prod)[mask]))
    bcomp = compose(bessel_symbol(1), bessel_symbol(2), w, g)
    bessel_gap = float(np.max(np.abs(
        bcomp.values - bessel_symbol(3).sample(w, g))[mask]))
    rho = parse_symbol("2 - sin(twopi*x1)/(1+k1^2)", 1, order=0)
    mask2 = w.interior_mask(2 * interior_margin(w))
    left = compose(compose(sig, tau, w, g), rho, w, g)
    right = compose(sig, compose(tau, rho, w, g), w, g)
    assoc_gap = float(np.max(np.abs(left.values - right.values)[mask2]))
    ok = oracle_gap <= 1e-10 and bessel_gap <= 1e-10 and assoc_gap <= 1e-8
    _gate(4, f"matrix-product oracle {oracle_gap:.2e} <= 1e-10, Bessel "
          f"{bessel_gap:.2e} <= 1e-10, associativity {assoc_gap:.2e} <= 1e-8",
          ok)


def test_criterion_05_parametrix():
    t0 = time.perf_counter()
    w16 = LatticeWindow(1, 16)
    par = parametrix(bessel_symbol(2), 2.0, 1, w16, default_grid(w16))
    mult_res = float(np.max(np.abs(par.left_residual.values)))
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    fam = parse_symbol(PERTURBED_SLOW, 1, order=0)
    orders = residual_order_sequence(fam, 0.0, w, g)
    drops = [a - b for a, b in zip(orders, orders[1:])]
    par3 = parametrix(parse_symbol(PERTURBED, 1, order=0), 0.0, 3, w, g)
    decay = residual_decay_report(par3.left_residual, 3)
    elapsed = time.perf_counter() - t0
    ok = (mult_res <= 1e-12 and all(d >= 0.8 for d in drops)
          and decay.schwartz_like)
    _gate(5, f"multiplier residual {mult_res:.2e} <= 1e-12, order drops "
          f"{[f'{d:.2f}' for d in drops]} >= 0.8, decay report "
          f"shellwise-decreasing p <= 3: {decay.schwartz_like}",
          ok, elapsed, 60.0)


def test_criterion_06_graph_norm_equivalence():
    w = LatticeWindow(1, 32)
    g = default_grid(w)
    rep_b = adn_verify(bessel_symbol(2), 2.0, w, g, samples=100, seed=42)
    in_range = all(1.0 < r <= 2.0 + 1e-12 for r in rep_b.ratios)
    rep_p = adn_verify(parse_symbol(PERTURBED, 1, order=0), 0.0, w, g,
                       samples=50, seed=42)
    stable = (rep_p.C1 > 0
              and abs(rep_p.rerun_C1 - rep_p.C1) <= 0.25 * rep_p.C1
              and abs(rep_p.rerun_C2 - rep_p.C2) <= 0.25 * rep_p.C2)
    ok = in_range and stable
    _gate(6, f"bessel(2) ratios in (1,2]: {in_range}; perturbed C1={rep_p.C1:.3f}"
          f">0, N=32->64 drift C1 {abs(rep_p.rerun_C1 - rep_p.C1) / rep_p.C1:.1%},"
          f" C2 {abs(rep_p.rerun_C2 - rep_p.C2) / rep_p.C2:.1%} within 25%", ok)


def test_criterion_07_boundedness_surrogates():
    rng = np.random.default_rng(42)
    symbols = [parse_symbol(PERTURBED, 1, order=0),
               shipped_symbol("jump_plus"),
               parse_symbol("2 - sin(twopi*x1)/(1+k1^2)", 1, order=0)]
    spec_ok = ratio_ok = True
    spec_growth = []
    for sig in symbols:
        norms = []
        for N in (8, 16, 32):
            w = LatticeWindow(1, N)
            A = assemble_matrix(sig, w, default_grid(w))
            norms.append(float(np.linalg.norm(A.entries, 2)))
        spec_growth.append(max(b / a for a, b in zip(norms, norms[1:])))
        spec_ok = spec_ok and all(b < 1.5 * a for a, b in zip(norms, norms[1:]))
    worst = []
    sig = parse_symbol(PERTURBED, 1, order=0)
    for N in (8, 16, 32):
        w = LatticeWindow(1, N)
        A = assemble_matrix(sig, w, default_grid(w))
        rs = []
        for _ in range(20):
            u = LatticeSequence.random(w, rng)
            Tu = LatticeSequence(w, A.entries @ u.values)
            rs.append(sobolev_norm(1.0, Tu) / sobolev_norm(1.0, u))
        worst.append(max(rs))
    ratio_ok = all(b < 1.5 * a for a, b in zip(worst, worst[1:]))
    ok = spec_ok and ratio_ok
    _gate(7, f"spectral-norm growth factors {[f'{x:.3f}' for x in spec_growth]}"
          f" < 1.5, Sobolev ratio growth "
          f"{[f'{b / a:.3f}' for a, b in zip(worst, worst[1:])]} < 1.5", ok)


def test_criterion_08_compactness_surrogates():
    rep = inclusion_spectrum(0.0, 1.0, [256], n=1)
    target = (0.0 - 1.0) / 1
    fit_ok = abs(rep.fit_exponent - target) <= 0.2 * abs(target)
    srep = smoothing_spectrum(2.0, [16, 32, 64], n=1)
    counts = srep.count_below(0.1)
    counts_ok = counts[0] < counts[1] < counts[2]
    ok = fit_ok and counts_ok
    _gate(8, f"inclusion tail exponent {rep.fit_exponent:.3f} within 20% of "
          f"{target}, smoothing small-value counts {counts} strictly grow", ok)


def test_criterion_09_index_agreement():
    t0 = time.perf_counter()
    expected = {"constant": 0, "jump_plus": 1, "jump_minus": -1}
    ok = True
    detail = []
    for name, target in expected.items():
        rep = full_index_report(shipped_symbol(name), [16, 24, 32], n=1, J=3)
        gaps_ok = all(g.gap >= 100 for g in rep.gap_evidence)
        raw_ok = abs(rep.trace_index_raw - target) <= 0.25
        ok = ok and rep.svd_index == target and gaps_ok and raw_ok
        detail.append(f"{name}: svd={rep.svd_index} "
                      f"raw={rep.trace_index_raw:+.3f}")
    elapsed = time.perf_counter() - t0
    _gate(9, "; ".join(detail) + " (targets 0,+1,-1, gaps >= 100x, "
          "raw within 0.25)", ok, elapsed, 120.0)


def test_criterion_10_ellipticity_fredholm_probe():
    atk_ok = True
    for sig in (shipped_symbol("constant"), shipped_symbol("jump_plus"),
                parse_symbol(PERTURBED, 1, order=0)):
        atk_ok = atk_ok and atkinson_check(sig, [16, 32], n=1).bounded
    probe = fredholm_ellipticity_probe(
        parse_symbol("1/(1+k1^2)^(1/2)", 1, order=0), [16, 32, 64], n=1)
    counts = probe.near_kernel_counts
    grow_ok = (not probe.elliptic) and counts[0] < counts[1] < counts[2]
    ok = atk_ok and grow_ok
    _gate(10, f"Atkinson bounded for elliptic symbols: {atk_ok}; decaying "
          f"symbol near-kernel counts {counts} strictly grow", ok)


def test_criterion_11_cli_determinism():
    outputs = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(cli_main(["verify", "--no-timestamp", "--json"]))
        outputs.append(buf.getvalue())
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    _gate(11, f"full verify suite exit codes {codes}, reports byte-identical: "
          f"{outputs[0] == outputs[1]}", ok)
