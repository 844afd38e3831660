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
    compose,
    default_grid,
    dual_toroidal_symbol,
    extract_symbol,
    interior_margin,
    multiplier_symbol,
    parse_symbol,
)
from latticeops.core import _dft_matrix, forward_dft, phase_matrix
from latticeops.errors import AliasingError
from latticeops.quantization import (
    OperatorMatrix,
    assemble_toroidal_matrix,
    read_matrix_binary,
    read_matrix_json,
    write_matrix_binary,
    write_matrix_json,
)
from latticeops.symbols import NON_FINITE_SAMPLES


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


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 4)])
@pytest.mark.parametrize("extra", [0, 2])
def test_assembly_and_extraction_match_the_dense_sums_at_size(n, N, extra):
    check_against_dense(n, N, 2 * N + 1 + extra, seed=N + extra)


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
    # the samples, multiplied by fhat in place; every other node of the
    # expression runs on fewer axes than the (P, Q) pairs
    assert peak < 1.5 * w.size * g.size * 16


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


def test_extraction_refuses_aliasing_grid():
    w = LatticeWindow(1, 4)
    with pytest.raises(AliasingError):
        extract_symbol(OperatorMatrix(w, TorusGrid(1, 8), np.eye(w.size)))


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
    # tau(x,k) = conj(sigma(-k,x))
    w, g, _ = setup
    sigma = parse_symbol("2+cos(twopi*x1)/(1+k1^2)", 1, order=0)
    A = assemble_matrix(sigma, w, g).entries
    C = assemble_toroidal_matrix(dual_toroidal_symbol(sigma), w, g)
    E = phase_matrix(w, g).conj().T  # (Q, P): e^{-2 pi i x l}
    lhs = g.weight * (E.conj().T @ C.conj().T @ E)
    assert np.max(np.abs(lhs - A)) < 1e-8


def test_matrix_file_roundtrips(tmp_path, setup):
    w, g, _ = setup
    A = assemble_matrix(parse_symbol("2+sin(twopi*x1)/(1+k1^2)", 1, order=0), w, g)
    pb = tmp_path / "op.bin"
    pj = tmp_path / "op.json"
    write_matrix_binary(pb, A)
    write_matrix_json(pj, A)
    for back in (read_matrix_binary(pb), read_matrix_json(pj)):
        assert back.window.N == w.N and back.grid.M == g.M
        assert np.max(np.abs(back.entries - A.entries)) == 0.0
