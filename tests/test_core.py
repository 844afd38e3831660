"""Lattice window, DFT, quadrature, and difference calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeops import (
    LatticeSequence,
    LatticeWindow,
    TorusFunction,
    TorusGrid,
    default_grid,
    forward_dft,
    index_grid,
    inverse_dft,
    torus_quadrature,
    forward_difference,
    backward_difference,
    forward_difference_closed_form,
    read_sequence_csv,
    write_sequence_csv,
)
from latticeops.core import MultiIndex, binomial_multi, multiindices_leq
from latticeops.errors import AliasingError, DimensionMismatchError


def test_window_cardinality_and_order():
    w = LatticeWindow(2, 3)
    assert w.size == 7 ** 2
    pts = w.points
    # lexicographic: strictly increasing as tuples
    assert all(tuple(pts[i]) < tuple(pts[i + 1]) for i in range(len(pts) - 1))
    assert w.index_of((0, 0)) == w.size // 2


def test_grid_nodes_and_weight():
    g = TorusGrid(1, 5)
    assert np.allclose(g.nodes[:, 0], [0, 0.2, 0.4, 0.6, 0.8])
    assert g.weight == pytest.approx(1 / 5)


def test_dft_delta_is_constant():
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    F = forward_dft(LatticeSequence.delta(w), g)
    assert np.allclose(F.values, 1.0)


def test_dft_shifted_delta_is_character():
    w = LatticeWindow(1, 4)
    g = default_grid(w)
    F = forward_dft(LatticeSequence.delta(w, (1,)), g)
    expected = np.exp(-2j * np.pi * g.nodes[:, 0])
    assert np.allclose(F.values, expected)


def test_inverse_of_one_is_delta():
    w = LatticeWindow(1, 5)
    g = TorusGrid(1, 16)
    f = inverse_dft(TorusFunction(g, np.ones(16, dtype=complex)), w)
    assert f[(0,)] == pytest.approx(1.0)
    assert np.abs(f.values).sum() == pytest.approx(1.0, abs=1e-12)


def test_inverse_of_character_is_shifted_delta():
    # F(x) = e^{-2 pi i 3 x} should come back as delta_3
    g = TorusGrid(1, 16)
    w = LatticeWindow(1, 5)
    F = TorusFunction(g, np.exp(-2j * np.pi * 3 * g.nodes[:, 0]))
    f = inverse_dft(F, w)
    assert f[(3,)] == pytest.approx(1.0)
    assert np.sum(np.abs(f.values) > 1e-12) == 1


def test_plancherel_and_roundtrip_random():
    rng = np.random.default_rng(11)
    for n, N in [(1, 8), (2, 4)]:
        w = LatticeWindow(n, N)
        g = default_grid(w)
        for _ in range(5):
            f = LatticeSequence.random(w, rng)
            F = forward_dft(f, g)
            q = torus_quadrature(TorusFunction(g, np.abs(F.values) ** 2)).real
            assert q == pytest.approx(f.norm() ** 2, rel=1e-10)
            back = inverse_dft(F, w)
            assert np.max(np.abs(back.values - f.values)) < 1e-12 * f.norm()


def test_inverse_dft_refuses_aliasing():
    w = LatticeWindow(1, 8)
    g = TorusGrid(1, 9)  # below 2N+1 = 17
    F = TorusFunction(g, np.ones(9, dtype=complex))
    with pytest.raises(AliasingError):
        inverse_dft(F, w)


def test_quadrature_examples():
    g = TorusGrid(1, 8)
    assert torus_quadrature(TorusFunction(g, np.full(8, 3.0 + 0j))) == pytest.approx(3.0)
    char = TorusFunction(g, np.exp(2j * np.pi * g.nodes[:, 0]))
    assert abs(torus_quadrature(char)) < 1e-14
    sin2 = TorusFunction(g, np.sin(2 * np.pi * g.nodes[:, 0]) ** 2 + 0j)
    assert torus_quadrature(sin2).real == pytest.approx(0.5)


def test_forward_difference_of_linear_is_one():
    w = LatticeWindow(1, 6)
    f = LatticeSequence(w, w.points[:, 0].astype(complex))
    d = forward_difference(f, MultiIndex((1,)))
    assert np.allclose(d.sequence.values[d.valid_mask], 1.0)


def test_backward_difference_of_constant_vanishes():
    w = LatticeWindow(1, 6)
    f = LatticeSequence(w, np.full(w.size, 2.5 + 0j))
    d = backward_difference(f, MultiIndex((2,)))
    assert np.allclose(d.sequence.values[d.valid_mask], 0.0)


def test_zero_alpha_is_identity():
    rng = np.random.default_rng(0)
    w = LatticeWindow(2, 3)
    f = LatticeSequence.random(w, rng)
    d = forward_difference(f, MultiIndex((0, 0)))
    assert np.array_equal(d.sequence.values, f.values)


def test_closed_form_matches_iterated():
    rng = np.random.default_rng(7)
    for n, alphas in [(1, [(1,), (2,), (3,)]), (2, [(1, 0), (1, 1), (2, 1)])]:
        w = LatticeWindow(n, 6)
        for a in alphas:
            alpha = MultiIndex(a)
            for _ in range(5):
                f = LatticeSequence.random(w, rng)
                it = forward_difference(f, alpha)
                cf = forward_difference_closed_form(f, alpha)
                gap = np.abs(it.sequence.values - cf.sequence.values)[it.valid_mask]
                assert np.max(gap) < 1e-13


def _shift(f, window, beta):
    out = np.zeros(window.size, dtype=complex)
    for i, k in enumerate(window.points):
        kk = tuple(np.asarray(k) + np.asarray(beta))
        if window.contains(kk):
            out[i] = f[window.index_of(kk)]
    return out


def test_leibniz_product_rule():
    # Delta^a(fg)(k) = sum_{b<=a} C(a,b) (Delta^b f)(k) (Delta^{a-b} g)(k+b)
    rng = np.random.default_rng(21)
    w = LatticeWindow(1, 10)
    for a in [(1,), (2,), (3,)]:
        alpha = MultiIndex(a)
        for _ in range(5):
            f = LatticeSequence.random(w, rng)
            g = LatticeSequence.random(w, rng)
            prod = LatticeSequence(w, f.values * g.values)
            lhs = forward_difference(prod, alpha).sequence.values
            rhs = np.zeros(w.size, dtype=complex)
            for beta in multiindices_leq(alpha):
                rem = MultiIndex([x - y for x, y in zip(alpha, beta)])
                df = forward_difference(f, beta).sequence.values
                dg = forward_difference(g, rem).sequence.values
                rhs += binomial_multi(alpha, beta) * df * _shift(dg, w, tuple(beta))
            mask = w.interior_mask(alpha.order)
            assert np.max(np.abs(lhs - rhs)[mask]) < 1e-12


def test_summation_by_parts():
    rng = np.random.default_rng(4)
    w = LatticeWindow(1, 12)
    for a in [(1,), (2,), (3,)]:
        alpha = MultiIndex(a)
        f = LatticeSequence.random(w, rng, margin=alpha.order + 1)
        g = LatticeSequence.random(w, rng, margin=alpha.order + 1)
        lhs = np.sum(f.values * forward_difference(g, alpha).sequence.values)
        rhs = (-1) ** alpha.order * np.sum(
            backward_difference(f, alpha).sequence.values * g.values)
        assert abs(lhs - rhs) < 1e-12


def test_dimension_mismatch_rejected():
    w = LatticeWindow(2, 3)
    f = LatticeSequence.zeros(w)
    with pytest.raises(DimensionMismatchError):
        forward_difference(f, MultiIndex((1,)))
    with pytest.raises(DimensionMismatchError):
        forward_dft(f, TorusGrid(1, 9))


def test_sequence_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    w = LatticeWindow(2, 3)
    f = LatticeSequence.random(w, rng)
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, f)
    back = read_sequence_csv(path)
    assert back.window.n == 2 and back.window.N == 3
    assert np.max(np.abs(back.values - f.values)) == 0.0


def test_sequence_csv_accepts_any_row_order(tmp_path):
    w = LatticeWindow(1, 2)
    f = LatticeSequence(w, np.arange(5, dtype=complex))
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, f)
    lines = path.read_text().splitlines()
    shuffled = [lines[0]] + lines[1:][::-1]
    path.write_text("\n".join(shuffled) + "\n")
    back = read_sequence_csv(path)
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("n,N,M", [(1, 8, 17), (1, 8, 19), (1, 8, 7), (1, 8, 3),
                                   (2, 3, 7), (2, 3, 9), (2, 3, 4), (3, 2, 5), (3, 2, 2)])
def test_transforms_match_the_direct_sums(n, N, M):
    # the dense sums stay here as the oracle; M < 2N+1 checks the aliasing sum
    from latticeops.core import _dft_matrix, phase_matrix

    w, g = LatticeWindow(n, N), TorusGrid(n, M)
    f = LatticeSequence.random(w, np.random.default_rng(M))
    F = forward_dft(f, g)
    assert np.max(np.abs(F.values - _dft_matrix(n, N, M) @ f.values)) < 1e-12
    if M >= 2 * N + 1:
        back = inverse_dft(F, w).values
        assert np.max(np.abs(back - g.weight * (phase_matrix(w, g) @ F.values))) < 1e-12
        assert np.max(np.abs(back - f.values)) < 1e-12


def test_cached_arrays_are_read_only():
    from latticeops.core import _dft_matrix, _grid_slots

    before = LatticeWindow(1, 4).points.copy()
    with pytest.raises(ValueError):
        LatticeWindow(1, 4).points += 1
    assert np.array_equal(LatticeWindow(1, 4).points, before)
    with pytest.raises(ValueError):
        TorusGrid(1, 9).nodes[0] = 0.5
    with pytest.raises(ValueError):
        LatticeWindow(1, 4).radial_weight[0] = 0.0
    with pytest.raises(ValueError):
        LatticeWindow(2, 4).axis[0] = 7
    with pytest.raises(ValueError):
        TorusGrid(2, 9).axis[0] = 0.5
    with pytest.raises(ValueError):
        _dft_matrix(1, 4, 9)[0, 0] = 0.0
    with pytest.raises(ValueError):
        _grid_slots(1, 4, 9)[0] = 1


def _largest_prime_factor(M):
    p, largest = 2, 1
    while M > 1:
        while M % p == 0:
            M, largest = M // p, p
        p += 1
    return largest


def test_index_grid_is_the_smallest_odd_size_from_2n_plus_3_with_factors_up_to_11():
    for N in range(1, 301):
        want = next(M for M in range(2 * N + 3, 4 * N + 10)
                    if M % 2 and _largest_prime_factor(M) <= 11)
        for n in (1, 2):
            g = index_grid(LatticeWindow(n, N))
            assert (g.n, g.M) == (n, want), N
    assert [index_grid(LatticeWindow(1, N)).M for N in (8, 32, 128, 256)] == [21, 75, 275, 525]


def test_default_grid_stays_2n_plus_3():
    # invft reads N = (M - 3) / 2 back from a default grid, so the rule
    # must stay one-to-one
    assert [default_grid(LatticeWindow(1, N)).M for N in range(1, 301)] == \
        [2 * N + 3 for N in range(1, 301)]


def test_rows_in_places_a_window_inside_a_larger_one():
    for n, N, big in [(1, 3, 5), (2, 2, 4), (3, 1, 2), (2, 3, 3)]:
        small, large = LatticeWindow(n, N), LatticeWindow(n, big)
        rows = small.rows_in(large)
        assert np.array_equal(large.points[rows], small.points)
        assert np.all(np.diff(rows) > 0)


def _shell_sups_loop(w, values, mask):
    """The per-shell sups one shell at a time: the shells under the mask,
    the sup on each and its first row (np.argmax's)."""
    labels = np.floor(np.log2(w.radial_weight)).astype(int)
    shells = sorted(set(labels[mask]))
    sups, rows = [], []
    for j in shells:
        idx = np.flatnonzero((labels == j) & mask)
        best = int(idx[np.argmax(values[idx])])
        sups.append(float(values[best]))
        rows.append(best)
    return shells, sups, rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (1, 7), (1, 40), (2, 1), (2, 5), (3, 2)]), st.data())
def test_shell_sups_match_the_loop_over_shells(size, data):
    # few distinct values give ties; a mask may be empty or drop whole
    # shells, and the values may hold infinities
    n, N = size
    w = LatticeWindow(n, N)
    pick = st.sampled_from([-np.inf, -2.0, -0.5, 0.0, 0.5, 2.0, np.inf])
    values = np.array(data.draw(st.lists(pick, min_size=w.size, max_size=w.size)))
    labels = w.shell_labels()
    dropped = data.draw(st.sets(st.sampled_from(sorted(set(labels.tolist())))))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=w.size, max_size=w.size)))
    mask &= ~np.isin(labels, list(dropped))
    got, want = w.shell_sups(values, mask), _shell_sups_loop(w, values, mask)
    assert got == want
    assert [type(j) for j in got[0]] == [type(j) for j in want[0]]


def test_shell_sups_read_a_nan_as_argmax_does():
    w = LatticeWindow(1, 8)
    values = np.arange(w.size, dtype=float)
    values[[3, 5]] = np.nan
    mask = np.ones(w.size, dtype=bool)
    got, want = w.shell_sups(values, mask), _shell_sups_loop(w, values, mask)
    assert got[0] == want[0] and got[2] == want[2]
    assert np.array_equal(got[1], want[1], equal_nan=True)
