"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _recorder(monkeypatch, name, keep):
    """Record keep(args, kwargs) of every call to np.linalg.<name>."""
    calls, original = [], getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        calls.append(keep(a, kwargs))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape and compute_uv of every np.linalg.svd call."""
    return _recorder(monkeypatch, "svd", lambda a, kw: (np.shape(a), kw.get("compute_uv", True)))


@pytest.fixture
def solve_shapes(monkeypatch):
    """The shape of the matrix of every np.linalg.solve call."""
    return _recorder(monkeypatch, "solve", lambda a, kw: np.shape(a))


@pytest.fixture(scope="session")
def same_evidence():
    """A check that two lists of ``WindowEvidence`` agree: equal counts,
    routes and blocks, lower bounds within 1e-9 relative and gaps within
    1e-5.  A deflated gap's denominator is the null Ritz value where the
    turns stopped, some 1e-10 of the largest singular value, which moves
    by up to 1e-6 of itself when the parametrix moves at roundoff."""
    def close(a, b, rel):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))

    def check(got, want):
        assert len(got) == len(want)
        for e, f in zip(got, want):
            assert (e.N, e.route, e.raw_null_count, e.dim_ker, e.dim_coker, e.blocks,
                    e.largest_block) == (f.N, f.route, f.raw_null_count, f.dim_ker,
                                         f.dim_coker, f.blocks, f.largest_block)
            assert close(e.gap, f.gap, 1e-5), (e, f)
            assert (e.lower_bound is None) == (f.lower_bound is None), (e, f)
            assert e.lower_bound is None or close(e.lower_bound, f.lower_bound, 1e-9), (e, f)
    return check
