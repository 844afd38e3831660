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
