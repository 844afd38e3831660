"""Discrete Bessel scale: weights (1+|k|^2)^(s/2), Sobolev norms, and
spectral surrogates for the compact inclusions between the spaces.

Everything here is an exact diagonal multiplier on window values; no
quadrature is involved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import LatticeSequence, LatticeWindow


def bessel_weights(s: float, window: LatticeWindow) -> np.ndarray:
    k2 = np.sum(window.points.astype(float) ** 2, axis=1)
    return np.power(1.0 + k2, s / 2.0)


def bessel_apply(s: float, f: LatticeSequence) -> LatticeSequence:
    """(J_s f)(k) = (1+|k|^2)^(s/2) f(k), exact."""
    return LatticeSequence(f.window, bessel_weights(s, f.window) * f.values)


def sobolev_norm(s: float, u: LatticeSequence) -> float:
    """||u||_{s,2} = l^2 norm of J_s u over the window.

    The weight (1+|k|^2)^{s/2} is the one under which the embedding
    H^{t,2} into H^{s,2} (s <= t) has constant 1 and the graph norm of an
    elliptic order-m operator is equivalent to ||.||_{m,2}; J_t is then an
    isometry of H^{s+t,2} onto H^{s,2}.
    """
    return bessel_apply(s, u).norm()


@dataclass
class EmbeddingReport:
    s: float
    t: float
    max_ratio: float
    ratios: list
    passed: bool


def embedding_check(s: float, t: float, samples) -> EmbeddingReport:
    """Verify ||u||_{s,2} <= ||u||_{t,2} for s <= t on every sample (C = 1)."""
    if s > t:
        raise ValueError(f"embedding requires s <= t, got s={s}, t={t}")
    ratios = []
    for u in samples:
        denom = sobolev_norm(t, u)
        if denom == 0.0:
            continue
        ratios.append(sobolev_norm(s, u) / denom)
    max_ratio = max(ratios, default=0.0)
    return EmbeddingReport(s, t, max_ratio, ratios, max_ratio <= 1.0 + 1e-12)


@dataclass
class SpectrumReport:
    description: str
    windows: list
    singular_values: list  # one descending array per window
    fit_exponent: float

    to_dict = asdict

    def count_below(self, threshold: float) -> list:
        return [int(np.sum(sv < threshold)) for sv in self.singular_values]

    def fraction_below(self, threshold: float) -> list:
        return [float(np.mean(sv < threshold)) for sv in self.singular_values]


def _tail_fit_exponent(sv: np.ndarray) -> float:
    """Slope of log s_j vs log j over the tail half of the spectrum."""
    P = sv.shape[0]
    j = np.arange(1, P + 1)
    lo = max(2, P // 4)
    mask = (j >= lo) & (sv > 0)
    lx = np.log(j[mask])
    ly = np.log(sv[mask])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0])


def _multiplier_spectrum(exponent: float, n: int, windows) -> list:
    out = []
    for N in windows:
        w = LatticeWindow(n, N)
        vals = bessel_weights(exponent, w)
        out.append(np.sort(vals)[::-1])
    return out


def inclusion_spectrum(s: float, t: float, windows, n: int = 1) -> SpectrumReport:
    """Singular values of the inclusion H^{t,2} -> H^{s,2}: the diagonal
    multiplier (1+|k|^2)^{(s-t)/2}, sorted per window."""
    if s >= t:
        raise ValueError(f"compact inclusion requires s < t, got s={s}, t={t}")
    svs = _multiplier_spectrum(s - t, n, windows)
    return SpectrumReport(
        f"inclusion H^{{{t},2}} -> H^{{{s},2}}, n={n}",
        list(windows), svs, _tail_fit_exponent(svs[-1]))


def smoothing_spectrum(eps: float, windows, n: int = 1) -> SpectrumReport:
    """Singular values of the decaying multiplier (1+|k|^2)^(-eps/2)."""
    if eps <= 0:
        raise ValueError(f"smoothing order must be positive, got {eps}")
    svs = _multiplier_spectrum(-eps, n, windows)
    return SpectrumReport(
        f"smoothing multiplier of order -{eps}, n={n}",
        list(windows), svs, _tail_fit_exponent(svs[-1]))
