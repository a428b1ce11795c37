"""Smooth cutoff machinery, Sobolev norms, and the dyadic time decomposition.

Every cutoff here is a fixed concrete choice (the standard exp(-1/u)-style
bump), so all downstream measurements are reproducible.  Supports are enforced
exactly: outside the stated interval the functions return hard zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..errors import DomainError, WindowingError, check_integer, check_real, real_array

__all__ = [
    "smoothstep",
    "CutoffSpec",
    "sobolev_norm",
    "PieceProfile",
    "dyadic_pieces",
]


def smoothstep(u) -> np.ndarray:
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    mid = (u > 0.0) & (u < 1.0)
    out = (u >= 1.0).astype(float)
    uc = np.clip(u, 1e-12, 1.0 - 1e-12)
    a = np.exp(-1.0 / uc)
    b = np.exp(-1.0 / (1.0 - uc))
    out = np.where(mid, a / (a + b), out)
    return out


def _rise(lam, lo: float, hi: float) -> np.ndarray:
    """smoothstep rescaled to rise from 0 at lo to 1 at hi."""
    return smoothstep((np.asarray(lam, dtype=float) - lo) / (hi - lo))


@dataclass(frozen=True)
class CutoffSpec:
    """The fixed cutoff family used by every experiment.

    eta: dyadic bump supported in [1/4, 1]; the dilates eta(2^-l lam) telescope
    to 1 for lam > 0.  eta_zero: 1 - sum_{l>=1} eta(2^-l lam), the low block.
    """

    eta: Callable[[np.ndarray], np.ndarray]
    eta_zero: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def standard(cls) -> "CutoffSpec":
        # g rises across [1/4, 1/2]; eta = g(lam) - g(lam/2) telescopes exactly
        def g(lam):
            return _rise(lam, 0.25, 0.5)

        def eta(lam):
            return g(lam) - g(np.asarray(lam, dtype=float) / 2.0)

        def eta_zero(lam):
            return 1.0 - g(np.asarray(lam, dtype=float) / 2.0)

        return cls(eta=eta, eta_zero=eta_zero)


def sobolev_norm(values: np.ndarray, spacing: float, s: float) -> float:
    """L^2-Sobolev norm of order s of a profile sampled on a uniform grid.

    Computed as the continuum-normalized DFT norm of (1 + tau^2)^{s/2} F-hat.
    The window must already contain the profile: samples at both edges have to
    be below 1e-12 or the periodization would contaminate the spectrum.
    """
    check_real(s, "Sobolev order", 0.0)
    check_real(spacing, "sample spacing", 0.0, strict=True)
    v = real_array(values, "profile sample")
    if v.ndim != 1 or v.size < 8:
        raise DomainError("need a 1-D profile with at least 8 samples")
    edge = max(abs(v[0]), abs(v[-1]))
    if edge > 1e-12:
        raise WindowingError(
            f"profile does not decay at the window edge: |F(edge)| = {edge:.3e}")
    fhat = np.fft.fft(v) * spacing / np.sqrt(2.0 * np.pi)
    tau = 2.0 * np.pi * np.fft.fftfreq(v.size, d=spacing)
    dtau = 2.0 * np.pi / (v.size * spacing)
    power = np.abs(fhat) ** 2
    live = power > 0.0
    if not live.any():
        return 0.0
    # the weight (1 + tau^2)^s alone overflows for s near 45 on a window of
    # a few thousand samples, so the summands are scaled in log space
    expo = s * np.log1p(tau[live] ** 2) + np.log(power[live])
    shift = float(expo.max())
    log_norm = 0.5 * (shift + np.log(np.sum(np.exp(expo - shift)) * dtau))
    if log_norm > np.log(np.finfo(float).max):
        raise DomainError(f"the Sobolev norm of order {s:g} exceeds the "
                          f"double range: log norm {log_norm:.6g}")
    return float(np.exp(log_norm))


@dataclass(frozen=True)
class PieceProfile:
    """One term of the dyadic cosine decomposition, as an evaluable profile.

    Evaluates sqrt(2/pi) * sum_i w_i a_i cos(s_i mu), where a_i packs the
    dyadic window against the cosine transform of the source profile.  The
    quadrature nodes s_i live in [max(0, 2^{l-2}), 2^l].
    """

    level: int
    nodes: np.ndarray
    weights: np.ndarray
    amplitudes: np.ndarray

    def __call__(self, mu) -> np.ndarray:
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        acc = (self.weights * self.amplitudes) @ np.cos(np.outer(self.nodes, mu))
        out = np.sqrt(2.0 / np.pi) * acc
        return out


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def dyadic_pieces(profile: Callable[[np.ndarray], np.ndarray],
                  cutoffs: CutoffSpec, n_levels: int,
                  ds: float = 0.05) -> List[PieceProfile]:
    """Split a profile supported in [1/4, 1] into dyadic cosine pieces.

    Piece l >= 1 windows the cosine transform by eta(2^-l s); piece 0 carries
    the low block eta_zero.  Summing the pieces reconstructs the profile by
    cosine inversion.  ds controls the time quadrature spacing; the default
    resolves arguments mu up to ~pi/(8 ds) ~ 8.
    """
    check_integer(n_levels, "n_levels", minimum=1)
    check_real(ds, "quadrature spacing", 0.0, strict=True)
    # support contract: the profile must live inside [1/4, 1]
    lam_probe = np.concatenate([np.linspace(0.0, 0.25, 200, endpoint=False),
                                np.linspace(1.0, 8.0, 400)[1:]])
    outside = np.max(np.abs(np.asarray(profile(lam_probe), dtype=float)))
    if outside > 1e-12:
        raise DomainError(
            f"profile must be supported in [1/4, 1]; found |F| = {outside:.3e} outside")

    # cosine transform of the profile on its support, high-resolution
    lam = np.linspace(0.25, 1.0, 4097)
    flam = np.asarray(profile(lam), dtype=float)
    wlam = _trapezoid_weights(lam.size, lam[1] - lam[0])

    def fhat_cos(s: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 / np.pi) * (np.cos(np.outer(s, lam)) @ (flam * wlam))

    pieces: List[PieceProfile] = []
    for level in range(n_levels + 1):
        hi = 2.0 ** level
        lo = 0.0 if level == 0 else hi / 4.0
        n = max(9, int(np.ceil((hi - lo) / ds)) + 1)
        s = np.linspace(lo, hi, n)
        w = _trapezoid_weights(n, s[1] - s[0])
        window = cutoffs.eta_zero(s) if level == 0 else cutoffs.eta(s / hi)
        pieces.append(PieceProfile(level=level, nodes=s, weights=w,
                                   amplitudes=window * fhat_cos(s)))
    return pieces
