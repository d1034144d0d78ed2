"""Closed-form gain design for sampled-data double-integrator consensus.

The design problem is parameterized by the largest admissible sampling
interval ``hbar`` and a band [lambda2, lambdaN] containing every nonzero
Laplacian eigenvalue of the admissible topologies.  A 2x2 similarity
transform T(mu1, mu2) turns the closed-loop family into matrices whose
row/column sums stay below one exactly when the transformed gains (k1, k2)
satisfy six strict inequalities; this module computes the inequality limits,
decides feasibility, and picks the design (mu1, mu2, k1, k2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DesignSpec",
    "InequalityLimits",
    "GainDesign",
    "transform_matrix",
    "limits",
    "is_feasible",
    "abstract_consistency",
    "consistency_witness",
    "design",
    "check_gain_inequalities",
]


@dataclass(frozen=True)
class DesignSpec:
    """Maximum sampling interval and the admissible eigenvalue band."""

    hbar: float
    lambda2: float
    lambdaN: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be positive and finite")
        if not (math.isfinite(self.lambda2) and math.isfinite(self.lambdaN)):
            raise ValueError("eigenvalue band must be finite")
        if not (0.0 < self.lambda2 <= self.lambdaN):
            raise ValueError("band must satisfy 0 < lambda2 <= lambdaN")


@dataclass(frozen=True)
class InequalityLimits:
    """The four positive limit values bounding (k1, k2, k2 - k1).

    The admissible region is 0 < k1 < a, c < k2 < b, 0 < k2 - k1 < d.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"limit {name} must be positive and finite")


def transform_matrix(mu1: float, mu2: float) -> np.ndarray:
    """Similarity transform T = [[mu2 - mu1, -(mu2 + mu1)], [0, 2]].

    Requires 0 < mu1 < mu2 so det T = 2 (mu2 - mu1) > 0.
    """
    _check_mu(mu1, mu2)
    return np.array([[mu2 - mu1, -(mu2 + mu1)], [0.0, 2.0]])


@dataclass(frozen=True)
class GainDesign:
    """The design (mu1, mu2, k1, k2).  T = transform_matrix(mu1, mu2) and the
    feedback row K = [k1, k2] T^-1 derive from it, as read-only arrays."""

    mu1: float
    mu2: float
    k1: float
    k2: float
    T: np.ndarray = field(init=False, compare=False, repr=False)
    K: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError("transformed gains k1 and k2 must be finite")
        T = transform_matrix(self.mu1, self.mu2)
        with np.errstate(over="ignore"):
            K = np.array([[self.k1, self.k2]]) @ np.linalg.inv(T)
        if not np.isfinite(K).all():
            raise ValueError(
                f"K = [k1, k2] T^-1 is not finite for mu1 = {self.mu1!r}, mu2 = {self.mu2!r}"
            )
        T.setflags(write=False)
        K.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "K", K)


def _check_mu(mu1: float, mu2: float) -> None:
    if not (math.isfinite(mu1) and math.isfinite(mu2) and 0.0 < mu1 < mu2):
        raise ValueError("transform parameters must satisfy 0 < mu1 < mu2")


def limits(spec: DesignSpec, mu1: float, mu2: float) -> InequalityLimits:
    """The four inequality limits for a spec and transform parameters."""
    _check_mu(mu1, mu2)
    h, l2, lN = spec.hbar, spec.lambda2, spec.lambdaN
    a = 2.0 * (mu2 - mu1) / (h * lN * (mu1 + mu2 + h))
    b = 4.0 / (lN * (h + max(h, 2.0 * mu1)))
    c = 4.0 / (l2 * (mu1 + mu2))
    d = 4.0 / (lN * (mu1 + mu2 + h))
    return InequalityLimits(a, b, c, d)


def is_feasible(spec: DesignSpec, mu1: float, mu2: float) -> bool:
    """Closed-form feasibility test for the gain inequalities.

    (mu1 + mu2) / (hbar + max(hbar, 2 mu1)) must strictly exceed the band
    ratio lambdaN / lambda2.  Equivalent to ``abstract_consistency`` applied
    to ``limits`` because a + d >= b always holds.
    """
    _check_mu(mu1, mu2)
    h = spec.hbar
    return (mu1 + mu2) / (h + max(h, 2.0 * mu1)) > spec.lambdaN / spec.lambda2


def abstract_consistency(a: float, b: float, c: float, d: float) -> bool:
    """Whether 0 < k1 < a, c < k2 < b, 0 < k2 - k1 < d admits a solution.

    Holds if and only if b > c and a + d > c.
    """
    InequalityLimits(a, b, c, d)  # the limits' own positivity rule
    return b > c and a + d > c


def consistency_witness(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """A (k1, k2) pair strictly inside the abstract inequality region.

    Case split on d >= c versus c > d; both branches place the free
    coordinate at the midpoint of its admissible interval.  Raises when the
    region is empty.
    """
    if not abstract_consistency(a, b, c, d):
        raise ValueError("inequalities are inconsistent, no witness exists")
    if d >= c:
        k1 = 0.5 * min(a, c)
        k2 = 0.5 * (c + min(d + k1, b))
    else:
        eps = 0.5 * min(a + d - c, d)
        dk = d - eps
        lo = c - dk
        hi = min(a, b - dk)
        k1 = 0.5 * (lo + hi)
        k2 = k1 + dk
    return k1, k2


def design(spec: DesignSpec) -> GainDesign:
    """Pick transform parameters and gains for a spec.

    mu1 = hbar / 2 and mu2 = -mu1 + 2 hbar lambdaN / lambda2 + 1, which is
    always feasible; then k2 - k1 is set to 0.9 d and k1 to the midpoint of
    its admissible interval.  With mu1 = hbar / 2 the limits satisfy
    a = b - d exactly, so the midpoint interval is empty whenever
    c > b - 0.1 d (thin feasibility margin, e.g. large hbar with a wide
    band); in that case the consistency witness supplies valid gains
    instead.  The six strict inequalities are always re-checked, never
    assumed.
    """
    mu1 = spec.hbar / 2.0
    mu2 = -mu1 + 2.0 * spec.hbar * spec.lambdaN / spec.lambda2 + 1.0
    lim = limits(spec, mu1, mu2)
    dk = 0.9 * lim.d
    k1 = 0.5 * (min(lim.a, lim.b - dk) + max(0.0, lim.c - dk))
    k2 = k1 + dk
    dsn = GainDesign(mu1, mu2, k1, k2)
    if check_gain_inequalities(spec, dsn):
        return dsn
    k1, k2 = consistency_witness(lim.a, lim.b, lim.c, lim.d)
    dsn = GainDesign(mu1, mu2, k1, k2)
    if not check_gain_inequalities(spec, dsn):
        raise RuntimeError("gain design failed its own inequality check")
    return dsn


def check_gain_inequalities(spec: DesignSpec, dsn: GainDesign) -> bool:
    """All six strict gain inequalities for the given spec and design."""
    lim = limits(spec, dsn.mu1, dsn.mu2)
    k1, k2 = dsn.k1, dsn.k2
    return (
        0.0 < k1 < lim.a
        and lim.c < k2 < lim.b
        and 0.0 < k2 - k1 < lim.d
    )
