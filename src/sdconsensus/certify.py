"""Contraction certificates for the transformed sampled-data closed loop.

A gain K with transform T is certified when the largest singular value of
T^-1 (F(h) - lambda G(h) K) T stays strictly below one over the whole
(h, lambda) region of interest.  ``certify_gain`` decides which of the two
certification methods applies; every command and the simulator go through
it.  Each method records its worst sampled sigma and whether its own test
``passed``; one rule turns the two into the verdict: "refuted" when
worst_sigma >= 1, "certified" when the test passed and worst_sigma < 1,
"inconclusive" otherwise (a nan sigma included).

* ``certify_double_integrator``: the test is the paper's six strict gain
  inequalities (``synthesis.check_gain_inequalities``).  When they hold,
  every (h, lambda) in (0, hbar] x [lambda2, lambdaN] is covered; this is
  the sound certifier.  They also force the sign pattern its proof needs,
  so nothing else is checked (see ``certify_double_integrator``).

* ``certify_grid`` samples the region on a finite grid; the test is a
  sampled maximum at most 1 - 1e-6, which is "certified" in the sampled
  sense only.  A finite grid cannot prove the universal statement, hence
  the explicit inconclusive verdict between the guard and one.

For fixed h, sigma_max(M0 - lambda M1) is the norm of an affine function of
lambda, hence convex in lambda: over a real interval it peaks at one of the
two ends.  Both certifiers therefore evaluate a real band only at lambda2
and lambdaN, and the reported maximum equals that of the full (nh, nl) grid,
whose lambda axis starts and ends at exactly those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .synthesis import DesignSpec, GainDesign, check_gain_inequalities

__all__ = [
    "PlantModel",
    "ContractionCertificate",
    "certify_double_integrator",
    "certify_grid",
    "certify_gain",
    "network_contraction",
]

DOUBLE_INTEGRATOR = "double-integrator"
GENERAL = "general"

_DI_A = np.array([[0.0, 1.0], [0.0, 0.0]])
_DI_B = np.array([[0.0], [1.0]])

# fixed confirmation grid of the exact certificate (it only feeds the
# reported worst sample), default sample grid of the grid certificate and
# the distance below one that its sampled maximum needs for "certified"
_CONFIRM_GRID = (64, 64)
_SAMPLE_GRID = (200, 200)
_GUARD = 1e-6
# matrices per stacked singular value call: bounds the memory of a grid with
# many explicit eigenvalues
_STACK_CAP = 2**16


@dataclass(frozen=True)
class PlantModel:
    """Continuous-time linear agent dynamics xdot = A x + B u."""

    A: np.ndarray
    B: np.ndarray
    kind: str = GENERAL

    def __post_init__(self):
        A = np.array(self.A, dtype=float, copy=True)
        B = np.array(self.B, dtype=float, copy=True)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have as many rows as A")
        for name, M in (("A", A), ("B", B)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must have finite entries")
        if np.linalg.matrix_rank(B) != B.shape[1]:
            raise ValueError("B must have full column rank")
        if self.kind == DOUBLE_INTEGRATOR:
            if not (np.array_equal(A, _DI_A) and np.array_equal(B, _DI_B)):
                raise ValueError("double-integrator tag requires the canonical (A, B)")
        elif self.kind != GENERAL:
            raise ValueError(f"unknown plant kind {self.kind!r}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @staticmethod
    def double_integrator() -> "PlantModel":
        return _DOUBLE_INTEGRATOR_PLANT

    @classmethod
    def general(cls, A, B) -> "PlantModel":
        return cls(A, B, GENERAL)

    def discretize(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Exact zero-order-hold pair (F(h), G(h)) for an interval or an array
        of intervals ``h``.

        Returns arrays of shape h.shape + (n, n) and h.shape + (n, m).  The
        double integrator evaluates its closed form ([[1, h], [0, 1]] and
        [[h^2/2], [h]], exact up to rounding) on the whole array; general
        plants take both from one stacked exponential of [[A, B], [0, 0]] h.
        """
        h = np.asarray(h, dtype=float)
        if not (np.isfinite(h) & (h >= 0.0)).all():
            raise ValueError("h must be finite and nonnegative")
        if self.kind == DOUBLE_INTEGRATOR:
            F = np.zeros(h.shape + (2, 2))
            F[..., 0, 0] = F[..., 1, 1] = 1.0
            F[..., 0, 1] = h
            G = np.empty(h.shape + (2, 1))
            G[..., 0, 0] = 0.5 * h * h
            G[..., 1, 0] = h
            return F, G
        n = self.n
        E = numerics.expm(numerics._augmented(self.A, self.B), h)
        return E[..., :n, :n], E[..., :n, n:]


# built once: frozen with read-only arrays, so every caller can share it
_DOUBLE_INTEGRATOR_PLANT = PlantModel(_DI_A, _DI_B, DOUBLE_INTEGRATOR)


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of a contraction check over an (h, lambda) region.

    ``passed`` says whether the method's own test held (the six gain
    inequalities, or the grid's guard), ``worst_sigma`` is the largest
    sampled singular value and ``worst_point`` the (h, lambda) where it
    occurred.  The verdict follows from the two: "refuted" when
    worst_sigma >= 1, "certified" when the test passed and worst_sigma < 1,
    and "inconclusive" otherwise (a nan sigma included).
    """

    passed: bool
    worst_sigma: float
    worst_point: tuple[float, complex]
    method: str
    grid_shape: tuple[int, int]
    guard: float | None = None
    notes: str = ""

    @property
    def verdict(self) -> str:
        if self.worst_sigma >= 1.0:
            return "refuted"
        return "certified" if self.passed and self.worst_sigma < 1.0 else "inconclusive"

    @property
    def margin(self) -> float:
        return 1.0 - self.worst_sigma

    def to_dict(self) -> dict:
        """The report; a sigma or margin that is not finite reads null."""
        lam = complex(self.worst_point[1])
        finite = math.isfinite(self.worst_sigma)
        return {
            "verdict": self.verdict,
            "worst_sigma": self.worst_sigma if finite else None,
            "margin": self.margin if finite else None,
            "worst_h": self.worst_point[0],
            "worst_lambda": [lam.real, lam.imag],
            "method": self.method,
            "grid_shape": list(self.grid_shape),
            "guard": self.guard,
            "notes": self.notes,
        }


def _gain_pair(plant: PlantModel, *, design=None, gain=None, transform=None):
    """The (K, T) a request uses, checked against the plant: the one rule for
    a gain.  Exactly one of a ``design`` (its own K and T) or a raw ``gain``
    K, whose ``transform`` T is the identity when None."""
    if (design is None) == (gain is None):
        raise ValueError("exactly one of design or gain must be set")
    if design is not None:
        if transform is not None:
            raise ValueError("transform goes with a raw gain; a design carries its own")
        gain, transform = design.K, design.T
    K = np.asarray(gain, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    if not np.isfinite(K).all():
        raise ValueError("K must have finite entries")
    if transform is None:
        return K, np.eye(plant.n)
    T = np.asarray(transform, dtype=float)
    if T.shape != (plant.n, plant.n):
        raise ValueError("T must be square with the plant dimension")
    if not np.isfinite(T).all():
        raise ValueError("T must have finite entries")
    if abs(np.linalg.det(T)) < 1e-300:
        raise ValueError("T must be invertible")
    return K, T


def _worst_sample(
    plant: PlantModel,
    K: np.ndarray,
    T: np.ndarray,
    hbar: float,
    nh: int,
    lam_samples: np.ndarray,
) -> tuple[float, tuple[float, complex]]:
    """Largest singular value of T^-1 (F - lambda G K) T on the sample grid
    h = hbar / nh, ..., hbar by ``lam_samples``, and the (h, lambda) where it
    occurs (the first in row-major order on ties).

    A real band comes in as its two ends only: by convexity in lambda they
    carry the maximum of every h row.  The (h, lambda) stack is evaluated in
    chunks of whole h rows holding at most ``_STACK_CAP`` matrices.
    """
    h_samples = hbar * np.arange(1, nh + 1) / nh
    Tinv = np.linalg.inv(T)
    F, G = plant.discretize(h_samples)
    # sigma(M) = s sigma(M / s) exactly for a power of two s: one that brings
    # K below 2^512 keeps G K from overflowing, and is 1 for smaller gains
    s = math.ldexp(1.0, max(0, math.frexp(float(np.abs(K).max()))[1] - 512))
    base = (Tinv @ (F / s) @ T)[:, None]
    coupling = (Tinv @ (G @ (K / s)) @ T)[:, None]
    lam = lam_samples[:, None, None]
    sigmas = np.empty((nh, len(lam_samples)))
    rows = max(1, _STACK_CAP // len(lam_samples))
    for i in range(0, nh, rows):
        chunk = slice(i, i + rows)
        sigmas[chunk] = numerics.max_singular_values(base[chunk] - lam * coupling[chunk])
    i, j = np.unravel_index(int(np.argmax(sigmas)), sigmas.shape)
    return float(sigmas[i, j]) * s, (float(h_samples[i]), complex(lam_samples[j]))


def certify_double_integrator(spec: DesignSpec, dsn: GainDesign) -> ContractionCertificate:
    """Exact-inequality certificate for a double-integrator gain design.

    Certified exactly when the six strict gain inequalities hold.  Over
    (0, hbar] x [lambda2, lambdaN] the transformed closed loop
    T^-1 (F - lambda G K) T has a positive diagonal and a negative
    off-diagonal, so its absolute row and column sums are affine in
    (k1, k2) and the inequalities keep them below one.  The sign pattern
    itself follows from the inequalities (gamma = (mu1 + mu2 + h) /
    (mu2 - mu1)):

    * top-left 1 - h lambda gamma k1 / 2 is smallest at (hbar, lambdaN),
      where it is positive exactly when k1 < a;
    * bottom-right 1 - h lambda k2 / 2 is positive when
      k2 < 2 / (hbar lambdaN), which k2 < b implies;
    * top-right (2 h / (mu2 - mu1)) (1 - k2 lambda (mu1 + mu2 + h) / 4) is
      negative for every (h, lambda) when k2 > c, its h -> 0 limit at
      lambda2; that also covers the corner, where the limit is d < c;
    * bottom-left -h lambda k1 / 2 is negative when k1 > 0.

    A fixed 64x64 confirmation grid only supplies the reported worst
    sample (its h rows are evaluated at the two band ends, which carry each
    row's maximum).  The inequalities are the test behind ``passed``: when
    they hold every sample is below one and the verdict is "certified";
    when they fail, a sample at or above one refutes, else "inconclusive".
    """
    nh, nl = _CONFIRM_GRID
    ends = np.array([spec.lambda2, spec.lambdaN])
    worst, point = _worst_sample(PlantModel.double_integrator(), dsn.K, dsn.T, spec.hbar, nh, ends)
    passed = check_gain_inequalities(spec, dsn)
    reached = "grid sample at or above one" if worst >= 1.0 else "no grid sample reached one"
    notes = "" if passed else f"gain inequalities violated; {reached}"
    return ContractionCertificate(passed, worst, point, "exact-inequality", (nh, nl), notes=notes)


def _real_interval(lambdas) -> tuple[float, float] | None:
    """(lo, hi) when ``lambdas`` is a pair of real scalars, else None."""
    if (
        isinstance(lambdas, tuple)
        and len(lambdas) == 2
        and all(np.isscalar(v) and not np.iscomplexobj(np.asarray(v)) for v in lambdas)
    ):
        return float(lambdas[0]), float(lambdas[1])
    return None


def certify_grid(
    plant: PlantModel,
    K,
    T,
    hbar: float,
    lambdas,
    grid: tuple[int, int] = _SAMPLE_GRID,
) -> ContractionCertificate:
    """Sampled contraction check over (0, hbar] x a lambda set.

    ``lambdas`` is either a (lo, hi) pair describing a real interval or an
    explicit iterable of (possibly complex) eigenvalues used as-is (fixed
    directed topologies); every value must be finite.  A real interval is
    evaluated at its two ends only, which by convexity in lambda gives the
    maximum of the full grid with ``grid[1]`` samples from lo to hi.
    ``grid[1]`` is still validated (at least 2) and reported in
    ``grid_shape``; it has no other effect.  The h axis excludes zero,
    where the map is the identity by construction; the smallest sample is
    hbar / grid[0].
    """
    K, T = _gain_pair(plant, gain=K, transform=T)
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ValueError("hbar must be positive and finite")
    nh, nl = grid
    if nh < 1:
        raise ValueError("grid needs at least one h sample")
    interval = _real_interval(lambdas)
    if interval is not None:
        if nl < 2:
            raise ValueError("interval lambda sets need at least 2 samples")
        values, lam_samples = interval, np.array(interval)
    else:
        values = list(lambdas)
        lam_samples = np.asarray(values, dtype=complex)
        if lam_samples.size == 0:
            raise ValueError("lambda set must not be empty")
        nl = len(lam_samples)
    finite = np.isfinite(lam_samples)
    if not finite.all():
        raise ValueError(f"lambda values must be finite, got {values[int(np.argmin(finite))]}")
    worst, point = _worst_sample(plant, K, T, hbar, nh, lam_samples)
    passed = worst <= 1.0 - _GUARD
    return ContractionCertificate(passed, worst, point, "grid-sample", (nh, nl), _GUARD)


def certify_gain(
    plant: PlantModel,
    hbar: float,
    lambdas,
    *,
    design: GainDesign | None = None,
    gain=None,
    transform=None,
) -> ContractionCertificate:
    """The certificate that decides whether a gain may be used.

    The gain is exactly one of a ``design``, which carries its own T, or a
    raw ``gain`` K with an optional ``transform`` T (the identity when None):
    ``_gain_pair``, the rule ``SimulationConfig`` uses too.  A double-
    integrator design over a real band given as a tuple (lo, hi) gets the
    exact certificate, which covers every (h, lambda) in (0, hbar] x [lo, hi].
    Everything else gets the 200x200 grid certificate of K under T; a list
    [lo, hi] is two explicit eigenvalues, not a band.  A gain, its plant, hbar
    and lambda set therefore have one certificate, whoever asks.
    """
    K, T = _gain_pair(plant, design=design, gain=gain, transform=transform)
    interval = _real_interval(lambdas)
    if design is not None and plant.kind == DOUBLE_INTEGRATOR and interval is not None:
        return certify_double_integrator(DesignSpec(hbar, *interval), design)
    return certify_grid(plant, K, T, hbar, lambdas)


def network_contraction(plant: PlantModel, K, T, reduced_lap, h: float) -> float:
    """Largest singular value of the full transformed network step matrix.

    Assembles (I kron T^-1) (I kron F(h) - Lbar kron G(h) K) (I kron T)
    explicitly.  For symmetric Lbar this equals the maximum over the
    eigenvalues lambda_i of the per-mode value, which is what the grid
    certifiers sample.
    """
    K, T = _gain_pair(plant, gain=K, transform=T)
    lbar = np.asarray(reduced_lap, dtype=float)
    if lbar.ndim != 2 or lbar.shape[0] != lbar.shape[1]:
        raise ValueError("reduced Laplacian must be square")
    F, G = plant.discretize(h)
    n_modes = lbar.shape[0]
    eye = np.eye(n_modes)
    phi = np.kron(eye, F) - np.kron(lbar, G @ K)
    Tinv = np.linalg.inv(T)
    phi_hat = np.kron(eye, Tinv) @ phi @ np.kron(eye, T)
    return numerics.max_singular_value(phi_hat)
