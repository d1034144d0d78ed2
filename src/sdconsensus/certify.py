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
lambda, hence convex in lambda over the whole complex plane: over a finite
set it peaks at a vertex of the set's convex hull.  A set of real
eigenvalues, in any container, is therefore its band [min, max], evaluated
at those two ends only: the reported maximum is that of the full (nh, nl)
grid, whose lambda axis ends at exactly them.  A set with a non-real value
(a fixed digraph's) is folded onto Im lambda >= 0, which is exact: F, G, K
and T are real, so M(conj lambda) = conj M(lambda) has the same sigma.  It
is evaluated at the members on the upper convex hull of its fold only, and
its report, grid_shape (nh, len(set)) included, is that of every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# Shewchuk's relative bound on the rounding error of a 2-D orientation
# (Discrete Comput. Geom. 18, 1997), and a few subnormal units for underflow
_ORIENT_ERR, _ORIENT_TINY = (3.0 + 16.0 * 2.0**-53) * 2.0**-53, 2.0**-1070


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


class _GainPair(NamedTuple):
    """A gain checked against its plant: K, its transform T and T^-1."""

    K: np.ndarray
    T: np.ndarray
    Tinv: np.ndarray


def _gain_pair(plant: PlantModel, *, design=None, gain=None, transform=None):
    """The checked record (K, T, T^-1) a request uses: the one rule for a
    gain, and the one owner of T^-1.  Exactly one of a ``design``, its own
    record (``GainDesign`` inverts T to derive K), or a ``gain``: a record
    this rule built, passed through, or a raw K whose ``transform`` T (the
    identity when None) the T check inverts once.  A design serves the
    double-integrator plant only; this is the one place that says so."""
    if (design is None) == (gain is None):
        raise ValueError("exactly one of design or gain must be set")
    if design is not None:
        if plant.kind != DOUBLE_INTEGRATOR:
            raise ValueError(
                "design synthesis only covers the double-integrator plant; "
                "give an explicit gain section for general dynamics"
            )
        if transform is not None:
            raise ValueError("transform goes with a raw gain; a design carries its own")
        return design
    if isinstance(gain, _GainPair) and transform is None:  # a record this rule built
        return gain
    K = np.array(gain, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    if not np.isfinite(K).all():
        raise ValueError("K must have finite entries")
    T = np.eye(plant.n) if transform is None else np.array(transform, dtype=float)
    Tinv = T if transform is None else _transform_inverse(T, plant.n)
    for M in (K, T, Tinv):  # read-only copies: T^-1 stays the inverse of T
        M.setflags(write=False)
    return _GainPair(K, T, Tinv)


def _transform_inverse(T: np.ndarray, n: int) -> np.ndarray:
    """T^-1 of a transform T of an n-state plant, checked: the one T check."""
    if T.shape != (n, n):
        raise ValueError("T must be square with the plant dimension")
    if not np.isfinite(T).all():
        raise ValueError("T must have finite entries")
    # a finite inverse, which every use of T needs: unlike a determinant, the
    # test does not depend on T's units (inv(c T) = inv(T) / c)
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:  # an exactly singular T
        raise ValueError("T must be invertible") from None
    if not np.isfinite(Tinv).all():
        raise ValueError("T must be invertible")
    return Tinv


def _worst_sample(
    plant: PlantModel, pair: GainDesign | _GainPair, hbar: float, nh: int, lam_samples: np.ndarray
) -> tuple[float, tuple[float, complex]]:
    """Largest singular value of T^-1 (F - lambda G K) T on the sample grid
    h = hbar / nh, ..., hbar by ``lam_samples``, and the (h, lambda) where it
    occurs (the first in row-major order on ties).

    A real band comes in as its two ends only: by convexity in lambda they
    carry the maximum of every h row.  The (h, lambda) stack is evaluated in
    chunks of whole h rows holding at most ``_STACK_CAP`` matrices.
    """
    if not math.isfinite(hbar * nh):
        raise ValueError(f"hbar = {hbar!r} is too large for {nh} h samples: hbar * {nh} overflows")
    h_samples = hbar * np.arange(1, nh + 1) / nh
    # sigma(M) = s sigma(M / s) exactly for a power of two s: one that brings
    # K below 2^512 keeps G K from overflowing, and is 1 for smaller gains
    s = math.ldexp(1.0, max(0, math.frexp(float(np.abs(pair.K).max()))[1] - 512))
    lam = lam_samples[:, None, None]
    sigmas = np.empty((nh, len(lam_samples)))
    rows = max(1, _STACK_CAP // len(lam_samples))
    # a huge h or T still overflows to an inf or nan sigma, which the verdict
    # reads as refuted or inconclusive, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        F, G = plant.discretize(h_samples)
        base = (pair.Tinv @ (F / s) @ pair.T)[:, None]
        coupling = (pair.Tinv @ (G @ (pair.K / s)) @ pair.T)[:, None]
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
    ends = _lambda_samples((spec.lambda2, spec.lambdaN))
    worst, point = _worst_sample(PlantModel.double_integrator(), dsn, spec.hbar, nh, ends)
    passed = check_gain_inequalities(spec, dsn)
    reached = "grid sample at or above one" if worst >= 1.0 else "no grid sample reached one"
    notes = "" if passed else f"gain inequalities violated; {reached}"
    return ContractionCertificate(passed, worst, point, "exact-inequality", (nh, nl), notes=notes)


def _lambda_samples(lambdas) -> np.ndarray:
    """The lambdas a certificate reads for a non-empty, finite lambda set:
    real values, in any container, give their band's ends [min, max] (they
    carry every h row's maximum), and a set with a non-real value is kept
    whole (``certify_grid`` evaluates its ``_fold_hull`` members)."""
    values = list(lambdas)
    lam = np.asarray(values, dtype=complex)
    if lam.size == 0:
        raise ValueError("lambda set must not be empty")
    finite = np.isfinite(lam)
    if not finite.all():
        raise ValueError(f"lambda values must be finite, got {values[int(np.argmin(finite))]}")
    if lam.imag.any():
        return lam
    return np.array([lam.real.min(), lam.real.max()])


def _fold_hull(lam: np.ndarray) -> np.ndarray:
    """Mask of the members of the complex set ``lam`` that carry every h row's
    maximum: the first member of each point on the upper convex hull of the
    fold (Re lambda, |Im lambda|), by Andrew's monotone chain, and member 0.
    A point is dropped only on an orientation beyond its rounding error
    bound (ties, nans, overflows and underflows keep it), so every vertex
    stays; member 0 stays because on a row where sigma is flat (a zero gain)
    the full grid reports it."""
    x, y = lam.real, np.abs(lam.imag)
    order = np.lexsort((y, x))  # stable: equal folds keep their input order
    chain = []
    for k, px, py in zip(order.tolist(), x[order].tolist(), y[order].tolist()):
        if chain and (px, py) == chain[-1][1:]:
            continue  # a later member of the point just added
        while len(chain) > 1:
            (_, ox, oy), (_, ax, ay) = chain[-2:]
            left, right = (ox - px) * (ay - py), (oy - py) * (ax - px)
            if not left - right > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_TINY:
                break
            chain.pop()  # a turns left: it lies below the chord from o to p
        chain.append((k, px, py))
    keep = np.zeros(len(lam), dtype=bool)
    keep[[0] + [k for k, _, _ in chain]] = True
    return keep


def certify_grid(
    plant: PlantModel,
    K,
    T,
    hbar: float,
    lambdas,
    grid: tuple[int, int] = _SAMPLE_GRID,
) -> ContractionCertificate:
    """Sampled contraction check over (0, hbar] x a lambda set.

    ``lambdas`` is a non-empty set of finite eigenvalues.  Real values, in any
    container, are their band [min, max]: its two ends give the maximum of
    the full grid with ``grid[1]`` samples from min to max, so ``grid[1]``
    is only validated (at least 2) and reported in ``grid_shape``.  A set
    with a non-real value (fixed digraphs) is certified over every member,
    with ``grid_shape`` (grid[0], len(lambdas)); by convexity over C and
    the conjugate fold, only the members that ``_fold_hull`` keeps are
    evaluated, and the worst sigma and point are the full grid's (the first
    in row-major order on ties).  The h axis excludes zero, where the map is
    the identity; the smallest sample is hbar / grid[0].
    """
    return _certify(plant, hbar, lambdas, _gain_pair(plant, gain=K, transform=T), grid=grid)


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
    ``_gain_pair``, the rule ``SimulationConfig`` uses too.  A design is a
    double-integrator design, and a ValueError refuses it for any other
    plant.  A design over real lambdas, in any container, gets the exact
    certificate, which covers every (h, lambda) in (0, hbar] x [min, max].
    A raw gain, or a set with a non-real value, gets the 200x200 grid
    certificate of K under T.  A gain, its plant, hbar and lambda set
    therefore have one certificate, whoever asks.
    """
    pair = _gain_pair(plant, design=design, gain=gain, transform=transform)
    return _certify(plant, hbar, lambdas, pair)


def _certify(plant, hbar, lambdas, pair, grid=_SAMPLE_GRID):
    """``certify_gain``'s certificate of a checked record ``pair``, exact for
    a ``GainDesign`` over real lambdas, and ``certify_grid``'s with a ``grid``."""
    lam_samples = _lambda_samples(lambdas)  # once: an iterator is read once
    if isinstance(pair, GainDesign) and not np.iscomplexobj(lam_samples):
        return certify_double_integrator(DesignSpec(hbar, *lam_samples.tolist()), pair)
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ValueError("hbar must be positive and finite")
    nh, nl = grid
    if nh < 1:
        raise ValueError("grid needs at least one h sample")
    if np.iscomplexobj(lam_samples):
        nl = len(lam_samples)
        lam_samples = lam_samples[_fold_hull(lam_samples)]
    elif nl < 2:
        raise ValueError("a real lambda band needs at least 2 samples")
    worst, point = _worst_sample(plant, pair, hbar, nh, lam_samples)
    passed = worst <= 1.0 - _GUARD
    return ContractionCertificate(passed, worst, point, "grid-sample", (nh, nl), _GUARD)


def network_contraction(plant: PlantModel, K, T, reduced_lap, h: float) -> float:
    """Largest singular value of the full transformed network step matrix.

    Assembles (I kron T^-1) (I kron F(h) - Lbar kron G(h) K) (I kron T)
    explicitly, for any reduced Laplacian Lbar (``graph.reduced_laplacian``)
    of any digraph: this is the network sigma.  When Lbar is normal
    (symmetric graphs, directed rings) it equals the maximum over the
    eigenvalues lambda_i of the per-mode value, which the certificates bound
    (real eigenvalues through their band); otherwise it is at least that.
    """
    K, T, Tinv = _gain_pair(plant, gain=K, transform=T)
    lbar = np.asarray(reduced_lap, dtype=float)
    if lbar.ndim != 2 or lbar.shape[0] != lbar.shape[1]:
        raise ValueError("reduced Laplacian must be square")
    eye = np.eye(lbar.shape[0])
    # a huge h or gain overflows: the matrix then has an inf sigma, or a nan
    # one with a nan entry, as in max_singular_values, and numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        F, G = plant.discretize(h)
        phi = np.kron(eye, F) - np.kron(lbar, G @ K)
        phi_hat = np.kron(eye, Tinv) @ phi @ np.kron(eye, T)
    if not np.isfinite(phi_hat).all():
        return math.nan if np.isnan(phi_hat).any() else math.inf
    return numerics.max_singular_value(phi_hat)
