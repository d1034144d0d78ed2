"""Contraction certificates for the transformed sampled-data closed loop.

A gain K with transform T is certified when the largest singular value of
T^-1 (F(h) - lambda G(h) K) T stays strictly below one over the whole
(h, lambda) region of interest.  ``certify_gain`` decides which of the two
certification methods applies; every command and the simulator go through
it:

* ``certify_double_integrator`` checks the six closed-form gain
  inequalities plus the sign pattern of the transformed entries at the
  extremal corner.  When they hold, every (h, lambda) in
  (0, hbar] x [lambda2, lambdaN] is covered; this is the sound certifier.

* ``certify_grid`` samples the region on a finite grid.  A sample at or
  above one refutes; a maximum at most 1 - guard reports "certified" in the
  sampled sense; anything else is inconclusive.  A finite grid cannot prove
  the universal statement, hence the explicit inconclusive verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .synthesis import DesignSpec, GainDesign, check_gain_inequalities

__all__ = [
    "PlantModel",
    "DiscretizedPlant",
    "ContractionCertificate",
    "closed_loop_matrix",
    "transformed_entries",
    "certify_double_integrator",
    "certify_grid",
    "certify_gain",
    "network_contraction",
]

DOUBLE_INTEGRATOR = "double-integrator"
GENERAL = "general"

_DI_A = np.array([[0.0, 1.0], [0.0, 0.0]])
_DI_B = np.array([[0.0], [1.0]])

# default confirmation grid of the exact certificate (it only feeds the
# reported worst sample) and default sample grid of the grid certificate
_CONFIRM_GRID = (64, 64)
_SAMPLE_GRID = (200, 200)


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

    @classmethod
    def double_integrator(cls) -> "PlantModel":
        return cls(_DI_A, _DI_B, DOUBLE_INTEGRATOR)

    @classmethod
    def general(cls, A, B) -> "PlantModel":
        return cls(A, B, GENERAL)

    def discretize(self, h: float) -> "DiscretizedPlant":
        """Exact zero-order-hold pair (F(h), G(h)).

        The double integrator uses its closed form ([[1, h], [0, 1]] and
        [[h^2/2], [h]], exact up to rounding); general plants go through the
        matrix exponential.
        """
        h = float(h)
        if not (math.isfinite(h) and h >= 0.0):
            raise ValueError("h must be finite and nonnegative")
        if self.kind == DOUBLE_INTEGRATOR:
            F = np.array([[1.0, h], [0.0, 1.0]])
            G = np.array([[0.5 * h * h], [h]])
        else:
            F = numerics.expm(self.A, h)
            G = numerics.expm_integral(self.A, self.B, h)
        return DiscretizedPlant(F, G, h)

    def discretize_many(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``discretize``: (F, G) for every interval of the array ``h``.

        Returns arrays of shape h.shape + (n, n) and h.shape + (n, m) with
        the same values as one ``discretize`` call per interval; the double
        integrator evaluates its closed form on the whole array at once.
        """
        h = np.asarray(h, dtype=float)
        if not (np.all(np.isfinite(h)) and np.all(h >= 0.0)):
            raise ValueError("h must be finite and nonnegative")
        if self.kind == DOUBLE_INTEGRATOR:
            F = np.zeros(h.shape + (2, 2))
            F[..., 0, 0] = F[..., 1, 1] = 1.0
            F[..., 0, 1] = h
            G = np.stack([0.5 * h * h, h], axis=-1)[..., None]
            return F, G
        pairs = [self.discretize(v) for v in h.ravel()]
        F = np.array([p.F for p in pairs]).reshape(h.shape + (self.n, self.n))
        G = np.array([p.G for p in pairs]).reshape(h.shape + (self.n, self.m))
        return F, G


@dataclass(frozen=True)
class DiscretizedPlant:
    """Zero-order-hold discretization (F, G) at a specific interval h."""

    F: np.ndarray
    G: np.ndarray
    h: float


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of a contraction check over an (h, lambda) region.

    ``worst_sigma`` is the largest sampled singular value and
    ``worst_point`` the (h, lambda) where it occurred.  "certified" implies
    worst_sigma < 1; "refuted" records a concrete point at or above 1.
    """

    verdict: str
    worst_sigma: float
    worst_point: tuple[float, complex]
    method: str
    grid_shape: tuple[int, int] | None = None
    guard: float | None = None
    notes: str = ""

    def __post_init__(self):
        if self.verdict not in ("certified", "refuted", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "certified" and not self.worst_sigma < 1.0:
            raise ValueError("certified verdict requires worst_sigma < 1")
        if self.verdict == "refuted" and not self.worst_sigma >= 1.0:
            raise ValueError("refuted verdict requires a witness with sigma >= 1")

    @property
    def margin(self) -> float:
        return 1.0 - self.worst_sigma

    def to_dict(self) -> dict:
        lam = complex(self.worst_point[1])
        return {
            "verdict": self.verdict,
            "worst_sigma": self.worst_sigma,
            "margin": self.margin,
            "worst_h": self.worst_point[0],
            "worst_lambda": [lam.real, lam.imag],
            "method": self.method,
            "grid_shape": list(self.grid_shape) if self.grid_shape else None,
            "guard": self.guard,
            "notes": self.notes,
        }


def closed_loop_matrix(plant: PlantModel, K, lam, h: float) -> np.ndarray:
    """Sampled closed-loop map F(h) - lambda G(h) K for one eigenvalue lambda.

    Complex for complex lambda (eigenvalues of directed topologies).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    dp = plant.discretize(h)
    return dp.F - lam * (dp.G @ K)


def transformed_entries(h: float, lam: float, dsn: GainDesign) -> np.ndarray:
    """Closed-form transformed closed-loop matrix for the double integrator.

    Equals T^-1 (F(h) - lambda G(h) K) T entrywise; the off-diagonal
    structure (top-right sign, strictly negative bottom-left) is what the
    exact certificate reasons about.
    """
    if not (h > 0.0 and lam > 0.0):
        raise ValueError("h and lambda must be positive")
    mu1, mu2, k1, k2 = dsn.mu1, dsn.mu2, dsn.k1, dsn.k2
    gamma = (mu1 + mu2 + h) / (mu2 - mu1)
    return np.array(
        [
            [1.0 - h * lam * gamma * k1 / 2.0, 2.0 * h / (mu2 - mu1) - h * lam * gamma * k2 / 2.0],
            [-h * lam * k1 / 2.0, 1.0 - h * lam * k2 / 2.0],
        ]
    )


def _transformed_grid_sigmas(
    plant: PlantModel,
    K: np.ndarray,
    T: np.ndarray,
    h_samples: np.ndarray,
    lam_samples: np.ndarray,
) -> np.ndarray:
    """Max singular values of T^-1 (F - lambda G K) T on a sample grid."""
    Tinv = np.linalg.inv(T)
    out = np.empty((len(h_samples), len(lam_samples)))
    lam = np.asarray(lam_samples)
    for i, h in enumerate(h_samples):
        dp = plant.discretize(h)
        base = Tinv @ dp.F @ T
        coupling = Tinv @ (dp.G @ K) @ T
        stack = base[None, :, :] - lam[:, None, None] * coupling[None, :, :]
        out[i] = numerics.max_singular_values(stack)
    return out


def _sign_conditions(spec: DesignSpec, dsn: GainDesign) -> bool:
    """Sign pattern of the transformed entries at the extremal parameters.

    Diagonal entries must stay positive at (hbar, lambdaN), where they are
    smallest; the top-right entry must be negative everywhere, and its worst
    case is the h -> 0 limit at lambda2, checked here in scaled form.
    """
    corner = transformed_entries(spec.hbar, spec.lambdaN, dsn)
    if not (corner[0, 0] > 0.0 and corner[1, 1] > 0.0 and corner[0, 1] < 0.0):
        return False
    # top-right entry divided by h, in the h -> 0 limit at lambda2
    gamma0 = (dsn.mu1 + dsn.mu2) / (dsn.mu2 - dsn.mu1)
    s12_rate = 2.0 / (dsn.mu2 - dsn.mu1) - spec.lambda2 * gamma0 * dsn.k2 / 2.0
    if not s12_rate < 0.0:
        return False
    # bottom-left entry is -h lambda k1 / 2, negative whenever k1 > 0
    return dsn.k1 > 0.0


def certify_double_integrator(
    spec: DesignSpec,
    dsn: GainDesign,
    confirm_grid: tuple[int, int] = _CONFIRM_GRID,
) -> ContractionCertificate:
    """Exact-inequality certificate for a double-integrator gain design.

    Certified when the six strict gain inequalities and the extremal sign
    conditions all hold, which covers every (h, lambda) in
    (0, hbar] x [lambda2, lambdaN] by monotonicity of the entries.  The
    confirmation grid only supplies the reported worst sample; the verdict
    does not depend on it unless the inequalities fail, in which case a
    sample at or above one downgrades to "refuted" and otherwise the result
    is "inconclusive".
    """
    plant = PlantModel.double_integrator()
    nh, nl = confirm_grid
    h_samples = spec.hbar * np.arange(1, nh + 1) / nh
    lam_samples = np.linspace(spec.lambda2, spec.lambdaN, max(nl, 2))
    sigmas = _transformed_grid_sigmas(plant, dsn.K, dsn.T, h_samples, lam_samples)
    i, j = np.unravel_index(int(np.argmax(sigmas)), sigmas.shape)
    worst = float(sigmas[i, j])
    point = (float(h_samples[i]), complex(lam_samples[j]))
    if check_gain_inequalities(spec, dsn) and _sign_conditions(spec, dsn):
        return ContractionCertificate(
            "certified", worst, point, "exact-inequality", (nh, len(lam_samples))
        )
    if worst >= 1.0:
        return ContractionCertificate(
            "refuted", worst, point, "exact-inequality", (nh, len(lam_samples)),
            notes="gain inequalities violated; grid sample at or above one",
        )
    return ContractionCertificate(
        "inconclusive", worst, point, "exact-inequality", (nh, len(lam_samples)),
        notes="gain inequalities violated; no grid sample reached one",
    )


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
    guard: float = 1e-6,
) -> ContractionCertificate:
    """Sampled contraction check over (0, hbar] x a lambda set.

    ``lambdas`` is either a (lo, hi) pair describing a real interval, which
    is sampled with the grid's second resolution, or an explicit iterable of
    (possibly complex) eigenvalues used as-is (fixed directed topologies).
    The h axis excludes zero, where the map is the identity by construction;
    the smallest sample is hbar / grid[0].
    """
    K = np.asarray(K, dtype=float)
    T = np.asarray(T, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    if T.shape != (plant.n, plant.n):
        raise ValueError("T must be square with the plant dimension")
    if abs(np.linalg.det(T)) < 1e-300:
        raise ValueError("T must be invertible")
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ValueError("hbar must be positive and finite")
    nh, nl = grid
    if nh < 1:
        raise ValueError("grid needs at least one h sample")
    interval = _real_interval(lambdas)
    if interval is not None:
        if nl < 2:
            raise ValueError("interval lambda sets need at least 2 samples")
        lam_samples = np.linspace(*interval, nl)
    else:
        lam_samples = np.asarray(list(lambdas), dtype=complex)
        if lam_samples.size == 0:
            raise ValueError("lambda set must not be empty")
    h_samples = hbar * np.arange(1, nh + 1) / nh
    sigmas = _transformed_grid_sigmas(plant, K, T, h_samples, lam_samples)
    i, j = np.unravel_index(int(np.argmax(sigmas)), sigmas.shape)
    worst = float(sigmas[i, j])
    point = (float(h_samples[i]), complex(lam_samples[j]))
    shape = (nh, len(lam_samples))
    if worst >= 1.0:
        verdict = "refuted"
    elif worst <= 1.0 - guard:
        verdict = "certified"
    else:
        verdict = "inconclusive"
    return ContractionCertificate(verdict, worst, point, "grid-sample", shape, guard)


def certify_gain(
    plant: PlantModel,
    hbar: float,
    lambdas,
    grid: tuple[int, int] | None = None,
    guard: float = 1e-6,
    *,
    design: GainDesign | None = None,
    gain=None,
    transform=None,
) -> ContractionCertificate:
    """The certificate that decides whether a gain may be used.

    Give either a gain ``design`` or a raw feedback ``gain`` K with its
    ``transform`` T (the identity when None).  A double-integrator design
    over a real interval ``lambdas`` = (lo, hi) gets the exact certificate,
    which covers every (h, lambda) in (0, hbar] x [lo, hi].  Everything
    else (raw gains, general plants, the explicit eigenvalues of a fixed
    digraph) gets the grid certificate of K under T.  ``grid`` is the
    exact certificate's confirmation grid or the grid certificate's sample
    grid; None keeps the method's default.  ``guard`` only applies to the
    grid certificate.
    """
    if (design is None) == (gain is None):
        raise ValueError("give exactly one of design or gain")
    if design is not None:
        interval = _real_interval(lambdas)
        if plant.kind == DOUBLE_INTEGRATOR and interval is not None:
            spec = DesignSpec(hbar, *interval)
            return certify_double_integrator(spec, design, grid or _CONFIRM_GRID)
        gain, transform = design.K, design.T
    if transform is None:
        transform = np.eye(plant.n)
    return certify_grid(plant, gain, transform, hbar, lambdas, grid or _SAMPLE_GRID, guard)


def network_contraction(plant: PlantModel, K, T, reduced_lap, h: float) -> float:
    """Largest singular value of the full transformed network step matrix.

    Assembles (I kron T^-1) (I kron F(h) - Lbar kron G(h) K) (I kron T)
    explicitly.  For symmetric Lbar this equals the maximum over the
    eigenvalues lambda_i of the per-mode value, which is what the grid
    certifiers sample.
    """
    K = np.asarray(K, dtype=float)
    T = np.asarray(T, dtype=float)
    lbar = np.asarray(reduced_lap, dtype=float)
    if lbar.ndim != 2 or lbar.shape[0] != lbar.shape[1]:
        raise ValueError("reduced Laplacian must be square")
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    dp = plant.discretize(h)
    n_modes = lbar.shape[0]
    eye = np.eye(n_modes)
    phi = np.kron(eye, dp.F) - np.kron(lbar, dp.G @ K)
    Tinv = np.linalg.inv(T)
    phi_hat = np.kron(eye, Tinv) @ phi @ np.kron(eye, T)
    return numerics.max_singular_value(phi_hat)
