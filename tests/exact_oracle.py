"""Exact oracle for the transformed double-integrator closed loop.

F(h) = [[1, h], [0, 1]], G(h) = [[h^2 / 2], [h]], the transform
T = [[mu2 - mu1, -(mu2 + mu1)], [0, 2]] and the gain K = [k1, k2] T^-1 are
rational in the floats that define them (h, lambda, mu1, mu2, k1, k2), so
M = T^-1 (F - lambda G K) T is formed here in Fractions, without rounding.
sigma_max(M) < 1 exactly when I - M^T M is positive definite, that is when
its trace and its determinant are both positive.
"""

from fractions import Fraction


def _product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _inverse(A):
    (a, b), (c, d) = A
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def design_matrices(dsn):
    """Exact (T, K) of a GainDesign, built from its four numbers."""
    mu1, mu2, k1, k2 = (Fraction(v) for v in (dsn.mu1, dsn.mu2, dsn.k1, dsn.k2))
    T = [[mu2 - mu1, -(mu2 + mu1)], [Fraction(0), Fraction(2)]]
    return T, _product([[k1, k2]], _inverse(T))


def plant_matrices(h):
    """Exact zero-order-hold pair (F(h), G(h)) of the double integrator."""
    h = Fraction(h)
    return [[Fraction(1), h], [Fraction(0), Fraction(1)]], [[h * h / 2], [h]]


def closed_loop(dsn, h, lam):
    """Exact M = T^-1 (F(h) - lambda G(h) K) T for a real lambda."""
    T, K = design_matrices(dsn)
    F, G = plant_matrices(h)
    lam = Fraction(lam)
    GK = _product(G, K)
    S = [[f - lam * gk for f, gk in zip(frow, gkrow)] for frow, gkrow in zip(F, GK)]
    return _product(_product(_inverse(T), S), T)


def contraction_gap(dsn, h, lam):
    """Exact (trace, determinant) of I - M^T M at (h, lambda)."""
    M = closed_loop(dsn, h, lam)
    MtM = _product([list(col) for col in zip(*M)], M)
    (a, b), (c, d) = [[int(i == j) - MtM[i][j] for j in range(2)] for i in range(2)]
    return a + d, a * d - b * c


def contracts(dsn, h, lam) -> bool:
    """sigma_max(M) < 1 at (h, lambda), decided exactly."""
    trace, det = contraction_gap(dsn, h, lam)
    return trace > 0 and det > 0
