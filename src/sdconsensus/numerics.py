"""Dense linear algebra for the small matrices this package works with.

Matrices are plain numpy arrays (float64, or complex128 where eigenvalues of
directed topologies enter).  The module provides exactly what the rest of the
toolkit needs: the matrix exponential and its input integral, the maximum
singular value, and Gershgorin-type upper bounds on it, including the block
variant and the complex split that reduces a real 2n x 2n rotation-structured
embedding to a pair of complex n x n problems.

Accuracy envelope: inputs here are tiny (n <= 8 on every hot path) and well
scaled; ``expm`` is intended for ||A h|| up to roughly 10.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expm",
    "expm_integral",
    "max_singular_value",
    "max_singular_values",
    "gershgorin_sv_bound",
    "block_gershgorin_sv_bound",
    "complex_block_split",
]


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _as_square(a, name: str = "matrix") -> np.ndarray:
    arr = _as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def expm(a, h) -> np.ndarray:
    """exp(A h) for square A and a nonnegative scale h, or a stack of them.

    ``h`` is one interval or an array of intervals; the result has shape
    h.shape + A.shape and comes from one scipy call (scaling-and-squaring
    with Pade approximants) on the whole stack.  Nilpotent inputs such as
    the double-integrator dynamics come out exact up to rounding because
    the series terminates.
    """
    import scipy.linalg  # only general plants get here; a cold import is ~0.4 s

    a = _as_square(a, "a")
    h = np.asarray(h, dtype=float)
    if not (np.isfinite(h) & (h >= 0.0)).all():
        raise ValueError("h must be finite and nonnegative")
    return scipy.linalg.expm(h[..., None, None] * a)


def _augmented(a, b) -> np.ndarray:
    """The block matrix [[A, B], [0, 0]]: its exponential scaled by h holds
    exp(A h) in the top-left block and (integral of exp(A tau) over [0, h]) B
    in the top-right block, whether or not A is invertible."""
    a = _as_square(a, "a")
    b = _as_matrix(b, "b")
    n, m = b.shape
    if n != a.shape[0]:
        raise ValueError(f"b must have {a.shape[0]} rows to match a, got shape {b.shape}")
    aug = np.zeros((n + m, n + m), dtype=np.result_type(a, b))
    aug[:n, :n] = a
    aug[:n, n:] = b
    return aug


def expm_integral(a, b, h) -> np.ndarray:
    """(integral of exp(A tau) over [0, h]) B, the top-right block of the
    augmented exponential.  Like ``expm``, ``h`` may be an array; the result
    has shape h.shape + B.shape.
    """
    aug = _augmented(a, b)
    n = np.shape(a)[0]
    return expm(aug, h)[..., :n, n:]


def max_singular_value(a) -> float:
    """Largest singular value of a real or complex matrix."""
    a = _as_matrix(a, "a")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def max_singular_values(stack) -> np.ndarray:
    """Largest singular value of every matrix in a (..., n, k) stack.

    2x2 stacks use the closed form derived from the Gram matrix invariants
    (trace = squared Frobenius norm, determinant = |det|^2); other shapes go
    through LAPACK.  The closed form squares the squared entries, so it
    overflows once they pass about 1e77; those matrices (finite, with a
    non-finite closed-form result) go through LAPACK as well.
    """
    arr = np.asarray(stack)
    if arr.ndim < 2:
        raise ValueError("stack must have at least 2 dimensions")
    if arr.shape[-2:] != (2, 2):
        return np.linalg.svd(arr, compute_uv=False)[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        f = (np.abs(arr) ** 2).sum(axis=(-2, -1))
        det = arr[..., 0, 0] * arr[..., 1, 1] - arr[..., 0, 1] * arr[..., 1, 0]
        g = np.abs(det) ** 2
        disc = np.sqrt(np.maximum(f * f - 4.0 * g, 0.0))
        sigma = np.sqrt(0.5 * (f + disc))
        bad = ~np.isfinite(sigma)
        if not bad.any():
            return sigma
        bad &= np.isfinite(arr).all(axis=(-2, -1))
        sigma = np.array(sigma)
        sigma[bad] = np.linalg.svd(arr[bad], compute_uv=False)[..., 0]
    return sigma[()]  # a single matrix gives a scalar, as above


def gershgorin_sv_bound(a) -> float:
    """Upper bound on the largest singular value from absolute row/column sums.

    Returns max over i of max(row-i absolute sum, column-i absolute sum),
    which always dominates ``max_singular_value``.
    """
    a = _as_square(a, "a")
    mags = np.abs(a)
    rows = mags.sum(axis=1)
    cols = mags.sum(axis=0)
    return float(np.maximum(rows, cols).max())


def block_gershgorin_sv_bound(blocks) -> float:
    """Block version of the singular value bound.

    ``blocks`` is an N x N grid (sequence of rows) of equal-shape square
    matrices.  Row/column sums of scalar magnitudes are replaced by sums of
    per-block largest singular values; the result dominates the largest
    singular value of the assembled block matrix.
    """
    grid = [[_as_square(bij, "block") for bij in row] for row in blocks]
    n_rows = len(grid)
    if n_rows == 0 or any(len(row) != n_rows for row in grid):
        raise ValueError("blocks must form a square N x N grid")
    shape = grid[0][0].shape
    for row in grid:
        for bij in row:
            if bij.shape != shape:
                raise ValueError("all blocks must have the same square shape")
    svals = np.array([[max_singular_value(bij) for bij in row] for row in grid])
    rows = svals.sum(axis=1)
    cols = svals.sum(axis=0)
    return float(np.maximum(rows, cols).max())


def complex_block_split(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Split the real embedding [[A, -B], [B, A]] into (A - jB, A + jB).

    The singular values of the 2n x 2n embedding are exactly the union of
    the singular values of the two complex n x n matrices, so callers can
    evaluate the embedding's largest singular value as the max over the pair.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a - 1j * b, a + 1j * b
