"""Dense linear algebra for the small matrices this package works with.

Matrices are plain numpy arrays (float64, or complex128 where eigenvalues of
directed topologies enter).  The module provides exactly what the rest of the
toolkit needs: the matrix exponential and its input integral, the maximum
singular value, and Gershgorin-type upper bounds on it, including the block
variant and the complex split that reduces a real 2n x 2n rotation-structured
embedding to a pair of complex n x n problems.

Accuracy envelope: inputs here are tiny (n <= 8 on every hot path).
``expm`` scales each matrix of a stack by its own power of two, so its
accuracy does not rest on a small ||A h||: against a 40-digit reference,
150 random 2- to 4-state matrices (a third of them strongly non-normal)
came out within 3e-14 of their largest entry.  The 2x2 ``max_singular_values`` errs by a
few eps times the largest entry, near-identity matrices included.
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


# Higham's Pade(13) coefficients b_0 .. b_13 and the 1-norm up to which the
# degree-13 approximant needs no scaling (SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a, h) -> np.ndarray:
    """exp(A h) for square A and a nonnegative scale h, or a stack of them.

    ``h`` is one interval or an array of intervals; the result has shape
    h.shape + A.shape.  The method is Higham's scaling and squaring ("The
    scaling and squaring method for the matrix exponential revisited", SIAM
    J. Matrix Anal. Appl. 26(4), 2005) applied to the whole stack at once:
    each slice X = A h_i is scaled by 2^-s_i so that its 1-norm is at most
    theta_13, the degree-13 Pade approximant (V - U)^-1 (V + U), written
    I + 2 (V - U)^-1 U so that exp(0) is exactly I, comes from six batched
    products and one batched solve, and each slice is then squared s_i
    times.  A single h is a stack of one, so every slice of a stack equals
    the call with its own h.  Nilpotent inputs such as the double-integrator
    dynamics come out exact up to rounding: their series terminates, and the
    approximant matches it term by term.
    """
    a = _as_square(a, "a")
    h = np.asarray(h, dtype=float)
    if not (np.isfinite(h) & (h >= 0.0)).all():
        raise ValueError("h must be finite and nonnegative")
    x = h.reshape(-1, 1, 1) * a
    s = np.maximum(np.frexp(np.abs(x).sum(axis=-2).max(axis=-1) / _THETA13)[1], 0)
    x = x * np.ldexp(1.0, -s)[:, None, None]  # exact: a power of two, complex x too
    b, eye = _PADE13, np.eye(a.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    e = eye + 2.0 * np.linalg.solve(v - u, u)
    for k in range(s.max(initial=0)):
        late = s > k  # the slices that still need squaring
        e[late] = e[late] @ e[late]
    return e.reshape(h.shape + a.shape)


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


def _squared(z: np.ndarray) -> np.ndarray:
    """|z|^2, elementwise, for real or complex z."""
    return z.real * z.real + z.imag * z.imag if z.dtype.kind == "c" else z * z


def max_singular_values(stack) -> np.ndarray:
    """Largest singular value of every matrix in a (..., n, k) stack.

    2x2 stacks use a closed form that sums two nonnegative terms.  With
    M = [[a, b], [c, d]] and w = det M / |det M| (1 when det M is 0),
    sigma_max = (hypot(|a + w conj d|, |b - w conj c|)
                 + hypot(|a - w conj d|, |b + w conj c|)) / 2,
    so nothing cancels when M is near the identity; for a real M, w = -1
    only swaps the two terms, so w = 1 serves.  Each matrix is first divided
    by the power of two of its largest entry, and the result multiplied
    back: huge and tiny entries need no fallback, and with every entry below
    two in modulus the hypots are plain square roots of sums of squares.
    Other shapes go through LAPACK.
    """
    arr = np.asarray(stack)
    if arr.ndim < 2:
        raise ValueError("stack must have at least 2 dimensions")
    if arr.shape[-2:] != (2, 2):
        return np.linalg.svd(arr, compute_uv=False)[..., 0]
    cplx = arr.dtype.kind == "c"
    # a non-finite matrix gives inf or nan, and a sigma past the float range inf
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.maximum(np.abs(arr.real), np.abs(arr.imag)) if cplx else np.abs(arr)
        top = np.maximum(np.maximum(mags[..., 0, 0], mags[..., 0, 1]),
                         np.maximum(mags[..., 1, 0], mags[..., 1, 1]))
        scale = np.maximum(np.frexp(top)[1], -1021)  # 2^-scale stays finite
        m = arr * np.ldexp(1.0, -scale)[..., None, None]
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        if cplx:
            det = a * d - b * c
            size = np.abs(det)
            w = np.where(size > 0.0, det / np.where(size > 0.0, size, 1.0), 1.0)
            c, d = w * np.conj(c), w * np.conj(d)
        sigma = 0.5 * (np.sqrt(_squared(a + d) + _squared(b - c))
                       + np.sqrt(_squared(a - d) + _squared(b + c)))
        return np.ldexp(sigma, scale)[()]  # a single matrix gives a scalar, as above


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
