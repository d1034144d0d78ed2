"""Dense linear algebra for the small matrices this package works with.

Matrices are plain numpy arrays (float64, or complex128 where eigenvalues of
directed topologies enter).  The module provides exactly what the rest of the
toolkit needs: the matrix exponential and its input integral, the maximum
singular value, and Gershgorin-type upper bounds on it, including the block
variant and the complex split that reduces a real 2n x 2n rotation-structured
embedding to a pair of complex n x n problems.  ``repr_bytes`` renders a
float array as Python's ``repr`` text in whole-array integer arithmetic; the
CSV writers print every float through it.

Accuracy envelope: inputs here are tiny (n <= 8 on every hot path).
``expm`` scales each matrix of a stack by its own power of two, so its
accuracy does not rest on a small ||A h||: against a 40-digit reference,
150 random 2- to 4-state matrices (a third of them strongly non-normal)
came out within 3e-14 of their largest entry.  The 2x2 ``max_singular_values`` errs by a
few eps times the largest entry, near-identity matrices included.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "expm",
    "expm_integral",
    "max_singular_value",
    "max_singular_values",
    "gershgorin_sv_bound",
    "block_gershgorin_sv_bound",
    "complex_block_split",
    "repr_bytes",
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
    Other shapes go through LAPACK, which takes finite matrices only: as in
    the closed form, a matrix with a nan entry gets nan, and one with an
    infinite entry (and no nan) gets inf.
    """
    arr = np.asarray(stack)
    if arr.ndim < 2:
        raise ValueError("stack must have at least 2 dimensions")
    if arr.shape[-2:] != (2, 2):
        finite = np.isfinite(arr).all(axis=(-2, -1))
        sigma = np.where(np.isnan(arr).any(axis=(-2, -1)), np.nan, np.inf)
        sigma[finite] = np.linalg.svd(arr[finite], compute_uv=False)[..., 0]
        return sigma[()]
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


# ---------------------------------------------------------------------------
# shortest round-trip text of floats
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) on
# uint64 arrays.  A positive finite double is c 2^q; the reals that round to
# it form its rounding interval Rv, closed when c is even and open when c is
# odd.  With k = floor(log10 of the width of Rv), Rv holds at most one
# multiple of 10^(k+1) and at least one of 10^k.  The shortest decimal in Rv
# is that multiple of 10^(k+1) if there is one, else the multiple of 10^k in
# Rv closest to the double, the even one on a tie.  The bounds of Rv are
# compared in units of 10^k / 4: each is g c' / 2^127 rounded to odd, with a
# 126-bit g just above 10^-k 2^-r, which the paper proves exact for these
# comparisons.  Python's repr wants the same digits.  Where the Java original
# pads one-digit results to two (its C_TINY case, 4.9E-324), repr keeps one
# digit (5e-324), so the subnormals need no case of their own, and the
# integers need none either: they come out of the general path exactly.

_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52  # the implicit bit of a normal double's significand
_Q_MIN = -1074  # the binary exponent of the subnormals and the smallest normals
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that the g table covers
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_INF_BITS = 0x7FF0_0000_0000_0000
_ONE_BITS = 0x3FF0_0000_0000_0000


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, read-only: the cached tables are shared by every call."""
    table.setflags(write=False)
    return table


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| < 5.4e6."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, for each k from
    _K_MIN to _K_MAX, as rows g1, g1_hi, g1_lo, g0_hi, g0_lo: g = g1 2^63 + g0,
    and each half split into 32-bit limbs."""
    pow10 = [1]
    for _ in range(-_K_MIN):
        pow10.append(pow10[-1] * 10)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // pow10[k] + 1)
        else:
            g.append((pow10[-k] >> r if r >= 0 else pow10[-k] << -r) + 1)
    g1, g0 = np.array([[v >> 63 for v in g], [v & _M63 for v in g]], dtype=np.uint64)
    return _frozen(np.stack([g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32]))


def _mul_hi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a b from 32-bit limbs (a < 2^63, b < 2^61)."""
    return a_hi * b_hi + ((a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> 32)) >> 32)


def _rop(g, cp):
    """Schubfach's rop: g cp / 2^127 rounded to odd, for g from ``_g_table``."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mul_hi(g0_hi, g0_lo, cp_hi, cp_lo)
    return (_mul_hi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """(f, k): f 10^k is the shortest decimal that rounds to the positive
    finite double with these bits, the closest such one, the even one on a
    tie; f has no trailing zero."""
    bq = (bits >> 52).astype(np.int64)
    c = bits & (_C_MIN - 1)
    np.bitwise_or(c, _C_MIN, out=c, where=bq > 0)  # subnormals have no implicit bit
    q = np.maximum(bq, 1) - 1075
    # a power of two is nearer to its lower neighbour: Rv is 3/4 as wide
    irregular = (c == _C_MIN) & (q > _Q_MIN)
    k = _flog10pow2(q)
    k[irregular] = _flog10_three_quarters_pow2(q[irregular])
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = _g_table().take(k - _K_MIN, axis=1)
    cb = c << 2
    vb = _rop(g, cb << h)
    # Rv = [vbl, vbr] in units of 10^k / 4, narrowed by one when open
    odd = c & 1
    vbl = _rop(g, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
    s = vb >> 2
    t = s + 1
    # s 10^k or t 10^k, whichever lies in Rv; the closer if both do
    above = vb - ((s + t) << 1)
    pick_t = (above.view(np.int64) > 0) | ((above == 0) & (s & 1 == 1))
    f = s + ((t << 2 <= vbr) & ~((vbl <= s << 2) & ~pick_t))
    # or the one multiple of 10^(k+1) in Rv
    s10 = s // 10
    u_in = vbl <= s10 * 40
    w_in = (s10 + 1) * 40 <= vbr
    shorter = u_in != w_in
    f = np.where(shorter, s10 + w_in, f)
    k += shorter
    for p in (16, 8, 4, 2, 1):  # strip trailing zeros, up to 31 of them
        quot = f // _POW10[p]
        exact = quot * _POW10[p] == f
        np.copyto(f, quot, where=exact)
        np.add(k, p, out=k, where=exact)
    return f, k


def _ascii8(x):
    """The 8 decimal digits of each x < 10^8 as ASCII in one little-endian
    word, the first digit in the lowest byte: lanes of 4, then 2, then 1
    digit, each split by a multiply-shift quotient."""
    hi = x // 10000
    x = hi | ((x - hi * 10000) << 32)
    hi = ((x * 10486) >> 20) & 0x0000007F_0000007F  # lane // 100 for lanes < 10^4
    x = (x << 16) - hi * (100 * 0x10000 - 1)
    hi = ((x * 103) >> 10) & 0x000F_000F_000F_000F  # lane // 10 for lanes < 100
    return ((x << 8) - hi * (10 * 0x100 - 1)) | 0x30303030_30303030


# Each value gets a 32-byte source row: the first of its 17 significand
# digits (right-aligned, so leading zeros pad short ones) at byte 0, its three
# exponent digits at bytes 1-3, constant bytes at 4-7, the other 16 digits
# at 8-23 and more constant bytes at 24-31.
_LEAD_WORD = int.from_bytes(b"0000" + b"0.-e", "little")  # 0 makes a digit ASCII
_CONST_WORD = int.from_bytes(b"+infa\0\0\0", "little")
_ZERO, _POINT, _MINUS, _E, _PLUS, _I, _N, _F, _A, _NUL = 4, 5, 6, 7, 24, 25, 26, 27, 28, 31
_KINDS = 24  # decimal point after -3 to 16 digits, then e-XX, e-XXX, e+XX, e+XXX
_POINT_MIN = -323  # the point of 5e-324, the smallest double
_WIDTH = 24  # the longest repr, as of -1.2345678901234567e-308
_GATHER_ROWS = 1024  # values per gather, whose index takes 8 bytes per output byte


@functools.cache
def _points() -> tuple[np.ndarray, np.ndarray]:
    """For each position of the decimal point, after p digits for p from
    _POINT_MIN to 309: the kind of layout, and word 0 of a source row but
    its first digit (the three digits of the exponent p - 1, the constants)."""
    point = np.arange(_POINT_MIN, 310)
    exp = np.abs(point - 1)
    kind = np.where((point > -4) & (point <= 16), point + 3, 20 + 2 * (point > 0) + (exp >= 100))
    digits = exp // 100 << 8 | exp // 10 % 10 << 16 | exp % 10 << 24
    return _frozen(kind), _frozen((digits + _LEAD_WORD).astype(np.uint64))


@functools.cache
def _layouts() -> np.ndarray:
    """The source byte of each output byte, one row per layout.

    Row (17 sign + n - 1) _KINDS + kind lays out n significant digits; the
    last five rows are 0.0, -0.0, inf, -inf and nan.  Python's repr rules:
    an exponent from 1e16 and below 1e-4, at least two exponent digits,
    and .0 after an integer.
    """
    rows = []
    for n in range(1, 18):
        digits = [0, *range(8, 24)][17 - n:]
        for point in range(-3, 17):
            if point <= 0:
                rows.append([_ZERO, _POINT] + [_ZERO] * -point + digits)
            elif point < n:
                rows.append(digits[:point] + [_POINT] + digits[point:])
            else:
                rows.append(digits + [_ZERO] * (point - n) + [_POINT, _ZERO])
        mantissa = digits[:1] + ([_POINT] + digits[1:] if n > 1 else []) + [_E]
        for sign in (_MINUS, _PLUS):
            rows += [mantissa + [sign, 2, 3], mantissa + [sign, 1, 2, 3]]
    rows += [[_MINUS] + row for row in rows]
    rows += [[_ZERO, _POINT, _ZERO], [_MINUS, _ZERO, _POINT, _ZERO],
             [_I, _N, _F], [_MINUS, _I, _N, _F], [_N, _A, _N]]
    table = b"".join(bytes(row + [_NUL] * (_WIDTH - len(row))) for row in rows)
    return _frozen(np.frombuffer(table, dtype=np.uint8).reshape(-1, _WIDTH).astype(np.intp))


def repr_bytes(a) -> np.ndarray:
    """The bytes of ``repr(float(x))`` for every x of ``a``, flattened, as
    zero-padded ``S24`` strings.

    The digits come from the Schubfach kernel above and the layout from one
    gather through ``_layouts``: whole-array integer arithmetic, no
    per-element Python.
    """
    x = np.ascontiguousarray(a, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    bits = bits & _M63
    regular = bits - 1 < _INF_BITS - 1  # not zero, inf or nan
    f, k = _shortest(np.where(regular, bits, _ONE_BITS))  # 1.0 stands in for the others
    n = np.searchsorted(_POW10, f, side="right")  # significant digits, 1 to 17
    kinds, words = _points()
    at = k + n - _POINT_MIN  # the decimal point follows k + n digits
    src = np.empty((len(x), 4), dtype="<u8")
    lead = f // _POW10[16]
    rest = f - lead * _POW10[16]
    mid = rest // _POW10[8]
    src[:, 0] = lead + words.take(at)
    src[:, 1:3] = _ascii8(np.stack([mid, rest - mid * _POW10[8]])).T
    src[:, 3] = _CONST_WORD
    code = (17 * neg + n - 1) * _KINDS + kinds.take(at)
    if not regular.all():
        other = ~regular
        special = np.where(bits == 0, neg, np.where(bits == _INF_BITS, 2 + neg, 4))
        code[other] = 2 * 17 * _KINDS + special[other]
    src = src.view(np.uint8).ravel()
    out = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for i in range(0, len(x), _GATHER_ROWS):
        idx = _layouts().take(code[i:i + _GATHER_ROWS], axis=0)
        idx += np.arange(32 * i, 32 * (i + len(idx)), 32)[:, None]
        src.take(idx, out=out[i:i + _GATHER_ROWS])
    return out.view(f"S{_WIDTH}").ravel()
