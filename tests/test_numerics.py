import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sdconsensus.numerics import (
    block_gershgorin_sv_bound,
    complex_block_split,
    expm,
    expm_integral,
    gershgorin_sv_bound,
    max_singular_value,
    max_singular_values,
)


def power_iteration_sigma(a, iters=2000):
    """Independent largest-singular-value oracle: power iteration on A^H A."""
    a = np.asarray(a)
    gram = a.conj().T @ a
    v = np.ones(gram.shape[0], dtype=gram.dtype)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    rayleigh = (v.conj() @ (gram @ v)).real
    return math.sqrt(rayleigh)


def simpson_scalar_integral(rate, h, panels=2000):
    """Quadrature oracle for the scalar exp integral, independent of expm."""
    xs = np.linspace(0.0, h, 2 * panels + 1)
    vals = np.exp(rate * xs)
    weights = np.ones(len(xs))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / (2 * panels) / 3.0) * float(weights @ vals)


def assemble_blocks(grid):
    return np.block([[np.asarray(b) for b in row] for row in grid])


# ---------------------------------------------------------------------------
# expm


def test_expm_nilpotent_is_exact():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(expm(a, 2.0), [[1.0, 2.0], [0.0, 1.0]], rtol=0.0, atol=1e-14)


def test_expm_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((2, 2)), 5.0), np.eye(2))


def test_expm_diagonal_matches_scalar_exp():
    got = expm(np.array([[-1.0, 0.0], [0.0, -1.0]]), 1.0)
    want = math.exp(-1.0) * np.eye(2)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_expm_semigroup_property():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        h1, h2 = rng.uniform(0.05, 1.5, size=2)
        scale = np.linalg.norm(a, 2) * (h1 + h2)
        if scale > 5.0:
            a *= 5.0 / scale
        gap = np.abs(expm(a, h1) @ expm(a, h2) - expm(a, h1 + h2)).max()
        worst = max(worst, gap)
    assert worst < 1e-10


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError):
        expm(np.zeros((2, 2)), -0.5)
    with pytest.raises(ValueError):
        expm(np.zeros((2, 2)), math.inf)
    with pytest.raises(ValueError):
        expm(np.array([[math.nan, 0.0], [0.0, 0.0]]), 1.0)


def test_expm_stack_equals_per_interval_calls():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    h = rng.uniform(0.0, 2.0, size=(2, 5))
    F, G = expm(a, h), expm_integral(a, b, h)
    assert F.shape == (2, 5, 3, 3) and G.shape == (2, 5, 3, 2)
    for idx in np.ndindex(h.shape):
        np.testing.assert_array_equal(F[idx], expm(a, float(h[idx])))
        np.testing.assert_array_equal(G[idx], expm_integral(a, b, float(h[idx])))
    with pytest.raises(ValueError):
        expm(a, [0.5, -0.5])


# ---------------------------------------------------------------------------
# expm_integral


def test_expm_integral_double_integrator_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    # ulp-level agreement; entries reach h^2/2 = 50 at the top of the range
    for h in (0.1, 1.0, 2.7, 10.0):
        np.testing.assert_allclose(
            expm_integral(a, b, h), [[0.5 * h * h], [h]], rtol=0.0, atol=1e-13
        )


def test_expm_integral_zero_dynamics():
    got = expm_integral(np.zeros((3, 3)), np.eye(3), 3.0)
    np.testing.assert_allclose(got, 3.0 * np.eye(3), rtol=0.0, atol=1e-14)


def test_expm_integral_scalar_against_quadrature():
    got = expm_integral([[-1.0]], [[1.0]], 1.0)[0, 0]
    oracle = simpson_scalar_integral(-1.0, 1.0)
    closed = 1.0 - math.exp(-1.0)
    assert abs(oracle - closed) < 1e-12  # the oracle itself is trustworthy
    assert abs(got - oracle) < 1e-10


def test_expm_integral_random_against_matrix_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        h = float(rng.uniform(0.1, 1.5))
        xs = np.linspace(0.0, h, 801)
        vals = np.stack([scipy.linalg.expm(a * x) for x in xs])
        weights = np.ones(len(xs))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        oracle = (h / 800.0 / 3.0) * np.einsum("s,sij->ij", weights, vals) @ b
        np.testing.assert_allclose(expm_integral(a, b, h), oracle, rtol=0.0, atol=1e-9)


def test_expm_integral_shape_mismatch():
    with pytest.raises(ValueError):
        expm_integral(np.zeros((2, 2)), np.zeros((3, 1)), 1.0)


# ---------------------------------------------------------------------------
# max singular value


def test_max_singular_value_identity():
    assert max_singular_value(np.eye(4)) == 1.0


def test_max_singular_value_rank_one():
    assert max_singular_value(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-14)


def test_max_singular_value_against_power_iteration():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    assert abs(max_singular_value(a) - power_iteration_sigma(a)) < 1e-8
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((n, m))
        assert abs(max_singular_value(a) - power_iteration_sigma(a)) < 1e-8
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(max_singular_value(c) - power_iteration_sigma(c)) < 1e-8


def test_max_singular_values_batch_matches_per_matrix():
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((40, 2, 2))
    got = max_singular_values(stack)
    want = np.array([max_singular_value(m) for m in stack])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    cstack = stack + 1j * rng.standard_normal((40, 2, 2))
    got = max_singular_values(cstack)
    want = np.array([max_singular_value(m) for m in cstack])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    wide = rng.standard_normal((10, 3, 4))
    got = max_singular_values(wide)
    want = np.array([max_singular_value(m) for m in wide])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_max_singular_values_huge_2x2_entries_match_lapack():
    # the closed form squares |a|^2, which overflows past about 1e77; such
    # matrices go through LAPACK and the others keep their closed-form bits
    rng = np.random.default_rng(23)
    small = rng.standard_normal((5, 2, 2))
    for exponent in (80, 120, 160, 200, 250, 300):
        huge = rng.standard_normal((6, 2, 2)) * 10.0**exponent
        for stack in (huge, huge + 1j * rng.standard_normal((6, 2, 2)) * 10.0**exponent):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = max_singular_values(np.concatenate([small, stack]))
                one = max_singular_values(stack[0])
            want = np.linalg.svd(stack, compute_uv=False)[:, 0]
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got[5:], want, rtol=1e-12)
            assert one == pytest.approx(want[0], rel=1e-12)
            assert np.array_equal(got[:5], max_singular_values(small))


def test_singular_values_orthogonal_invariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert abs(max_singular_value(u @ a @ v) - max_singular_value(a)) < 1e-10


# ---------------------------------------------------------------------------
# Gershgorin bounds


def test_gershgorin_identity():
    assert gershgorin_sv_bound(np.eye(3)) == 1.0


def test_gershgorin_row_sum_example():
    assert gershgorin_sv_bound(np.array([[1.0, -1.0], [0.0, 1.0]])) == 2.0


def test_gershgorin_dominates_sigma():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        if rng.random() < 0.3:
            a = a + 1j * rng.standard_normal((n, n))
        sigma = max_singular_value(a)
        assert gershgorin_sv_bound(a) >= sigma * (1.0 - 1e-12)


def test_gershgorin_rejects_non_square():
    with pytest.raises(ValueError):
        gershgorin_sv_bound(np.zeros((2, 3)))


def test_matrix_inputs_are_checked_and_cast():
    with pytest.raises(ValueError, match=r"^a must be a 2-d matrix, got shape \(3,\)$"):
        max_singular_value(np.zeros(3))
    with pytest.raises(ValueError, match="^stack must have at least 2 dimensions$"):
        max_singular_values(np.zeros(3))
    # an integer matrix is cast to float, so it gives the float matrix's values
    ints = np.array([[0, 1], [0, 0]])
    assert max_singular_value([[3, 0], [0, 4]]) == 4.0
    got = expm_integral(ints, np.array([[0], [1]]), 2.0)
    assert got.dtype == float
    np.testing.assert_array_equal(got, expm_integral(ints * 1.0, [[0.0], [1.0]], 2.0))


def test_block_gershgorin_grid_of_identities():
    eye = np.eye(3)
    assert block_gershgorin_sv_bound([[eye, eye], [eye, eye]]) == pytest.approx(2.0, abs=1e-14)


def test_block_gershgorin_block_diagonal():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((2, 2))
    z = np.zeros((2, 2))
    got = block_gershgorin_sv_bound([[m, z], [z, m]])
    assert got == pytest.approx(max_singular_value(m), abs=1e-13)


def test_block_gershgorin_dominates_assembled():
    rng = np.random.default_rng(31)
    for _ in range(300):
        grid = [[rng.standard_normal((2, 2)) for _ in range(3)] for _ in range(3)]
        sigma = max_singular_value(assemble_blocks(grid))
        assert block_gershgorin_sv_bound(grid) >= sigma * (1.0 - 1e-12)


def test_block_gershgorin_rejects_ragged():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        block_gershgorin_sv_bound([[eye, eye], [eye]])
    with pytest.raises(ValueError):
        block_gershgorin_sv_bound([[eye, np.eye(3)], [eye, eye]])


# ---------------------------------------------------------------------------
# complex split of the rotation-structured embedding


def test_complex_block_split_zero_imaginary():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((3, 3))
    b = np.zeros((3, 3))
    minus, plus = complex_block_split(a, b)
    np.testing.assert_array_equal(minus, a.astype(complex))
    np.testing.assert_array_equal(plus, a.astype(complex))
    embed = assemble_blocks([[a, -b], [b, a]])
    assert max_singular_value(embed) == pytest.approx(max_singular_value(a), abs=1e-12)


def test_complex_block_split_rotation():
    a = np.zeros((2, 2))
    b = np.eye(2)
    embed = assemble_blocks([[a, -b], [b, a]])
    assert max_singular_value(embed) == pytest.approx(1.0, abs=1e-14)
    minus, plus = complex_block_split(a, b)
    got = max(max_singular_value(minus), max_singular_value(plus))
    assert got == pytest.approx(1.0, abs=1e-14)


def test_complex_block_split_singular_value_multiset():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        minus, plus = complex_block_split(a, b)
        union = np.sort(
            np.concatenate(
                [
                    np.linalg.svd(minus, compute_uv=False),
                    np.linalg.svd(plus, compute_uv=False),
                ]
            )
        )
        embed = np.sort(np.linalg.svd(assemble_blocks([[a, -b], [b, a]]), compute_uv=False))
        np.testing.assert_allclose(embed, union, rtol=0.0, atol=1e-9)
        assert max_singular_value(assemble_blocks([[a, -b], [b, a]])) == pytest.approx(
            max(max_singular_value(minus), max_singular_value(plus)), abs=1e-10
        )


def test_complex_block_split_shape_mismatch():
    with pytest.raises(ValueError):
        complex_block_split(np.eye(2), np.eye(3))
