import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sdconsensus.synthesis import (
    DesignSpec,
    GainDesign,
    abstract_consistency,
    check_gain_inequalities,
    consistency_witness,
    design,
    is_feasible,
    limits,
    transform_matrix,
)


def replay_design(hbar: Fraction, lambda2: Fraction, lambdaN: Fraction):
    """Exact-arithmetic replay of the midpoint design rule.

    Returns (mu1, mu2, k1, k2, K1, K2) as Fractions.  Only valid where the
    midpoint rule itself is valid (both worked examples are).
    """
    mu1 = hbar / 2
    mu2 = -mu1 + 2 * hbar * lambdaN / lambda2 + 1
    a = 2 * (mu2 - mu1) / (hbar * lambdaN * (mu1 + mu2 + hbar))
    b = Fraction(4) / (lambdaN * (hbar + max(hbar, 2 * mu1)))
    c = Fraction(4) / (lambda2 * (mu1 + mu2))
    d = Fraction(4) / (lambdaN * (mu1 + mu2 + hbar))
    dk = Fraction(9, 10) * d
    k1 = (min(a, b - dk) + max(Fraction(0), c - dk)) / 2
    k2 = k1 + dk
    det = 2 * (mu2 - mu1)
    K1 = 2 * k1 / det
    K2 = (k1 * (mu2 + mu1) + k2 * (mu2 - mu1)) / det
    return mu1, mu2, k1, k2, K1, K2


def random_spec(rng) -> DesignSpec:
    hbar = float(10.0 ** rng.uniform(-1.0, 2.0))
    lambda2 = float(10.0 ** rng.uniform(-2.0, 1.0))
    ratio = float(10.0 ** rng.uniform(0.0, 3.0))
    return DesignSpec(hbar, lambda2, lambda2 * ratio)


# ---------------------------------------------------------------------------
# limits


def test_limits_worked_example_exact():
    spec = DesignSpec(3.0, 0.3, 6.0)
    lim = limits(spec, 1.5, 119.5)
    assert lim.a == pytest.approx(236.0 / 2232.0, rel=1e-15)
    assert lim.b == pytest.approx(4.0 / 36.0, rel=1e-15)
    assert lim.c == pytest.approx(4.0 / 36.3, rel=1e-15)
    assert lim.d == pytest.approx(4.0 / 744.0, rel=1e-15)


def test_limits_vanishing_gap_drives_a_to_zero():
    spec = DesignSpec(3.0, 0.3, 6.0)
    lim = limits(spec, 2.0, 2.0 + 1e-9)
    assert 0.0 < lim.a < 1e-9


def test_limits_c_slightly_above_d_for_equal_band():
    spec = DesignSpec(1.0, 4.0, 4.0)
    lim = limits(spec, 400.0, 600.0)
    # same numerator, d's denominator carries the extra hbar term
    assert lim.c > lim.d
    assert lim.c < lim.d * 1.01


def test_limits_rejects_mu_order():
    spec = DesignSpec(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        limits(spec, 2.0, 1.0)
    with pytest.raises(ValueError):
        limits(spec, -1.0, 1.0)


def test_limits_are_as_computed_and_abstract_consistency_demands_positive_finite():
    # a = 2 (mu2 - mu1) / (hbar lambdaN (mu1 + mu2 + hbar)) overflows at a
    # subnormal hbar: limits returns it, the consumers of limits refuse it
    spec = DesignSpec(1e-310, 1.0, 1.0)
    mu1 = spec.hbar / 2.0
    mu2 = -mu1 + 2.0 * spec.hbar * spec.lambdaN / spec.lambda2 + 1.0
    lim = limits(spec, mu1, mu2)
    assert lim.a == math.inf
    with pytest.raises(ValueError, match="^limit a must be positive and finite$"):
        abstract_consistency(lim.a, lim.b, lim.c, lim.d)
    with pytest.raises(ValueError):
        design(spec)


# ---------------------------------------------------------------------------
# feasibility


def test_is_feasible_worked_example():
    assert is_feasible(DesignSpec(3.0, 0.3, 6.0), 1.5, 119.5)  # 121/6 > 20


def test_is_feasible_equal_band():
    spec = DesignSpec(1.0, 2.0, 2.0)
    assert is_feasible(spec, 0.5, 2.0)  # 2.5 / 2 > 1


def test_is_feasible_small_mu_sum():
    spec = DesignSpec(4.0, 1.0, 1.0)
    # mu1 + mu2 = hbar makes the left side at most 1/2
    assert not is_feasible(spec, 1.0, 3.0)


# ---------------------------------------------------------------------------
# abstract consistency and the constructive witness


def test_abstract_consistency_examples():
    assert abstract_consistency(1.0, 2.0, 1.5, 1.0)
    assert not abstract_consistency(1.0, 1.0, 1.5, 0.4)
    with pytest.raises(ValueError):
        abstract_consistency(0.0, 1.0, 1.0, 1.0)


def test_witness_satisfies_inequalities_when_consistent():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 10000:
        a, b, c, d = rng.uniform(0.05, 10.0, size=4)
        if not abstract_consistency(a, b, c, d):
            continue
        k1, k2 = consistency_witness(a, b, c, d)
        assert 0.0 < k1 < a
        assert c < k2 < b
        assert 0.0 < k2 - k1 < d
        checked += 1


def test_witness_raises_when_inconsistent():
    with pytest.raises(ValueError):
        consistency_witness(1.0, 1.0, 1.5, 0.4)


def test_no_grid_point_when_inconsistent():
    rng = np.random.default_rng(47)
    tested = 0
    while tested < 300:
        a, b, c, d = rng.uniform(0.05, 5.0, size=4)
        if abstract_consistency(a, b, c, d):
            continue
        k1s = np.linspace(1e-6, a * (1 - 1e-6), 60)
        k2s = np.linspace(1e-6, max(b, c) * (1 + 1e-6), 60)
        kk1, kk2 = np.meshgrid(k1s, k2s)
        ok = (
            (kk1 > 0) & (kk1 < a)
            & (kk2 > c) & (kk2 < b)
            & (kk2 - kk1 > 0) & (kk2 - kk1 < d)
        )
        assert not ok.any()
        tested += 1


def test_consistency_equivalent_to_feasibility():
    rng = np.random.default_rng(53)
    for _ in range(5000):
        spec = random_spec(rng)
        mu1 = float(10.0 ** rng.uniform(-1.5, 2.0))
        mu2 = mu1 * float(10.0 ** rng.uniform(0.01, 2.0))
        lim = limits(spec, mu1, mu2)
        margin = abs(lim.b - lim.c)
        if margin <= 1e-12 * max(lim.b, lim.c):
            continue  # knife-edge tie, both sides legitimately ambiguous
        assert abstract_consistency(lim.a, lim.b, lim.c, lim.d) == is_feasible(
            spec, mu1, mu2
        )


def test_a_plus_d_dominates_b():
    rng = np.random.default_rng(59)
    for _ in range(10000):
        spec = random_spec(rng)
        mu1 = float(10.0 ** rng.uniform(-1.5, 2.0))
        mu2 = mu1 * float(10.0 ** rng.uniform(0.01, 2.0))
        lim = limits(spec, mu1, mu2)
        assert lim.a + lim.d >= lim.b * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# design


def test_design_example1_matches_published_gain(example1_design):
    K = example1_design.K[0]
    assert round(float(K[0]), 4) == 0.0009
    assert round(float(K[1]), 4) == 0.1093


def test_design_example2_matches_published_gain(example2_design):
    K = example2_design.K[0]
    assert round(float(K[0]), 4) == 0.0013
    assert round(float(K[1]), 4) == 0.032


@pytest.mark.parametrize(
    "hbar,lambda2,lambdaN",
    [
        (Fraction(3), Fraction(3, 10), Fraction(6)),
        (Fraction(1), Fraction(5), Fraction(60)),
    ],
)
def test_design_matches_exact_replay(hbar, lambda2, lambdaN):
    spec = DesignSpec(float(hbar), float(lambda2), float(lambdaN))
    dsn = design(spec)
    mu1, mu2, k1, k2, K1, K2 = replay_design(hbar, lambda2, lambdaN)
    assert dsn.mu1 == pytest.approx(float(mu1), rel=1e-12)
    assert dsn.mu2 == pytest.approx(float(mu2), rel=1e-12)
    assert dsn.k1 == pytest.approx(float(k1), rel=1e-12)
    assert dsn.k2 == pytest.approx(float(k2), rel=1e-12)
    assert dsn.K[0, 0] == pytest.approx(float(K1), rel=1e-12)
    assert dsn.K[0, 1] == pytest.approx(float(K2), rel=1e-12)


def test_design_postconditions(example1_spec, example1_design):
    dsn = example1_design
    assert check_gain_inequalities(example1_spec, dsn)
    np.testing.assert_allclose(dsn.K @ dsn.T, [[dsn.k1, dsn.k2]], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        dsn.T, [[dsn.mu2 - dsn.mu1, -(dsn.mu2 + dsn.mu1)], [0.0, 2.0]], rtol=1e-15
    )
    assert np.linalg.det(dsn.T) == pytest.approx(2.0 * (dsn.mu2 - dsn.mu1), rel=1e-12)


def test_design_fallback_when_midpoint_interval_empty():
    # with mu1 = hbar/2 the limits satisfy a = b - d, so the midpoint rule
    # fails whenever c > b - 0.1 d; this spec sits in that thin-margin zone
    spec = DesignSpec(10.0, 1.0, 10.0)
    mu1 = spec.hbar / 2.0
    mu2 = -mu1 + 2.0 * spec.hbar * spec.lambdaN / spec.lambda2 + 1.0
    lim = limits(spec, mu1, mu2)
    dk = 0.9 * lim.d
    midpoint_k1 = 0.5 * (min(lim.a, lim.b - dk) + max(0.0, lim.c - dk))
    assert midpoint_k1 >= lim.a  # the verbatim midpoint is invalid here
    dsn = design(spec)
    assert check_gain_inequalities(spec, dsn)


def test_design_soundness_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(10000):
        spec = random_spec(rng)
        dsn = design(spec)
        assert check_gain_inequalities(spec, dsn)


def test_check_gain_inequalities_strictness(example1_spec, example1_design):
    dsn = example1_design
    zero_k1 = GainDesign(dsn.mu1, dsn.mu2, 0.0, dsn.k2)
    assert not check_gain_inequalities(example1_spec, zero_k1)
    lim = limits(example1_spec, dsn.mu1, dsn.mu2)
    k2 = dsn.k1 + lim.d
    while k2 - dsn.k1 < lim.d:  # counter the rounding of the sum
        k2 = np.nextafter(k2, np.inf)
    gap_at_limit = GainDesign(dsn.mu1, dsn.mu2, dsn.k1, k2)
    assert not check_gain_inequalities(example1_spec, gap_at_limit)
    equal_gains = GainDesign(dsn.mu1, dsn.mu2, dsn.k1, dsn.k1)
    assert not check_gain_inequalities(example1_spec, equal_gains)


def test_transform_matrix_shape_and_determinant():
    T = transform_matrix(1.5, 119.5)
    np.testing.assert_array_equal(T, [[118.0, -121.0], [0.0, 2.0]])
    assert np.linalg.det(T) > 0.0
    with pytest.raises(ValueError):
        transform_matrix(2.0, 2.0)


def test_design_spec_rejects_a_non_finite_band():
    for band in [(float("nan"), 6.0), (0.3, float("inf"))]:
        with pytest.raises(ValueError, match="^eigenvalue band must be finite$"):
            DesignSpec(3.0, *band)


def test_design_spec_stores_python_floats(example1_spec):
    numpy_spec = DesignSpec(*map(np.float64, (3.0, 0.3, 6.0)))
    assert all(type(v) is float for v in (numpy_spec.hbar, numpy_spec.lambda2, numpy_spec.lambdaN))
    assert numpy_spec == example1_spec
    got, want = design(numpy_spec), design(example1_spec)
    assert (got.mu1, got.mu2, got.k1, got.k2) == (want.mu1, want.mu2, want.k1, want.k2)
    np.testing.assert_array_equal(got.K, want.K)
    # mu2 overflows: numpy scalars would warn before the ValueError
    with pytest.raises(ValueError) as float_error:
        design(DesignSpec(1e250, 1.0, 1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as numpy_error:
            design(DesignSpec(np.float64(1e250), np.float64(1.0), np.float64(1e100)))
    assert str(numpy_error.value) == str(float_error.value)
    assert str(float_error.value).startswith("hbar = 1e+250, lambda2 = 1.0, lambdaN = 1e+100: ")


def test_gain_design_validation():
    # a design is (mu1, mu2, k1, k2); T and K are derived, never passed in
    with pytest.raises(ValueError, match="k1 and k2 must be finite"):
        GainDesign(1.0, 3.0, float("nan"), 0.2)
    with pytest.raises(ValueError, match="k1 and k2 must be finite"):
        GainDesign(1.0, 3.0, 0.1, float("inf"))
    with pytest.raises(ValueError, match="0 < mu1 < mu2"):
        GainDesign(3.0, 1.0, 0.1, 0.2)
    with pytest.raises(TypeError):
        GainDesign(1.0, 3.0, 0.1, 0.2, transform_matrix(1.0, 3.0), np.array([[0.1, 0.2]]))


def test_gain_design_rejects_a_non_finite_K():
    # det T = 2 (mu2 - mu1): a subnormal difference passes 0 < mu1 < mu2
    # but inv(T) overflows, and so can [k1, k2] inv(T) for huge gains; a zero
    # gain times an infinite inv(T) is nan, without a numpy warning; mu1 + mu2
    # past the float range makes T non-finite
    for args in [(5e-324, 1e-323, 0.1, 0.2), (1.0, 1.0 + 2**-52, 1e300, 1e300),
                 (5e-324, 1e-323, 0.0, 0.0), (1e308, 1.7e308, 0.1, 0.2)]:
        with pytest.raises(ValueError, match=re.escape(f"mu1 = {args[0]!r}, mu2 = {args[1]!r}")):
            GainDesign(*args)


def test_gain_design_derives_T_and_K():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        dsn = design(random_spec(rng))
        np.testing.assert_array_equal(dsn.T, transform_matrix(dsn.mu1, dsn.mu2))
        np.testing.assert_allclose(dsn.K @ dsn.T, [[dsn.k1, dsn.k2]], rtol=1e-12, atol=1e-12)
        assert not (dsn.T.flags.writeable or dsn.K.flags.writeable)
    spec = DesignSpec(3.0, 0.3, 6.0)
    assert design(spec) == design(spec)
    assert hash(design(spec)) == hash(design(spec))
    assert design(spec) != design(DesignSpec(1.0, 5.0, 60.0))

