"""numerics.repr_bytes against Python's repr, value for value."""

import numpy as np
import pytest

from sdconsensus.numerics import repr_bytes


def assert_reprs(values):
    values = np.asarray(values, dtype=float)
    got = repr_bytes(values)
    assert got.dtype == np.dtype("S24") and got.shape == (values.size,)
    flat = values.ravel().tolist()
    bad = [(v, g) for v, g in zip(flat, got.tolist()) if g != repr(v).encode()]
    assert not bad, f"{len(bad)} of {len(flat)} differ, as {bad[:5]}"


def around(values, steps=2):
    """The values with their float neighbours, ``steps`` on each side (the
    neighbour past the largest float is inf)."""
    out = [np.asarray(values, dtype=float)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(steps):
            with np.errstate(over="ignore"):
                x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def test_random_bit_patterns():
    rng = np.random.default_rng(2020)
    assert_reprs(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64))


def test_every_power_of_two():
    # the spacing below a power of two is half the spacing above it
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs(np.concatenate([powers, -powers]))
    assert_reprs(around(powers[1:-1], steps=1))


def test_the_ends_of_the_subnormal_and_normal_ranges():
    tiny = np.ldexp(1.0, -1074)
    smallest_normal = np.ldexp(1.0, -1022)
    largest = np.finfo(np.float64).max
    ends = [tiny, 2 * tiny, 3 * tiny, smallest_normal - tiny, smallest_normal, largest]
    assert_reprs(around(ends + [-v for v in ends], steps=3))
    assert [repr_bytes(v)[0] for v in (tiny, largest)] == [b"5e-324", b"1.7976931348623157e+308"]


def test_integers_around_two_to_the_53():
    ints = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(float)
    assert_reprs(np.concatenate([ints, -ints, np.arange(-2000.0, 2000.0)]))


def test_the_layout_thresholds():
    # positional from 1e-4 up to below 1e16, an exponent outside
    assert_reprs(around([1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23, 0.1, 1.0, 10.0, 9.5, 123.0]))
    got = repr_bytes([1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23, 1e100, 1.5e-300]).tolist()
    assert got == [b"1e-05", b"0.0001", b"1000000000000000.0", b"1e+16", b"1e+22", b"1e+23",
                   b"1e+100", b"1.5e-300"]


def test_zeros_infinities_and_nans():
    payload_nan = np.array([0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0000], dtype=np.uint64)
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan], payload_nan.view(np.float64)])
    assert repr_bytes(values).tolist() == [b"0.0", b"-0.0", b"inf", b"-inf", b"nan", b"nan", b"nan"]


@pytest.mark.parametrize("seed", [0, 1])
def test_decimal_looking_values_and_wide_magnitudes(seed):
    # few significant digits make the shortest decimal short, and ties likely
    rng = np.random.default_rng(seed)
    short = rng.integers(1, 10**6, 50_000) * 10.0 ** rng.integers(-320, 300, 50_000)
    wide = rng.standard_normal(50_000) * 10.0 ** rng.integers(-300, 301, 50_000)
    assert_reprs(np.concatenate([short, wide, np.cumsum(rng.random(20_000) * 3.0)]))


def test_any_shape_comes_out_flat():
    assert repr_bytes([[1.0, 2.5], [-0.0, 3e-7]]).tolist() == [b"1.0", b"2.5", b"-0.0", b"3e-07"]
    assert repr_bytes(0.1).tolist() == [b"0.1"]
    assert repr_bytes([]).shape == (0,)
