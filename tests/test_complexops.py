import cmath
import math

import numpy as np
import pytest

from exptrig import (
    DomainError,
    atan2_full,
    cpow_half,
    pow_int_over_factorial,
    power_combination_flips,
    principal_arg,
)
from exptrig.complexops import pow_int_over_factorial_lanes


def test_principal_arg_negative_real_axis_is_plus_pi():
    assert principal_arg(complex(-1.0, 0.0)) == math.pi
    # a signed-zero imaginary part must not fall below the cut
    assert principal_arg(complex(-1.0, -0.0)) == math.pi
    assert principal_arg(complex(-3.5, 0.0)) == math.pi


def test_principal_arg_quadrants():
    assert principal_arg(1j) == math.pi / 2
    assert principal_arg(complex(1.0, -1.0)) == -math.pi / 4
    assert principal_arg(complex(2.0, 0.0)) == 0.0


def test_principal_arg_zero_rejected():
    with pytest.raises(DomainError):
        principal_arg(0j)


def test_principal_arg_conjugation_sweep():
    rng = np.random.default_rng(7)
    for _ in range(500):
        z = complex(*rng.uniform(-4, 4, 2))
        if z == 0:
            continue
        if z.imag == 0 and z.real < 0:
            assert principal_arg(z.conjugate()) == math.pi == principal_arg(z)
        else:
            assert principal_arg(z.conjugate()) == -principal_arg(z)


def test_atan2_full_examples():
    assert atan2_full(0.0, -3.0) == math.pi
    assert atan2_full(2.0, 0.0) == math.pi / 2
    assert atan2_full(-1.0, -1.0) == -3 * math.pi / 4
    with pytest.raises(DomainError):
        atan2_full(0.0, 0.0)


def test_atan2_full_matches_principal_arg_exactly():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x, y = rng.uniform(-5, 5, 2)
        assert atan2_full(y, x) == principal_arg(complex(x, y))


def test_atan2_half_angle_identity():
    # atan2(y,x) = pi/2 - atan(x/y) for y > 0, = -pi/2 - atan(x/y) for y < 0
    rng = np.random.default_rng(13)
    for _ in range(500):
        x, y = rng.uniform(-5, 5, 2)
        if y == 0:
            continue
        expected = math.copysign(math.pi / 2, y) - math.atan(x / y)
        assert math.isclose(atan2_full(y, x), expected, rel_tol=0, abs_tol=1e-12)


def test_cpow_half_examples():
    assert cmath.isclose(cpow_half(complex(-1, 0), 1), 1j, abs_tol=1e-15)
    assert cmath.isclose(cpow_half(complex(4, 0), 2), 4.0, rel_tol=1e-15)
    assert cmath.isclose(cpow_half(complex(-4, 0), 3), -8j, abs_tol=1e-13)
    assert cpow_half(0j, 0) == 1
    assert cpow_half(0j, 5) == 0


def test_power_combination_flips_counterexample():
    # (-1)^(1/2) * (-1)^(1/2) = i*i = -1, but ((-1)*(-1))^(1/2) = 1
    assert power_combination_flips(-1 + 0j, -1 + 0j)
    lhs = cpow_half(complex(-1, 0), 1) * cpow_half(complex(-1, 0), 1)
    rhs = cpow_half(complex(1, 0), 1)
    assert cmath.isclose(lhs, -1, abs_tol=1e-15)
    assert rhs == 1


def test_power_combination_flips_quadrant_cases():
    assert not power_combination_flips(1 + 0j, 1j)      # sum of args = pi/2
    assert power_combination_flips(-1 + 0j, 1j)         # sum = 3pi/2 > pi
    with pytest.raises(DomainError):
        power_combination_flips(0j, 1j)


def test_half_power_product_identity_sweep():
    # cpow_half(z,m)*cpow_half(w,m) == (-1)^flips * cpow_half(z*w, m) for odd m
    rng = np.random.default_rng(17)
    for _ in range(800):
        z = complex(*rng.uniform(-3, 3, 2))
        w = complex(*rng.uniform(-3, 3, 2))
        if z == 0 or w == 0:
            continue
        m = int(rng.integers(0, 5)) * 2 + 1
        sign = -1.0 if power_combination_flips(z, w) else 1.0
        lhs = cpow_half(z, m) * cpow_half(w, m)
        rhs = sign * cpow_half(z * w, m)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12)


def test_cpow_int_agrees_with_even_half_powers():
    rng = np.random.default_rng(19)
    for _ in range(500):
        z = complex(*rng.uniform(-3, 3, 2))
        if z == 0:
            continue
        n = int(rng.integers(0, 7))
        assert cmath.isclose(z ** n, cpow_half(z, 2 * n), rel_tol=1e-12)


def test_pow_int_over_factorial():
    assert pow_int_over_factorial(0j, 0) == 1
    assert pow_int_over_factorial(5 - 2j, 0) == 1
    assert pow_int_over_factorial(0j, 3) == 0
    rng = np.random.default_rng(23)
    zs, ms = [], []
    for _ in range(200):
        z = complex(*rng.uniform(-3, 3, 2))
        m = int(rng.integers(0, 12))
        ref = z ** m / math.factorial(m)
        assert cmath.isclose(pow_int_over_factorial(z, m), ref, rel_tol=1e-12, abs_tol=1e-300)
        zs.append(z)
        ms.append(m)
    # The lanes, each at its own m, are the scalar loop bit for bit.
    zr, zi = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    lanes = pow_int_over_factorial_lanes(zr, zi, np.array(ms))
    assert [repr(complex(*lane)) for lane in zip(*(x.tolist() for x in lanes))] == \
        [repr(pow_int_over_factorial(z, m)) for z, m in zip(zs, ms)]
    # stays finite far beyond where the factorial alone would overflow
    big = pow_int_over_factorial(complex(2.0, 1.0), 400)
    assert cmath.isfinite(big)
