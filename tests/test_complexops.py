import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptrig import (
    DomainError,
    cpow_half,
    pow_int_over_factorial,
    power_combination_flips,
    principal_arg,
)
from exptrig.catalog import gr_3_931_4, gr_3_936_4, gr_3_937_4_original
from exptrig.complexops import _sqrt, _sqrt_lanes, cpow_half_lanes, pow_int_over_factorial_lanes
from exptrig.series import hyp0f1_lanes


def test_principal_arg_negative_real_axis_is_plus_pi():
    assert principal_arg(complex(-1.0, 0.0)) == math.pi
    # a signed-zero imaginary part must not fall below the cut
    assert principal_arg(complex(-1.0, -0.0)) == math.pi
    assert principal_arg(complex(-3.5, 0.0)) == math.pi


def test_principal_arg_quadrants():
    assert principal_arg(1j) == math.pi / 2
    assert principal_arg(complex(1.0, -1.0)) == -math.pi / 4
    assert principal_arg(complex(2.0, 0.0)) == 0.0
    assert principal_arg(complex(-1.0, -1.0)) == -3 * math.pi / 4


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


def test_atan2_half_angle_identity():
    # atan2(y,x) = pi/2 - atan(x/y) for y > 0, = -pi/2 - atan(x/y) for y < 0
    rng = np.random.default_rng(13)
    for _ in range(500):
        x, y = rng.uniform(-5, 5, 2)
        if y == 0:
            continue
        expected = math.copysign(math.pi / 2, y) - math.atan(x / y)
        assert math.isclose(principal_arg(complex(x, y)), expected, rel_tol=0, abs_tol=1e-12)


def test_cpow_half_examples():
    assert cmath.isclose(cpow_half(complex(-1, 0), 1), 1j, abs_tol=1e-15)
    assert cmath.isclose(cpow_half(complex(4, 0), 2), 4.0, rel_tol=1e-15)
    assert cmath.isclose(cpow_half(complex(-4, 0), 3), -8j, abs_tol=1e-13)
    assert cpow_half(0j, 0) == 1
    assert cpow_half(0j, 5) == 0
    # |z|**(m/2), or |z| itself, past the float range is refused, not an OverflowError
    for z, m in ((complex(1e200, 0), 4), (complex(1.5e308, 1.5e308), 1)):
        with pytest.raises(DomainError):
            cpow_half(z, m)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 2.2e-308, 0.25, 1.0, 3.0, 1.7e308])
def test_root_on_the_positive_real_axis_is_sqrt_bit_for_bit(x):
    # The general steps, subnormal scaling included, give (sqrt(x), 0.0) there.
    want = (math.sqrt(x), "0.0")
    for y in (0.0, -0.0):
        z = _sqrt(complex(x, y))
        assert (z.real, repr(z.imag)) == want, y
    z = cpow_half(x, 1)
    assert (z.real, repr(z.imag)) == want


def test_power_combination_flips_counterexample():
    # (-1)^(1/2) * (-1)^(1/2) = i*i = -1, but ((-1)*(-1))^(1/2) = 1
    assert power_combination_flips(-1 + 0j, -1 + 0j)
    lhs = cpow_half(complex(-1, 0), 1) * cpow_half(complex(-1, 0), 1)
    rhs = cpow_half(complex(1, 0), 1)
    assert cmath.isclose(lhs, -1, abs_tol=1e-15)
    assert rhs == 1


TINY = sys.float_info.min
# Where the roots' steps switch: both parts below the smallest normal float
# (scaled first) or not, at TINY and its two neighbours; and s = |x| + |z| at
# 1.0 exactly, where rho = sqrt(2s)/2 gives way to sqrt(|x|/2 + |z|/2).
ROOT_EDGES = [complex(x, y) for t in (math.nextafter(TINY, 0.0), TINY, math.nextafter(TINY, 1.0))
              for x, y in ((t, 0.0), (-t, 0.0), (0.0, -t), (t, t), (-t, 3e-323))]
ROOT_EDGES += [complex(0.5, 0.0), complex(-0.5, 0.0), complex(0.375, 0.5), complex(-0.375, -0.5), complex(0.0, 1.0)]


@pytest.mark.parametrize("z", ROOT_EDGES)
def test_roots_at_their_scaling_and_rho_edges(z):
    # The principal root to 4 units of roundoff, and the lanes' root the scalar one bit for bit.
    w = _sqrt(z)
    with mpmath.workdps(40):
        ref = mpmath.sqrt(mpmath.mpc(z.real, z.imag + 0.0))
        assert abs(mpmath.mpc(w.real, w.imag) - ref) <= 4 * UNIT_ROUNDOFF * abs(ref), (z, w)
    re, im = _sqrt_lanes(np.array([z.real]), np.array([z.imag]))
    assert _parts(complex(re[0], im[0])) == _parts(w)


def test_power_combination_flips_at_a_summed_argument_of_exactly_pi():
    # The cut itself: a sum of +pi is in (-pi, pi], a sum of -pi is not.
    assert not power_combination_flips(-1 + 0j, 1 + 0j)
    assert principal_arg(-1j) + principal_arg(-1j) == -math.pi
    assert power_combination_flips(-1j, -1j)


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


def _plain_power(z, m):
    """pow_int_over_factorial's product as a plain loop of m steps."""
    out = complex(1.0, 0.0)
    for j in range(1, m + 1):
        out = out * z / j
    return out


# Parts: signed zeros, subnormals, values whose powers settle to zero before,
# across or after the loops' first stretch of 256 steps (near 5.6 they are
# subnormal but not yet zero at its end), values whose powers overflow to
# inf and then nan, and inf and nan themselves. m: around the stretches'
# ends, up to 5001.
POWER_PART = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.3, -0.3, 1.0, -2.5, 5.6, -5.7, 30.0,
                                        -45.0, 700.0, -700.0, 1e5, 1e300, -1e300, math.inf, -math.inf, math.nan]),
                       st.floats(-800.0, 800.0), st.floats(allow_nan=False, allow_infinity=False))
POWER_M = st.one_of(st.sampled_from([0, 1, 4, 255, 256, 257, 260, 261, 268, 272, 300, 511, 512, 513, 3001, 5001]),
                    st.integers(0, 3001))


def _parts(z):
    return repr(z.real), repr(z.imag)


@settings(max_examples=150)
@given(st.lists(st.tuples(POWER_PART, POWER_PART, POWER_M), min_size=1, max_size=6))
@example([(0.3, -0.0, 5001), (-0.0, 0.0, 3001), (30.0, -45.0, 512), (700.0, 700.0, 300), (math.nan, 0.0, 600),
          (1e5, -0.0, 1000), (math.inf, 1.0, 270), (5.6, -1.9, 300)])
def test_power_loops_skip_nothing_they_would_change(lanes):
    # Both loops skip steps once the product is settled; each is the plain
    # m-step loop bit for bit, signed zeros and nan included, the lanes with
    # one m per lane and with one m for all.
    zs = [complex(re, im) for re, im, _ in lanes]
    ms = [m for *_, m in lanes]
    want = [_parts(_plain_power(z, m)) for z, m in zip(zs, ms)]
    assert [_parts(pow_int_over_factorial(z, m)) for z, m in zip(zs, ms)] == want
    zr, zi = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    for m, expected in ((np.array(ms), want), (ms[0], [_parts(_plain_power(z, ms[0])) for z in zs])):
        with np.errstate(all="ignore"):
            out = pow_int_over_factorial_lanes(zr, zi, m)
        assert [_parts(complex(*lane)) for lane in zip(*(x.tolist() for x in out))] == expected


@pytest.mark.parametrize("z", [complex(0.3, -0.0), complex(-0.0, 2.0), complex(-30.0, -45.0), complex(700.0, 700.0)])
def test_power_loops_take_any_m_in_few_steps(z):
    # Once settled, the product repeats with a period dividing 12, so at an m
    # of 10^20 (10^12 for the lanes) it is the plain loop's at a small m of
    # the same residue mod 12.
    for big in (10**20 + 5, 10**12 + 7):
        assert _parts(pow_int_over_factorial(z, big)) == _parts(_plain_power(z, 3000 + (big - 3000) % 12))
    # past the float range its last steps cannot divide by j: refused, not OverflowError
    with pytest.raises(DomainError, match="float range"):
        pow_int_over_factorial(z, 10**400)
    with pytest.raises(DomainError, match="float range"):
        cpow_half(z, 10**400)
    zr, zi = np.array([z.real, 0.5]), np.array([z.imag, -0.0])
    for m in (10**12 + 7, np.array([10**12 + 7, 10**12 + 4])):
        with np.errstate(all="ignore"):
            out = pow_int_over_factorial_lanes(zr, zi, m)
        want = [_plain_power(complex(r, i), 3000 + (int(k) - 3000) % 12)
                for r, i, k in zip(zr.tolist(), zi.tolist(), np.broadcast_to(m, 2).tolist())]
        assert [_parts(complex(*lane)) for lane in zip(*(x.tolist() for x in out))] == list(map(_parts, want))


@pytest.mark.parametrize("call, error", [
    (lambda: pow_int_over_factorial(1j, -1), DomainError),
    (lambda: cpow_half(1j, -1), DomainError),
    (lambda: cpow_half_lanes(np.array([0.0]), np.array([1.0]), -1), DomainError),
    (lambda: hyp0f1_lanes(0, np.array([0.5]), np.array([0.0])), ValueError),
    (lambda: gr_3_937_4_original(0.0, 1.0, 1), DomainError),
    (lambda: gr_3_931_4(1, 2), ValueError),
    (lambda: gr_3_936_4(1, 1, 2), ValueError),
], ids=["pow_int_over_factorial", "cpow_half", "cpow_half_lanes", "hyp0f1_lanes",
        "gr_3_937_4_original", "gr_3_931_4", "gr_3_936_4"])
def test_public_kernels_and_catalog_forms_refuse_out_of_range_orders_and_signs(call, error):
    # a negative order or exponent, a series parameter b1 < 1, the book's
    # atan(q/p) at p = 0 and a sign other than +-1 are refused, never evaluated
    with pytest.raises(error):
        call()


# Parts of z for cpow_half: signed zeros, the negative real axis, |z| from
# 1e-300 to 1e300 at any angle, values near 1 (whose huge powers stay in
# range), and inf and nan, which are refused.
def _polar(magnitude, angle):
    return complex(magnitude * math.cos(angle), magnitude * math.sin(angle))


HALF_POWER_Z = st.one_of(
    st.builds(complex, st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),
    # the cut: A < 0 with B = +-0.0, and its positive twin
    st.builds(complex, st.floats(-1e300, -1e-300), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(1e-300, 1e300), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300)),
    st.builds(_polar, st.floats(-300, 300).map(lambda e: 10.0 ** e), st.floats(-math.pi, math.pi)),
    st.builds(_polar, st.floats(1 - 1e-15, 1 + 1e-15), st.floats(-math.pi, math.pi)),
    st.builds(complex, st.sampled_from([1.0, -1.0, 4.0, -4.0, 5e-324, 1e308, -1.5e308, math.inf, math.nan]),
              st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.5e308, -math.inf, math.nan])),
)
HALF_POWER_M = st.sampled_from([0, 1, 2, 3, 8, 61, 2**20, 10**20, 10**400])
UNIT_ROUNDOFF = 2.0 ** -53


def _half_power_outcome(z, m):
    try:
        return _parts(cpow_half(z, m))
    except DomainError:
        return None


@settings(max_examples=300)
@given(st.lists(HALF_POWER_Z, min_size=1, max_size=8), HALF_POWER_M)
@example([complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-0.0, -0.0), complex(2.0, -0.0),
          complex(1e-320, 0.0), complex(0.0, 5e-324), complex(-1e300, 1e300)], 3)
@example([complex(1e308, 1e308), complex(1e-160, 0.0), complex(0.0, 1.0), complex(-1.0, -0.0)], 10**20)
# past the float range the scalar refuses every z, 0 included, and the lanes refuse every lane
@example([complex(0.0, 0.0), complex(1.0, -0.0), complex(math.nan, 1.0)], 10**400)
def test_cpow_half_lanes_are_the_scalar_bit_for_bit(zs, m):
    # Every lane is cpow_half's value, signed zeros included, and a lane is
    # ok exactly where cpow_half does not raise.
    wr, wi, ok = cpow_half_lanes(np.array([z.real for z in zs]), np.array([z.imag for z in zs]), m)
    want = [_half_power_outcome(z, m) for z in zs]
    assert ok.tolist() == [w is not None for w in want]
    assert [_parts(complex(r, i)) if k else None for r, i, k in zip(wr.tolist(), wi.tolist(), ok.tolist())] == want


@settings(max_examples=300)
@given(HALF_POWER_Z, HALF_POWER_M)
@example(complex(-4.0, -0.0), 3)
@example(complex(-1e-300, 0.0), 1)
@example(complex(5e-324, 5e-324), 1)
@example(complex(-3e-310, 1e-320), 3)
@example(complex(0.6, -0.8), 10**20)
@example(complex(0.0627347181090794, 0.998030237589911), 10**20)
def test_cpow_half_is_the_principal_power_to_4_m_plus_1_ulps(z, m):
    # Against mpmath's principal z**(m/2), arg in (-pi, pi] and -0 read as
    # +0: within 4 (m + 1) units of roundoff relative to |z|**(m/2), plus as
    # many of the smallest subnormal where the power underflows. The
    # relative errors of the m factors compound, so the bound is
    # expm1(4 (m + 1) u), which is 4 (m + 1) u while that is small. (At
    # m = 0 a z that is not finite gives 1 too, by convention; it has no
    # reference.)
    got = _half_power_outcome(z, m)
    if got is None or not cmath.isfinite(z):
        return
    w = complex(*map(float, got))
    with mpmath.workdps(50):
        ref = mpmath.power(mpmath.mpc(z.real, z.imag + 0.0), mpmath.mpf(m) / 2)
        size = abs(mpmath.mpc(z.real, z.imag)) ** (mpmath.mpf(m) / 2)
        err = abs(mpmath.mpc(w.real, w.imag) - ref)
        assert err <= mpmath.expm1(4 * (m + 1) * UNIT_ROUNDOFF) * size + 4 * (m + 1) * 5e-324, (z, m, w, ref)
