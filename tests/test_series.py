import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exptrig import ConvergenceError, bessel_i, hyp0f1
from exptrig.series import hyp0f1_lanes


def brute_bessel(m, z, terms=40):
    # direct partial sums of the defining series, standalone factorials
    return sum((z / 2) ** (m + 2 * k) / (math.factorial(k) * math.factorial(m + k))
               for k in range(terms))


def brute_0f1(b1, z, terms=40):
    total = 0j
    for k in range(terms):
        poch = math.factorial(b1 - 1 + k) // math.factorial(b1 - 1)
        total += z ** k / (math.factorial(k) * poch)
    return total


def test_bessel_at_zero():
    assert bessel_i(0, 0j).value == 1
    assert bessel_i(3, 0j).value == 0


def test_bessel_frozen_values():
    # brute-force partial sums of the series, computed independently:
    assert cmath.isclose(bessel_i(1, 2.0).value, 1.5906368546373288, rel_tol=1e-13)
    assert cmath.isclose(bessel_i(2, 1.5 - 0.5j).value,
                         0.266254527265282 - 0.25487418971422743j, rel_tol=1e-13)


def test_bessel_vs_brute_force_sweep():
    rng = np.random.default_rng(29)
    for _ in range(200):
        z = complex(*rng.uniform(-6, 6, 2))
        m = int(rng.integers(0, 8))
        assert cmath.isclose(bessel_i(m, z).value, brute_bessel(m, z),
                             rel_tol=1e-12, abs_tol=1e-250)


def test_bessel_rejects_bad_order():
    with pytest.raises(ValueError):
        bessel_i(-1, 1j)
    with pytest.raises(ValueError):
        bessel_i(1.5, 1j)


def test_hyp0f1_frozen_values():
    assert hyp0f1(1, 0j).value == 1
    assert cmath.isclose(hyp0f1(2, 0.75).value, 1.424917347073156, rel_tol=1e-13)
    assert cmath.isclose(hyp0f1(4, -2 + 1j).value,
                         0.5719195254389176 + 0.16413712610442938j, rel_tol=1e-13)


def test_hyp0f1_vs_brute_force_sweep():
    rng = np.random.default_rng(31)
    for _ in range(200):
        z = complex(*rng.uniform(-10, 10, 2))
        b1 = int(rng.integers(1, 9))
        assert cmath.isclose(hyp0f1(b1, z).value, brute_0f1(b1, z), rel_tol=1e-12)


def test_hyp0f1_rejects_bad_b1():
    with pytest.raises(ValueError):
        hyp0f1(0, 1j)
    with pytest.raises(ValueError):
        hyp0f1(-2, 1j)


def test_conjugation_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(300):
        z = complex(*rng.uniform(-10, 10, 2))
        m = int(rng.integers(0, 11))
        assert cmath.isclose(bessel_i(m, z.conjugate()).value,
                             bessel_i(m, z).value.conjugate(), rel_tol=1e-13, abs_tol=1e-250)
        assert cmath.isclose(hyp0f1(m + 1, z.conjugate()).value,
                             hyp0f1(m + 1, z).value.conjugate(), rel_tol=1e-13)


def test_parity():
    rng = np.random.default_rng(41)
    for _ in range(300):
        z = complex(*rng.uniform(-10, 10, 2))
        m = int(rng.integers(0, 11))
        assert cmath.isclose(bessel_i(m, -z).value, (-1) ** m * bessel_i(m, z).value,
                             rel_tol=1e-13, abs_tol=1e-250)


def test_bridge_identity():
    # I_m(z) = (z/2)^m / m! * 0F1(; m+1; z^2/4)
    rng = np.random.default_rng(43)
    for _ in range(300):
        z = complex(*rng.uniform(-14, 14, 2))
        if z == 0:
            continue
        m = int(rng.integers(0, 11))
        lhs = bessel_i(m, z).value
        rhs = (z / 2) ** m / math.factorial(m) * hyp0f1(m + 1, z * z / 4).value
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-250)


def test_series_bookkeeping():
    res = hyp0f1(3, 2.5 + 1j)
    assert 0 < res.terms_used <= 500
    assert res.truncation_estimate >= 0.0
    # term counts grow with the argument magnitude
    small = hyp0f1(2, 1.0).terms_used
    large = hyp0f1(2, 400.0).terms_used
    assert large > small


def test_non_convergence_raises():
    with pytest.raises(ConvergenceError):
        hyp0f1(1, complex(1e7, 0))
    with pytest.raises(ConvergenceError):
        bessel_i(2, complex(0, 9e4))


# Real and imaginary parts: signed zeros, small integers, moderate floats,
# and any finite float (large ones overflow or exhaust MAX_TERMS).
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300]),
                  st.integers(-40, 40).map(float),
                  st.floats(-1e3, 1e3, allow_nan=False),
                  st.floats(allow_nan=False, allow_infinity=False))
LANES = st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=12)


def _scalar_lane(fn, order, z):
    """repr of both parts, terms_used and repr of the truncation estimate of
    the scalar result, or None where it raises."""
    try:
        res = fn(order, z)
    except ConvergenceError:
        return None
    return repr(res.value.real), repr(res.value.imag), res.terms_used, repr(res.truncation_estimate)


def _lane(lanes, i):
    if not lanes.ok[i]:
        return None
    return (repr(lanes.re[i].item()), repr(lanes.im[i].item()), int(lanes.terms_used[i]),
            repr(lanes.truncation_estimate[i].item()))


@given(LANES, st.lists(st.integers(1, 200), min_size=12, max_size=12))
@example([(0.0, 0.0)], [1] * 12)
@example([(-0.0, -0.0), (0.0, -0.0)], [3] * 12)
# overflow, MAX_TERMS, a large imaginary argument and a plain lane
@example([(1e300, -1e300), (1e7, 0.0), (0.0, 9e4), (0.5, -0.25)], [1] * 12)
def test_lane_series_match_scalar_bit_for_bit(zs, b1s):
    zr, zi = (np.array(part) for part in zip(*zs))
    b1 = np.array(b1s[:len(zs)])
    series = hyp0f1_lanes(b1, zr, zi)
    for i, (re, im) in enumerate(zs):
        assert _lane(series, i) == _scalar_lane(hyp0f1, b1s[i], complex(re, im))

