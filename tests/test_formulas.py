import cmath
import hashlib
import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptrig import (
    ComplexParams,
    ConvergenceError,
    DomainError,
    Method,
    RealParams,
    build_report,
    eval_complex_cos,
    eval_complex_f,
    eval_complex_sin,
    eval_corrected_original_cos,
    eval_corrected_original_f,
    eval_corrected_original_sin,
    eval_f_bessel,
    eval_f_hyp,
    eval_improved_cos,
    eval_improved_sin,
    eval_original_cos,
    eval_original_sin,
    oracle_cos,
    oracle_f,
    oracle_sin,
    overall_sign_error,
)
from exptrig.formulas import LOST_BITS, _alpha_w, _book_constants, _term, eval_lanes

# 0F1(;2;3/4) from independent brute-force partial sums
F01_2_075 = 1.424917347073156


def random_real_params(rng, span=5.0, mmax=8):
    return RealParams(*(float(v) for v in rng.uniform(-span, span, 4)), int(rng.integers(0, mmax + 1)))


def test_params_validation():
    with pytest.raises(ValueError):
        RealParams(float("nan"), 0, 0, 0, 0)
    with pytest.raises(ValueError):
        RealParams(0, 0, 0, 0, -1)
    with pytest.raises(ValueError):
        ComplexParams(complex("inf"), 0, 0, 0, 0)
    with pytest.raises(ValueError):
        ComplexParams(0, 0, 0, 0, 1.5)
    # an int coefficient past the float range, too long for repr at 10**5000
    for record in (RealParams, ComplexParams):
        for big in (10**400, -(10**400), 10**5000):
            with pytest.raises(ValueError, match="past the float range"):
                record(0, 0, big, 0, 1)


RECORDS = pytest.mark.parametrize("record", [RealParams, ComplexParams])


@RECORDS
@pytest.mark.parametrize("m", [True, False, -1, 1.5, 2.0, None])
def test_bad_m_is_refused_with_its_message(record, m):
    with pytest.raises(ValueError) as exc:
        record(0.5, 0.0, 0.0, 0.0, m)
    assert str(exc.value) == f"m must be a non-negative integer, got {m!r}"


@RECORDS
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                                        (10**400, "an int past the float range")])
def test_non_finite_coefficient_is_refused_with_its_message(record, slot, bad, shown):
    coeffs = [0.5, -1.0, 2.0, 0.25]
    coeffs[slot] = bad
    with pytest.raises(ValueError) as exc:
        record(*coeffs, 3)
    assert str(exc.value) == f"parameter {'pqab'[slot]} must be finite, got {shown}"


@RECORDS
def test_valid_records_are_accepted(record):
    class Index(int):
        pass

    for coeffs, m in (((0.5, -1, 2.0, 0), 0), ((1e308, -1e308, 5e-324, -0.0), 7), ((10**300, 0, 0, 1), Index(2))):
        assert record(*coeffs, m).m == m


def test_to_complex_links_float_records_only_and_to_real_refuses_non_real():
    rp = RealParams(0.5, -1.0, 2.0, 0.25, 3)
    assert rp.to_complex().to_real() is rp
    cp = RealParams(1, -1.0, 2.0, 0.25, 3).to_complex()
    assert "real" not in cp._cache
    assert cp.to_real() == RealParams(1.0, -1.0, 2.0, 0.25, 3) and cp.to_real() is cp.to_real()
    non_real = ComplexParams(0.5, 1j, 0.0, 0.0, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="parameters have nonzero imaginary parts"):
            non_real.to_real()
    assert non_real._cache == {}


def test_constants_and_factors():
    rp = RealParams(1.0, -2.0, 0.5, 3.0, 2)
    A, B, C, D = _book_constants(rp.p, rp.q, rp.a, rp.b)
    assert A == 1 - 4 + 0.25 - 9
    assert B == 2 * (1 * -2 + 0.5 * 3)
    assert C == 1 + 4 - 0.25 - 9
    assert D == 2 * (0.5 * 1 + 3 * -2)
    ar, ai, wr, wi = _alpha_w(rp.p, rp.a, rp.q, rp.b)
    assert ar == (1 + 3) / 2 and ai == (0.5 + 2) / 2
    assert wr == C / 4 and wi == D / 4
    # the contour factors X and Y, formed independently of the core
    X, Y = complex(rp.p + rp.b, rp.a - rp.q) / 2, complex(rp.p - rp.b, rp.a + rp.q) / 2
    assert X == complex(ar, ai)
    assert cmath.isclose(X * Y, complex(wr, wi), rel_tol=1e-15)
    ynorm2 = (rp.b - rp.p) ** 2 + (rp.a + rp.q) ** 2
    assert math.isclose(abs(Y) ** 2, ynorm2 / 4, rel_tol=1e-15)


@settings(max_examples=200)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4), st.integers(0, 8))
def test_core_on_real_params_and_their_reflection(coeffs, m):
    # u = p + ia, v = q + ib: alpha is the contour factor X, w = alpha beta is X Y
    # and rounds as the book's (C + iD)/4, and the reflection (p, -q, -a, b)
    # gives the conjugates
    p, q, a, b = coeffs
    ar, ai, wr, wi = _alpha_w(p, a, q, b)
    rp = RealParams(p, q, a, b, m)
    X, Y = complex(p + b, a - q) / 2, complex(p - b, a + q) / 2
    _, _, C, D = _book_constants(p, q, a, b)
    assert complex(ar, ai) == X
    assert (wr, wi) == (C / 4, D / 4)
    scale = p * p + q * q + a * a + b * b
    assert cmath.isclose(complex(wr, wi), X * Y, rel_tol=1e-15, abs_tol=1e-15 * scale)
    assert _alpha_w(p, -a, -q, b) == (ar, -ai, wr, -wi)
    t, terms, trunc = _term(rp)
    assert _term(rp, reflected=True) == (t.conjugate(), terms, trunc)


def test_f_hyp_spot_values():
    # p = b, q = a = 0 gives A' = p, C' = D' = 0: f = 2 pi p^m / m!
    assert cmath.isclose(eval_f_hyp(RealParams(1, 0, 0, 1, 2)).value, math.pi, rel_tol=1e-14)
    for m in range(5):
        got = eval_f_hyp(RealParams(1.7, 0, 0, 1.7, m)).value
        want = 2 * math.pi * 1.7**m / math.factorial(m)
        assert cmath.isclose(got, want, rel_tol=1e-13)
    assert cmath.isclose(eval_f_hyp(RealParams(0, 0, 0, 0, 0)).value, 2 * math.pi, rel_tol=1e-15)
    assert eval_f_hyp(RealParams(0, 0, 0, 0, 3)).value == 0
    assert cmath.isclose(eval_f_hyp(RealParams(-2, 0, 0, 1, 1)).value,
                         -math.pi * F01_2_075, rel_tol=1e-13)


def test_f_bessel_reproduces_the_sign_bug():
    flipped = eval_f_bessel(RealParams(-2, 0, 0, 1, 1)).value
    truth = eval_f_hyp(RealParams(-2, 0, 0, 1, 1)).value
    assert cmath.isclose(flipped, -truth, rel_tol=1e-12)
    assert flipped.real > 0
    assert eval_f_bessel(RealParams(-2, 0, 0, 1, 1)).route is Method.OriginalBessel


def test_f_bessel_domain_error_at_y_zero():
    with pytest.raises(DomainError):
        eval_f_bessel(RealParams(1, 0, 0, 1, 2))
    with pytest.raises(DomainError):
        eval_f_bessel(RealParams(2.5, -1.5, 1.5, 2.5, 1))


@pytest.mark.parametrize("m", [10**400, 10**5000], ids=["10**400", "10**5000"])
def test_every_route_refuses_an_m_past_the_float_range(m):
    # No refusal prints such an m: 10**5000 has more digits than str() of
    # an int makes.
    real, cplx = RealParams(1.0, 0.0, 0.0, 0.0, m), ComplexParams(1j, 0j, 0j, 0j, m)
    routes = [(fn, real) for fn in (eval_original_sin, eval_original_cos, eval_f_bessel,
                                    eval_corrected_original_sin, eval_corrected_original_cos,
                                    eval_corrected_original_f, eval_improved_sin, eval_improved_cos,
                                    eval_f_hyp)]
    routes += [(fn, cplx) for fn in (eval_complex_f, eval_complex_sin, eval_complex_cos)]
    for fn, params in routes:
        with pytest.raises(DomainError, match="past the float range"):
            fn(params)


def test_f_bessel_agrees_where_no_condition_fires():
    # The second sampler reaches the cancelling series at large |a|, |b|
    # and m, where the two routes must still agree.
    for span, mmax in ((5.0, 8), (30.0, 40)):
        rng = np.random.default_rng(61)
        hits = 0
        while hits < 60:
            rp = random_real_params(rng, span=span, mmax=mmax)
            rep = build_report(rp)
            if rep.y_is_zero or rep.overall:
                continue
            hits += 1
            fb = eval_f_bessel(rp).value
            fh = eval_f_hyp(rp).value
            assert cmath.isclose(fb, fh, rel_tol=1e-11, abs_tol=1e-12)


def test_f_bessel_flips_exactly_when_overall_and_odd():
    # The second sampler reaches the cancelling series at large |a|, |b|
    # and m, where the two routes must still differ only by the flip.
    for span, mmax in ((5.0, 8), (30.0, 40)):
        rng = np.random.default_rng(67)
        hits = 0
        while hits < 60:
            rp = random_real_params(rng, span=span, mmax=mmax)
            rep = build_report(rp)
            if rep.y_is_zero or not rep.overall or rp.m % 2 == 0:
                continue
            hits += 1
            fb = eval_f_bessel(rp).value
            fh = eval_f_hyp(rp).value
            assert cmath.isclose(fb, -fh, rel_tol=1e-10, abs_tol=1e-12)


def test_original_components_zero_component_case():
    # a = q = 0 with p < b: cos flips, sin stays (correctly) zero
    rp = RealParams(-2, 0, 0, 1, 1)
    s = eval_original_sin(rp).value
    c = eval_original_cos(rp).value
    oc = oracle_cos(rp).value
    os_ = oracle_sin(rp).value
    assert abs(s) < 1e-12 and abs(os_) < 1e-12
    assert cmath.isclose(c, -oc, rel_tol=1e-10)


def test_original_sin_flips_in_case3_region():
    # a = -q with p < b: only case 3 fires; f is imaginary-heavy here so
    # check both components against the oracle with the parity law
    rp = RealParams(0, -1, 1, 1, 1)
    rep = build_report(rp)
    assert rep.overall and rep.flip_applies
    s = eval_original_sin(rp).value.real
    c = eval_original_cos(rp).value.real
    os_ = oracle_sin(rp).value.real
    oc = oracle_cos(rp).value.real
    scale = max(1.0, abs(os_), abs(oc))
    assert abs(s + os_) < 1e-10 * scale
    assert abs(c + oc) < 1e-10 * scale or abs(oc) < 1e-12


def test_corrected_equals_improved():
    pts = [RealParams(-2, 0, 0, 1, 1), RealParams(-3, 1, 0.5, 2, 3), RealParams(1, 1, 1, 1, 1),
           RealParams(-2, 0, 0, 1, 2), RealParams(0.5, -2, 1, -1, 4)]
    rng = np.random.default_rng(71)
    while len(pts) < 80:
        rp = random_real_params(rng)
        if not (rp.a == -rp.q and rp.p == rp.b):
            pts.append(rp)
    for rp in pts:
        cs = eval_corrected_original_sin(rp).value
        cc = eval_corrected_original_cos(rp).value
        is_ = eval_improved_sin(rp).value
        ic = eval_improved_cos(rp).value
        scale = max(abs(is_), abs(ic), 1e-2)
        assert abs(cs - is_) <= 1e-10 * scale
        assert abs(cc - ic) <= 1e-10 * scale
        assert eval_corrected_original_sin(rp).route is Method.CorrectedBessel


def test_corrected_is_identity_without_flip():
    rp = RealParams(2, 1, 0.5, -1, 3)
    assert not build_report(rp).overall
    assert eval_corrected_original_cos(rp).value == eval_original_cos(rp).value
    rp_even = RealParams(-2, 0, 0, 1, 2)   # overall holds but m is even
    assert eval_corrected_original_cos(rp_even).value == eval_original_cos(rp_even).value


def test_improved_matches_oracle_spot_checks():
    rng = np.random.default_rng(73)
    for _ in range(40):
        rp = random_real_params(rng, span=4.0, mmax=6)
        s = eval_improved_sin(rp)
        c = eval_improved_cos(rp)
        os_ = oracle_sin(rp).value
        oc = oracle_cos(rp).value
        assert abs(s.value - os_) <= max(1e-10 * abs(os_), 1e-12)
        assert abs(c.value - oc) <= max(1e-10 * abs(oc), 1e-12)
        # real inputs produce exactly real results in this route
        assert s.value.imag == 0.0
        assert c.value.imag == 0.0


def test_improved_sin_vanishes_for_matched_exponents():
    for m in range(6):
        assert eval_improved_sin(RealParams(1.3, 0, 0, 1.3, m)).value == 0


def test_m_zero_results_are_real_not_zero():
    rp = RealParams(1.0, -2.0, 0.5, 3.0, 0)
    s = eval_improved_sin(rp).value
    c = eval_improved_cos(rp).value
    assert s.imag == 0 and c.imag == 0
    assert abs(s) > 0.1   # B', D' nonzero: the two 0F1 arguments differ


# A sum of squares that two operand orders round one ulp apart, so a
# complex route that built C' = (p^2+q^2-a^2-b^2)/4 its own way would miss
# the improved route in the last bit.
C_PRIME_ROUNDING_POINT = RealParams(0.969991231274494, 1.6003918596098217,
                                   -2.0561046364934343, 2.0212368966586736, 0)


def test_complex_reduces_to_improved_bit_for_bit():
    rng = np.random.default_rng(79)
    pts = [C_PRIME_ROUNDING_POINT] + [random_real_params(rng) for _ in range(50)]
    for rp in pts:
        cp = rp.to_complex()
        assert eval_complex_sin(cp).value == eval_improved_sin(rp).value
        assert eval_complex_cos(cp).value == eval_improved_cos(rp).value


# A coefficient: signed zeros, ints, moderate floats and sizes where the
# closed forms overflow, as a plain number or a complex whose imaginary
# part is +0.0 or -0.0.
COEFFICIENT = st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1e154, -1.25e154, 6.5e153, 1e-154]),
                                  st.integers(-6, 6), st.floats(-5.0, 5.0, allow_nan=False)),
                        st.sampled_from([None, 0.0, -0.0]))
FAMILIES = {"f": (eval_complex_f, eval_f_hyp, eval_corrected_original_f, eval_f_bessel),
            "sin": (eval_complex_sin, eval_improved_sin, eval_corrected_original_sin, eval_original_sin),
            "cos": (eval_complex_cos, eval_improved_cos, eval_corrected_original_cos, eval_original_cos)}


def _outcome(compute):
    """repr of the value, the count, repr of the bound and the route of
    compute()'s result, or the type and message of its refusal."""
    try:
        res = compute()
    except (DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return repr(res.value), res.count, repr(res.bound), res.route


@settings(max_examples=200)
@given(st.lists(COEFFICIENT, min_size=4, max_size=4), st.integers(0, 8))
@example([(C_PRIME_ROUNDING_POINT.p, None), (C_PRIME_ROUNDING_POINT.q, None),
          (C_PRIME_ROUNDING_POINT.a, None), (C_PRIME_ROUNDING_POINT.b, None)], 0)
# the flip applies, with signed zeros in the parts
@example([(-2, -0.0), (-0.0, 0.0), (-0.0, None), (1.0, -0.0)], 1)
# Y = 0, where the original refuses
@example([(1, -0.0), (-0.5, None), (0.5, 0.0), (1.0, None)], 1)
# f overflows in both forms; |C + iD| overflows in the original
@example([(1e154, None), (0.0, None), (0.0, None), (1e154, -0.0)], 2)
@example([(-1.25e154, 0.0), (0.0, None), (6.5e153, None), (0, None)], 0)
def test_complex_reduces_to_improved_bit_for_bit_property(coeffs, m):
    # Each side on its own fresh record, so that none reads what another stored.
    args = [re if im is None else complex(re, im) for re, im in coeffs]

    def real():
        return ComplexParams(*args, m).to_real()

    rp = real()
    flip = -1.0 if (m % 2 == 1 and overall_sign_error(rp.p, rp.q, rp.a, rp.b)) else 1.0

    def flipped(original):
        res = original(real())
        return res._replace(value=flip * res.value, route=Method.CorrectedBessel)

    for kind, (complex_route, improved, corrected, original) in FAMILIES.items():
        # the complex route at a real-valued record is the improved route at to_real()
        want = _outcome(lambda: improved(real())._replace(route=Method.Hyp0F1Complex))
        assert _outcome(lambda: complex_route(ComplexParams(*args, m))) == want, kind
        # each corrected route is the original times -1 where m is odd and the overall condition holds
        assert _outcome(lambda: corrected(real())) == _outcome(lambda: flipped(original)), kind


# Each record type answers is_real and to_real(), and a route reads its record through them.
NON_REAL = ComplexParams(1 + 1j, 0.5, 0.25j, 1, 1)


def test_complex_sin_at_a_non_real_record_matches_the_oracle():
    res, ref = eval_complex_sin(NON_REAL), oracle_sin(NON_REAL)
    assert cmath.isclose(res.value, -1.5017461343186673 + 0.9202451791016453j, rel_tol=1e-14)
    assert abs(res.value - ref.value) <= ref.bound


@pytest.mark.parametrize("route", [eval_improved_sin, eval_original_sin, eval_f_hyp,
                                   eval_corrected_original_cos, build_report])
def test_real_routes_refuse_a_non_real_record(route):
    # not Im f, a misread book form or a mislabelled complex f
    with pytest.raises(ValueError, match="nonzero imaginary parts"):
        route(NON_REAL)


def test_complex_routes_take_a_real_record_as_the_improved_route():
    rp = RealParams(1, 0.5, 0.25, 1, 1)
    for complex_route, improved in ((eval_complex_sin, eval_improved_sin),
                                    (eval_complex_cos, eval_improved_cos), (eval_complex_f, eval_f_hyp)):
        want = improved(rp)._replace(route=Method.Hyp0F1Complex)
        assert repr(complex_route(rp)) == repr(want)


def test_real_routes_read_a_real_valued_complex_record_as_its_real_record():
    rp = RealParams(-1.3, 0.4, 0.7, 1.9, 3)
    for route in (eval_original_sin, eval_corrected_original_cos, eval_f_hyp, build_report):
        assert repr(route(ComplexParams(-1.3, 0.4 - 0j, 0.7, 1.9, 3))) == repr(route(rp))


def test_complex_golden_value():
    # p = b = 1+i, q = a = 0, m = 2: integral = 2 pi (1+i)^2 / 2! = 2 pi i
    cp = ComplexParams(1 + 1j, 0, 0, 1 + 1j, 2)
    got = eval_complex_cos(cp).value
    assert cmath.isclose(got, 2j * math.pi, rel_tol=1e-13)


def test_complex_matches_oracle_spot_checks():
    rng = np.random.default_rng(83)
    for _ in range(25):
        v = rng.uniform(-2.5, 2.5, 8)
        cp = ComplexParams(complex(v[0], v[1]), complex(v[2], v[3]),
                           complex(v[4], v[5]), complex(v[6], v[7]), int(rng.integers(0, 7)))
        s = eval_complex_sin(cp).value
        c = eval_complex_cos(cp).value
        os_ = oracle_sin(cp).value
        oc = oracle_cos(cp).value
        assert abs(s - os_) <= max(1e-9 * abs(os_), 1e-11)
        assert abs(c - oc) <= max(1e-9 * abs(oc), 1e-11)


def test_complex_f_composition_matches_oracle():
    cp = ComplexParams(0.5 + 0.5j, -1, 1j, 0.25, 2)
    f = eval_complex_cos(cp).value + 1j * eval_complex_sin(cp).value
    of = oracle_f(cp).value
    assert cmath.isclose(f, of, rel_tol=1e-10)


def test_complex_f_is_one_series_matching_oracle():
    rng = np.random.default_rng(97)
    for _ in range(25):
        v = rng.uniform(-2.5, 2.5, 8)
        cp = ComplexParams(complex(v[0], v[1]), complex(v[2], v[3]),
                           complex(v[4], v[5]), complex(v[6], v[7]), int(rng.integers(0, 7)))
        res = eval_complex_f(cp)
        of = oracle_f(cp).value
        assert abs(res.value - of) <= max(1e-9 * abs(of), 1e-11)
        assert res.route is Method.Hyp0F1Complex
        cos_sin = eval_complex_cos(cp).value + 1j * eval_complex_sin(cp).value
        assert abs(res.value - cos_sin) <= 1e-12 * max(1.0, abs(of))
        # f is one of the two series the sin/cos split sums
        assert res.count < eval_complex_cos(cp).count


def _mp_f_over_2pi(p, q, a, b, m):
    """f/2pi = alpha^m/m! 0F1(; m+1; alpha beta) at 50 digits, with the size of
    its rounding error in ulps: the sum of the series' term moduli plus the
    first-order effect of rounding alpha and w from u and v."""
    with mpmath.workdps(50):
        u, v = mpmath.mpc(p) + 1j * mpmath.mpc(a), mpmath.mpc(q) + 1j * mpmath.mpc(b)
        alpha, w = (u - 1j * v) / 2, (u * u + v * v) / 4
        power, h, fact = abs(alpha) ** m, abs(u) + abs(v), mpmath.factorial(m)
        terms = power / fact * mpmath.hyp0f1(m + 1, abs(w))
        d_alpha = m * abs(alpha) ** (m - 1) / fact * mpmath.hyp0f1(m + 1, abs(w)) * h if m else 0
        d_w = power / fact * mpmath.hyp0f1(m + 2, abs(w)) / (m + 1) * h * h
        return alpha ** m / fact * mpmath.hyp0f1(m + 1, w), terms + d_alpha + d_w


@settings(max_examples=300)
@given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4), st.integers(0, 6))
@example([0.5 + 0.5j, -1, 1j, 0.25], 2)
def test_complex_routes_match_mpmath_term_and_reflection(coeffs, m):
    # f = 2pi t(p, q, a, b), cos = pi (t + r), sin = i pi (r - t), with r the
    # same term at the reflection (p, -q, -a, b); within 4 ulps of the sizes
    p, q, a, b = coeffs
    cp = ComplexParams(p, q, a, b, m)
    t, size_t = _mp_f_over_2pi(p, q, a, b, m)
    r, size_r = _mp_f_over_2pi(p, -q, -a, b, m)
    ulp = 4 * 2.0**-52 * mpmath.pi
    with mpmath.workdps(50):
        for got, want, size in ((eval_complex_f(cp).value, 2 * t, 2 * size_t),
                                (eval_complex_cos(cp).value, t + r, size_t + size_r),
                                (eval_complex_sin(cp).value, 1j * (r - t), size_t + size_r)):
            assert abs(mpmath.mpc(got) - mpmath.pi * want) <= ulp * size


LARGE_M = (30, 60, 100, 171, 200, 400)


def _large_m_points(m):
    """40 seeded real and 40 complex points at harmonic m, every coefficient
    of modulus at most 3 (complex parts in [-2.1, 2.1])."""
    rng = np.random.default_rng(1000 + m)
    real = [(*rng.uniform(-3.0, 3.0, 4).tolist(), m) for _ in range(40)]
    cplx = [(*(complex(x, y) for x, y in rng.uniform(-2.1, 2.1, (4, 2)).tolist()), m) for _ in range(40)]
    return real, cplx


def _large_m_miss(got, want, size, m):
    """|got - 2pi want| over the allowance (m + 10) u 2pi size, u = 2^-53, plus
    an absolute floor of (m + 10) 2pi 2^-1074 for values below the normal range:
    above 1 the route missed."""
    with mpmath.workdps(50):
        allowance = (m + 10) * 2 * mpmath.pi * (2.0**-53 * size + 2.0**-1074)
        return float(abs(mpmath.mpc(got) - 2 * mpmath.pi * want) / allowance)


@pytest.mark.parametrize("m", LARGE_M)
def test_improved_and_complex_routes_at_large_m(m):
    # The sweeps draw m <= 8. f/2pi against mpmath at 50 digits; the complex
    # sin and cos are the term and its reflection, as in the test above.
    real, cplx = _large_m_points(m)
    for point in real:
        want, size = _mp_f_over_2pi(*point)
        assert _large_m_miss(eval_f_hyp(RealParams(*point)).value, want, size, m) <= 1, point
    for p, q, a, b, _ in cplx:
        cp = ComplexParams(p, q, a, b, m)
        t, size_t = _mp_f_over_2pi(p, q, a, b, m)
        r, size_r = _mp_f_over_2pi(p, -q, -a, b, m)
        for got, want, size in ((eval_complex_f(cp).value, t, size_t),
                                (eval_complex_cos(cp).value, (t + r) / 2, (size_t + size_r) / 2),
                                (eval_complex_sin(cp).value, 1j * (r - t) / 2, (size_t + size_r) / 2)):
            assert _large_m_miss(got, want, size, m) <= 1, (p, q, a, b, m)


# Points of the draw (and one more) where the original route's Bessel
# prefix (z/2)^m/m! is subnormal, so it has lost bits: the route missed its
# allowance there with a bound of 0.0, and now refuses. Scaled prefixes
# would let it answer.
ORIGINAL_LARGE_M_MISSES = [
    (-0.8169948238583862, 0.9696241114781365, -1.5779248059739996, 0.16540999266734335, 171),
    (0.12309983868478369, -2.5527187029586162, 2.9510828296593976, -2.341345305558102, 200),
]


def _original_large_m_miss(point, refused=0.0):
    """How far the original route times its predicted (-1)^m misses the
    allowance at point, or refused where it refuses with a typed error."""
    try:
        value = eval_f_bessel(RealParams(*point)).value
    except (DomainError, ConvergenceError):
        return refused
    flip = -1.0 if point[4] % 2 and overall_sign_error(*point[:4]) else 1.0
    return _large_m_miss(flip * value, *_mp_f_over_2pi(*point), point[4])


@pytest.mark.parametrize("m", LARGE_M)
def test_original_route_at_large_m_is_right_or_refuses(m):
    for point in _large_m_points(m)[0]:
        if point not in ORIGINAL_LARGE_M_MISSES:
            assert _original_large_m_miss(point) <= 1, point


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2b: the original route refuses where its Bessel prefix "
                                      "is subnormal; scaled prefixes would let it answer")
@pytest.mark.parametrize("point", ORIGINAL_LARGE_M_MISSES)
def test_original_route_misses_at_large_m_where_its_prefix_is_subnormal(point):
    # an answer within the allowance, which a refusal is not
    assert _original_large_m_miss(point, refused=math.inf) <= 1


# (b-p)^2 + (a+q)^2 = 1e-320 at the first point; the Bessel prefix at the
# large-m ones. At m = 0 every power is 1, so nothing is lost there.
@pytest.mark.parametrize("point", [(1e-160, 3e-161, 5e-161, 0.0, 1), *ORIGINAL_LARGE_M_MISSES])
def test_original_route_refuses_where_an_operand_is_subnormal(lane_contract, point):
    for route in (eval_f_bessel, eval_original_sin, eval_original_cos, eval_corrected_original_f,
                  eval_corrected_original_sin, eval_corrected_original_cos):
        with pytest.raises(DomainError, match="subnormal, so it has lost bits"):
            route(RealParams(*point))
    p, q, a, b = (np.array([x]) for x in point[:4])
    for kind in ("f", "sin", "cos"):
        improved, original = eval_lanes(p, q, a, b, point[4], kind)
        lane_contract(original)
        assert improved.ok[0] and original.error == [LOST_BITS], kind
    assert eval_f_bessel(RealParams(*point[:4], 0)).route is Method.OriginalBessel


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2 and 14: the 0F1 series cancels at large |a| and |b|")
def test_item_2_14_improved_cos_at_large_a_and_b_matches_mpmath():
    with mpmath.workdps(30):
        want = float(mpmath.quad(lambda x: mpmath.cos(24 * mpmath.cos(x) + 24 * mpmath.sin(x) - x),
                                 mpmath.linspace(0, 2 * mpmath.pi, 33)))
    assert math.isclose(want, 0.598735040974315, rel_tol=1e-14)
    got = eval_improved_cos(RealParams(0.0, 0.0, 24.0, 24.0, 1)).value.real
    assert math.isclose(got, want, rel_tol=1e-12), got


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: w = (p^2+q^2-a^2-b^2)/4 cancels in floats, unrefused")
def test_item_2_f_hyp_where_w_cancels_is_2pi():
    # u + iv = 0, so beta = 0 and f = 2pi alpha^0/0! exactly
    assert eval_f_hyp(RealParams(1.0, -2.0**50, 2.0**50, 1.0, 0)).value == 2 * math.pi


def test_corrected_f_combines_corrected_sin_and_cos():
    rng = np.random.default_rng(101)
    pts = [RealParams(-2, 0, 0, 1, 1), RealParams(-3, 1, 0.5, 2, 3), RealParams(-2, 0, 0, 1, 2)]
    pts += [random_real_params(rng, span=4.0, mmax=6) for _ in range(40)]
    for rp in pts:
        res = eval_corrected_original_f(rp)
        assert res.route is Method.CorrectedBessel
        assert res.value.real == eval_corrected_original_cos(rp).value.real
        assert res.value.imag == eval_corrected_original_sin(rp).value.real
        of = oracle_f(rp).value
        assert abs(res.value - of) <= max(1e-9 * abs(of), 1e-11)


def test_discrepancy_law_componentwise():
    # original = (-1)^flip * improved, except exactly-zero components
    rng = np.random.default_rng(89)
    checked = 0
    while checked < 120:
        rp = random_real_params(rng)
        rep = build_report(rp)
        if rep.y_is_zero:
            continue
        checked += 1
        sign = -1.0 if rep.flip_applies else 1.0
        for orig_fn, impr_fn in ((eval_original_sin, eval_improved_sin),
                                 (eval_original_cos, eval_improved_cos)):
            o = orig_fn(rp).value.real
            i = impr_fn(rp).value.real
            scale = max(1.0, abs(i))
            if abs(i) < 1e-12 * scale:
                assert abs(o) < 1e-9 * scale
            else:
                assert abs(o - sign * i) < 1e-9 * scale


def test_eval_result_bookkeeping():
    res = eval_improved_cos(RealParams(1, 2, 3, 4, 5))
    assert res.count > 0
    assert res.bound >= 0.0
    assert res.route is Method.Hyp0F1Real
    assert eval_complex_sin(ComplexParams(1j, 0, 0, 0, 1)).route is Method.Hyp0F1Complex


@given(st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1e-170, 1e-160]),
                                      st.integers(-6, 6).map(float),
                                      st.floats(-8.0, 8.0, allow_nan=False))] * 4),
                min_size=1, max_size=10),
       st.sampled_from([0, 1, 2, 3, 5, 8, 40, 171]))
@example([(0.5, 0.0, 0.0, 1.0), (1e-170, 0.0, 1e-170, 0.0), (1e-160, 0.0, 0.0, 0.0),
          (1.0, -1.0, 1.0, 1.0), (-0.0, -0.0, -0.0, -0.0)], 171)
# values past the float range: 2pi [(b-p)^2 + (a+q)^2]^(-m/2), its product
# with (A-iB)^(m/2), and the 0F1 form's value; at (713, 0, 0, 0) and
# (0, 1e154, -1e154, 1e-154) Re f overflows in the original and the 0F1
# form, but Im f does not, so sin is not refused
@example([(1e-154, 0.0, 0.0, 0.0), (3e153, 0.0, 2e-154, 3e153), (1e154, 0.0, 0.0, 1e154),
          (2e-154, 0.0, 0.0, 0.0), (713.0, 0.0, 0.0, 0.0), (0.0, 1e154, -1e154, 1e-154)], 2)
# |C + iD| overflows though C and D do not: the scalar abs raises OverflowError
@example([(1.25e154, 0.0, 6.5e153, 0.0)], 0)
def test_lane_closed_forms_match_scalar_bit_for_bit(lane_contract, points, m):
    p, q, a, b = (np.array(x) for x in zip(*points))
    routes = {"f": (eval_f_hyp, eval_f_bessel), "sin": (eval_improved_sin, eval_original_sin),
              "cos": (eval_improved_cos, eval_original_cos)}
    for kind, scalars in routes.items():
        for scalar, out in zip(scalars, eval_lanes(p, q, a, b, m, kind)):
            lane_contract(out)
            for i, pt in enumerate(points):
                try:
                    res = scalar(RealParams(*pt, m))
                    want = repr(res.value), res.count, repr(res.bound)
                except (DomainError, ConvergenceError) as exc:
                    want = str(exc)
                got = ((repr(complex(out.value[i])), int(out.count[i]), repr(out.bound[i].item()))
                       if out.ok[i] else out.error[i])
                assert got == want, (scalar.__name__, pt)


def _route_outcome(route, params):
    """A route's value, count and bound as reprs, or its refusal's message."""
    try:
        res = route(params)
    except (DomainError, ConvergenceError) as exc:
        return str(exc)
    return repr(res.value), res.count, repr(res.bound)


# The original route at its edges, each point with the refusal it gets
# (None where it answers): Y = 0; (b-p)^2 + (a+q)^2 underflowing to 0, or
# subnormal at (2e-160, 0, 0, 1e-160); powers past the float range, Y^m = 0 and (b-p)^2 + (a+q)^2 = inf among
# them; at m = 0, (b-p)^2 = inf with C = D = 0, where the route answers
# 2pi since Y^0 = 1; an int p whose exact square is past the float range,
# which RealParams keeps and the lanes take as 1e200; and the four
# original points of test_eval_original_overflow_exit_3.
ORIGINAL_EDGES = [
    ([((1.0, -0.5, 0.5, 1.0), "(Y = 0)"), ((-0.0, 2.0, -2.0, 0.0), "(Y = 0)"),
      ((2e-160, 0.0, 0.0, 1e-160), "subnormal"), ((-2.0, 0.5, 0.7, 1.0), None)], 1),
    ([((1e-170, 0.0, 1e-170, 0.0), "underflows to 0"), ((-1e-200, 1e-200, 0.0, 1e-200), "underflows to 0"),
      ((1e-160, 0.0, 0.0, 0.0), "overflows"), ((1e200, 0.0, 0.0, 0.0), "overflows"),
      ((1e308, 0.0, 0.0, -1e308), "overflows"), ((10**200, 0, 0, 0), "overflows"),
      ((-2.0, 0.5, 0.7, 1.0), None)], 3),
    ([((40.0, 0.0, 0.0, 0.0), "overflows"), ((1e100, 0.0, 0.0, -1e100), "overflows"),
      ((0.5, 0.0, 0.0, 1.0), "underflowed")], 400),
    ([((1.25e154, 0.0, 6.5e153, 0.0), "overflows"), ((1e154, 0.0, 0.0, -1e154), None),
      ((10**200, 0, 0, 0), "overflows"), ((1.0, 1.0, 1.0, 1.0), None)], 0),
    ([((1e-154, 0.0, 0.0, 0.0), "overflows"), ((3e153, 0.0, 2e-154, 3e153), "overflows"),
      ((0.3, -0.2, 0.0, 0.1), None)], 2),
]


@pytest.mark.parametrize("cases, m", ORIGINAL_EDGES)
def test_original_lanes_are_the_scalar_routes_at_their_edges(lane_contract, cases, m):
    # eval_lanes' original lanes are eval_f_bessel and eval_original_* bit
    # for bit, refusals' messages included, and times the flip they are
    # eval_corrected_original_*.
    points = [pt for pt, _ in cases]
    p, q, a, b = (np.array(x, dtype=float) for x in zip(*points))
    routes = {"f": (eval_f_bessel, eval_corrected_original_f), "sin": (eval_original_sin, eval_corrected_original_sin),
              "cos": (eval_original_cos, eval_corrected_original_cos)}
    for kind, (original, corrected) in routes.items():
        out = eval_lanes(p, q, a, b, m, kind)[1]
        lane_contract(out)
        for i, (pt, reason) in enumerate(cases):
            flip = -1.0 if m % 2 == 1 and overall_sign_error(*pt) else 1.0
            if out.ok[i]:
                value = complex(out.value[i])
                rest = int(out.count[i]), repr(out.bound[i].item())
                got, got_corrected = (repr(value), *rest), (repr(flip * value), *rest)
            else:
                got = got_corrected = out.error[i]
            assert got == _route_outcome(original, RealParams(*pt, m)), (kind, pt)
            assert got_corrected == _route_outcome(corrected, RealParams(*pt, m)), (kind, pt)
            assert (reason is None) if out.ok[i] else (reason in out.error[i]), (kind, pt, out.error[i])


# Every public scalar route, pinned bit for bit at seeded points.
REAL_ROUTES = (eval_f_bessel, eval_original_sin, eval_original_cos, eval_corrected_original_f,
               eval_corrected_original_sin, eval_corrected_original_cos, eval_f_hyp, eval_improved_sin,
               eval_improved_cos)
COMPLEX_ROUTES = (eval_complex_f, eval_complex_sin, eval_complex_cos)
ROUTE_PINS = Path(__file__).with_name("route_pins.json")


def _pinned_records():
    """The records each route is pinned at, as {set name: [record]}.

    real: 600 points in [-5, 5]^4, m cycling through 0..60; complex: 300
    points, each coefficient of modulus <= 3, m cycling likewise; edges:
    Y = 0, int coefficients, m = 0, signed zeros, refusals past the float
    range (the points of test_cli's test_eval_original_overflow_exit_3
    among them) and points where only some kinds overflow."""
    rng = random.Random("exptrig route pins")
    real = [RealParams(*(rng.uniform(-5.0, 5.0) for _ in range(4)), i % 61) for i in range(600)]
    complex_ = [ComplexParams(*(cmath.rect(3.0 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
                                for _ in range(4)), i % 61) for i in range(300)]
    edges = [RealParams(*pt, m) for pt, m in (
        ((1.0, -0.5, 0.5, 1.0), 1), ((-0.0, 2.0, -2.0, -0.0), 3), ((0.0, 0.0, 0.0, 0.0), 0),
        ((0.0, 0.0, 0.0, 0.0), 2), ((-0.0, -0.0, -0.0, -0.0), 1), ((-1.0, -0.0, 0.0, 1.0), 1),
        ((-2.0, 0.5, -0.0, 1.0), 3), ((0.0, -0.0, 0.5, 0.0), 1), ((1, 2, 3, 4), 3), ((-2, 1, 0, 1), 5),
        ((3, 0, 0, 3), 1), ((10**200, 0, 0, 0), 1), ((10**200, 0, 0, 0), 0), ((0.3, -0.2, 0.1, 0.4), 0),
        ((-4.0, 0.0, 0.0, 2.0), 0), ((1e-160, 0.0, 0.0, 0.0), 3), ((1.25e154, 0.0, 6.5e153, 0.0), 0),
        ((1e-154, 0.0, 0.0, 0.0), 2), ((3e153, 0.0, 2e-154, 3e153), 2), ((1e154, 0.0, 0.0, 1e154), 2),
        ((1e154, 0.0, 0.0, -1e154), 0), ((1e-170, 0.0, 1e-170, 0.0), 3), ((1e308, 0.0, 0.0, -1e308), 1),
        ((713.0, 0.0, 0.0, 0.0), 2), ((0.0, 1e154, -1e154, 1e-154), 2), ((40.0, 0.0, 0.0, 0.0), 400),
        ((0.5, 0.0, 0.0, 1.0), 400), ((1.0, 0.0, 0.0, 0.0), 10**400))]
    edges += [ComplexParams(*pt, m) for pt, m in (
        ((complex(1.0, -0.0), complex(-0.0, 0.0), 0j, complex(2.0, -0.0)), 1),
        ((1 + 2j, 0j, 0j, 1 + 2j), 3), ((0j, 0j, 0j, 0j), 0), ((1j, -1j, 1j, -1j), 2),
        ((complex(1e154, 1.0), 0j, 0j, complex(1e154, 0.0)), 2), ((2.5 + 0j, 1j, 0.5 + 0j, -1j), 0),
        ((1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j), 10**400))]
    return {"real": real, "complex": complex_, "edges": edges}


def _pinned_outcome(route, params) -> str:
    """A route's value (both parts), route, count and bound in float.hex, or
    its refusal's type and message."""
    try:
        res = route(params)
    except (DomainError, ConvergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{res.value.real.hex()} {res.value.imag.hex()} {res.route.value} {res.count} {res.bound.hex()}"


def _route_pins() -> dict:
    """For each route and set of records, the number of records, how many
    the route refuses, and the SHA-256 of its outcomes, one line each.
    The real routes take the real records; the complex routes take the
    complex ones, and the real ones through to_complex()."""
    pins = {}
    for name, records in _pinned_records().items():
        real = [r for r in records if isinstance(r, RealParams)]
        complex_ = [r if isinstance(r, ComplexParams) else r.to_complex() for r in records]
        for route, points in [(route, real) for route in REAL_ROUTES] + [(route, complex_) for route in COMPLEX_ROUTES]:
            if not points:
                continue
            lines = [_pinned_outcome(route, params) for params in points]
            pins.setdefault(route.__name__, {})[name] = {
                "records": len(lines), "refused": sum(": " in line for line in lines),
                "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}
    return pins


def test_every_route_keeps_its_outcomes_bit_for_bit():
    # route_pins.json is _route_pins() at a commit whose routes were checked
    # against mpmath and the oracle by the tests above. The values are IEEE
    # +, -, *, / and sqrt plus libm hypot (complex abs), so the pins hold on
    # one libc; another libc's hypot may move a bound or a
    # refusal's printed |w| in its last bits.
    assert _route_pins() == json.loads(ROUTE_PINS.read_text())
