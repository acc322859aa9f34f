import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptrig import (
    ComplexParams,
    ConvergenceError,
    DomainError,
    IntermediateFactors,
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
)
from exptrig.formulas import _alpha_w, _book_constants, _term, eval_f_lanes

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
    fac = IntermediateFactors.from_params(rp)
    assert fac.X == complex(ar, ai)
    assert cmath.isclose(fac.X * fac.Y, complex(wr, wi), rel_tol=1e-15)
    ynorm2 = (rp.b - rp.p) ** 2 + (rp.a + rp.q) ** 2
    assert math.isclose(abs(fac.Y) ** 2, ynorm2 / 4, rel_tol=1e-15)


@settings(max_examples=200)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4), st.integers(0, 8))
def test_core_on_real_params_and_their_reflection(coeffs, m):
    # u = p + ia, v = q + ib: alpha is the contour factor X, w = alpha beta is X Y
    # and rounds as the book's (C + iD)/4, and the reflection (p, -q, -a, b)
    # gives the conjugates
    p, q, a, b = coeffs
    ar, ai, wr, wi = _alpha_w(p, a, q, b)
    rp = RealParams(p, q, a, b, m)
    fac = IntermediateFactors.from_params(rp)
    _, _, C, D = _book_constants(p, q, a, b)
    assert complex(ar, ai) == fac.X
    assert (wr, wi) == (C / 4, D / 4)
    scale = p * p + q * q + a * a + b * b
    assert cmath.isclose(complex(wr, wi), fac.X * fac.Y, rel_tol=1e-15, abs_tol=1e-15 * scale)
    assert _alpha_w(p, -a, -q, b) == (ar, -ai, wr, -wi)
    t, terms, trunc = _term(p, a, q, b, m)
    assert _term(p, -a, -q, b, m) == (t.conjugate(), terms, trunc)


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
    assert eval_f_bessel(RealParams(-2, 0, 0, 1, 1)).method is Method.OriginalBessel


def test_f_bessel_domain_error_at_y_zero():
    with pytest.raises(DomainError):
        eval_f_bessel(RealParams(1, 0, 0, 1, 2))
    with pytest.raises(DomainError):
        eval_f_bessel(RealParams(2.5, -1.5, 1.5, 2.5, 1))


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
        assert eval_corrected_original_sin(rp).method is Method.CorrectedBessel


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


@settings(max_examples=200)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4), st.integers(0, 8))
@example([C_PRIME_ROUNDING_POINT.p, C_PRIME_ROUNDING_POINT.q,
          C_PRIME_ROUNDING_POINT.a, C_PRIME_ROUNDING_POINT.b], 0)
def test_complex_reduces_to_improved_bit_for_bit_property(coeffs, m):
    rp = RealParams(*coeffs, m)
    cp = rp.to_complex()
    assert eval_complex_sin(cp).value == eval_improved_sin(rp).value
    assert eval_complex_cos(cp).value == eval_improved_cos(rp).value
    assert eval_complex_f(cp).value == eval_f_hyp(rp).value


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
        assert res.method is Method.Hyp0F1Complex
        cos_sin = eval_complex_cos(cp).value + 1j * eval_complex_sin(cp).value
        assert abs(res.value - cos_sin) <= 1e-12 * max(1.0, abs(of))
        # f is one of the two series the sin/cos split sums
        assert res.terms_used < eval_complex_cos(cp).terms_used


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


def test_corrected_f_combines_corrected_sin_and_cos():
    rng = np.random.default_rng(101)
    pts = [RealParams(-2, 0, 0, 1, 1), RealParams(-3, 1, 0.5, 2, 3), RealParams(-2, 0, 0, 1, 2)]
    pts += [random_real_params(rng, span=4.0, mmax=6) for _ in range(40)]
    for rp in pts:
        res = eval_corrected_original_f(rp)
        assert res.method is Method.CorrectedBessel
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
    assert res.terms_used > 0
    assert res.truncation_estimate >= 0.0
    assert res.method is Method.Hyp0F1Real
    assert eval_complex_sin(ComplexParams(1j, 0, 0, 0, 1)).method is Method.Hyp0F1Complex


@given(st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1e-170, 1e-160]),
                                      st.integers(-6, 6).map(float),
                                      st.floats(-8.0, 8.0, allow_nan=False))] * 4),
                min_size=1, max_size=10),
       st.sampled_from([0, 1, 2, 3, 5, 8, 40, 171]))
@example([(0.5, 0.0, 0.0, 1.0), (1e-170, 0.0, 1e-170, 0.0), (1e-160, 0.0, 0.0, 0.0),
          (1.0, -1.0, 1.0, 1.0), (-0.0, -0.0, -0.0, -0.0)], 171)
def test_lane_closed_forms_match_scalar_bit_for_bit(points, m):
    p, q, a, b = (np.array(x) for x in zip(*points))
    for scalar, out in zip((eval_f_hyp, eval_f_bessel), eval_f_lanes(p, q, a, b, m)):
        for i, pt in enumerate(points):
            try:
                res = scalar(RealParams(*pt, m))
                want = repr(res.value.real), repr(res.value.imag), res.terms_used
            except (DomainError, ConvergenceError):
                want = None
            got = ((repr(out.re[i].item()), repr(out.im[i].item()), int(out.terms_used[i]))
                   if out.ok[i] else None)
            assert got == want, (scalar.__name__, pt)
