import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import exptrig.catalog as cat
from exptrig import DomainError


def cquad(fn, lo, hi):
    """Independent reference integration of a complex-valued integrand."""
    re, re_err = quad(lambda x: fn(x).real, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
    im, im_err = quad(lambda x: fn(x).imag, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
    assert max(re_err, im_err) < 1e-8
    return complex(re, im)


def test_gr_3_931_4_value_and_literal_integral():
    for pp in (0, 1, -2, 2 - 3j):
        for sign in (1, -1):
            assert cat.gr_3_931_4(pp, sign) == math.pi
            got = cquad(lambda x: cmath.exp(sign * pp * math.cos(x)) * cmath.cos(pp * math.sin(x)),
                        0, math.pi)
            assert cmath.isclose(got, math.pi, rel_tol=1e-10)


def test_gr_3_932_1_half_range_literal():
    for pp in (1.0, -2.0, 1 + 1j):
        for m in range(4):
            want = cat.gr_3_932_1(pp, m)
            got = cquad(lambda x: cmath.exp(pp * math.cos(x)) * cmath.sin(pp * math.sin(x))
                        * math.sin(m * x), 0, math.pi)
            assert cmath.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)
    assert cat.gr_3_932_1(3.7, 0) == 0
    assert cmath.isclose(cat.gr_3_932_1(2.0, 3), math.pi * 8 / (2 * 6), rel_tol=1e-15)


def test_gr_3_932_2_half_range_literal():
    for pp in (1.0, -2.0, 1 + 1j):
        for m in range(4):
            want = cat.gr_3_932_2(pp, m)
            got = cquad(lambda x: cmath.exp(pp * math.cos(x)) * cmath.cos(pp * math.sin(x))
                        * math.cos(m * x), 0, math.pi)
            assert cmath.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)
    assert cat.gr_3_932_2(3.7, 0) == math.pi
    assert cat.gr_3_932_2(0, 1) == 0


def test_gr_3_936_1_values():
    assert cat.gr_3_936_1(2.2, 0) == 2 * math.pi
    assert cmath.isclose(cat.gr_3_936_1(1.0, 1), 2 * math.pi, rel_tol=1e-15)
    assert cmath.isclose(cat.gr_3_936_1(1j, 2), -math.pi, rel_tol=1e-15)
    got = cquad(lambda x: cmath.exp((1 - 0.5j) * math.cos(x))
                * cmath.cos((1 - 0.5j) * math.sin(x) - 3 * x), 0, 2 * math.pi)
    assert cmath.isclose(got, cat.gr_3_936_1(1 - 0.5j, 3), rel_tol=1e-10)


def test_gr_3_936_2_3_restriction_lifted():
    # the book demands p' > 0; the forms hold for negative, zero, complex p'
    assert cmath.isclose(cat.gr_3_936_2(-2.0, 1), -4 * math.pi, rel_tol=1e-15)
    assert cat.gr_3_936_2(0.0, 0) == 0
    assert cat.gr_3_936_3(0.0, 0) == 2 * math.pi
    assert cmath.isclose(cat.gr_3_936_3(1.0, 2), -math.pi, rel_tol=1e-15)
    for pp in (-2.0, 0.0, 1 + 1j):
        for m in range(4):
            got = cquad(lambda x: cmath.exp(pp * math.sin(x)) * cmath.sin(pp * math.cos(x) + m * x),
                        0, 2 * math.pi)
            assert cmath.isclose(got, cat.gr_3_936_2(pp, m), rel_tol=1e-10, abs_tol=1e-10)
            got = cquad(lambda x: cmath.exp(pp * math.sin(x)) * cmath.cos(pp * math.cos(x) + m * x),
                        0, 2 * math.pi)
            assert cmath.isclose(got, cat.gr_3_936_3(pp, m), rel_tol=1e-10, abs_tol=1e-10)


def test_gr_3_936_4_always_zero():
    assert cat.gr_3_936_4(1.0, 5, -1) == 0
    assert cat.gr_3_936_4(-2 + 1j, 3, 1) == 0
    assert cat.gr_3_936_4(0.0, 0, 1) == 0
    for sign in (1, -1):
        got = cquad(lambda x: cmath.exp((-2 + 1j) * math.cos(x))
                    * cmath.sin((-2 + 1j) * math.sin(x) + sign * 3 * x), 0, 2 * math.pi)
        assert abs(got) < 1e-10


def test_gr_3_937_original_vs_corrected_flip_law():
    # corrected = original * (-1)^m when p < 0; equal when p > 0
    for p in (-2.0, -0.5, 1.0, 2.5):
        for q in (-1.0, 0.0, 2.0):
            for m in range(5):
                for orig, corr in ((cat.gr_3_937_3_original, cat.gr_3_937_3_corrected),
                                   (cat.gr_3_937_4_original, cat.gr_3_937_4_corrected)):
                    o = orig(p, q, m)
                    c = corr(p, q, m)
                    want = (-1) ** m * c if p < 0 else c
                    assert cmath.isclose(o, want, rel_tol=1e-10, abs_tol=1e-12)


def test_gr_3_937_original_p_zero_rejected():
    with pytest.raises(DomainError):
        cat.gr_3_937_3_original(0.0, 1.0, 1)


def test_gr_3_937_corrected_spot_values():
    assert cmath.isclose(cat.gr_3_937_3_corrected(1.0, 1.0, 1), 2 * math.pi, rel_tol=1e-13)
    assert abs(cat.gr_3_937_3_corrected(-1.0, 0.0, 1)) < 1e-15
    assert cmath.isclose(cat.gr_3_937_4_corrected(-1.0, 0.0, 1), -2 * math.pi, rel_tol=1e-13)
    assert abs(cat.gr_3_937_3_corrected(0.0, 1.0, 2)) < 1e-12
    assert cmath.isclose(cat.gr_3_937_4_corrected(0.0, 1.0, 2), -math.pi, rel_tol=1e-13)
    assert cat.gr_3_937_3_corrected(1.0, 0.0, 0) == 0
    assert cat.gr_3_937_4_corrected(1.0, 0.0, 0) == 2 * math.pi
    assert cat.gr_3_937_3_corrected(0.0, 0.0, 3) == 0
    got = cquad(lambda x: math.exp(-1.0 * math.cos(x))
                * math.cos(0.0 - (-1.0) * math.sin(x) + 1 * x), 0, 2 * math.pi)
    assert cmath.isclose(got, -2 * math.pi, rel_tol=1e-10)


def test_gr_3_937_corrected_keeps_principal_args_minus_zero_rule():
    # On the negative real axis arg(p + iq) is +pi for q = -0.0 too, as
    # principal_arg takes it; math.atan2(-0.0, p) would give -pi and turn
    # the sign of the sin form's rounding residue at odd m.
    for form in (cat.gr_3_937_3_corrected, cat.gr_3_937_4_corrected):
        for p in (-2.0, -1.0, -0.5):
            for m in range(1, 5):
                assert repr(form(p, -0.0, m)) == repr(form(p, 0.0, m)), (form.__name__, p, m)


def test_gr_3_937_complex_three_forms_agree():
    rng = np.random.default_rng(97)
    for _ in range(100):
        v = rng.uniform(-3, 3, 4)
        p, q = complex(v[0], v[1]), complex(v[2], v[3])
        m = int(rng.integers(0, 6))
        fact = math.factorial(m)
        # component form
        lo = complex(p.real + q.imag, p.imag - q.real)
        hi = complex(p.real - q.imag, p.imag + q.real)
        sin_a = 1j * math.pi / fact * (lo**m - hi**m)
        cos_a = math.pi / fact * (lo**m + hi**m)
        # polar form
        sin_b = 1j * math.pi / fact * (
            abs(lo) ** m * cmath.exp(1j * m * cmath.phase(lo))
            - abs(hi) ** m * cmath.exp(1j * m * cmath.phase(hi))
        ) if lo != 0 and hi != 0 else sin_a
        cos_b = math.pi / fact * (
            abs(lo) ** m * cmath.exp(1j * m * cmath.phase(lo))
            + abs(hi) ** m * cmath.exp(1j * m * cmath.phase(hi))
        ) if lo != 0 and hi != 0 else cos_a
        # (p -+ iq)^m form, the implementation
        sin_c = cat.gr_3_937_3_complex(p, q, m)
        cos_c = cat.gr_3_937_4_complex(p, q, m)
        scale = max(1.0, abs(sin_c), abs(cos_c))
        assert abs(sin_a - sin_c) < 1e-12 * scale
        assert abs(sin_b - sin_c) < 1e-12 * scale
        assert abs(cos_a - cos_c) < 1e-12 * scale
        assert abs(cos_b - cos_c) < 1e-12 * scale


def test_gr_3_937_complex_reduces_to_real_forms():
    for p in (-2.0, 1.0):
        for q in (-1.0, 0.0, 2.0):
            for m in range(4):
                assert cmath.isclose(cat.gr_3_937_3_complex(p, q, m),
                                     cat.gr_3_937_3_corrected(p, q, m),
                                     rel_tol=1e-12, abs_tol=1e-12)
                assert cmath.isclose(cat.gr_3_937_4_complex(p, q, m),
                                     cat.gr_3_937_4_corrected(p, q, m),
                                     rel_tol=1e-12, abs_tol=1e-12)


def test_gr_3_937_complex_spot_value():
    # p = i, q = 0, m = 1: i pi [(i) - (i)] = 0
    assert cat.gr_3_937_3_complex(1j, 0, 1) == 0
    got = cquad(lambda x: cmath.exp(1j * math.cos(x)) * cmath.sin(-1j * math.sin(x) + x),
                0, 2 * math.pi)
    assert abs(got) < 1e-10


def test_every_entry_passes_its_own_check():
    for entry in cat.ENTRIES:
        res = cat.check_entry(entry, tol=1e-10)
        assert res.failures == (), res.failures
        assert res.checks == len(entry.samples)
        assert res.max_err_eval < 1e-10
        assert res.max_err_oracle < 1e-10


def test_entry_lookup_and_description():
    entry = cat.get_entry("GR-3.936-2")
    assert "sin(m pi/2)" in entry.description
    assert "GR-3.936-2" in cat.describe_entry(entry)
    with pytest.raises(KeyError):
        cat.get_entry("GR-0.0-0")


def test_expected_flip_audit():
    entry = cat.get_entry("GR-3.937-3-original")
    findings, failures = cat.check_expected_flips(entry)
    assert failures == ()
    assert any("SignFlip as predicted" in line for line in findings)
    # A wrong flip law fails both ways: a flip where agreement is predicted
    # and agreement where a flip is.
    wrong = dataclasses.replace(entry, flip_law=lambda *args: not entry.flip_law(*args))
    _, failures = cat.check_expected_flips(wrong)
    assert any("expected a sign flip, none observed" in line for line in failures)
    assert any("expected agreement, got discrepancy" in line for line in failures)
    with pytest.raises(ValueError):
        cat.check_expected_flips(cat.get_entry("GR-3.937-3"))
