"""Closed-form evaluators for the integral family

    int_0^{2pi} exp(p cos x + q sin x) {sin, cos}(a cos x + b sin x - m x) dx.

Three routes are provided:

* the original book forms through I_m and principal half-integer powers,
  kept faithful to the letter, which means they reproduce the sign error
  in the regions described by the conditions module;
* the same forms with the parity correction applied where the error
  conditions hold;
* the 0F1 forms, which use only integer powers, carry no sign error,
  need no (b-p)^2 + (a+q)^2 > 0 restriction, and extend to complex
  coefficients.

Every 0F1 route is one term at (u, v) = (p + ia, q + ib). The exponent
p cos x + q sin x + i(a cos x + b sin x) is alpha e^{ix} + beta e^{-ix},
with alpha = (u - iv)/2 and beta = (u + iv)/2, so

    f = cos + i sin = 2pi alpha^m/m! 0F1(; m+1; alpha beta).

For real coefficients alpha = A' + iB' and alpha beta = C' + iD'; sin and
cos are Im f and Re f of that single series, so they are exactly real by
construction. For complex coefficients they come from the reflection
x -> 2pi - x, which maps f to the same term at (p, -q, -a, b):
cos = (f(p, q, a, b) + f(p, -q, -a, b))/2 and sin is their difference
over 2i.

The book's I_m(sqrt(C+iD)) is (sqrt(C+iD)/2)^m/m! 0F1(; m+1; (C+iD)/4),
and (C+iD)/4 is alpha beta at real coefficients, so the original route
takes its series from the 0F1 term: the two routes differ only in the
prefactors, where the branch error sits. The Bessel record and the 0F1
term (and its reflection) are stored on the parameter record, so every
real route called with one record sums one series; fill_terms stores the
terms of many records at once, from one hyp0f1_lanes call.

eval_f_lanes evaluates f by both routes over arrays of real coefficients
at one m, one lane per point, bit for bit as the scalar routes do; a
lane where a scalar route would raise comes back not ok.
"""

from __future__ import annotations

import math

import numpy as np

from .complexops import cpow_half, div_lanes, mul_lanes, pow_int_over_factorial, pow_int_over_factorial_lanes
from .conditions import overall_sign_error
from .errors import DomainError
from .params import ComplexParams, EvalResult, Method, RealParams, _once
from .series import SeriesLanes, SeriesResult, _bessel_prefix, hyp0f1, hyp0f1_lanes

__all__ = [
    "eval_f_bessel",
    "eval_original_sin",
    "eval_original_cos",
    "eval_corrected_original_sin",
    "eval_corrected_original_cos",
    "eval_corrected_original_f",
    "eval_f_hyp",
    "eval_f_lanes",
    "eval_improved_sin",
    "eval_improved_cos",
    "eval_complex_f",
    "eval_complex_sin",
    "eval_complex_cos",
    "fill_terms",
]

TWO_PI = 2.0 * math.pi


def eval_f_bessel(params: RealParams) -> EvalResult:
    """The original combined form: f through I_m and half-integer powers.

    f = 2pi [(b-p)^2+(a+q)^2]^(-m/2) (A-iB)^(m/2) I_m(sqrt(C+iD)),
    every fractional power on its principal branch. By construction this
    carries the branch-cut sign error wherever the error conditions hold
    and m is odd. Raises DomainError when (b-p)^2 + (a+q)^2 = 0 (Y = 0).
    """
    return _once(params, "bessel", lambda: _f_bessel(params))


def _f_bessel(params: RealParams) -> EvalResult:
    # The original and corrected sin, cos and f all read this one record.
    # The series is the 0F1 term's, whose w is (C + iD)/4 bit for bit.
    m = params.m
    scale, power, root = _bessel_prefactors(params.p, params.q, params.a, params.b, m)
    prefix = _bessel_prefix(m, root / 2.0)
    ser = _f_term(params)[1]
    return EvalResult(
        value=scale * power * (prefix * ser.value),
        method=Method.OriginalBessel,
        terms_used=ser.terms_used,
        truncation_estimate=scale * abs(power) * (abs(prefix) * ser.truncation_estimate),
    )


def _book_constants(p: float, q: float, a: float, b: float) -> tuple[float, float, float, float]:
    """The four constants (A, B, C, D) of the book's closed forms."""
    # D carries no minus sign; the 8th-edition minus is itself a typo.
    return (p * p - q * q + a * a - b * b, 2.0 * (p * q + a * b),
            p * p + q * q - a * a - b * b, 2.0 * (a * p + b * q))


def _bessel_prefactors(p: float, q: float, a: float, b: float, m: int) -> tuple[float, complex, complex]:
    """2pi [(b-p)^2+(a+q)^2]^(-m/2), (A-iB)^(m/2) and sqrt(C+iD), each on
    the principal branch, or DomainError where the first is 1/0 or a
    power overflows."""
    try:
        ynorm2 = (b - p) ** 2 + (a + q) ** 2
        if ynorm2 == 0.0:
            raise DomainError("original formula inapplicable: (b-p)^2 + (a+q)^2 = 0 (Y = 0)")
        A, B, C, D = _book_constants(p, q, a, b)
        return (TWO_PI * ynorm2 ** (-0.5 * m), cpow_half(complex(A, -B), m),
                cpow_half(complex(C, D), 1))
    except OverflowError:
        raise DomainError(f"original formula inapplicable: [(b-p)^2 + (a+q)^2]^(-m/2) or "
                          f"(A-iB)^(m/2) overflows at m = {m}") from None


def _part(f: EvalResult, x: float) -> EvalResult:
    # One real component x of f, with f's route and series bookkeeping.
    return EvalResult(complex(x, 0.0), f.method, f.terms_used, f.truncation_estimate)


def eval_original_sin(params: RealParams) -> EvalResult:
    """Book sin form: Im(f) of the original route, sign error included."""
    f = eval_f_bessel(params)
    return _part(f, f.value.imag)


def eval_original_cos(params: RealParams) -> EvalResult:
    """Book cos form: Re(f) of the original route, sign error included."""
    f = eval_f_bessel(params)
    return _part(f, f.value.real)


def _corrected(res: EvalResult, params: RealParams) -> EvalResult:
    flip = -1.0 if (params.m % 2 == 1 and overall_sign_error(params.p, params.q, params.a, params.b)) else 1.0
    return EvalResult(
        value=flip * res.value,
        method=Method.CorrectedBessel,
        terms_used=res.terms_used,
        truncation_estimate=res.truncation_estimate,
    )


def eval_corrected_original_sin(params: RealParams) -> EvalResult:
    """Book sin form times (-1)^m wherever the overall error condition holds."""
    return _corrected(eval_original_sin(params), params)


def eval_corrected_original_cos(params: RealParams) -> EvalResult:
    """Book cos form times (-1)^m wherever the overall error condition holds."""
    return _corrected(eval_original_cos(params), params)


def eval_corrected_original_f(params: RealParams) -> EvalResult:
    """Book f form times (-1)^m wherever the overall error condition holds."""
    return _corrected(eval_f_bessel(params), params)


def _alpha_w(ur, ui, vr, vi):
    """alpha = (u - iv)/2 and w = alpha beta = (u^2 + v^2)/4, beta = (u + iv)/2,
    as (Re alpha, Im alpha, Re w, Im w) from the real and imaginary parts
    of u and v.

    Plain float operations, so Python floats and numpy arrays alike; at
    (ur, ui, vr, vi) = (p, a, q, b) they are (A', B', C', D').
    """
    return ((ur + vi) / 2.0, (ui - vr) / 2.0,
            (ur * ur + vr * vr - ui * ui - vi * vi) / 4.0, (ui * ur + vi * vr) / 2.0)


def _uv(p: complex, q: complex, a: complex, b: complex) -> tuple[float, float, float, float]:
    # (Re u, Im u, Re v, Im v) of u = p + ia, v = q + ib.
    return p.real - a.imag, p.imag + a.real, q.real - b.imag, q.imag + b.real


def _term_uv(params: RealParams | ComplexParams, reflected: bool) -> tuple:
    """(Re u, Im u, Re v, Im v) at the point, or at its reflection (p, -q, -a, b)."""
    p, q, a, b = params.p, params.q, params.a, params.b
    if reflected:
        q, a = -q, -a
    return (p, a, q, b) if isinstance(params, RealParams) else _uv(p, q, a, b)


def _same_bits(x: tuple, y: tuple) -> bool:
    """Whether two tuples of floats are equal bit for bit, signed zeros included."""
    return x == y and all(math.copysign(1.0, s) == math.copysign(1.0, t) for s, t in zip(x, y))


def _power_and_w(m: int, uv: tuple) -> tuple[complex, complex]:
    """alpha^m/m! and w = alpha beta at (Re u, Im u, Re v, Im v) = uv."""
    ar, ai, wr, wi = _alpha_w(*uv)
    return pow_int_over_factorial(complex(ar, ai), m), complex(wr, wi)


def _f_term(params: RealParams | ComplexParams, reflected: bool = False) -> tuple[complex, SeriesResult]:
    """alpha^m/m! and 0F1(; m+1; w), whose product is f/2pi at the point,
    or at its reflection (p, -q, -a, b).

    Both are stored on the record, so the real routes' sin, cos and f at
    one point, the original route's among them, sum one series, and the
    complex routes' sin and cos share a term and its reflection. Where
    the reflection's (u, v) is the point's bit for bit (q = a = 0, say),
    it is the point's term."""
    def compute():
        uv = _term_uv(params, reflected)
        if reflected and _same_bits(uv, _term_uv(params, False)):
            return _f_term(params)
        power, w = _power_and_w(params.m, uv)
        return power, hyp0f1(params.m + 1, w)

    return _once(params, ("term", reflected), compute)


def fill_terms(records: list[RealParams | ComplexParams]) -> None:
    """Store _f_term on each record that has none, and the reflection's on
    a non-real ComplexParams, summing every series in one hyp0f1_lanes call.

    A real-valued ComplexParams is filled through to_real(), which its
    routes read. A lane whose series the scalar path would refuse stays
    unfilled, so its route raises as before.
    """
    todo, ws = [], []
    for params in records:
        if isinstance(params, ComplexParams) and params.is_real:
            params = params.to_real()
        uvs = [_term_uv(params, False)]
        if isinstance(params, ComplexParams):
            reflection = _term_uv(params, True)
            if not _same_bits(uvs[0], reflection):
                uvs.append(reflection)
        for reflected, uv in zip((False, True), uvs):
            if ("term", reflected) not in params._cache:
                power, w = _power_and_w(params.m, uv)
                todo.append((params, reflected, power))
                ws.append(w)
    if not todo:
        return
    w = np.array(ws)
    lanes = hyp0f1_lanes([params.m + 1 for params, _, _ in todo], w.real, w.imag)
    for (params, reflected, power), re, im, used, ok, omitted in zip(todo, *(x.tolist() for x in lanes)):
        if ok:
            params._cache["term", reflected] = power, SeriesResult(complex(re, im), used, omitted)


def _term(params: RealParams | ComplexParams, reflected: bool = False) -> tuple[complex, int, float]:
    """f/2pi at the point or its reflection, the series' terms_used, and
    |alpha^m/m!| times its truncation estimate."""
    power, ser = _f_term(params, reflected)
    return power * ser.value, ser.terms_used, abs(power) * ser.truncation_estimate


def eval_f_hyp(params: RealParams) -> EvalResult:
    """The compact corrected form: f = (2pi/m!) (A'+iB')^m 0F1(; m+1; C'+iD').

    Only integer powers appear, so there is no branch to get wrong, and
    no positivity restriction: this evaluates everywhere, with
    (A'+iB')^m read as 1 when A' = B' = m = 0.
    """
    t, terms, trunc = _term(params)
    return EvalResult(TWO_PI * t, Method.Hyp0F1Real, terms, TWO_PI * trunc)


def eval_f_lanes(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray,
                 m: int) -> tuple[SeriesLanes, SeriesLanes]:
    """eval_f_hyp and eval_f_bessel at RealParams(p, q, a, b, m), as their
    .value on every lane, from one hyp0f1_lanes series.

    The (alpha, w) expressions and the prefixes run over the arrays. The
    Bessel prefactors are libm powers, arguments and exponentials, which
    numpy need not round as libm does, so they are taken lane by lane in
    Python.
    """
    ok, pre = np.ones(len(p), dtype=bool), []
    for i, args in enumerate(zip(*(x.tolist() for x in (p, q, a, b)))):
        try:
            pre.append(_bessel_prefactors(*args, m))
        except DomainError:
            ok[i] = False
            pre.append((0.0, 0j, 0j))
    scale, power, root = np.array(pre, dtype=complex).reshape(-1, 3).T
    with np.errstate(all="ignore"):
        ar, ai, wr, wi = _alpha_w(p, a, q, b)
        ser = hyp0f1_lanes(m + 1, wr, wi)
        t = mul_lanes(*pow_int_over_factorial_lanes(ar, ai, m), ser.re, ser.im)
        zhr, zhi = div_lanes(root.real, root.imag, 2.0)
        pr, pi = pow_int_over_factorial_lanes(zhr, zhi, m)
        bes = mul_lanes(*mul_lanes(scale.real, 0.0, power.real, power.imag),
                        *mul_lanes(pr, pi, ser.re, ser.im))
    # _bessel_prefix refuses a prefix that underflowed away from z = 0.
    underflow = (pr == 0.0) & (pi == 0.0) & ((zhr != 0.0) | (zhi != 0.0))
    return (SeriesLanes(*mul_lanes(TWO_PI, 0.0, *t), ser.terms_used, ser.ok),
            SeriesLanes(*bes, ser.terms_used, ok & ser.ok & ~underflow))


def eval_improved_sin(params: RealParams) -> EvalResult:
    """Corrected sin form: Im(f) of the compact 0F1 form, exactly real by construction."""
    f = eval_f_hyp(params)
    return _part(f, f.value.imag)


def eval_improved_cos(params: RealParams) -> EvalResult:
    """Corrected cos form: Re(f) of the compact 0F1 form, exactly real by construction."""
    f = eval_f_hyp(params)
    return _part(f, f.value.real)


def _as_complex_route(res: EvalResult) -> EvalResult:
    return EvalResult(res.value, Method.Hyp0F1Complex, res.terms_used, res.truncation_estimate)


def _reflected_terms(c: ComplexParams) -> tuple[complex, complex, int, float]:
    """f/2pi at (p, q, a, b) and at its reflection (p, -q, -a, b), the
    terms both series used, and pi times their summed truncation estimates."""
    t, n1, e1 = _term(c)
    r, n2, e2 = _term(c, reflected=True)
    return t, r, n1 + n2, math.pi * (e1 + e2)


def eval_complex_f(cparams: ComplexParams) -> EvalResult:
    """f = cos + i sin for complex coefficients: 2pi alpha^m/m! 0F1(; m+1; alpha beta).

    On real coefficients this is eval_f_hyp, labelled as the complex route.
    """
    if cparams.is_real:
        return _as_complex_route(eval_f_hyp(cparams.to_real()))
    t, terms, trunc = _term(cparams)
    return EvalResult(TWO_PI * t, Method.Hyp0F1Complex, terms, TWO_PI * trunc)


def eval_complex_sin(cparams: ComplexParams) -> EvalResult:
    """Sin integral for complex coefficients, (f - f_reflected)/2i:
    i pi (t(p, -q, -a, b) - t(p, q, a, b)) with t = f/2pi.

    On real coefficients this is eval_improved_sin, bit for bit, labelled
    as the complex route.
    """
    if cparams.is_real:
        return _as_complex_route(eval_improved_sin(cparams.to_real()))
    t, r, terms, trunc = _reflected_terms(cparams)
    return EvalResult(1j * math.pi * (r - t), Method.Hyp0F1Complex, terms, trunc)


def eval_complex_cos(cparams: ComplexParams) -> EvalResult:
    """Cos integral for complex coefficients, (f + f_reflected)/2:
    pi (t(p, q, a, b) + t(p, -q, -a, b)) with t = f/2pi."""
    if cparams.is_real:
        return _as_complex_route(eval_improved_cos(cparams.to_real()))
    t, r, terms, trunc = _reflected_terms(cparams)
    return EvalResult(math.pi * (t + r), Method.Hyp0F1Complex, terms, trunc)
