"""Closed-form evaluators for the integral family

    int_0^{2pi} exp(p cos x + q sin x) {sin, cos}(a cos x + b sin x - m x) dx.

Four families are provided, each as sin, cos and f. A real route reads
params.to_real(), a complex route asks is_real. Each family's value is
formed by one private function of the record as (f, bound, count), in
params.Result's field order; each public route reads it once and builds
one Result with _result, which projects it to the kind
(params.component), refuses it where it is not finite and labels it:

* original, _bessel: the book forms through I_m and principal
  half-integer powers, faithful to the letter, so they keep the sign
  error where the conditions module says; refused, after every other
  refusal, where an operand of theirs has lost its bits (LOST_BITS);
* corrected: the original kind times -1 where m is odd and the overall
  error condition holds;
* improved, _hyp: the 0F1 forms, with only integer powers, no sign error
  and no (b-p)^2 + (a+q)^2 > 0 restriction;
* complex, _complex: _hyp's f, or at complex coefficients cos and sin
  read off the stored term and its reflection, labelled Hyp0F1Complex.

A record stores what costs a series, prefactors, a pass or a record: the
terms ("term", reflected), "bessel", the oracle's ("pass", rows) and, on
a real-valued ComplexParams, its RealParams as "real". It also stores
"hyp", a product of the stored term, because forming that on every read
makes the closed-forms benchmark 5-6% slower.

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
prefactors, where the branch error sits. Those are 2pi / Y^m,
(A-iB)^(m/2) and sqrt(C+iD), with Y^2 = (b-p)^2 + (a+q)^2, and all three
are complexops.cpow_half, so no libm power, argument or exponential is
taken on this route; _bessel_prefactor_lanes takes them over arrays from
cpow_half_lanes, the same bits. The 0F1 term (and its reflection) is
stored on the record too, so every real route at one record sums one series.

_f_term forms a term at one point; _term_lanes, bit for bit the same on
every lane, is the one code that forms alpha, w and alpha^m/m! over
arrays. Its callers are fill_terms, which stores the terms of many
records at once, and eval_lanes, whose Lanes are the scalar improved and
original routes of one kind over real coefficients at one m, formed over
whole arrays.
"""

from __future__ import annotations

import cmath
import math
import sys

from .complexops import (_SUBNORMAL, cpow_half, cpow_half_lanes, div_lanes, mul_lanes,
                         pow_int_over_factorial, pow_int_over_factorial_lanes)
from .conditions import overall_sign_error
from .errors import DomainError
from .params import ComplexParams, Lanes, Method, RealParams, Result, component
from .series import PREFIX_UNDERFLOW, _bessel_prefix, _divisors_fit, hyp0f1, hyp0f1_lanes

__all__ = [
    "eval_f_bessel",
    "eval_original_sin",
    "eval_original_cos",
    "eval_corrected_original_sin",
    "eval_corrected_original_cos",
    "eval_corrected_original_f",
    "eval_f_hyp",
    "eval_lanes",
    "eval_improved_sin",
    "eval_improved_cos",
    "eval_complex_f",
    "eval_complex_sin",
    "eval_complex_cos",
    "fill_terms",
]

TWO_PI = 2.0 * math.pi
OVERFLOW = "closed form overflows: its value is not a finite float"
LOST_BITS = ("original formula inapplicable: (b-p)^2 + (a+q)^2, A - iB, C + iD or the Bessel prefix "
             "(z/2)^m/m! is subnormal, so it has lost bits")


def eval_f_bessel(params: RealParams) -> Result:
    """The original combined form: f through I_m and half-integer powers.

    f = 2pi [(b-p)^2+(a+q)^2]^(-m/2) (A-iB)^(m/2) I_m(sqrt(C+iD)),
    every fractional power on its principal branch. By construction this
    carries the branch-cut sign error wherever the error conditions hold
    and m is odd. Raises DomainError when (b-p)^2 + (a+q)^2 is 0 or underflows,
    and where an operand has lost its bits (_bessel).
    """
    return _result("f", Method.OriginalBessel, *_bessel(params.to_real()))


def _bessel(params: RealParams) -> tuple[complex, float, int, bool]:
    """The original route's (f, bound, count), and whether at m > 0 an
    operand or the prefix (z/2)^m/m! is subnormal, stored on params: the
    original and corrected sin, cos and f all read it; each refuses its own
    part, then a subnormal operand (_result)."""
    f = params._cache.get("bessel")
    if f is None:
        # The series is the 0F1 term's, whose w is (C + iD)/4 bit for bit.
        scale, power, root, lost = _bessel_prefactors(params.p, params.q, params.a, params.b, params.m)
        prefix = _bessel_prefix(params.m, root / 2.0)
        ser = _f_term(params)[1]
        f = params._cache["bessel"] = (scale * power * (prefix * ser.value),
                                       scale * abs(power) * (abs(prefix) * ser.bound), ser.count,
                                       lost or _subnormal(prefix.real, prefix.imag))
    return f


def _result(kind: str, method: Method, f: complex, bound: float, count: int, lost=False, flip=None) -> Result:
    """component(f, kind), times flip if given, labelled method; DomainError
    where that value is inf or nan, which only a float product can overflow
    to, and then where lost (LOST_BITS)."""
    value = component(f, kind)
    if not cmath.isfinite(value):
        raise DomainError(OVERFLOW)
    if lost:
        raise DomainError(LOST_BITS)
    if flip is not None:
        value = flip * value
    return Result(value, bound, count, method)


def _hypot(x: float, y: float) -> float:
    """np.hypot of two floats, bit for bit: abs of a complex is libm's hypot
    of its parts, as np.hypot is (math.hypot may round the other way), and
    inf where that overflows."""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def _subnormal(x, y, hypot=_hypot):
    """Whether x + iy is nonzero and below the smallest normal float in
    modulus: on floats, or lane by lane on arrays with hypot=np.hypot."""
    size = hypot(x, y)
    return (0.0 < size) & (size < _SUBNORMAL)


def _book_constants(p: float, q: float, a: float, b: float) -> tuple[float, float, float, float]:
    """The four constants (A, B, C, D) of the book's closed forms."""
    # D carries no minus sign; the 8th-edition minus is itself a typo.
    return (p * p - q * q + a * a - b * b, 2.0 * (p * q + a * b),
            p * p + q * q - a * a - b * b, 2.0 * (a * p + b * q))


def _bessel_prefactors(p: float, q: float, a: float, b: float, m: int) -> tuple[float, complex, complex, bool]:
    """2pi [(b-p)^2+(a+q)^2]^(-m/2), (A-iB)^(m/2) and sqrt(C+iD), each on
    the principal branch and from cpow_half, the first as 2pi / Y^m with
    Y^m = cpow_half((b-p)^2 + (a+q)^2, m), which is real, and whether at m > 0
    an operand, (b-p)^2 + (a+q)^2, A - iB or C + iD, is subnormal. DomainError
    where (b-p)^2 + (a+q)^2 is 0, or a prefactor is not finite (Y^m = 0
    among them). _bessel_prefactor_lanes is this over arrays."""
    ynorm2 = (b - p) * (b - p) + (a + q) * (a + q)
    if ynorm2 == 0.0:
        why = "= 0 (Y = 0)" if b == p and a == -q else "underflows to 0, though Y != 0"
        raise DomainError(f"original formula inapplicable: (b-p)^2 + (a+q)^2 {why}")
    A, B, C, D = _book_constants(p, q, a, b)
    try:
        y_m = cpow_half(ynorm2, m).real
        power, root = cpow_half(complex(A, -B), m), cpow_half(complex(C, D), 1)
        scale = TWO_PI / y_m if y_m else math.inf
        if scale < math.inf:
            lost = m > 0 and (_subnormal(ynorm2, 0.0) or _subnormal(A, B) or _subnormal(C, D))
            return scale, power, root, lost
    except (OverflowError, DomainError):
        # cpow_half refuses an m past the float range, and what overflows;
        # int coefficients past the float range raise OverflowError.
        pass
    # An m past the float range is not printed: str() of a huge int may raise too.
    at = "an m past the float range" if m > sys.float_info.max else f"m = {m}"
    raise DomainError(f"original formula inapplicable: [(b-p)^2 + (a+q)^2]^(-m/2) or "
                      f"(A-iB)^(m/2) overflows at {at}")


def _bessel_prefactor_lanes(p, q, a, b, m: int) -> tuple:
    """_bessel_prefactors over float arrays, bit for bit on every lane: the
    real scale, the parts of power and root, whether an operand is
    subnormal, and ok, False exactly where the scalar call raises."""
    import numpy as np
    with np.errstate(all="ignore"):
        ynorm2 = (b - p) * (b - p) + (a + q) * (a + q)
        A, B, C, D = _book_constants(p, q, a, b)
        y_m, _, y_ok = cpow_half_lanes(ynorm2, 0.0, m)
        *power, power_ok = cpow_half_lanes(A, -B, m)
        *root, root_ok = cpow_half_lanes(C, D, 1)
        scale = TWO_PI / y_m
        ok = (ynorm2 != 0.0) & y_ok & power_ok & root_ok & (scale < np.inf)
        lost = (m > 0) & (_subnormal(ynorm2, 0.0, np.hypot) | _subnormal(A, B, np.hypot)
                          | _subnormal(C, D, np.hypot))
    return scale, power, root, lost, ok


def eval_original_sin(params: RealParams) -> Result:
    """Book sin form: Im(f) of the original route, sign error included."""
    return _result("sin", Method.OriginalBessel, *_bessel(params.to_real()))


def eval_original_cos(params: RealParams) -> Result:
    """Book cos form: Re(f) of the original route, sign error included."""
    return _result("cos", Method.OriginalBessel, *_bessel(params.to_real()))


def _corrected(params: RealParams, kind: str) -> Result:
    """The original route's kind (or its refusal) times -1 where m is odd
    and the overall error condition holds. The product is taken by 1.0 as
    well, which turns an imaginary part -0.0 into +0.0."""
    params = params.to_real()
    f = _bessel(params)
    flip = -1.0 if (params.m % 2 == 1 and overall_sign_error(params.p, params.q, params.a, params.b)) else 1.0
    return _result(kind, Method.CorrectedBessel, *f, flip)


def eval_corrected_original_sin(params: RealParams) -> Result:
    """Book sin form times (-1)^m wherever the overall error condition holds."""
    return _corrected(params, "sin")


def eval_corrected_original_cos(params: RealParams) -> Result:
    """Book cos form times (-1)^m wherever the overall error condition holds."""
    return _corrected(params, "cos")


def eval_corrected_original_f(params: RealParams) -> Result:
    """Book f form times (-1)^m wherever the overall error condition holds."""
    return _corrected(params, "f")


def _alpha_w(ur, ui, vr, vi):
    """alpha = (u - iv)/2 and w = alpha beta = (u^2 + v^2)/4, beta = (u + iv)/2,
    as (Re alpha, Im alpha, Re w, Im w) from the real and imaginary parts
    of u and v.

    Plain float operations, so Python floats and numpy arrays alike; at
    (ur, ui, vr, vi) = (p, a, q, b) they are (A', B', C', D').
    """
    return ((ur + vi) / 2.0, (ui - vr) / 2.0,
            (ur * ur + vr * vr - ui * ui - vi * vi) / 4.0, (ui * ur + vi * vr) / 2.0)


def _term_uv(params: RealParams | ComplexParams, reflected: bool) -> tuple:
    """(Re u, Im u, Re v, Im v) of u = p + ia, v = q + ib at the point, or
    at its reflection (p, -q, -a, b)."""
    p, q, a, b = params.p, params.q, params.a, params.b
    if reflected:
        q, a = -q, -a
    return ((p, a, q, b) if isinstance(params, RealParams)
            else (p.real - a.imag, p.imag + a.real, q.real - b.imag, q.imag + b.real))


def _f_term(params: RealParams | ComplexParams, reflected: bool = False) -> tuple[complex, Result]:
    """alpha^m/m! and 0F1(; m+1; w), whose product is f/2pi at the point,
    or at its reflection (p, -q, -a, b).

    Both are stored on the record, so the real routes' sin, cos and f at
    one point, the original route's among them, sum one series, and the
    complex routes' sin and cos share a term and its reflection."""
    term = params._cache.get(("term", reflected))
    if term is None:
        # In floats, as the lanes take them: Python would square an int exactly.
        ar, ai, wr, wi = _alpha_w(*map(float, _term_uv(params, reflected)))
        term = params._cache["term", reflected] = (pow_int_over_factorial(complex(ar, ai), params.m),
                                                   hyp0f1(params.m + 1, complex(wr, wi)))
    return term


def _term_lanes(m, ur, ui, vr, vi) -> tuple[tuple[np.ndarray, np.ndarray], Lanes]:
    """_f_term over float arrays of Re u, Im u, Re v and Im v, bit for bit
    on every lane: the real and imaginary parts of alpha^m/m!, and the
    hyp0f1_lanes series of 0F1(; m+1; w). m is one int or one per lane."""
    import numpy as np
    with np.errstate(all="ignore"):
        ar, ai, wr, wi = _alpha_w(ur, ui, vr, vi)
        return pow_int_over_factorial_lanes(ar, ai, m), hyp0f1_lanes(m + 1, wr, wi)


def fill_terms(records: list[RealParams | ComplexParams]) -> None:
    """Store _f_term on each record that has none, and the reflection's on
    a non-real record, from one _term_lanes call over all of them.

    A real-valued record is filled through to_real(), which its routes
    read. A lane whose series the scalar path would refuse stays
    unfilled, so its route raises as before; so does a record whose m
    is too large for the lanes' int64 divisors (series._divisors_fit),
    so that its route computes it.
    """
    import numpy as np
    todo = []
    for params in records:
        if params.is_real:
            params = params.to_real()
        if not _divisors_fit(params.m + 1):
            continue
        for reflected in (False, True)[:2 - params.is_real]:
            if ("term", reflected) not in params._cache:
                todo.append((params, reflected))
    if not todo:
        return
    uv = np.array([_term_uv(params, reflected) for params, reflected in todo], dtype=float)
    power, ser = _term_lanes(np.array([params.m for params, _ in todo]), *uv.T)
    columns = (*power, ser.value, ser.bound, ser.count, ser.ok)
    for (params, reflected), t_re, t_im, value, bound, count, ok in zip(todo, *(x.tolist() for x in columns)):
        if ok:
            params._cache["term", reflected] = complex(t_re, t_im), Result(value, bound, count, "series")


def _term(params: RealParams | ComplexParams, reflected: bool = False) -> tuple[complex, float, int]:
    """f/2pi at the point or its reflection, |alpha^m/m!| times the series'
    bound, and its count."""
    power, ser = _f_term(params, reflected)
    return power * ser.value, abs(power) * ser.bound, ser.count


def eval_f_hyp(params: RealParams) -> Result:
    """The compact corrected form: f = (2pi/m!) (A'+iB')^m 0F1(; m+1; C'+iD').

    Only integer powers appear, so there is no branch to get wrong, and
    no positivity restriction: this evaluates everywhere, with
    (A'+iB')^m read as 1 when A' = B' = m = 0.
    """
    return _result("f", Method.Hyp0F1Real, *_hyp(params.to_real()))


def _hyp(params: RealParams | ComplexParams) -> tuple[complex, float, int]:
    """f = 2pi t at the point, its bound and count, stored on params. f may
    not be finite: each route refuses its own part."""
    # Stored, not formed from the stored term on each read: that read costs a product and an abs.
    f = params._cache.get("hyp")
    if f is None:
        t, bound, count = _term(params)
        f = params._cache["hyp"] = TWO_PI * t, TWO_PI * bound, count
    return f


def eval_lanes(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray,
               m: int, kind: str) -> tuple[Lanes, Lanes]:
    """The improved and original routes of the kind (for f, eval_f_hyp and
    eval_f_bessel) at RealParams(p, q, a, b, m), bit for bit on every
    lane, from one _term_lanes term.

    The Bessel prefactors (_bessel_prefactor_lanes) and prefix run over
    the arrays; a lane whose prefactors are refused takes its message from
    the scalar _bessel_prefactors, and a lane whose operand lost its bits
    is refused last, with LOST_BITS, as the scalar _result refuses it.
    """
    import numpy as np
    scale, (power_r, power_i), (root_r, root_i), lost, ok = _bessel_prefactor_lanes(p, q, a, b, m)
    error = [None] * len(p)
    for i in np.flatnonzero(~ok).tolist():
        try:
            _bessel_prefactors(p[i].item(), q[i].item(), a[i].item(), b[i].item(), m)
        except DomainError as exc:
            error[i] = str(exc)
    (tr, ti), ser = _term_lanes(m, p, a, q, b)
    with np.errstate(all="ignore"):
        f = mul_lanes(TWO_PI, 0.0, *mul_lanes(tr, ti, ser.value.real, ser.value.imag))
        zhr, zhi = div_lanes(root_r, root_i, 2.0)
        pr, pi = pow_int_over_factorial_lanes(zhr, zhi, m)
        bes = mul_lanes(*mul_lanes(scale, 0.0, power_r, power_i),
                        *mul_lanes(pr, pi, ser.value.real, ser.value.imag))
        # _hyp's and _bessel's bound
        f_bound = TWO_PI * (np.hypot(tr, ti) * ser.bound)
        bes_bound = scale * np.hypot(power_r, power_i) * (np.hypot(pr, pi) * ser.bound)
    # _bessel_prefix refuses a prefix that underflowed away from z = 0,
    # after the prefactors and before the series.
    underflow = (pr == 0.0) & (pi == 0.0) & ((zhr != 0.0) | (zhi != 0.0))
    for i in np.flatnonzero(ok & (underflow | ~ser.ok)).tolist():
        error[i] = PREFIX_UNDERFLOW.format(m=m) if underflow[i] else ser.error[i]
    return (_finite_lanes(f, kind, f_bound, ser.count, ser.ok, list(ser.error)),
            _finite_lanes(bes, kind, bes_bound, ser.count, ok & ser.ok & ~underflow, error,
                          lost | _subnormal(pr, pi, np.hypot)))


def _finite_lanes(z: tuple, kind: str, bound, count, ok: np.ndarray, error: list, lost=False) -> Lanes:
    """The kind's lanes of f = z, (re, im), where an ok lane whose value is
    not finite is refused, and then one where lost, as _result refuses them."""
    import numpy as np
    f = np.empty(len(z[0]), dtype=complex)
    f.real, f.imag = z
    value = component(f, kind)
    overflow = ok & ~np.isfinite(value)
    refused = overflow | ok & lost
    for i in np.flatnonzero(refused).tolist():
        error[i] = OVERFLOW if overflow[i] else LOST_BITS
    return Lanes(value, count, ok & ~refused, error, bound)


def eval_improved_sin(params: RealParams) -> Result:
    """Corrected sin form: Im(f) of the compact 0F1 form, exactly real by construction."""
    return _result("sin", Method.Hyp0F1Real, *_hyp(params.to_real()))


def eval_improved_cos(params: RealParams) -> Result:
    """Corrected cos form: Re(f) of the compact 0F1 form, exactly real by construction."""
    return _result("cos", Method.Hyp0F1Real, *_hyp(params.to_real()))


def _complex(c: RealParams | ComplexParams, kind: str) -> Result:
    """The complex route of the kind: on real coefficients the improved
    route at to_real(), bit for bit. Otherwise f is _hyp's; with t = f/2pi at
    the point and r at its reflection, cos = pi (t + r) and sin = i pi (r - t),
    with pi times their summed bounds and the counts of both series."""
    if c.is_real:
        return _result(kind, Method.Hyp0F1Complex, *_hyp(c.to_real()))
    if kind == "f":
        return _result(kind, Method.Hyp0F1Complex, *_hyp(c))
    t, bound, count = _term(c)
    r, bound_r, count_r = _term(c, reflected=True)
    value = math.pi * (t + r) if kind == "cos" else 1j * math.pi * (r - t)
    return _result("f", Method.Hyp0F1Complex, value, math.pi * (bound + bound_r), count + count_r)


def eval_complex_f(cparams: ComplexParams) -> Result:
    """f = cos + i sin for complex coefficients: 2pi alpha^m/m! 0F1(; m+1; alpha beta)."""
    return _complex(cparams, "f")


def eval_complex_sin(cparams: ComplexParams) -> Result:
    """Sin integral for complex coefficients, (f - f_reflected)/2i."""
    return _complex(cparams, "sin")


def eval_complex_cos(cparams: ComplexParams) -> Result:
    """Cos integral for complex coefficients, (f + f_reflected)/2."""
    return _complex(cparams, "cos")
