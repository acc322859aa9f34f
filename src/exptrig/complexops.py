"""Principal-branch complex arithmetic and branch-cut flip detection.

Everything here fixes one convention once: arguments live in (-pi, pi],
with the negative real axis mapping to +pi. A signed-zero imaginary part
(x - 0j, x < 0) is normalized to +0 before taking the argument, so it sits
on the +pi side of the cut rather than at -pi (which the range excludes).

Combining principal fractional powers is where sign errors come from:
z**a * w**a == (z*w)**a only while arg(z) + arg(w) stays inside the
principal range. ``power_combination_flips`` is the exact predicate for
when it does not.

The ``*_lanes`` functions do complex arithmetic over arrays of real and
imaginary parts, one lane per element, with the same IEEE operations as
CPython's complex type (its product, and its quotient by a complex
whose imaginary part is zero), so each lane rounds exactly as the
scalar code does, signed zeros included. The one integer power is
z**m/m! (``pow_int_over_factorial``), whose lanes may each have their
own m. Its loop takes m steps until the product has underflowed to zero
or gone nan, then skips the steps that can only repeat (``_settled``), so
any m costs at most a few thousand steps.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "principal_arg",
    "pow_int_over_factorial",
    "mul_lanes",
    "div_lanes",
    "pow_int_over_factorial_lanes",
    "cpow_half",
    "power_combination_flips",
]


def principal_arg(z: complex) -> float:
    """Principal argument of z, in (-pi, pi].

    The negative real axis returns exactly +pi; negative-zero components
    are normalized away first so -0j does not fall below the cut.

    Raises DomainError for z = 0 (argument undefined).
    """
    re = z.real + 0.0
    im = z.imag + 0.0
    if re == 0.0 and im == 0.0:
        raise DomainError("argument of 0 is undefined")
    return math.atan2(im, re)


def _settled(re, im):
    """Where the running product of pow_int_over_factorial is (+-0, +-0)
    or nan in both parts, on floats or lane by lane on arrays.

    From there on a step only permutes the signs of the zeros (or keeps
    nan), by a rule on the signs of z's parts alone, so after at most 4
    more steps the product repeats with a period that divides 12. Its
    loops test for this after every 256 steps, then skip ahead by a
    multiple of 12 that leaves at least 4 steps to take.
    """
    return (re == 0) & (im == 0) | (re != re) & (im != im)


def pow_int_over_factorial(z: complex, m: int) -> complex:
    """z**m / m! as the incremental product (z/1)(z/2)...(z/m).

    Repeated multiplication interleaved with exact real divisions, so m!
    is never formed and m beyond 170 does not overflow. m = 0
    returns 1 for every z, which is exactly the z**0 limit convention.
    An m that float() cannot convert is refused, since its last steps
    would divide by such a j.
    """
    if m < 0:
        raise DomainError("m must be non-negative")
    try:
        float(m)
    except OverflowError:
        # m is not printed: str() of a huge int may raise too.
        raise DomainError("m is past the float range: the steps z/j cannot be divided in floats") from None
    out, j = complex(1.0, 0.0), 0
    while j < m:
        # j ends each stretch at the last step taken.
        for j in range(j + 1, min(j + 256, m) + 1):
            out = out * z / j
        if j < m and _settled(out.real, out.imag):
            j += 12 * max(0, (m - j - 4) // 12)
    return out


def mul_lanes(xr, xi, yr, yi):
    """Lane-wise x * y, as CPython multiplies complex numbers.

    A real operand of CPython's is the complex (x, 0.0): pass 0.0 as its
    imaginary part.
    """
    return xr * yr - xi * yi, xr * yi + xi * yr


def div_lanes(xr, xi, d):
    """Lane-wise x / d for a positive real d, as CPython divides a complex
    by an int or float d, that is by the complex (d, 0.0)."""
    return (xr + xi * 0.0) / d, (xi - xr * 0.0) / d


def pow_int_over_factorial_lanes(zr, zi, m):
    """pow_int_over_factorial over arrays of real and imaginary parts,
    lane by lane the same loop and the same roundings; m is one int or
    one per lane. The loop runs over the lanes whose m it has not yet
    reached, one stretch per distinct m, and skips as the scalar loop does
    once every lane still running is _settled."""
    out_r, out_i = np.ones_like(zr), np.zeros_like(zr)
    done = 0
    for stop in sorted(set(np.ravel(m).tolist())):
        live = np.flatnonzero(np.broadcast_to(m >= stop, np.shape(zr)))
        r, i, lr, li = out_r[live], out_i[live], zr[live], zi[live]
        j = done
        while j < stop:
            for j in range(j + 1, min(j + 256, stop) + 1):
                r, i = div_lanes(*mul_lanes(r, i, lr, li), float(j))
            if j < stop and _settled(r, i).all():
                j += 12 * max(0, (stop - j - 4) // 12)
        out_r[live], out_i[live], done = r, i, stop
    return out_r, out_i


def cpow_half(z: complex, m: int) -> complex:
    """Principal value of z**(m/2): |z|**(m/2) * exp(i*(m/2)*arg z).

    m = 0 returns 1 for any z (including 0, by the z**0 limit convention);
    z = 0 with m > 0 returns 0. An m that float() cannot convert is
    refused, as pow_int_over_factorial refuses it, and so is a z whose |z|
    or |z|**(m/2) is past the float range.
    """
    if m < 0:
        raise DomainError("negative half-integer exponents are not supported")
    if m == 0:
        return complex(1.0, 0.0)
    try:
        half = 0.5 * m
    except OverflowError:
        # m is not printed: str() of a huge int may raise too.
        raise DomainError("m is past the float range: z**(m/2) cannot be formed in floats") from None
    if z == 0:
        return complex(0.0, 0.0)
    try:
        return abs(z) ** half * cmath.exp(1j * half * principal_arg(z))
    except OverflowError:
        raise DomainError("|z| or |z|**(m/2) is past the float range") from None


def power_combination_flips(z: complex, w: complex) -> bool:
    """True iff arg(z) + arg(w) leaves (-pi, pi].

    When true and the shared exponent is an odd multiple of 1/2,
    z**a * w**a = -(z*w)**a instead of +(z*w)**a.

    The boundary comparison (sum == pi exactly) is an exact float
    comparison and therefore fragile for inputs that land within
    rounding distance of the cut.
    """
    s = principal_arg(z) + principal_arg(w)
    return not (-math.pi < s <= math.pi)
