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

The one principal power is z**(m/2) (``cpow_half``, and
``cpow_half_lanes`` over arrays), taken as (sqrt z)**m: the principal
square root from +, -, x, / and sqrt only (Kahan, "Branch cuts for
complex elementary functions", 1987), with -0 read as +0, then m by
CPython's binary powering. Those are the operations IEEE 754 rounds
correctly, so numpy gives every lane the scalar bits; libm's pow, atan2
and exp, which numpy's own functions need not match, take no part. The
branch is the one of |z|**(m/2) exp(i (m/2) arg z), flips and all.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys

import numpy as np

from .errors import DomainError

__all__ = [
    "principal_arg",
    "pow_int_over_factorial",
    "mul_lanes",
    "div_lanes",
    "pow_int_over_factorial_lanes",
    "cpow_half",
    "cpow_half_lanes",
    "power_combination_flips",
]

# _sqrt's scaling of a z whose parts are both below the smallest normal float.
_SUBNORMAL, _UP, _DOWN = sys.float_info.min, 2.0 ** 108, 2.0 ** -54


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


def _sqrt(z: complex) -> complex:
    """Principal square root of a finite, nonzero z, from +, -, x, / and
    sqrt only (Kahan 1987), with an imaginary part -0 read as +0.

    |z| is big * sqrt(1 + (small/big)^2), past the float range only where
    |z| is; rho = sqrt((|x| + |z|)/2) is taken as sqrt(2s)/2 below s = 1,
    where halving s could round away its last bits, and as
    sqrt(|x|/2 + |z|/2) from 1 up, where 2s could overflow. A z whose
    parts are both subnormal is scaled by 4**54 first and its root by
    2**-54 after, both exactly, so |z| keeps its bits. rho is then at
    least 1.5e-162, so no quotient below divides by zero. On the positive
    real axis these steps give (sqrt(x), 0.0)."""
    x, y = z.real, z.imag + 0.0
    ax, ay = abs(x), abs(y)
    big, small = (ax, ay) if ax >= ay else (ay, ax)
    if big < _SUBNORMAL:
        w = _sqrt(complex(x * _UP, y * _UP))
        return complex(w.real * _DOWN, w.imag * _DOWN)
    r = small / big
    mod = big * math.sqrt(1.0 + r * r)
    s = ax + mod
    rho = math.sqrt(2.0 * s) * 0.5 if s < 1.0 else math.sqrt(0.5 * ax + 0.5 * mod)
    if x >= 0.0:
        return complex(rho, y / (2.0 * rho))
    return complex(ay / (2.0 * rho), math.copysign(rho, y))


def _sqrt_lanes(x, y):
    """_sqrt over arrays of real and imaginary parts, the same operations
    lane by lane (a factor 1.0 where _sqrt does not scale); a lane at
    z = 0 or not finite holds nan or inf."""
    y = y + 0.0
    ax, ay = np.abs(x), np.abs(y)
    order = ax >= ay
    tiny = np.where(order, ax, ay) < _SUBNORMAL
    up = np.where(tiny, _UP, 1.0)
    x, y, ax, ay = x * up, y * up, ax * up, ay * up
    big, small = np.where(order, ax, ay), np.where(order, ay, ax)
    r = small / big
    mod = big * np.sqrt(1.0 + r * r)
    s = ax + mod
    rho = np.where(s < 1.0, np.sqrt(2.0 * s) * 0.5, np.sqrt(0.5 * ax + 0.5 * mod))
    right, down = x >= 0.0, np.where(tiny, _DOWN, 1.0)
    return (np.where(right, rho, ay / (2.0 * rho)) * down,
            np.where(right, y / (2.0 * rho), np.copysign(rho, y)) * down)


def _power(w, m: int, mul, one):
    """w**m for an int m >= 1 by CPython's binary powering (c_powu): from
    one, the bits of m from the lowest up, each set one multiplying the
    product so far by w**(2**k) on its right. mul is the product of w's
    type and one its 1: a complex and 1+0j, or a pair of part arrays and
    (1.0, 0.0)."""
    out = one
    while True:
        if m & 1:
            out = mul(out, w)
        m >>= 1
        if not m:
            return out
        w = mul(w, w)


def cpow_half(z: complex, m: int) -> complex:
    """Principal value of z**(m/2), as (sqrt z)**m: the principal root
    (_sqrt) raised to m by binary powering (_power), each product the one
    of CPython's complex type.

    Only +, -, x, / and sqrt are used, which IEEE 754 rounds correctly on
    every platform, so cpow_half_lanes takes the same bits from numpy. The
    branch is the one of |z|**(m/2) exp(i (m/2) arg z) with arg in
    (-pi, pi]: z = x - 0i with x < 0 has arg +pi.

    m = 0 returns 1 for any z (including 0, by the z**0 limit convention);
    z = 0 with m > 0 returns 0. An m that float() cannot convert is
    refused, and so is a z, or a z**(m/2), that is not finite.
    """
    if m < 0:
        raise DomainError("negative half-integer exponents are not supported")
    if m == 0:
        return complex(1.0, 0.0)
    try:
        float(m)
    except OverflowError:
        # m is not printed: str() of a huge int may raise too.
        raise DomainError("m is past the float range: z**(m/2) cannot be formed in floats") from None
    if z == 0:
        return complex(0.0, 0.0)
    if cmath.isfinite(z):
        w = _power(_sqrt(z), m, operator.mul, complex(1.0, 0.0))
        if cmath.isfinite(w):
            return w
    raise DomainError("|z| or |z|**(m/2) is past the float range")


def cpow_half_lanes(zr, zi, m: int):
    """cpow_half(complex(zr, zi), m) over float arrays, bit for bit on every
    lane, signed zeros included: its real and imaginary parts, and ok,
    False exactly where the scalar call raises (its lanes hold nan or inf).
    An m < 0 raises DomainError; an m past the float range refuses every
    lane."""
    if m < 0:
        raise DomainError("negative half-integer exponents are not supported")
    zr, zi = np.broadcast_arrays(np.asarray(zr, dtype=float), np.asarray(zi, dtype=float))
    if m == 0:
        return np.ones_like(zr), np.zeros_like(zr), np.ones(zr.shape, dtype=bool)
    try:
        float(m)
    except OverflowError:
        return np.full_like(zr, np.nan), np.full_like(zr, np.nan), np.zeros(zr.shape, dtype=bool)
    with np.errstate(all="ignore"):
        wr, wi = _power(_sqrt_lanes(zr, zi), m, lambda x, y: mul_lanes(*x, *y), (1.0, 0.0))
        zero = (zr == 0.0) & (zi == 0.0)
        wr, wi = np.where(zero, 0.0, wr), np.where(zero, 0.0, wi)
        ok = zero | np.isfinite(zr) & np.isfinite(zi) & np.isfinite(wr) & np.isfinite(wi)
    return wr, wi, ok


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
