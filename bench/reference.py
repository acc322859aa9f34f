"""Independent high-precision reference values for the benchmark's checks.

Nothing here imports exptrig. Every value comes from the defining
integral, evaluated with mpmath at raised precision by the equal-weight
trapezoid rule on the 2pi-periodic integrand. For an integrand
exp(alpha e^{ix} + beta e^{-ix}) e^{-imx} the Fourier coefficient of
order k is bounded by e^R R^|k| / |k|! with R = |alpha| + |beta|, and the
N-point rule returns the m-th coefficient plus the coefficients of order
m +- N, +-2N, ... (aliasing). N is therefore fixed a priori so that
every aliased coefficient is below ALIAS_EPS (Trefethen & Weideman,
"The exponentially convergent trapezoidal rule", SIAM Review 56(3),
2014); no convergence test is involved.

The book's original closed form for f (GR 3.937 1-2, principal branch
powers throughout) is written out here from the paper, so that the sign
of the original against the true value can be judged without the
program's own evaluators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import mpmath as mp

DPS = 30
ALIAS_EPS = mp.mpf(10) ** -28

mp.mp.dps = DPS


def alias_order(radius: float) -> int:
    """Smallest n >= 2R + 8 with 2 e^R R^n / n! < ALIAS_EPS.

    For n >= 2R the tail sum over orders >= n is at most twice its first
    term, so every coefficient of order n or more, summed, is below
    ALIAS_EPS.
    """
    r = mp.mpf(radius)
    n = int(2 * radius) + 8
    while 2 * mp.exp(r) * r**n / mp.factorial(n) >= ALIAS_EPS:
        n += 1
    return n


def node_count(m: int, radius: float) -> int:
    """Trapezoid size for harmonic m: N - m must exceed the alias order."""
    return 2 * (m + alias_order(radius))


@lru_cache(maxsize=None)
def _nodes(n: int) -> tuple[tuple[mp.mpf, mp.mpf, mp.mpf], ...]:
    out = []
    for j in range(n):
        x = 2 * mp.pi * j / n
        out.append((x, mp.cos(x), mp.sin(x)))
    return tuple(out)


def trapezoid(integrand: Callable, n: int) -> mp.mpc:
    """(2pi/n) * sum of integrand(x, cos x, sin x) over n equispaced nodes."""
    total = mp.mpc(0)
    for x, c, s in _nodes(n):
        total += integrand(x, c, s)
    return total * 2 * mp.pi / n


def _mp(z) -> mp.mpc:
    return mp.mpc(complex(z))


def _exp_harmonic(u: mp.mpc, v: mp.mpc, m: int) -> mp.mpc:
    """Integral over [0, 2pi] of exp(u cos x + v sin x - imx).

    The exponent is alpha e^{ix} + beta e^{-ix} with |alpha| + |beta| <=
    |u| + |v|, which bounds the integrand's bandwidth.
    """
    n = node_count(abs(m), float(abs(u) + abs(v)))
    return trapezoid(lambda x, c, s: mp.exp(u * c + v * s - 1j * m * x), n)


def family(p, q, a, b, m: int) -> tuple[mp.mpc, mp.mpc]:
    """(I_cos, I_sin) of exp(p cos x + q sin x) {cos, sin}(a cos x + b sin x - m x).

    Coefficients may be complex. With T = a cos x + b sin x - m x,
    g+- = integral of exp(p cos x + q sin x +- iT), and then
    I_cos = (g+ + g-)/2 and I_sin = (g+ - g-)/2i. For real coefficients
    g+ is f = I_cos + i I_sin.
    """
    p, q, a, b = _mp(p), _mp(q), _mp(a), _mp(b)
    plus = _exp_harmonic(p + 1j * a, q + 1j * b, m)
    minus = _exp_harmonic(p - 1j * a, q - 1j * b, -m)
    return (plus + minus) / 2, (plus - minus) / 2j


def original_f(p: float, q: float, a: float, b: float, m: int) -> mp.mpc:
    """The book's combined original form for real coefficients:

        f = 2pi [(b-p)^2 + (a+q)^2]^(-m/2) (A - iB)^(m/2) I_m(sqrt(C + iD))

    with A = p^2 - q^2 + a^2 - b^2, B = 2(pq + ab), C = p^2 + q^2 - a^2 - b^2,
    D = 2(ap + bq), and every fractional power on its principal branch
    (argument in (-pi, pi]). Undefined when (b-p)^2 + (a+q)^2 = 0.
    """
    p, q, a, b = mp.mpf(p), mp.mpf(q), mp.mpf(a), mp.mpf(b)
    ynorm2 = (b - p) ** 2 + (a + q) ** 2
    if ynorm2 == 0:
        raise ValueError("original form undefined at (b-p)^2 + (a+q)^2 = 0")
    big_a = p * p - q * q + a * a - b * b
    big_b = 2 * (p * q + a * b)
    big_c = p * p + q * q - a * a - b * b
    big_d = 2 * (a * p + b * q)
    half_m = mp.mpf(m) / 2
    power = mp.power(mp.mpc(big_a, -big_b), half_m) if m else mp.mpc(1)
    root = mp.sqrt(mp.mpc(big_c, big_d))
    return 2 * mp.pi * ynorm2 ** (-half_m) * power * mp.besseli(m, root)


def _k_constant(a: float, q: float) -> float:
    """K = q/a when |a| >= |q| and a != 0, a/q when |q| > |a|, -1 when a = q = 0."""
    if a == 0 and q == 0:
        return -1.0
    return q / a if abs(a) >= abs(q) else a / q


def book_flip_condition(p: float, q: float, a: float, b: float, m: int) -> bool:
    """The paper's combined condition for the original form's sign error:
    for odd m, p < -bK, or p = -bK with a < -|q| or q > |a|."""
    if m % 2 == 0:
        return False
    thr = -b * _k_constant(a, q)
    return p < thr or (p == thr and (a < -abs(q) or q > abs(a)))


def near_branch_cut(p: float, q: float, a: float, b: float, rel: float = 1e-9) -> bool:
    """True near a place where the original form's sign is fragile.

    These are the Y = 0 point, the line p = -bK of the flip condition, and
    the negative real axes of A - iB and C + iD, where the principal
    powers jump. Within rounding distance of them binary64 and exact
    arithmetic may take different sides of a cut.
    """
    scale = max(1.0, abs(p), abs(q), abs(a), abs(b)) ** 2
    if (b - p) ** 2 + (a + q) ** 2 <= rel * scale:
        return True
    k = _k_constant(a, q)
    if abs(p + b * k) <= rel * max(1.0, abs(p), abs(b * k)):
        return True
    big_a = p * p - q * q + a * a - b * b
    big_b = 2 * (p * q + a * b)
    big_c = p * p + q * q - a * a - b * b
    big_d = 2 * (a * p + b * q)
    for re, im in ((big_a, big_b), (big_c, big_d)):
        if re <= 0 and abs(im) <= rel * scale:
            return True
    return False


# Catalog integrals, from their book statements. Each entry maps the
# entry's arguments to (integrand, bandwidth radius, harmonic, half_range).
# The half-range integrands over [0, pi] are even in x, so each equals
# half the integral of the same integrand over [0, 2pi].


CATALOG: dict[str, Callable] = {
    "GR-3.931-4": lambda pp, sign=1: (
        lambda x, c, s, pp=_mp(pp): mp.exp(sign * pp * c) * mp.cos(pp * s),
        2 * abs(complex(pp)), 0, True),
    "GR-3.932-1": lambda pp, m: (
        lambda x, c, s, pp=_mp(pp): mp.exp(pp * c) * mp.sin(pp * s) * mp.sin(m * x),
        2 * abs(complex(pp)), m, True),
    "GR-3.931-2": lambda pp, m: (
        lambda x, c, s, pp=_mp(pp): mp.exp(pp * c) * mp.cos(pp * s) * mp.cos(m * x),
        2 * abs(complex(pp)), m, True),
    "GR-3.936-1": lambda pp, m: (
        lambda x, c, s, pp=_mp(pp): mp.exp(pp * c) * mp.cos(pp * s - m * x),
        2 * abs(complex(pp)), m, False),
    "GR-3.936-2": lambda pp, m: (
        lambda x, c, s, pp=_mp(pp): mp.exp(pp * s) * mp.sin(pp * c + m * x),
        2 * abs(complex(pp)), m, False),
    "GR-3.936-3": lambda pp, m: (
        lambda x, c, s, pp=_mp(pp): mp.exp(pp * s) * mp.cos(pp * c + m * x),
        2 * abs(complex(pp)), m, False),
    "GR-3.936-4": lambda p, m, sign=1: (
        lambda x, c, s, p=_mp(p): mp.exp(p * c) * mp.sin(p * s + sign * m * x),
        2 * abs(complex(p)), m, False),
    "GR-3.937-3": lambda p, q, m: (
        lambda x, c, s, p=_mp(p), q=_mp(q): mp.exp(p * c + q * s) * mp.sin(q * c - p * s + m * x),
        2 * (abs(complex(p)) + abs(complex(q))), m, False),
    "GR-3.937-4": lambda p, q, m: (
        lambda x, c, s, p=_mp(p), q=_mp(q): mp.exp(p * c + q * s) * mp.cos(q * c - p * s + m * x),
        2 * (abs(complex(p)) + abs(complex(q))), m, False),
}
CATALOG["GR-3.937-3-original"] = CATALOG["GR-3.937-3"]
CATALOG["GR-3.937-4-original"] = CATALOG["GR-3.937-4"]


def catalog_value(entry_id: str, args: tuple) -> mp.mpc:
    """The defining integral of one catalog entry at one argument tuple."""
    integrand, radius, m, half = CATALOG[entry_id](*args)
    value = trapezoid(integrand, node_count(m, radius))
    return value / 2 if half else value
