"""Ground-truth numerical integration of the target integrals.

Each integrand is built from g = exp(u cos x + v sin x - ikx), u = p +- ia,
v = q +- ib, k = +-m: f is g+, cos and sin are (g+ + g-)/2 and
(g+ - g-)/2i, or Re f and Im f for real coefficients. The exponent is
alpha e^{ix} + beta e^{-ix}, alpha = (u - iv)/2, beta = (u + iv)/2, so the
Fourier coefficient of order j is at most e^R R^|j| / |j|!, R = |alpha| +
|beta|, and the N-point trapezoid rule adds those of order m +- N, +-2N, ...
to the m-th (aliasing). N is therefore fixed a priori (Trefethen &
Weideman, SIAM Review 56(3), 2014): with n the smallest order where
2 e^R R^n / n! <= ALIAS_EPS, N is the smallest power of two above m + n,
and at least N_MIN. One pass gives the value, with no convergence test
that a large m could fool. error_estimate bounds |value - integral|: the
aliasing bound at order N - m plus u (2pi/N) sum_j |g(x_j)| times the
rounding growth of the nodes, the exponent (m x included) and the sum.

This module deliberately never imports the closed-form evaluators: it has
to be able to falsify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import ComplexParams, RealParams

__all__ = ["QuadratureResult", "oracle_f", "oracle_sin", "oracle_cos"]

N_MIN = 32
N_MAX = 2**20
# Target for the tail bound 2 e^R R^n / n! of the coefficients left out.
ALIAS_EPS = float(np.finfo(float).eps)
UNIT_ROUNDOFF = ALIAS_EPS / 2
# Beyond this coefficient budget exp(p cos x + ...) strains binary64;
# refuse rather than quietly degrade.
ENVELOPE = 50.0


@dataclass(frozen=True)
class QuadratureResult:
    """Trapezoid value; |value - integral| <= error_estimate; evaluations is N."""

    value: complex
    error_estimate: float
    evaluations: int


@lru_cache(maxsize=256)
def _alias_order(quarter_radius: int) -> int:
    """Smallest n >= 2R with 2 e^R R^n / n! <= ALIAS_EPS, for R = quarter_radius / 4.

    From n >= 2R on, the coefficients of order n and above sum to at most
    twice the bound of order n.
    """
    r = quarter_radius / 4
    n, term = 0, 2.0 * math.exp(r)
    while term > ALIAS_EPS or n < 2 * r:
        n += 1
        term *= r / n
    return n


@lru_cache(maxsize=4)
def _nodes(n: int) -> np.ndarray:
    """The 3 x n table of rows cos x_j, sin x_j, x_j at x_j = 2pi j / n, as complex."""
    x = np.arange(n) * (2.0 * math.pi / n)
    table = np.stack([np.cos(x), np.sin(x), x]).astype(complex)
    table.flags.writeable = False
    return table


def _trapezoid(coeffs: np.ndarray, n: int) -> tuple[list[complex], float]:
    """n-point rule for each row (u, v, -ik) of coeffs: the integrals of
    g = exp(u cos x + v sin x - ikx) over [0, 2pi], and the mean over rows
    of the rule applied to |g|."""
    # einsum rather than matmul: on some x86 CPUs the complex BLAS kernel
    # leaves the vector registers dirty and every later libm call slows ~10x.
    g = np.exp(np.einsum("kj,jn->kn", coeffs, _nodes(n)))
    h = 2.0 * math.pi / n
    return [h * s for s in g.sum(axis=1).tolist()], h * float(np.abs(g).sum()) / len(g)


def _oracle(params: RealParams | ComplexParams, kind: str) -> QuadratureResult:
    p, q, a, b, m = params.p, params.q, params.a, params.b, params.m
    budget = abs(p) + abs(q) + abs(a) + abs(b)
    if budget > ENVELOPE:
        raise DomainError(
            f"|p|+|q|+|a|+|b| = {budget:.3g} exceeds the oracle envelope {ENVELOPE:g}"
        )
    rows = [(p + 1j * a, q + 1j * b, -1j * m)]
    if kind != "f" and not (isinstance(params, RealParams) or params.is_real):
        rows.append((p - 1j * a, q - 1j * b, 1j * m))
    radius = max(abs(u - 1j * v) + abs(u + 1j * v) for u, v, _ in rows) / 2
    order = m + _alias_order(math.ceil(4 * radius))
    n = max(N_MIN, 1 << order.bit_length())
    if n > N_MAX:
        raise DomainError(f"m = {m} needs {n} trapezoid nodes, above N_MAX = {N_MAX}")
    sums, abs_sum = _trapezoid(np.array(rows), n)

    if kind == "f":
        value = sums[0]
    elif len(rows) == 1:
        value = complex(sums[0].real if kind == "cos" else sums[0].imag)
    else:
        value = (sums[0] + sums[1]) / 2 if kind == "cos" else (sums[0] - sums[1]) / 2j

    k = n - m  # 2pi times the tails on both sides, each <= 2 e^R R^k / k!
    alias = 8 * math.pi * math.exp(radius + k * math.log(radius) - math.lgamma(k + 1)) if radius else 0.0
    # Rounding growth: numpy's pairwise sum (log2 n + 16), the nodes and
    # products with the coefficients (20 per unit of budget), and m x_j (19 m).
    rounding = UNIT_ROUNDOFF * (16 + math.log2(n) + 20 * budget + 19 * m) * abs_sum
    return QuadratureResult(value=value, error_estimate=alias + rounding, evaluations=n)


def oracle_f(params: RealParams | ComplexParams) -> QuadratureResult:
    """Direct integration of exp(p cos x + q sin x) e^{i(a cos x + b sin x - m x)}."""
    return _oracle(params, "f")


def oracle_sin(params: RealParams | ComplexParams) -> QuadratureResult:
    """Direct integration of the sin-kind integrand (complex-valued when
    the coefficients are complex)."""
    return _oracle(params, "sin")


def oracle_cos(params: RealParams | ComplexParams) -> QuadratureResult:
    """Direct integration of the cos-kind integrand."""
    return _oracle(params, "cos")
