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
A point's pass (its sums, error_estimate and N) is stored on the
parameter record, keyed by its row count: oracle_sin and oracle_cos at
one point integrate once, and so does oracle_f for real coefficients.
A refusal (outside ENVELOPE, N above N_MAX) is stored nowhere and raised
on every call.

The rule is taken over blocks of points, one exponential per block, and
no point's sums depend on the rest of its block. So the scalar path (a
block of one), fill_passes (many records, grouped by N and row count, in
blocks of at most BLOCK_NODES nodes) and oracle_f_lanes (real
coefficients at one m, values only) agree bit for bit.

This module deliberately never imports the closed-form evaluators: it has
to be able to falsify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import ComplexParams, RealParams, _once

__all__ = ["QuadratureResult", "OracleLanes", "fill_passes", "oracle_f", "oracle_f_lanes", "oracle_sin",
           "oracle_cos"]

N_MIN = 32
N_MAX = 2**20
# Target for the tail bound 2 e^R R^n / n! of the coefficients left out.
ALIAS_EPS = float(np.finfo(float).eps)
UNIT_ROUNDOFF = ALIAS_EPS / 2
# Beyond this coefficient budget exp(p cos x + ...) strains binary64;
# refuse rather than quietly degrade.
ENVELOPE = 50.0
# Rows times nodes per exponential in fill_passes and oracle_f_lanes:
# bounds their memory.
BLOCK_NODES = 8192


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


def _node_count(quarter_radius: int, m: int) -> int:
    """N for harmonic m at bandwidth R = quarter_radius / 4: a power of two above m + n."""
    order = m + _alias_order(quarter_radius)
    return max(N_MIN, 1 << order.bit_length())


def _integrand(coeffs: np.ndarray, n: int) -> np.ndarray:
    """g = exp(u cos x_j + v sin x_j - ik x_j) at the n nodes, one row per
    row (u, v, -ik) of coeffs; each row's values do not depend on the others."""
    # einsum rather than matmul: on some x86 CPUs the complex BLAS kernel
    # leaves the vector registers dirty and every later libm call slows ~10x.
    return np.exp(np.einsum("kj,jn->kn", coeffs, _nodes(n)))


def _trapezoids(coeffs: np.ndarray, n: int) -> list[tuple[tuple[complex, ...], float]]:
    """n-point rule for each point's rows (u, v, -ik), coeffs of shape
    (points, rows, 3): per point, the integrals of
    g = exp(u cos x + v sin x - ikx) over [0, 2pi], and the mean over rows
    of the rule applied to |g|, whose sum is one pairwise sum over the
    point's rows * n values, as np.abs(g).sum() takes it at one point."""
    points, rows = coeffs.shape[:2]
    g = _integrand(coeffs.reshape(points * rows, 3), n)
    h = 2.0 * math.pi / n
    sums = g.sum(axis=1).reshape(points, rows).tolist()
    abs_sums = np.abs(g).reshape(points, rows * n).sum(axis=1).tolist()
    return [(tuple(h * s for s in row), h * a / rows) for row, a in zip(sums, abs_sums)]


def _trapezoid(coeffs: np.ndarray, n: int) -> tuple[tuple[complex, ...], float]:
    """_trapezoids at one point, whose rows are coeffs."""
    return _trapezoids(coeffs[np.newaxis], n)[0]


class _Plan(NamedTuple):
    """A point's pass before integration: its rows (u, v, -ik), N, the
    aliasing bound and the rounding growth that multiplies the |g| rule."""

    rows: tuple[tuple[complex, complex, complex], ...]
    n: int
    alias: float
    growth: float

    def finish(self, sums: tuple[complex, ...], abs_sum: float) -> tuple:
        """The stored pass: sums, error_estimate and N."""
        return sums, self.alias + self.growth * abs_sum, self.n


def _plan(params: RealParams | ComplexParams, two_rows: bool) -> _Plan:
    """The pass's plan, or DomainError outside ENVELOPE or where N > N_MAX."""
    p, q, a, b, m = params.p, params.q, params.a, params.b, params.m
    budget = abs(p) + abs(q) + abs(a) + abs(b)
    if budget > ENVELOPE:
        raise DomainError(
            f"|p|+|q|+|a|+|b| = {budget:.3g} exceeds the oracle envelope {ENVELOPE:g}"
        )
    rows = ((p + 1j * a, q + 1j * b, -1j * m),)
    if two_rows:
        rows += ((p - 1j * a, q - 1j * b, 1j * m),)
    radius = max(abs(u - 1j * v) + abs(u + 1j * v) for u, v, _ in rows) / 2
    n = _node_count(math.ceil(4 * radius), m)
    if n > N_MAX:
        raise DomainError(f"m = {m} needs {n} trapezoid nodes, above N_MAX = {N_MAX}")
    k = n - m  # 2pi times the tails on both sides, each <= 2 e^R R^k / k!
    alias = 8 * math.pi * math.exp(radius + k * math.log(radius) - math.lgamma(k + 1)) if radius else 0.0
    # Rounding growth: numpy's pairwise sum (log2 n + 16), the nodes and
    # products with the coefficients (20 per unit of budget), and m x_j (19 m).
    return _Plan(rows, n, alias, UNIT_ROUNDOFF * (16 + math.log2(n) + 20 * budget + 19 * m))


def _two_rows(params: RealParams | ComplexParams) -> bool:
    # At complex coefficients oracle_sin and oracle_cos integrate g- too.
    return not (isinstance(params, RealParams) or params.is_real)


def fill_passes(records: list[RealParams | ComplexParams]) -> None:
    """Store the pass that oracle_sin and oracle_cos read (oracle_f's too,
    at real coefficients) on each record that has none. A record the
    scalar path would refuse stays unfilled, so its oracle call raises."""
    groups: dict[tuple[int, int], list] = {}
    for params in records:
        two_rows = _two_rows(params)
        if ("pass", 1 + two_rows) in params._cache:
            continue
        try:
            plan = _plan(params, two_rows)
        except DomainError:
            continue
        groups.setdefault((plan.n, len(plan.rows)), []).append((params, plan))
    for (n, rows), group in groups.items():
        per_block = max(1, BLOCK_NODES // (rows * n))
        for start in range(0, len(group), per_block):
            block = group[start:start + per_block]
            coeffs = np.array([plan.rows for _, plan in block])
            for (params, plan), (sums, abs_sum) in zip(block, _trapezoids(coeffs, n)):
                params._cache["pass", rows] = plan.finish(sums, abs_sum)


def _oracle(params: RealParams | ComplexParams, kind: str) -> QuadratureResult:
    two_rows = kind != "f" and _two_rows(params)

    def integrate():
        plan = _plan(params, two_rows)
        return plan.finish(*_trapezoid(np.array(plan.rows), plan.n))

    sums, error_estimate, n = _once(params, ("pass", 1 + two_rows), integrate)
    if kind == "f":
        value = sums[0]
    elif len(sums) == 1:
        value = complex(sums[0].real if kind == "cos" else sums[0].imag)
    else:
        value = (sums[0] + sums[1]) / 2 if kind == "cos" else (sums[0] - sums[1]) / 2j
    return QuadratureResult(value=value, error_estimate=error_estimate, evaluations=n)


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


class OracleLanes(NamedTuple):
    """Lane-wise oracle_f values as real and imaginary parts, with each
    lane's N. A lane that is not ok (outside ENVELOPE, or N above N_MAX)
    holds no value."""

    re: np.ndarray
    im: np.ndarray
    evaluations: np.ndarray
    ok: np.ndarray


def oracle_f_lanes(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray,
                   m: int) -> OracleLanes:
    """oracle_f(RealParams(p, q, a, b, m)).value on every lane, bit for bit.

    For real coefficients oracle_cos and oracle_sin are the real and
    imaginary parts of it. u = p + ia and v = q + ib are formed with
    CPython's complex operations, signed zeros included, and
    |u -+ iv| = hypot(p +- b, a -+ q).
    """
    with np.errstate(all="ignore"):
        ok = np.abs(p) + np.abs(q) + np.abs(a) + np.abs(b) <= ENVELOPE
        radius = (np.hypot(p + b, a - q) + np.hypot(p - b, a + q)) / 2
        # The rows (p + 1j*a, q + 1j*b, -1j*m) of the scalar path, part by part.
        coeffs = np.empty((len(p), 3), dtype=complex)
        coeffs[:, 0].real, coeffs[:, 0].imag = p + (0.0 * a - 0.0), 0.0 + (0.0 + a)
        coeffs[:, 1].real, coeffs[:, 1].imag = q + (0.0 * b - 0.0), 0.0 + (0.0 + b)
        coeffs[:, 2] = -1j * m
    # Distinct values by set, not np.unique: its first call imports numpy.ma,
    # which costs a fresh interpreter tens of milliseconds.
    quarters = np.ceil(4 * radius[ok])
    distinct = sorted(set(quarters.tolist()))
    counts = np.array([_node_count(int(r), m) for r in distinct], dtype=np.int64)
    nodes = np.zeros(len(p), dtype=np.int64)
    nodes[ok] = counts[np.searchsorted(distinct, quarters)]
    ok &= nodes <= N_MAX
    nodes[~ok] = 0
    re, im = np.zeros(len(p)), np.zeros(len(p))
    for n in sorted(set(nodes[ok].tolist())):
        lanes, per_block, h = np.flatnonzero(nodes == n), max(1, BLOCK_NODES // n), 2.0 * math.pi / n
        for start in range(0, len(lanes), per_block):
            block = lanes[start:start + per_block]
            sums = _integrand(coeffs[block], n).sum(axis=1)
            # h * s, a float times a complex, as CPython takes it
            re[block], im[block] = h * sums.real - 0.0 * sums.imag, h * sums.imag + 0.0 * sums.real
    return OracleLanes(re, im, nodes, ok)
