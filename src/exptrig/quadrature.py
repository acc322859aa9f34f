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

One driver, _trapezoids, takes the rule over points grouped by N, in
blocks of at most BLOCK_NODES nodes, and no point's sums depend on the
rest of its block. The scalar path (a block of one), fill_passes and
oracle_f_lanes all call it, so they agree bit for bit.

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
# Rows times nodes per exponential in _trapezoids: bounds its memory.
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


def _trapezoids(coeffs: np.ndarray, nodes: list[int]) -> list[tuple[tuple[complex, ...], float]]:
    """The rule for each point's rows (u, v, -ik), coeffs of shape
    (points, rows, 3), at the point's node count in nodes: per point, the
    integrals of g = exp(u cos x + v sin x - ikx) over [0, 2pi], and the
    mean over rows of the rule applied to |g|, whose sum is one pairwise
    sum over the point's rows * n values, as np.abs(g).sum() takes it at
    one point. Points with one N are integrated in blocks of at most
    BLOCK_NODES nodes, one exponential per block."""
    rows = coeffs.shape[1]
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        groups.setdefault(n, []).append(i)
    out: list = [None] * len(nodes)
    for n, points in groups.items():
        per_block, h = max(1, BLOCK_NODES // (rows * n)), 2.0 * math.pi / n
        # With one N the points are coeffs, in order: no copy.
        grouped = coeffs if len(groups) == 1 else coeffs[points]
        for start in range(0, len(points), per_block):
            block = points[start:start + per_block]
            g = _integrand(grouped[start:start + per_block].reshape(-1, 3), n)
            sums = [h * s for s in g.sum(axis=1).tolist()]
            abs_sums = np.abs(g).reshape(len(block), rows * n).sum(axis=1).tolist()
            # Each point's sums: the next rows of them, in order.
            for i, point, a in zip(block, zip(*[iter(sums)] * rows), abs_sums):
                out[i] = point, h * a / rows
    return out


class _Plan(NamedTuple):
    """A point's pass before integration: its rows (u, v, -ik), N, the
    aliasing bound and the rounding growth that multiplies the |g| rule."""

    rows: tuple[tuple[complex, complex, complex], ...]
    n: int
    alias: float
    growth: float


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


def _passes(plans: list[_Plan]) -> list[tuple]:
    """Each plan's stored pass: sums, error_estimate and N. The plans
    have one row count."""
    integrals = _trapezoids(np.array([plan.rows for plan in plans]), [plan.n for plan in plans])
    return [(sums, plan.alias + plan.growth * abs_sum, plan.n)
            for plan, (sums, abs_sum) in zip(plans, integrals)]


def fill_passes(records: list[RealParams | ComplexParams]) -> None:
    """Store the pass that oracle_sin and oracle_cos read (oracle_f's too,
    at real coefficients) on each record that has none. A record the
    scalar path would refuse stays unfilled, so its oracle call raises."""
    groups: dict[int, list] = {}
    for params in records:
        two_rows = _two_rows(params)
        if ("pass", 1 + two_rows) in params._cache:
            continue
        try:
            plan = _plan(params, two_rows)
        except DomainError:
            continue
        groups.setdefault(1 + two_rows, []).append((params, plan))
    for rows, group in groups.items():
        for (params, _), stored in zip(group, _passes([plan for _, plan in group])):
            params._cache["pass", rows] = stored


def _oracle(params: RealParams | ComplexParams, kind: str) -> QuadratureResult:
    two_rows = kind != "f" and _two_rows(params)
    sums, error_estimate, n = _once(params, ("pass", 1 + two_rows), lambda: _passes([_plan(params, two_rows)])[0])
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
    f = np.zeros(len(p), dtype=complex)
    f[ok] = [sums[0] for sums, _ in _trapezoids(coeffs[ok, np.newaxis], nodes[ok].tolist())]
    return OracleLanes(f.real, f.imag, nodes, ok)
