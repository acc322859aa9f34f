"""Ground-truth numerical integration of the target integrals.

Each integrand is built from g = exp(u cos x + v sin x - ikx), u = p +- ia,
v = q +- ib, k = +-m: f is g+, cos and sin are (g+ + g-)/2 and (g+ - g-)/2i,
or Re f and Im f (params.component) at real coefficients. The exponent is
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
parameter record, keyed by its row count, a real-valued one's on its
to_real(): oracle_sin and oracle_cos at one point integrate once, and so
does oracle_f for real coefficients. Each returns a params.Result routed
"oracle". A refusal (outside ENVELOPE, N above N_MAX) is stored nowhere
and raised on every call.

One function, _integrate, plans and takes the passes of many points:
their rows (u, v, -ik), R, N, refusals and error_estimate, returned as
params.Lanes whose value is each point's row of sums. Its three callers
read those lanes: the scalar oracle (a batch of one) stores its lane's
pass on the record, or raises its refusal; fill_passes (verify,
catalog) stores the pass of each ok lane; oracle_lanes (audit) takes the
kind of column 0. No point's sums depend on the rest of its batch, so
the three agree bit for bit.

This module deliberately never imports the closed-form evaluators: it has
to be able to falsify them.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .complexops import mul_lanes
from .errors import DomainError
from .params import ComplexParams, Lanes, RealParams, Result, component

__all__ = ["fill_passes", "oracle_f", "oracle_lanes", "oracle_sin", "oracle_cos",
           "refuses_every_point"]

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


def refuses_every_point(m: int) -> bool:
    """Whether N is past N_MAX at every point of harmonic m, even at R = 0, which needs the fewest."""
    return _node_count(0, m) > N_MAX


def _integrand(coeffs: np.ndarray, n: int) -> np.ndarray:
    """g = exp(u cos x_j + v sin x_j - ik x_j) at the n nodes, one row per
    row (u, v, -ik) of coeffs; each row's values do not depend on the others."""
    # einsum rather than matmul: on some x86 CPUs the complex BLAS kernel
    # leaves the vector registers dirty and every later libm call slows ~10x.
    return np.exp(np.einsum("kj,jn->kn", coeffs, _nodes(n)))


def _trapezoids(coeffs: np.ndarray, nodes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rule for each point's rows (u, v, -ik), coeffs of shape
    (points, rows, 3), at the point's N in nodes: the integrals of
    g = exp(u cos x + v sin x - ikx) over [0, 2pi], of shape (points, rows),
    and per point the mean over rows of the rule applied to |g| (one
    pairwise sum of its rows * N values). Points with one N go in blocks
    of at most BLOCK_NODES nodes, one exponential per block."""
    rows = coeffs.shape[1]
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        groups.setdefault(n, []).append(i)
    sums, abs_means = np.empty((len(nodes), rows), dtype=complex), np.empty(len(nodes))
    for n, points in groups.items():
        per_block, h = max(1, BLOCK_NODES // (rows * n)), 2.0 * math.pi / n
        grouped = coeffs[points]
        for start in range(0, len(points), per_block):
            block = points[start:start + per_block]
            g = _integrand(grouped[start:start + per_block].reshape(-1, 3), n)
            s = g.sum(axis=1).reshape(len(block), rows)
            # h times each sum as CPython multiplies a float by a complex
            sums.real[block], sums.imag[block] = mul_lanes(s.real, s.imag, h, 0.0)
            abs_means[block] = h * np.abs(g).reshape(len(block), rows * n).sum(axis=1) / rows
    return sums, abs_means


def _integrate(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray, m: np.ndarray,
               rows: int) -> Lanes:
    """The passes of many points, one lane each: complex arrays p, q, a, b
    and an integer array m, with the row (u, v, -ik) of g+ and, at rows = 2,
    that of g- too. A lane's value is its row of sums, the integrals of g+
    (and g-), of shape (points, rows); its count is N and its bound
    error_estimate. A lane refused (outside ENVELOPE, or N above N_MAX)
    has sums 0, N 0 and its message as error."""
    signs = (1.0, -1.0)[:rows]
    with np.errstate(all="ignore"):
        # abs of a Python complex is hypot of its parts; np.abs may differ by an ulp.
        budget = sum(np.hypot(x.real, x.imag) for x in (p, q, a, b))
        inside = budget <= ENVELOPE
        # The rows' u = p -+ 1j*a and v = q -+ 1j*b as CPython forms them, part by part.
        coeffs = np.zeros((len(p), rows, 3), dtype=complex)
        for col, (x, y) in enumerate(((p, a), (q, b))):
            coeffs[..., col].real = x.real[:, None] + np.outer(0.0 * y.real - y.imag, signs)
            coeffs[..., col].imag = x.imag[:, None] + np.outer(0.0 * y.imag + y.real, signs)
        # R = max over rows of (|u - iv| + |u + iv|) / 2.
        u, v = coeffs[..., 0], coeffs[..., 1]
        radius = (np.hypot(u.real + v.imag, u.imag - v.real)
                  + np.hypot(u.real - v.imag, u.imag + v.real)).max(axis=1) / 2
    # Only lanes inside ENVELOPE are sized: past it ceil(4R) can be too
    # large to count to. N past N_MAX is held as N_MAX + 1, which fits an int64.
    sized = np.flatnonzero(inside)
    keys = list(zip(np.ceil(4 * radius[sized]).tolist(), m[sized].tolist()))
    counts = {key: min(_node_count(int(key[0]), key[1]), N_MAX + 1) for key in set(keys)}
    nodes = np.zeros(len(p), dtype=np.int64)
    nodes[sized] = [counts[key] for key in keys]
    ok = inside & (nodes <= N_MAX)
    error: list = [None] * len(p)
    for i in np.flatnonzero(~ok).tolist():
        if not inside[i]:
            error[i] = f"|p|+|q|+|a|+|b| = {budget[i]:.3g} exceeds the oracle envelope {ENVELOPE:g}"
        elif m[i] > sys.float_info.max:
            # Neither m nor N is printed: str() of a huge int may raise.
            error[i] = f"an m past the float range needs more than N_MAX = {N_MAX} trapezoid nodes"
        else:
            error[i] = (f"m = {m[i]} needs {_node_count(math.ceil(4 * radius[i]), int(m[i]))} "
                        f"trapezoid nodes, above N_MAX = {N_MAX}")
    nodes[~ok], error_estimate, lanes = 0, np.zeros(len(p)), np.flatnonzero(ok)
    sums = np.zeros((len(p), rows), dtype=complex)
    if len(lanes):
        n, m, coeffs = nodes[lanes], m[lanes].astype(np.int64), coeffs[lanes]
        coeffs[..., 2].imag = -np.outer(m, signs)  # -+1j*m
        sums[lanes], abs_means = _trapezoids(coeffs, n.tolist())
        # 2pi times the aliasing tails on both sides, each <= 2 e^R R^k / k!; k = N - m takes few values
        orders = (n - m).tolist()
        log_fact = {k: math.lgamma(k + 1) for k in set(orders)}
        alias = [8 * math.pi * math.exp(r + k * math.log(r) - log_fact[k]) if r else 0.0
                 for r, k in zip(radius[lanes].tolist(), orders)]
        # Rounding growth: numpy's pairwise sum (log2 N + 16), the nodes and
        # products with the coefficients (20 per unit of budget), and m x_j (19 m).
        growth = UNIT_ROUNDOFF * (16 + np.log2(n) + 20 * budget[lanes] + 19 * m)
        error_estimate[lanes] = np.array(alias) + growth * abs_means
    return Lanes(sums, nodes, ok, error, error_estimate)


def _store_passes(records: list[RealParams | ComplexParams], rows: int) -> Lanes:
    """_integrate over the records, one lane each; each ok lane's pass is
    stored on its record."""
    p, q, a, b = (np.array([getattr(params, x) for params in records], dtype=complex) for x in "pqab")
    lanes = _integrate(p, q, a, b, np.array([params.m for params in records]), rows)
    for i in np.flatnonzero(lanes.ok).tolist():
        records[i]._cache["pass", rows] = (tuple(lanes.value[i].tolist()), lanes.bound[i].item(),
                                           lanes.count[i].item())
    return lanes


def fill_passes(records: list[RealParams | ComplexParams]) -> None:
    """Store the pass that oracle_sin and oracle_cos read (oracle_f's too,
    at real coefficients) on each record that has none, a real-valued
    record's on its to_real(). A record the scalar path would refuse stays
    unfilled, so its oracle call raises."""
    records = [params.to_real() if params.is_real else params for params in records]
    # At complex coefficients oracle_sin and oracle_cos integrate g- too.
    for rows in {2 - params.is_real for params in records}:
        _store_passes([params for params in records
                       if 2 - params.is_real == rows and ("pass", rows) not in params._cache], rows)


def _oracle(params: RealParams | ComplexParams, kind: str) -> Result:
    real = params.is_real
    if real:
        params = params.to_real()
    rows = 1 if real or kind == "f" else 2
    stored = params._cache.get(("pass", rows))
    if stored is None:
        lanes = _store_passes([params], rows)
        if not lanes.ok[0]:
            raise DomainError(lanes.error[0])
        stored = params._cache["pass", rows]
    sums, error_estimate, n = stored
    if len(sums) == 1:
        value = component(sums[0], kind)
    else:
        value = (sums[0] + sums[1]) / 2 if kind == "cos" else (sums[0] - sums[1]) / 2j
    return Result(value, error_estimate, n, "oracle")


def oracle_f(params: RealParams | ComplexParams) -> Result:
    """Direct integration of exp(p cos x + q sin x) e^{i(a cos x + b sin x - m x)}."""
    return _oracle(params, "f")


def oracle_sin(params: RealParams | ComplexParams) -> Result:
    """Direct integration of the sin-kind integrand (complex-valued when
    the coefficients are complex)."""
    return _oracle(params, "sin")


def oracle_cos(params: RealParams | ComplexParams) -> Result:
    """Direct integration of the cos-kind integrand."""
    return _oracle(params, "cos")


def oracle_lanes(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray, m: int, kind: str) -> Lanes:
    """The kind's oracle at RealParams(p, q, a, b, m) on every lane, bit for
    bit: its value, N and error_estimate, or its refusal's message."""
    lanes = _integrate(*(x.astype(complex) for x in (p, q, a, b)), np.full(len(p), m), 1)
    return lanes._replace(value=component(lanes.value[:, 0], kind))
