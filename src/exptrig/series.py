"""Power-series evaluation of I_m and 0F1 on complex arguments.

Both series are entire, so plain Taylor summation with factorial-squared
term decay is adequate for every finite argument this library meets.
Terms are built incrementally from the previous term (never from
standalone factorials), partial sums use Kahan compensation, and the
modified Bessel series is summed in its factored form

    I_m(z) = (z/2)^m / m! * sum_k (z^2/4)^k / (k! (m+1)_k)

which shares its tail with the 0F1 series term for term. That keeps the
two routes bit-for-bit consistent under the heavy cancellation that sets
in for arguments near the imaginary axis.

``hyp0f1_lanes`` and ``bessel_i_lanes`` evaluate many arguments at once,
one lane per argument. Each lane takes the scalar loop's operations in
the same order, so it returns the scalar value bit for bit; a lane on
which the scalar function would raise comes back not ok instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexops import div_lanes, mul_lanes, pow_int_over_factorial, pow_int_over_factorial_lanes
from .errors import ConvergenceError

__all__ = ["SeriesResult", "SeriesLanes", "bessel_i", "bessel_i_lanes", "hyp0f1", "hyp0f1_lanes"]

# Stop once two consecutive terms are each below TERM_EPS times the
# running partial sum; give up at MAX_TERMS.
TERM_EPS = 1e-17
MAX_TERMS = 500
_FMAX = sys.float_info.max


@dataclass(frozen=True)
class SeriesResult:
    """Converged series value with term count and first-omitted-term size."""

    value: complex
    terms_used: int
    truncation_estimate: float


def _modulus(w: complex) -> float:
    # |w| for messages: inf where abs(w) would raise OverflowError.
    return math.hypot(w.real, w.imag)


def _sum_ratio_series(w: complex, b1: int, label: str) -> tuple[complex, int, float]:
    """Kahan-sum 1 + w/(1*b1) + ... with term ratio w/((k+1)(b1+k)).

    Returns (sum, terms_used, |first omitted term|). Raises
    ConvergenceError if MAX_TERMS is hit, or if a term or a partial sum
    goes non-finite or has a modulus above the float range.
    """
    s = complex(1.0, 0.0)
    comp = complex(0.0, 0.0)
    term = complex(1.0, 0.0)
    below = 0
    k = 0
    while True:
        term = term * w / ((k + 1) * (b1 + k))
        k += 1
        try:
            mag, smag = abs(term), abs(s)
        except OverflowError:  # finite parts whose modulus exceeds the float range
            mag = smag = math.inf
        if not (mag <= _FMAX and smag <= _FMAX):  # False for inf and nan alike
            raise ConvergenceError(f"{label}: series terms overflowed at k={k} (|w|={_modulus(w):.3g})")
        if mag == 0.0 or mag < TERM_EPS * smag:
            below += 1
        else:
            below = 0
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if below >= 2:
            first_omitted = abs(term * w / ((k + 1) * (b1 + k)))
            return s, k + 1, first_omitted
        if k >= MAX_TERMS:
            raise ConvergenceError(
                f"{label}: no convergence within {MAX_TERMS} terms (|w|={_modulus(w):.3g}); "
                "argument too large for the series policy"
            )


class SeriesLanes(NamedTuple):
    """Lane-wise values as real and imaginary parts, with the terms each
    lane's series used. A lane that is not ok (the scalar route would
    raise there) holds no value."""

    re: np.ndarray
    im: np.ndarray
    terms_used: np.ndarray
    ok: np.ndarray


def hyp0f1_lanes(b1, zr: np.ndarray, zi: np.ndarray) -> SeriesLanes:
    """hyp0f1(b1, zr + i zi) on every lane; b1 is one positive int or one per lane.

    This is _sum_ratio_series, lane by lane. The loop runs over the lanes
    still summing and drops a lane once its scalar loop would return (ok)
    or raise (not ok: an overflowed term or partial sum, or MAX_TERMS
    reached).
    """
    if np.any(np.asarray(b1) < 1):
        raise ValueError(f"b1 must be positive integers, got {b1!r}")
    wr, wi, b1 = np.broadcast_arrays(np.asarray(zr, dtype=float), np.asarray(zi, dtype=float),
                                     np.asarray(b1, dtype=np.int64))
    n = wr.size
    re, im = np.zeros(n), np.zeros(n)
    used, ok = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    live = np.arange(n)
    wr, wi, b1 = wr.ravel(), wi.ravel(), b1.ravel()
    sr, si, cr, ci = np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)
    tr, ti = np.ones(n), np.zeros(n)
    below = np.zeros(n, dtype=np.int64)
    k = 0
    with np.errstate(all="ignore"):
        while live.size:
            tr, ti = div_lanes(*mul_lanes(tr, ti, wr, wi), ((k + 1) * (b1 + k)).astype(float))
            k += 1
            mag, smag = np.hypot(tr, ti), np.hypot(sr, si)
            finite = np.isfinite(mag) & np.isfinite(smag)
            small = (mag == 0.0) | (mag < TERM_EPS * smag)
            below = np.where(small, below + 1, 0)
            yr, yi = tr - cr, ti - ci
            nr, ni = sr + yr, si + yi
            cr, ci = (nr - sr) - yr, (ni - si) - yi
            sr, si = nr, ni
            done = finite & (below >= 2)
            stop = done | ~finite | (k >= MAX_TERMS)
            if stop.any():
                lanes = live[done]
                re[lanes], im[lanes], used[lanes], ok[lanes] = sr[done], si[done], k + 1, True
                keep = ~stop
                live = live[keep]
                wr, wi, b1, sr, si, cr, ci, tr, ti, below = (
                    x[keep] for x in (wr, wi, b1, sr, si, cr, ci, tr, ti, below))
    return SeriesLanes(re, im, used, ok)


def hyp0f1(b1: int, z: complex) -> SeriesResult:
    """Confluent hypergeometric limit function 0F1(; b1; z).

    Series sum_k z^k / (k! (b1)_k) with (b1)_k the Pochhammer symbol,
    b1 a positive integer.
    """
    if not isinstance(b1, int) or isinstance(b1, bool) or b1 < 1:
        raise ValueError(f"b1 must be a positive integer, got {b1!r}")
    s, used, omitted = _sum_ratio_series(complex(z), b1, "hyp0f1")
    return SeriesResult(value=s, terms_used=used, truncation_estimate=omitted)


def bessel_i(m: int, z: complex) -> SeriesResult:
    """Modified Bessel function of the first kind, integer order m >= 0.

    Series sum_k (z/2)^(m+2k) / (k! (m+k)!), summed as
    (z/2)^m/m! times the matching 0F1-style tail in (z/2)^2.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"order m must be a non-negative integer, got {m!r}")
    zh = complex(z) / 2.0
    prefix = pow_int_over_factorial(zh, m)
    if prefix == 0:
        # z = 0 with m > 0: every term vanishes.
        if zh == 0:
            return SeriesResult(value=complex(0.0, 0.0), terms_used=1, truncation_estimate=0.0)
        raise ConvergenceError(f"bessel_i: prefactor (z/2)^m/m! underflowed for m={m}")
    s, used, omitted = _sum_ratio_series(zh * zh, m + 1, "bessel_i")
    return SeriesResult(value=prefix * s, terms_used=used, truncation_estimate=abs(prefix) * omitted)


def bessel_i_lanes(m: int, zr: np.ndarray, zi: np.ndarray) -> SeriesLanes:
    """bessel_i(m, zr + i zi) on every lane, for one order m."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"order m must be a non-negative integer, got {m!r}")
    with np.errstate(all="ignore"):
        zhr, zhi = div_lanes(np.asarray(zr, dtype=float), np.asarray(zi, dtype=float), 2.0)
        pr, pi = pow_int_over_factorial_lanes(zhr, zhi, m)
        ser = hyp0f1_lanes(m + 1, *mul_lanes(zhr, zhi, zhr, zhi))
        re, im = mul_lanes(pr, pi, ser.re, ser.im)
    # An underflowed prefactor is exact only at z = 0, where every term vanishes.
    vanished = (pr == 0.0) & (pi == 0.0)
    origin = (zhr == 0.0) & (zhi == 0.0)
    return SeriesLanes(re=np.where(vanished, 0.0, re), im=np.where(vanished, 0.0, im),
                       terms_used=np.where(vanished, 1, ser.terms_used),
                       ok=np.where(vanished, origin, ser.ok))
