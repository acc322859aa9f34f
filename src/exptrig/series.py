"""Power-series evaluation of 0F1 and I_m on complex arguments.

Both series are entire, so plain Taylor summation with factorial-squared
term decay is adequate for every finite argument this library meets.
Terms are built incrementally from the previous term (never from
standalone factorials) and partial sums use Kahan compensation. There is
one series: the modified Bessel function is its prefix times 0F1,

    I_m(z) = (z/2)^m / m! * 0F1(; m+1; z^2/4)   (DLMF 10.25.2).

``hyp0f1_lanes`` evaluates many arguments at once, one lane per
argument. Each lane takes the scalar loop's operations in the same
order, so it returns the scalar value, and the scalar truncation
estimate |first omitted term|, bit for bit; a lane on which the scalar
function would raise comes back not ok instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexops import div_lanes, mul_lanes, pow_int_over_factorial
from .errors import ConvergenceError

__all__ = ["SeriesResult", "SeriesLanes", "bessel_i", "hyp0f1", "hyp0f1_lanes"]

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


class SeriesLanes(NamedTuple):
    """Lane-wise values as real and imaginary parts, with the terms each
    lane's series used. A lane that is not ok (the scalar route would
    raise there) holds no value. hyp0f1_lanes also gives each lane's
    truncation estimate; lanes that are products of series, as
    eval_f_lanes's are, leave it None."""

    re: np.ndarray
    im: np.ndarray
    terms_used: np.ndarray
    ok: np.ndarray
    truncation_estimate: np.ndarray | None = None


def hyp0f1_lanes(b1, zr: np.ndarray, zi: np.ndarray) -> SeriesLanes:
    """hyp0f1(b1, zr + i zi) on every lane; b1 is one positive int or one per lane.

    This is hyp0f1's loop, lane by lane. The loop runs over the lanes
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
    used, ok, omitted = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.zeros(n)
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
                omitted[lanes] = np.hypot(*div_lanes(*mul_lanes(tr[done], ti[done], wr[done], wi[done]),
                                                     ((k + 1) * (b1[done] + k)).astype(float)))
                keep = ~stop
                live = live[keep]
                wr, wi, b1, sr, si, cr, ci, tr, ti, below = (
                    x[keep] for x in (wr, wi, b1, sr, si, cr, ci, tr, ti, below))
    return SeriesLanes(re, im, used, ok, omitted)


def hyp0f1(b1: int, z: complex) -> SeriesResult:
    """Confluent hypergeometric limit function 0F1(; b1; z).

    Series sum_k z^k / (k! (b1)_k) with (b1)_k the Pochhammer symbol,
    b1 a positive integer, Kahan-summed with term ratio z/((k+1)(b1+k)).
    The truncation estimate is |first omitted term|. Raises
    ConvergenceError if MAX_TERMS is hit, or if a term or a partial sum
    goes non-finite or has a modulus above the float range.
    """
    if not isinstance(b1, int) or isinstance(b1, bool) or b1 < 1:
        raise ValueError(f"b1 must be a positive integer, got {b1!r}")
    w, s, comp, term = complex(z), complex(1.0, 0.0), complex(0.0, 0.0), complex(1.0, 0.0)
    below = k = 0
    while True:
        term = term * w / ((k + 1) * (b1 + k))
        k += 1
        try:
            mag, smag = abs(term), abs(s)
        except OverflowError:  # finite parts whose modulus exceeds the float range
            mag = smag = math.inf
        if not (mag <= _FMAX and smag <= _FMAX):  # False for inf and nan alike
            raise ConvergenceError(f"hyp0f1: series terms overflowed at k={k} (|w|={_modulus(w):.3g})")
        if mag == 0.0 or mag < TERM_EPS * smag:
            below += 1
        else:
            below = 0
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if below >= 2:
            omitted = abs(term * w / ((k + 1) * (b1 + k)))
            return SeriesResult(value=s, terms_used=k + 1, truncation_estimate=omitted)
        if k >= MAX_TERMS:
            raise ConvergenceError(
                f"hyp0f1: no convergence within {MAX_TERMS} terms (|w|={_modulus(w):.3g}); "
                "argument too large for the series policy"
            )


def _bessel_prefix(m: int, zh: complex) -> complex:
    """(z/2)^m/m! at zh = z/2, or ConvergenceError where it underflows to 0
    at a nonzero z (at z = 0 with m > 0 it is exactly 0)."""
    prefix = pow_int_over_factorial(zh, m)
    if prefix == 0 and zh != 0:
        raise ConvergenceError(f"bessel_i: prefactor (z/2)^m/m! underflowed for m={m}")
    return prefix


def bessel_i(m: int, z: complex) -> SeriesResult:
    """Modified Bessel function of the first kind, integer order m >= 0:
    (z/2)^m/m! times 0F1(; m+1; (z/2)^2)."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"order m must be a non-negative integer, got {m!r}")
    zh = complex(z) / 2.0
    prefix = _bessel_prefix(m, zh)
    ser = hyp0f1(m + 1, zh * zh)
    return SeriesResult(value=prefix * ser.value, terms_used=ser.terms_used,
                        truncation_estimate=abs(prefix) * ser.truncation_estimate)
