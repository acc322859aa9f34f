"""Power-series evaluation of 0F1 and I_m on complex arguments.

Both series are entire, so plain Taylor summation with factorial-squared
term decay is adequate for every finite argument this library meets.
Terms are built incrementally from the previous term (never from
standalone factorials) and partial sums use Kahan compensation. There is
one series: the modified Bessel function is its prefix times 0F1,

    I_m(z) = (z/2)^m / m! * 0F1(; m+1; z^2/4)   (DLMF 10.25.2).

``hyp0f1_lanes`` evaluates many arguments at once, one lane per
argument, each with its own b1, as params.Lanes; formulas._term_lanes,
the batch 0F1 term of every closed form's lanes, is its one caller. Each
lane takes the scalar loop's operations in the same order, so its value,
count (the terms used) and bound (the truncation estimate |first omitted
term|) are the scalar Result's bit for bit; a lane on which the scalar
function would raise comes back not ok, with the message it raises.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .complexops import div_lanes, mul_lanes, pow_int_over_factorial
from .errors import ConvergenceError
from .params import Lanes, Result

__all__ = ["bessel_i", "hyp0f1", "hyp0f1_lanes"]

# Stop once two consecutive terms are each below TERM_EPS times the
# running partial sum; give up at MAX_TERMS.
TERM_EPS = 1e-17
MAX_TERMS = 500
_FMAX = sys.float_info.max
# _bessel_prefix's message, which formulas.eval_lanes gives its lanes too.
PREFIX_UNDERFLOW = "bessel_i: prefactor (z/2)^m/m! underflowed for m={m}"


def _refusal(w: complex, k: int, overflowed: bool) -> str:
    """hyp0f1's message at term k. |w| is inf where abs(w) would raise OverflowError."""
    size = f"|w|={math.hypot(w.real, w.imag):.3g}"
    if overflowed:
        return f"hyp0f1: series terms overflowed at k={k} ({size})"
    return f"hyp0f1: no convergence within {MAX_TERMS} terms ({size}); argument too large for the series policy"


def _divisors_fit(b1):
    """Whether every divisor (k+1)(b1+k), k <= MAX_TERMS, fits an int64
    (largest value 2**63 - 1), as hyp0f1_lanes forms them: where they do,
    its lane is hyp0f1 bit for bit. On an int, or lane by lane on an array."""
    return b1 <= (2**63 - 1) // (MAX_TERMS + 1) - MAX_TERMS


def hyp0f1_lanes(b1, zr: np.ndarray, zi: np.ndarray) -> Lanes:
    """hyp0f1(b1, zr + i zi) on every lane; b1 is one positive int or one per
    lane, each one whose divisors fit an int64 (_divisors_fit).

    This is hyp0f1's loop, lane by lane. The loop runs over the lanes
    still summing and drops a lane once its scalar loop would return (ok)
    or raise (not ok: an overflowed term or partial sum, or MAX_TERMS
    reached). A lane that is not ok gets hyp0f1's message as its error.
    """
    if np.any(np.asarray(b1) < 1):
        raise ValueError(f"b1 must be positive integers, got {b1!r}")
    if not np.all(_divisors_fit(np.asarray(b1))):
        # b1 is not printed: str() of a huge int may raise.
        raise ValueError("b1 is too large for the lanes: a divisor (k+1)(b1+k) would wrap in int64")
    wr, wi, b1 = np.broadcast_arrays(np.asarray(zr, dtype=float), np.asarray(zi, dtype=float),
                                     np.asarray(b1, dtype=np.int64))
    n = wr.size
    value = np.zeros(n, dtype=complex)
    used, ok, omitted = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.zeros(n)
    live, error = np.arange(n), [None] * n
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
                value.real[lanes], value.imag[lanes], used[lanes], ok[lanes] = sr[done], si[done], k + 1, True
                omitted[lanes] = np.hypot(*div_lanes(*mul_lanes(tr[done], ti[done], wr[done], wi[done]),
                                                     ((k + 1) * (b1[done] + k)).astype(float)))
                for j in np.flatnonzero(stop & ~done).tolist():
                    error[live[j]] = _refusal(complex(wr[j], wi[j]), k, not finite[j])
                keep = ~stop
                live = live[keep]
                wr, wi, b1, sr, si, cr, ci, tr, ti, below = (
                    x[keep] for x in (wr, wi, b1, sr, si, cr, ci, tr, ti, below))
    return Lanes(value, used, ok, error, omitted)


def hyp0f1(b1: int, z: complex) -> Result:
    """Confluent hypergeometric limit function 0F1(; b1; z).

    Series sum_k z^k / (k! (b1)_k) with (b1)_k the Pochhammer symbol,
    b1 a positive integer, Kahan-summed with term ratio z/((k+1)(b1+k)),
    as a Result routed "series" whose count is the terms used and whose
    bound is the truncation estimate |first omitted term|. Raises
    ConvergenceError if MAX_TERMS is hit, if a term or a partial sum
    goes non-finite or has a modulus above the float range, or if a
    divisor (k+1)(b1+k) cannot be converted to a float.
    """
    if not isinstance(b1, int) or isinstance(b1, bool) or b1 < 1:
        raise ValueError(f"b1 must be a positive integer, got {b1!r}")
    w, s, comp, term = complex(z), complex(1.0, 0.0), complex(0.0, 0.0), complex(1.0, 0.0)
    below = k = 0
    try:
        while True:
            term = term * w / ((k + 1) * (b1 + k))
            k += 1
            try:
                mag, smag = abs(term), abs(s)
            except OverflowError:  # finite parts whose modulus exceeds the float range
                mag = smag = math.inf
            if not (mag <= _FMAX and smag <= _FMAX):  # False for inf and nan alike
                raise ConvergenceError(_refusal(w, k, True))
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
                return Result(s, omitted, k + 1, "series")
            if k >= MAX_TERMS:
                raise ConvergenceError(_refusal(w, k, False))
    except OverflowError:
        # An int divisor (k+1)(b1+k) past the float range, from a b1 near or
        # past it. b1 is not printed: str() of a huge int may raise too.
        raise ConvergenceError(f"hyp0f1: b1 is too large: the divisor (k+1)(b1+k) at k={k} "
                               "is past the float range") from None


def _bessel_prefix(m: int, zh: complex) -> complex:
    """(z/2)^m/m! at zh = z/2, or ConvergenceError where it underflows to 0
    at a nonzero z (at z = 0 with m > 0 it is exactly 0)."""
    prefix = pow_int_over_factorial(zh, m)
    if prefix == 0 and zh != 0:
        raise ConvergenceError(PREFIX_UNDERFLOW.format(m=m))
    return prefix


def bessel_i(m: int, z: complex) -> Result:
    """Modified Bessel function of the first kind, integer order m >= 0:
    (z/2)^m/m! times 0F1(; m+1; (z/2)^2)."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"order m must be a non-negative integer, got {m!r}")
    zh = complex(z) / 2.0
    prefix = _bessel_prefix(m, zh)
    ser = hyp0f1(m + 1, zh * zh)
    return Result(prefix * ser.value, abs(prefix) * ser.bound, ser.count, "series")
