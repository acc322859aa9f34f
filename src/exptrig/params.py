"""Parameter records and the constants derived from them.

The whole library evaluates one family of integrals over [0, 2pi]:

    exp(p cos x + q sin x) * {sin, cos}(a cos x + b sin x - m x)

so every evaluator consumes the same five numbers: four coefficients
(real or complex) and a non-negative integer harmonic index m.

Both records answer is_real and to_real(), which refuses nonzero imaginary
parts; a real route reads to_real(), a complex or oracle route asks is_real.
A route returns one kind, f = cos + i sin, sin or cos (``component``),
as one ``Result``; every core over arrays (the series, the closed forms,
the oracle) returns ``Lanes``, on every lane what its scalar call returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

__all__ = [
    "RealParams",
    "ComplexParams",
    "Method",
    "Result",
    "Lanes",
    "component",
]


def _check_point(params: "RealParams | ComplexParams", isfinite) -> None:
    """Refuse, with ValueError, a record whose m is not an int >= 0 or one
    of whose coefficients is not finite by isfinite (math's or cmath's)."""
    m = params.m
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    try:
        for name in ("p", "q", "a", "b"):
            v = getattr(params, name)
            if not isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")
    except OverflowError:  # an int past the float range, whose repr() may raise too
        raise ValueError(f"parameter {name} must be finite, got an int past the float range") from None


@dataclass(frozen=True)
class RealParams:
    """Real coefficients p, q, a, b and harmonic index m >= 0."""

    p: float
    q: float
    a: float
    b: float
    m: int
    # Values derived from this frozen point, each stored by the one function that
    # forms it (threads that race store equal values); a refusal is never stored.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    is_real = True  # ComplexParams' two questions: this record is its own real record

    def __post_init__(self) -> None:
        _check_point(self, math.isfinite)

    def to_real(self) -> "RealParams":
        return self

    def to_complex(self) -> "ComplexParams":
        """The same point with complex coefficients. When all four are
        floats, its to_real() is this record, so the complex routes read
        the values stored here; an int coefficient comes back a float."""
        c = ComplexParams(complex(self.p), complex(self.q), complex(self.a), complex(self.b), self.m)
        if type(self.p) is float and type(self.q) is float and type(self.a) is float and type(self.b) is float:
            c._cache["real"] = self
        return c


@dataclass(frozen=True)
class ComplexParams:
    """Complex coefficients p, q, a, b and harmonic index m >= 0."""

    p: complex
    q: complex
    a: complex
    b: complex
    m: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_point(self, cmath.isfinite)

    @property
    def is_real(self) -> bool:
        return self.p.imag == 0 and self.q.imag == 0 and self.a.imag == 0 and self.b.imag == 0

    def to_real(self) -> RealParams:
        real = self._cache.get("real")
        if real is None:
            if not self.is_real:
                raise ValueError("parameters have nonzero imaginary parts")
            real = self._cache["real"] = RealParams(self.p.real, self.q.real, self.a.real, self.b.real, self.m)
        return real


class Method(str, Enum):
    """Which closed-form route produced a value."""

    OriginalBessel = "OriginalBessel"
    CorrectedBessel = "CorrectedBessel"
    Hyp0F1Real = "Hyp0F1Real"
    Hyp0F1Complex = "Hyp0F1Complex"


class Result(NamedTuple):
    """One answer at one point: its value (complex), bound, count and route,
    which is the closed form's Method, "oracle" or "series". count is the
    terms used (summed over a route's series) or the oracle's N. bound is
    the oracle's error_estimate, which bounds |value - integral|; for a
    series or a closed form it is still each series' first omitted term
    times its prefactor, summed: an estimate, not a guaranteed bound."""

    value: complex
    bound: float
    count: int
    route: str

    # bench/tracing.py's COUNTED reads these two names.
    terms_used = evaluations = property(lambda self: self.count)


class Lanes(NamedTuple):
    """A core over arrays, each lane the value, count and bound of the Result
    its scalar call returns. A lane not ok holds no value; error is its
    refusal message, and None where ok.

    The value is the series' for hyp0f1_lanes and the kind's for eval_lanes
    and oracle_lanes; for quadrature._integrate it is each point's row of
    sums, of shape (points, rows)."""

    value: np.ndarray
    count: np.ndarray
    ok: np.ndarray
    error: list[str | None]
    bound: np.ndarray


def component(z, kind: str):
    """The kind's value from f = z, a complex or complex array, at real coefficients:
    f, or sin = Im f or cos = Re f as a complex with imaginary part 0.0, signs kept."""
    if kind == "f":
        return z
    part = z.imag if kind == "sin" else z.real
    return complex(part, 0.0) if isinstance(part, float) else part.astype(complex)
