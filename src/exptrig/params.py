"""Parameter records and the constants derived from them.

The whole library evaluates one family of integrals over [0, 2pi]:

    exp(p cos x + q sin x) * {sin, cos}(a cos x + b sin x - m x)

so every evaluator consumes the same five numbers: four coefficients
(real or complex) and a non-negative integer harmonic index m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import wraps

__all__ = [
    "RealParams",
    "ComplexParams",
    "IntermediateFactors",
    "Method",
    "EvalResult",
]


def _same_bits(x, y) -> bool:
    """Whether x and y, already equal under ==, are the same value bit for
    bit: the same type, zeros of the same sign, part by part for complex
    numbers and entry by entry for tuples. An int and an equal float
    differ: the int is squared exactly, the float is not."""
    if type(x) is not type(y):
        return False
    if isinstance(x, tuple):
        return all(map(_same_bits, x, y))
    if isinstance(x, complex):
        return _same_bits(x.real, y.real) and _same_bits(x.imag, y.imag)
    return x != 0 or math.copysign(1.0, x) == math.copysign(1.0, y)


def _memo(slots: int):
    """Remember a pure function's last `slots` results, keyed on its
    positional arguments.

    A call returns the stored result only when its arguments equal a
    stored key bit for bit (_same_bits); otherwise it computes, and the
    newest (key, value) pair displaces the oldest. A call that raises
    stores nothing, so a refusal is raised again. The function must
    return an immutable value. Each pair is stored, and the whole table
    replaced, in one assignment, so concurrent callers see either the
    old table or the new one. fn itself stays reachable as __wrapped__.
    """
    def decorate(fn):
        table = ()

        @wraps(fn)
        def memoised(*args):
            nonlocal table
            held = table
            for key, value in held:
                if key == args and _same_bits(key, args):
                    return value
            value = fn(*args)
            table = ((args, value),) + held[:slots - 1]
            return value

        return memoised

    return decorate


def _require_int_m(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")


@dataclass(frozen=True)
class RealParams:
    """Real coefficients p, q, a, b and harmonic index m >= 0."""

    p: float
    q: float
    a: float
    b: float
    m: int

    def __post_init__(self) -> None:
        _require_int_m(self.m)
        for name in ("p", "q", "a", "b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    def to_complex(self) -> "ComplexParams":
        return ComplexParams(complex(self.p), complex(self.q), complex(self.a), complex(self.b), self.m)


@dataclass(frozen=True)
class ComplexParams:
    """Complex coefficients p, q, a, b and harmonic index m >= 0."""

    p: complex
    q: complex
    a: complex
    b: complex
    m: int

    def __post_init__(self) -> None:
        _require_int_m(self.m)
        for name in ("p", "q", "a", "b"):
            v = getattr(self, name)
            if not cmath.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    @property
    def is_real(self) -> bool:
        return self.p.imag == 0 and self.q.imag == 0 and self.a.imag == 0 and self.b.imag == 0

    def to_real(self) -> RealParams:
        if not self.is_real:
            raise ValueError("parameters have nonzero imaginary parts")
        return RealParams(self.p.real, self.q.real, self.a.real, self.b.real, self.m)


@dataclass(frozen=True)
class IntermediateFactors:
    """The two complex factors the contour derivation runs through.

    X = [(p+b) + i(a-q)]/2,  Y = [(p-b) + i(a+q)]/2.
    For real parameters |Y|^2 = [(b-p)^2 + (a+q)^2]/4.
    """

    X: complex
    Y: complex

    @classmethod
    def from_params(cls, params: "RealParams | ComplexParams") -> "IntermediateFactors":
        p, q, a, b = params.p, params.q, params.a, params.b
        return cls(X=((p + b) + 1j * (a - q)) / 2.0, Y=((p - b) + 1j * (a + q)) / 2.0)


class Method(str, Enum):
    """Which closed-form route produced a value."""

    OriginalBessel = "OriginalBessel"
    CorrectedBessel = "CorrectedBessel"
    Hyp0F1Real = "Hyp0F1Real"
    Hyp0F1Complex = "Hyp0F1Complex"


@dataclass(frozen=True)
class EvalResult:
    """A closed-form value plus bookkeeping from the series underneath.

    terms_used sums over every series evaluation in the route;
    truncation_estimate is each series' first-omitted-term magnitude
    times its prefactor in the route, summed over them. sin, cos and f
    at one point share their series: a call that reuses the series of
    an earlier call at the same point reports that series' bookkeeping.
    """

    value: complex
    method: Method
    terms_used: int
    truncation_estimate: float
