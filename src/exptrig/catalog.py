"""Catalog of the audited book integrals.

Each entry pairs a closed form (corrected or generalized where the book
needed it, plus the faithful buggy originals for two entries) with a
binding that expresses the same integral as a signed combination of the
standard [0, 2pi] family. The binding is what lets every entry be
cross-checked against both the general evaluators and the quadrature
oracle; half-range entries carry their x1/2 relation inside the binding
coefficients.

Entry IDs follow the book numbering verbatim so audit output can be
cross-referenced against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .complexops import pow_int_over_factorial, principal_arg
from .conditions import sign_verdict
from .errors import DomainError
from .formulas import eval_complex_cos, eval_complex_sin, fill_terms
from .params import ComplexParams
from .quadrature import fill_passes, oracle_cos, oracle_sin

__all__ = [
    "gr_3_931_4",
    "gr_3_932_1",
    "gr_3_932_2",
    "gr_3_936_1",
    "gr_3_936_2",
    "gr_3_936_3",
    "gr_3_936_4",
    "gr_3_937_3_original",
    "gr_3_937_4_original",
    "gr_3_937_3_corrected",
    "gr_3_937_4_corrected",
    "gr_3_937_3_complex",
    "gr_3_937_4_complex",
    "CatalogEntry",
    "EntryCheck",
    "ENTRIES",
    "get_entry",
    "check_entry",
    "check_expected_flips",
]

TWO_PI = 2.0 * math.pi

# sin(m pi/2) and cos(m pi/2) for integer m, exactly.
_SIN_HALF = (0.0, 1.0, 0.0, -1.0)
_COS_HALF = (1.0, 0.0, -1.0, 0.0)


def gr_3_931_4(p_prime: complex, sign: int = 1) -> complex:
    """Half-range exp(±p' cos x) cos(p' sin x): equals pi for every complex p'."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return complex(math.pi, 0.0)


def gr_3_932_1(p_prime: complex, m: int) -> complex:
    """Half-range e^{p' cos x} sin(p' sin x) sin(mx): pi p'^m/(2 m!), but 0 at m = 0."""
    if m == 0:
        return complex(0.0, 0.0)
    return 0.5 * math.pi * pow_int_over_factorial(complex(p_prime), m)


def gr_3_932_2(p_prime: complex, m: int) -> complex:
    """Half-range e^{p' cos x} cos(p' sin x) cos(mx): pi p'^m/(2 m!), but pi at m = 0."""
    if m == 0:
        return complex(math.pi, 0.0)
    return 0.5 * math.pi * pow_int_over_factorial(complex(p_prime), m)


def gr_3_936_1(p_prime: complex, m: int) -> complex:
    """e^{p' cos x} cos(p' sin x - mx) over [0, 2pi]: 2pi p'^m/m!, all m >= 0."""
    return TWO_PI * pow_int_over_factorial(complex(p_prime), m)


def gr_3_936_2(p_prime: complex, m: int) -> complex:
    """e^{p' sin x} sin(p' cos x + mx): 2pi p'^m/m! sin(m pi/2); no p' > 0 needed."""
    return TWO_PI * pow_int_over_factorial(complex(p_prime), m) * _SIN_HALF[m % 4]


def gr_3_936_3(p_prime: complex, m: int) -> complex:
    """e^{p' sin x} cos(p' cos x + mx): 2pi p'^m/m! cos(m pi/2); no p' > 0 needed."""
    return TWO_PI * pow_int_over_factorial(complex(p_prime), m) * _COS_HALF[m % 4]


def gr_3_936_4(p: complex, m: int, sign: int = 1) -> complex:
    """e^{p cos x} sin(p sin x ± mx) over [0, 2pi]: 0 for every complex p."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return complex(0.0, 0.0)


def _radial_power(p: float, q: float, m: int) -> float:
    # (p^2 + q^2)^(m/2) / m!, stable for large m.
    return pow_int_over_factorial(complex(math.hypot(p, q)), m).real


def gr_3_937_3_original(p: float, q: float, m: int) -> complex:
    """Book form with atan(q/p): wrong sign when m is odd and p < 0."""
    if p == 0:
        raise DomainError("original form divides by p in atan(q/p)")
    return complex(TWO_PI * _radial_power(p, q, m) * math.sin(m * math.atan(q / p)), 0.0)


def gr_3_937_4_original(p: float, q: float, m: int) -> complex:
    """Book cos form with atan(q/p): wrong sign when m is odd and p < 0."""
    if p == 0:
        raise DomainError("original form divides by p in atan(q/p)")
    return complex(TWO_PI * _radial_power(p, q, m) * math.cos(m * math.atan(q / p)), 0.0)


def gr_3_937_3_corrected(p: float, q: float, m: int) -> complex:
    """atan2 form: (2pi/m!)(p^2+q^2)^(m/2) sin(m atan2(q, p)); p = 0 allowed."""
    if m == 0:
        return complex(0.0, 0.0)
    if p == 0 and q == 0:
        return complex(0.0, 0.0)
    return complex(TWO_PI * _radial_power(p, q, m) * math.sin(m * principal_arg(complex(p, q))), 0.0)


def gr_3_937_4_corrected(p: float, q: float, m: int) -> complex:
    """atan2 form: (2pi/m!)(p^2+q^2)^(m/2) cos(m atan2(q, p)); p = 0 allowed."""
    if m == 0:
        return complex(TWO_PI, 0.0)
    if p == 0 and q == 0:
        return complex(0.0, 0.0)
    return complex(TWO_PI * _radial_power(p, q, m) * math.cos(m * principal_arg(complex(p, q))), 0.0)


def gr_3_937_3_complex(p: complex, q: complex, m: int) -> complex:
    """Complex-coefficient form: (i pi/m!)[(p-iq)^m - (p+iq)^m]."""
    lo = pow_int_over_factorial(complex(p) - 1j * complex(q), m)
    hi = pow_int_over_factorial(complex(p) + 1j * complex(q), m)
    return 1j * math.pi * (lo - hi)


def gr_3_937_4_complex(p: complex, q: complex, m: int) -> complex:
    """Complex-coefficient form: (pi/m!)[(p-iq)^m + (p+iq)^m]."""
    lo = pow_int_over_factorial(complex(p) - 1j * complex(q), m)
    hi = pow_int_over_factorial(complex(p) + 1j * complex(q), m)
    return math.pi * (lo + hi)


# ---------------------------------------------------------------------------
# Entry registry

Binding = list[tuple[float, str, ComplexParams]]


@dataclass(frozen=True)
class CatalogEntry:
    """One audited integral: closed form plus its standard-family binding.

    binding(*args) returns (coefficient, kind, params) terms whose signed
    sum over the standard [0, 2pi] family reproduces the entry's value.
    Only the faithful buggy book forms kept for audits have a flip_law:
    whether the form comes out sign-flipped at args, checked on flip_samples.
    """

    id: str
    description: str
    arg_doc: str
    original_restriction: str
    corrected: bool
    closed_form: Callable[..., complex]
    binding: Callable[..., Binding]
    samples: tuple[tuple, ...]
    flip_samples: tuple[tuple, ...] = field(default=())
    flip_law: Callable[..., bool] | None = None


def _odd_m_negative_p(p: float, q: float, m: int) -> bool:
    # For p < 0, atan(q/p) = atan2(q, p) -+ pi: a factor (-1)^m on sin and cos.
    return m % 2 == 1 and p < 0


def _cp(p, q, a, b, m: int) -> ComplexParams:
    return ComplexParams(complex(p), complex(q), complex(a), complex(b), m)


def _dispatch_937(real_form, complex_form):
    def closed(p, q, m: int) -> complex:
        pc, qc = complex(p), complex(q)
        if pc.imag == 0 and qc.imag == 0:
            return real_form(pc.real, qc.real, m)
        return complex_form(pc, qc, m)

    return closed


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="GR-3.931-4",
        description="int_0^pi e^{±p' cos x} cos(p' sin x) dx = pi, any complex p'",
        arg_doc="(p', sign)",
        original_restriction="book fixes the exponent sign to minus; ± is equally valid",
        corrected=True,
        closed_form=gr_3_931_4,
        binding=lambda pp, sign=1: [(0.5, "cos", _cp(sign * complex(pp), 0, 0, pp, 0))],
        samples=tuple(product((0, 1, -2, 2 - 3j), (1, -1))),
    ),
    CatalogEntry(
        id="GR-3.932-1",
        description="int_0^pi e^{p' cos x} sin(p' sin x) sin(mx) dx = pi p'^m/(2 m!) for m > 0; 0 at m = 0",
        arg_doc="(p', m)",
        original_restriction="book formula only applicable when m > 0",
        corrected=True,
        closed_form=gr_3_932_1,
        binding=lambda pp, m: [
            (0.25, "cos", _cp(pp, 0, 0, pp, m)),
            (-0.25, "cos", _cp(pp, 0, 0, -complex(pp), m)),
        ],
        samples=tuple(product((1, -2, 1 + 1j), (0, 1, 2, 3))),
    ),
    CatalogEntry(
        id="GR-3.931-2",
        description="int_0^pi e^{p' cos x} cos(p' sin x) cos(mx) dx = pi p'^m/(2 m!) for m > 0; pi at m = 0",
        arg_doc="(p', m)",
        original_restriction="book formula only applicable when m > 0",
        corrected=True,
        closed_form=gr_3_932_2,
        binding=lambda pp, m: [
            (0.25, "cos", _cp(pp, 0, 0, pp, m)),
            (0.25, "cos", _cp(pp, 0, 0, -complex(pp), m)),
        ],
        samples=tuple(product((1, -2, 1 + 1j), (0, 1, 2, 3))),
    ),
    CatalogEntry(
        id="GR-3.936-1",
        description="int_0^2pi e^{p' cos x} cos(p' sin x - mx) dx = 2pi p'^m/m!",
        arg_doc="(p', m)",
        original_restriction="none; correct as given, holds for complex p' too",
        corrected=False,
        closed_form=gr_3_936_1,
        binding=lambda pp, m: [(1.0, "cos", _cp(pp, 0, 0, pp, m))],
        samples=tuple(product((1, 1j, -2, 1.5 - 0.5j), (0, 1, 2, 3, 4, 5))),
    ),
    CatalogEntry(
        id="GR-3.936-2",
        description="int_0^2pi e^{p' sin x} sin(p' cos x + mx) dx = 2pi p'^m/m! sin(m pi/2)",
        arg_doc="(p', m)",
        original_restriction="book requires p' > 0; restriction is unnecessary",
        corrected=True,
        closed_form=gr_3_936_2,
        binding=lambda pp, m: [(-1.0, "sin", _cp(0, pp, -complex(pp), 0, m))],
        samples=tuple(product((-2, 0, 1 + 1j), (0, 1, 2, 3, 4))),
    ),
    CatalogEntry(
        id="GR-3.936-3",
        description="int_0^2pi e^{p' sin x} cos(p' cos x + mx) dx = 2pi p'^m/m! cos(m pi/2)",
        arg_doc="(p', m)",
        original_restriction="book requires p' > 0; restriction is unnecessary",
        corrected=True,
        closed_form=gr_3_936_3,
        binding=lambda pp, m: [(1.0, "cos", _cp(0, pp, -complex(pp), 0, m))],
        samples=tuple(product((-2, 0, 1 + 1j), (0, 1, 2, 3, 4))),
    ),
    CatalogEntry(
        id="GR-3.936-4",
        description="int_0^2pi e^{p cos x} sin(p sin x ± mx) dx = 0, any complex p",
        arg_doc="(p, m, sign)",
        original_restriction="book states only p = 1 with the minus sign",
        corrected=True,
        closed_form=gr_3_936_4,
        binding=lambda p, m, sign=1: (
            [(1.0, "sin", _cp(p, 0, 0, p, m))]
            if sign == -1
            else [(-1.0, "sin", _cp(p, 0, 0, -complex(p), m))]
        ),
        samples=tuple(product((1, -2 + 1j, 0), (0, 1, 3, 5), (1, -1))),
    ),
    CatalogEntry(
        id="GR-3.937-3",
        description="int_0^2pi exp(p cos x + q sin x) sin(q cos x - p sin x + mx) dx, atan2/arg form",
        arg_doc="(p, q, m)",
        original_restriction="none in this form; p = 0 and complex coefficients allowed",
        corrected=True,
        closed_form=_dispatch_937(gr_3_937_3_corrected, gr_3_937_3_complex),
        binding=lambda p, q, m: [(-1.0, "sin", _cp(p, q, -complex(q), p, m))],
        samples=(*product((-2, 0, 1), (-1, 0, 2), (0, 1, 2, 3, 4)), *product((1 + 1j,), (1,), (0, 1, 2, 3))),
    ),
    CatalogEntry(
        id="GR-3.937-4",
        description="int_0^2pi exp(p cos x + q sin x) cos(q cos x - p sin x + mx) dx, atan2/arg form",
        arg_doc="(p, q, m)",
        original_restriction="none in this form; p = 0 and complex coefficients allowed",
        corrected=True,
        closed_form=_dispatch_937(gr_3_937_4_corrected, gr_3_937_4_complex),
        binding=lambda p, q, m: [(1.0, "cos", _cp(p, q, -complex(q), p, m))],
        samples=(*product((-2, 0, 1), (-1, 0, 2), (0, 1, 2, 3, 4)), *product((1 + 1j,), (1,), (0, 1, 2, 3))),
    ),
    CatalogEntry(
        id="GR-3.937-3-original",
        description="book atan(q/p) sin form, kept faithful for audits",
        arg_doc="(p, q, m)",
        original_restriction="p != 0; sign error when m odd and p < 0",
        corrected=False,
        closed_form=gr_3_937_3_original,
        binding=lambda p, q, m: [(-1.0, "sin", _cp(p, q, -complex(q), p, m))],
        samples=tuple(product((1, 2.5), (-1, 0, 2), (0, 1, 2, 3, 4))),
        flip_samples=tuple(product((-2, -0.5), (-1, 0, 2), (0, 1, 2, 3, 4))),
        flip_law=_odd_m_negative_p,
    ),
    CatalogEntry(
        id="GR-3.937-4-original",
        description="book atan(q/p) cos form, kept faithful for audits",
        arg_doc="(p, q, m)",
        original_restriction="p != 0; sign error when m odd and p < 0",
        corrected=False,
        closed_form=gr_3_937_4_original,
        binding=lambda p, q, m: [(1.0, "cos", _cp(p, q, -complex(q), p, m))],
        samples=tuple(product((1, 2.5), (-1, 0, 2), (0, 1, 2, 3, 4))),
        flip_samples=tuple(product((-2, -0.5), (-1, 0, 2), (0, 1, 2, 3, 4))),
        flip_law=_odd_m_negative_p,
    ),
)


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in ENTRIES:
        if entry.id == entry_id:
            return entry
    raise KeyError(f"unknown catalog entry {entry_id!r}; see the list subcommand")


def _sum_binding(binding: Binding, sin_fn, cos_fn) -> complex:
    return sum((coeff * (sin_fn if kind == "sin" else cos_fn)(params).value for coeff, kind, params in binding),
               complex(0.0, 0.0))


def _scaled_err(x: complex, y: complex) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


@dataclass(frozen=True)
class EntryCheck:
    """Outcome of replaying one entry's samples against both references."""

    entry_id: str
    checks: int
    max_err_eval: float
    max_err_oracle: float
    failures: tuple[str, ...]


def check_entry(entry: CatalogEntry, tol: float = 1e-10) -> EntryCheck:
    """Replay the entry's samples against the general evaluators and oracle.

    Errors are scaled: absolute below magnitude 1, relative above.
    """
    references = (("evaluator", eval_complex_sin, eval_complex_cos), ("oracle", oracle_sin, oracle_cos))
    max_err = [0.0, 0.0]
    failures: list[str] = []
    bindings = [entry.binding(*args) for args in entry.samples]
    records = [params for binding in bindings for _, _, params in binding]
    fill_terms(records)
    fill_passes(records)
    for args, binding in zip(entry.samples, bindings):
        closed = entry.closed_form(*args)
        for j, (name, sin_fn, cos_fn) in enumerate(references):
            err = _scaled_err(closed, _sum_binding(binding, sin_fn, cos_fn))
            max_err[j] = max(max_err[j], err)
            if err > tol:
                failures.append(f"{entry.id}{args!r}: closed vs {name} err {err:.3e}")
    return EntryCheck(entry.id, len(entry.samples), *max_err, tuple(failures))


def check_expected_flips(entry: CatalogEntry, tol: float = 1e-10) -> tuple[list[str], tuple[str, ...]]:
    """Expected-failure audit of a faithful-original entry on its p < 0 samples.

    Returns (findings, failures): findings lists the observed sign flips,
    failures anything inconsistent with the entry's flip_law.
    """
    if entry.flip_law is None:
        raise ValueError(f"{entry.id} has no expected-failure samples")
    findings: list[str] = []
    failures: list[str] = []
    bindings = [entry.binding(*args) for args in entry.flip_samples]
    fill_passes([params for binding in bindings for _, _, params in binding])
    for args, binding in zip(entry.flip_samples, bindings):
        closed = entry.closed_form(*args)
        ora = _sum_binding(binding, oracle_sin, oracle_cos)
        verdict, unobservable = sign_verdict(closed, ora, tol * max(1.0, abs(closed), abs(ora)))
        expected = "SignFlip" if entry.flip_law(*args) else "Agree"
        if unobservable:
            findings.append(f"{entry.id}{args!r}: value 0, flip unobservable")
        elif verdict == expected:
            findings.append(f"{entry.id}{args!r}: {expected} as predicted")
        elif expected == "SignFlip":
            failures.append(f"{entry.id}{args!r}: expected a sign flip, none observed")
        else:
            failures.append(f"{entry.id}{args!r}: expected agreement, got discrepancy")
    return findings, tuple(failures)


def describe_entry(entry: CatalogEntry) -> str:
    if entry.corrected:
        state = "corrected/generalized"
    elif entry.flip_law is not None:
        state = "faithful original (buggy)"
    else:
        state = "correct as given"
    return f"{entry.id:22s} {entry.arg_doc:14s} [{state}] {entry.description}"
