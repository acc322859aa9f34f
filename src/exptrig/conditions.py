"""Exact predicates for the sign-error regions of the original closed forms.

Three independent branch-cut flips can occur when the original formulas
recombine principal half-integer powers; each has an exact condition on
(p, q, a, b). For odd m an odd number of simultaneous flips negates the
whole result, and the combined region reduces to two clauses built from
one ratio constant K. Case 1 is about X conj(Y) and case 2 about X Y, for
X = [(p+b) + i(a-q)]/2 and Y = [(p-b) + i(a+q)]/2; the swap
(q, a) -> (-a, -q) keeps X and conjugates Y, so case 2 is case 1 at
(p, -a, -q, b), while case 3, K and the overall flip do not change.
Equality comparisons are exact float comparisons: the conditions are
exact-arithmetic statements, and callers sitting within rounding
distance of a boundary (p = -bK etc.) should expect either answer.
build_reports evaluates the same predicates over arrays, and
sign_verdict checks a predicted flip against a reference value, one
number or one array lane at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .params import RealParams

__all__ = [
    "SignErrorReport",
    "case1_predicate",
    "case2_predicate",
    "case3_predicate",
    "k_constant",
    "overall_sign_error",
    "build_report",
    "build_reports",
    "sign_verdict",
]


@dataclass(frozen=True)
class SignErrorReport:
    """Per-case flip flags plus the combined verdict for one parameter point.

    case3 is reported False with y_is_zero set when Y = 0 (a = -q and
    p = b), where the original formulas are inapplicable outright.
    flip_applies is overall AND m odd: even m absorbs every flip.
    build_reports returns one report whose fields are arrays, one lane
    per point.
    """

    case1: bool
    case2: bool
    case3: bool
    k_constant: float
    overall: bool
    flip_applies: bool
    y_is_zero: bool


def case1_predicate(p: float, q: float, a: float, b: float) -> bool:
    """Flip in combining X^(m/2) * conj(Y)^(m/2) into (X conj(Y))^(m/2), m odd."""
    if a == q and p == -b:
        # X = 0: both sides are 0, no sign error possible.
        return False
    if ((abs(q) > abs(a)) or (q == -abs(a) and q != 0)) and p < -b * a / q:
        return True
    if q > abs(a) and p == -b * a / q:
        return True
    if q == 0 and a == 0 and p < -abs(b):
        return True
    return False


def case2_predicate(p: float, q: float, a: float, b: float) -> bool:
    """Flip in combining X^(1/2) * Y^(1/2) into sqrt(X Y).

    (q, a) -> (-a, -q) keeps X and turns Y into conj(Y), so this is case 1
    at (p, -a, -q, b). Its ratio there, -b * (-q) / (-a), differs from
    -b * q / a only by negations, which are exact, so it rounds the same.
    """
    return case1_predicate(p, -a, -q, b)


def case3_predicate(p: float, q: float, a: float, b: float) -> bool:
    """Flip in combining Y^(-m/2) * conj(Y)^(-m/2): Y a negative real.

    Raises DomainError when a = -q and p = b (Y = 0; the quantity the
    predicate is about does not exist there). build_report converts that
    into the y_is_zero flag instead.
    """
    if a == -q and p == b:
        raise DomainError("Y = 0 (a = -q and p = b): case 3 is undefined")
    return a == -q and p < b


def k_constant(a: float, q: float) -> float:
    """The ratio constant K of the combined condition.

    q/a when |a| >= |q| with a != 0; a/q when |q| >= |a| with q != 0;
    -1 when both vanish. At |a| = |q| != 0 the two branches agree.
    """
    if a == 0 and q == 0:
        return -1.0
    if abs(a) >= abs(q) and a != 0:
        return q / a
    return a / q


def overall_sign_error(p: float, q: float, a: float, b: float) -> bool:
    """True iff the original closed form for f carries an overall flip (odd m).

    Equals the odd-parity combination of the three case predicates:
    p < -bK, or p = -bK with a < -|q| or q > |a|.
    """
    thr = -b * k_constant(a, q)
    if p < thr:
        return True
    return p == thr and (a < -abs(q) or q > abs(a))


def build_report(params: RealParams) -> SignErrorReport:
    """Evaluate every predicate at params.to_real(), m-parity aware."""
    params = params.to_real()
    p, q, a, b = params.p, params.q, params.a, params.b
    y_is_zero = a == -q and p == b
    case3 = False if y_is_zero else case3_predicate(p, q, a, b)
    overall = overall_sign_error(p, q, a, b)
    return SignErrorReport(
        case1=case1_predicate(p, q, a, b),
        case2=case2_predicate(p, q, a, b),
        case3=case3,
        k_constant=k_constant(a, q),
        overall=overall,
        flip_applies=overall and params.m % 2 == 1,
        y_is_zero=y_is_zero,
    )


def build_reports(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray,
                  m: int) -> SignErrorReport:
    """build_report over arrays: one SignErrorReport whose fields are arrays.

    Every lane equals build_report at that point, field for field: the
    expressions are the scalar predicates' own, in the same operand
    order, so each comparison sees the same IEEE value. Where the scalar
    code short-circuits before a division, the guard here is False on
    that lane, so the inf or nan the division leaves there is never
    selected.
    """
    import numpy as np
    p, q, a, b = (np.asarray(v, dtype=float) for v in (p, q, a, b))
    abs_a, abs_q = np.abs(a), np.abs(q)
    both_zero = (a == 0) & (q == 0)
    x_is_zero = (a == q) & (p == -b)
    low = both_zero & (p < -np.abs(b))
    y_is_zero = (a == -q) & (p == b)

    def case1_lanes(q, a, abs_q, abs_a):
        # case1_predicate; x_is_zero and low are the same at (p, -a, -q, b)
        r = -b * a / q
        return ~x_is_zero & (
            (((abs_q > abs_a) | ((q == -abs_a) & (q != 0))) & (p < r))
            | ((q > abs_a) & (p == r)) | low)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.where(both_zero, -1.0, np.where((abs_a >= abs_q) & (a != 0), q / a, a / q))
        # case 2 is case 1 at (p, -a, -q, b), as in case2_predicate
        case1, case2 = case1_lanes(q, a, abs_q, abs_a), case1_lanes(-a, -q, abs_a, abs_q)
    thr = -b * k
    overall = (p < thr) | ((p == thr) & ((a < -abs_q) | (q > abs_a)))
    return SignErrorReport(
        case1=case1,
        case2=case2,
        case3=~y_is_zero & (a == -q) & (p < b),
        k_constant=k,
        overall=overall,
        flip_applies=overall & (m % 2 == 1),
        y_is_zero=y_is_zero,
    )


def sign_verdict(value, reference, tol_abs):
    """(verdict, unobservable): "Agree" if value is within tol_abs of
    reference, "SignFlip" if within tol_abs of -reference, and "Undecided"
    if neither, so no verdict is one the numbers contradict. unobservable:
    both hold, so both are near zero and a flip cannot be seen; the
    verdict is Agree.

    Takes numbers (a str and a bool back) or arrays, broadcast together
    (two arrays back, lane by lane the scalar result). |.| is np.hypot
    of the parts, which is abs of a Python complex bit for bit, where that
    abs does not overflow.
    """
    import numpy as np
    v, r = np.asarray(value, dtype=complex), np.asarray(reference, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        miss = np.hypot(v.real - r.real, v.imag - r.imag)
        flip = np.hypot(v.real + r.real, v.imag + r.imag)
    agree, flipped = miss <= tol_abs, flip <= tol_abs
    verdict = np.where(agree, "Agree", np.where(flipped, "SignFlip", "Undecided"))
    out = verdict, agree & flipped
    return tuple(x.item() for x in out) if verdict.ndim == 0 else out
