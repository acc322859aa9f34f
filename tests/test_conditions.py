import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exptrig import (
    DomainError,
    RealParams,
    SignErrorReport,
    build_report,
    build_reports,
    case1_predicate,
    case2_predicate,
    case3_predicate,
    k_constant,
    overall_sign_error,
    power_combination_flips,
)
from exptrig.conditions import sign_verdict


def test_case1_examples():
    # |q| > |a| branch with p below -ba/q
    assert case1_predicate(-1, -2, 1, 1)
    # a = q = 0 with p < -|b|
    assert case1_predicate(-2, 0, 0, 1)
    assert not case1_predicate(5, 0, 1, 0)
    # equality branch: q > |a| and p = -ba/q exactly
    assert case1_predicate(-1.0, 2.0, 1.0, 2.0)


def test_case2_examples():
    assert case2_predicate(-1, 1, 2, 1)
    # a < -|q| with p = -bq/a exactly
    p = -2.0 * 1.0 / -3.0
    assert case2_predicate(p, 1.0, -3.0, 2.0)
    # a = q = 0, b = -1, p < -|b|
    assert case2_predicate(-2, 0, 0, -1)
    assert not case2_predicate(5, 1, 2, 0)


def test_case3_examples():
    assert case3_predicate(0, -1, 1, 1)
    assert not case3_predicate(2, -1, 1, 1)
    with pytest.raises(DomainError):
        case3_predicate(1, -1, 1, 1)


def test_x_zero_forces_cases_false():
    # a = q and p = -b makes X = 0; both half-power products vanish
    assert not case1_predicate(-1, 2, 2, 1)
    assert not case2_predicate(-1, 2, 2, 1)


def test_k_constant():
    assert k_constant(2, 1) == 0.5
    assert k_constant(0, 0) == -1.0
    assert k_constant(3, -3) == -1.0
    assert k_constant(0, 5) == 0.0
    # both defining branches agree exactly at |a| = |q| != 0
    for a, q in [(3, 3), (3, -3), (-2, 2), (-2, -2)]:
        assert q / a == a / q == k_constant(a, q)


def test_overall_examples():
    assert overall_sign_error(-2, 0, 0, 1)       # K = -1, p < b
    assert not overall_sign_error(5, 1, 2, 0)
    # equality clause: q > |a| and p = -bK
    assert overall_sign_error(-1.0, 2.0, 1.0, 2.0)


def test_build_report_examples():
    rep = build_report(RealParams(-2, 0, 0, 1, 1))
    assert (rep.case1, rep.case2, rep.case3) == (True, True, True)
    assert rep.k_constant == -1.0
    assert rep.overall and rep.flip_applies and not rep.y_is_zero

    rep = build_report(RealParams(-2, 0, 0, 1, 2))
    assert rep.overall and not rep.flip_applies

    rep = build_report(RealParams(1, 1, 1, 1, 1))
    assert not (rep.case1 or rep.case2 or rep.case3 or rep.overall)
    assert rep.k_constant == 1.0


def test_build_report_y_zero():
    rep = build_report(RealParams(1, -1, 1, 1, 1))
    assert rep.y_is_zero
    assert rep.case3 is False
    assert not rep.overall


def test_predicates_match_flip_mechanism_and_parity():
    rng = np.random.default_rng(59)
    for _ in range(5000):
        p, q, a, b = (float(v) for v in rng.uniform(-5, 5, 4))
        # the contour factors X and Y, formed independently of the core
        X, Y = complex(p + b, a - q) / 2, complex(p - b, a + q) / 2
        if X == 0 or Y == 0:
            continue
        c1 = case1_predicate(p, q, a, b)
        c2 = case2_predicate(p, q, a, b)
        c3 = case3_predicate(p, q, a, b)
        assert c1 == power_combination_flips(X, Y.conjugate())
        assert c2 == power_combination_flips(X, Y)
        assert c3 == power_combination_flips(Y, Y.conjugate())
        count = c1 + c2 + c3
        assert count in (0, 1, 3)
        assert overall_sign_error(p, q, a, b) == (count % 2 == 1)


SMALL = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]))


@given(st.lists(st.tuples(SMALL, SMALL, SMALL, SMALL), min_size=1, max_size=16), st.integers(0, 3))
# p = -bK, through both equality clauses and an inexact ratio
@example([(-1.0, 2.0, 1.0, 2.0), (-1 / 3, 3.0, 1.0, 1.0), (-2.0 / -3.0, 1.0, -3.0, 2.0)], 1)
# X = 0: a = q and p = -b; at the last point -b*a/q rounds above p
@example([(-1.0, 2.0, 2.0, 1.0), (-0.0, 0.0, 0.0, 0.0), (0.0, -1.0, -1.0, -0.0),
          (-0.7, -3.0, -3.0, 0.7)], 1)
# Y = 0: a = -q and p = b
@example([(1.0, -1.0, 1.0, 1.0), (0.0, -0.0, 0.0, 0.0), (-2.0, 0.0, -0.0, -2.0)], 3)
# |a| = |q| off both zero lines
@example([(-2.0, 3.0, -3.0, 1.0), (1.0, -2.0, -2.0, 1.0), (0.5, 2.0, 2.0, -1.0)], 1)
def test_build_reports_matches_build_report(points, m):
    p, q, a, b = (np.array(col) for col in zip(*points))
    batch = build_reports(p, q, a, b, m)
    # (q, a) -> (-a, -q) keeps X and conjugates Y: case 1 and case 2 trade
    # places, and every other field stays, in the scalar code and the lanes.
    swapped = build_reports(p, -a, -q, b, m)
    trade = {"case1": "case2", "case2": "case1"}
    for i, (pp, qq, aa, bb) in enumerate(points):
        ref = build_report(RealParams(pp, qq, aa, bb, m))
        mirror = build_report(RealParams(pp, -aa, -qq, bb, m))
        for f in fields(SignErrorReport):
            want, other = getattr(ref, f.name), trade.get(f.name, f.name)
            for got in (getattr(batch, f.name)[i], getattr(swapped, other)[i], getattr(mirror, other)):
                if f.name == "k_constant":
                    assert repr(float(got)) == repr(want), (points[i], f.name)
                else:
                    assert bool(got) is want, (points[i], f.name)


def test_sign_verdict():
    assert sign_verdict(1.0, 1.0, 1e-9) == ("Agree", False)
    assert sign_verdict(-1.0, 1.0, 1e-9) == ("SignFlip", False)
    assert sign_verdict(1j, -1j, 1e-9) == ("SignFlip", False)
    # both hold: the value is zero, so a flip cannot be seen
    assert sign_verdict(0.0, 1e-12, 1e-11) == ("Agree", True)
    # neither holds: no verdict, however near one of them is
    assert sign_verdict(2.0, 1.0, 1e-9) == ("Undecided", False)
    assert sign_verdict(-2.0, 1.0, 1e-9) == ("Undecided", False)
    assert sign_verdict(float("nan"), 1.0, 1e-9) == ("Undecided", False)


def _verdict_reference(value, reference, tol_abs):
    # The rule with Python's complex abs, one pair at a time.
    miss, flip = abs(value - reference), abs(value + reference)
    agree, flipped = miss <= tol_abs, flip <= tol_abs
    if agree or flipped:
        return ("Agree" if agree else "SignFlip"), agree and flipped
    return "Undecided", False


def test_sign_verdict_over_arrays_is_the_scalar_rule_per_lane():
    # Ties (|v - r| or |v + r| exactly tol_abs, |v + r| = |v - r|), zero
    # components, signed zeros, NaN and inf, real and complex values.
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-12, 2.0, 1 + 1j, -1 - 1j, 1j, math.nan, math.inf,
              complex(0.1 + 0.2, -0.3)]
    tols = [0.0, 1e-11, 0.5, 1.0, math.inf]
    triples = list(itertools.product(values, values, tols))
    value, reference, tol_abs = (np.array(x, dtype=complex if i < 2 else float)
                                 for i, x in enumerate(zip(*triples)))
    verdict, unobservable = sign_verdict(value, reference, tol_abs)
    assert verdict.shape == unobservable.shape == (len(triples),)
    for (v, r, t), lane in zip(triples, zip(verdict.tolist(), unobservable.tolist())):
        assert lane == sign_verdict(v, r, t) == _verdict_reference(complex(v), complex(r), t), (v, r, t)
    kinds = {sign_verdict(v, r, t) for v, r, t in triples}
    assert kinds == {("Agree", False), ("Agree", True), ("SignFlip", False), ("Undecided", False)}
