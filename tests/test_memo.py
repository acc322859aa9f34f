"""sin, cos and f at one point share one series and one oracle pass.

The Bessel core (formulas._f_bessel), the 0F1 term (formulas._f_term,
whose series the Bessel core reads) and the oracle's trapezoid sums
(quadrature._rule) remember their last results. These tests check that a
remembered result is bit for bit what a fresh evaluation gives, that it
is shared only between calls whose inputs are equal bit for bit, that
refusals are never remembered, and that the sharing really happens.
"""

import contextlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptrig import (
    ComplexParams,
    ConvergenceError,
    DomainError,
    RealParams,
    eval_complex_cos,
    eval_complex_f,
    eval_complex_sin,
    eval_corrected_original_cos,
    eval_corrected_original_f,
    eval_corrected_original_sin,
    eval_f_bessel,
    eval_f_hyp,
    eval_improved_cos,
    eval_improved_sin,
    eval_original_cos,
    eval_original_sin,
    oracle_cos,
    oracle_f,
    oracle_sin,
)
from exptrig import formulas, quadrature, series

REAL_ROUTES = (eval_original_sin, eval_original_cos, eval_f_bessel, eval_corrected_original_sin,
               eval_corrected_original_cos, eval_corrected_original_f, eval_improved_sin,
               eval_improved_cos, eval_f_hyp, oracle_f, oracle_sin, oracle_cos)
COMPLEX_ROUTES = (eval_complex_f, eval_complex_sin, eval_complex_cos, oracle_f, oracle_sin, oracle_cos)
MEMOISED = ((formulas, "_f_bessel"), (formulas, "_f_term"), (quadrature, "_rule"))


@contextlib.contextmanager
def fresh():
    """Every memoised core replaced by the function it wraps."""
    saved = [(mod, name, getattr(mod, name)) for mod, name in MEMOISED]
    try:
        for mod, name, fn in saved:
            setattr(mod, name, fn.__wrapped__)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def outcome(fn, params):
    """Everything a route reports, with floats as repr so that signed zeros
    and nan count; a refusal as its type and message."""
    try:
        res = fn(params)
    except (DomainError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(res, "evaluations"):
        return repr(res.value.real), repr(res.value.imag), repr(res.error_estimate), res.evaluations
    return (repr(res.value.real), repr(res.value.imag), res.method, res.terms_used,
            repr(res.truncation_estimate))


def outcomes(fns, points):
    return [outcome(fn, params) for params in points for fn in fns]


def assert_matches_fresh(fn, params):
    got = outcome(fn, params)
    with fresh():
        assert got == outcome(fn, params), (fn.__name__, params)


COEFF = st.one_of(st.floats(-4.0, 4.0, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 0, 3, 3.0, -2, 1e-170]),
                  st.integers(-4, 4))
REAL_POINT = st.builds(RealParams, COEFF, COEFF, COEFF, COEFF, st.integers(0, 6))
COMPLEX_COEFF = st.one_of(COEFF, st.builds(complex, COEFF, COEFF))
COMPLEX_POINT = st.one_of(st.builds(ComplexParams, COMPLEX_COEFF, COMPLEX_COEFF, COMPLEX_COEFF,
                                    COMPLEX_COEFF, st.integers(0, 6)),
                          REAL_POINT.map(RealParams.to_complex))


@settings(max_examples=60)
@given(st.lists(REAL_POINT, min_size=1, max_size=3), st.lists(COMPLEX_POINT, min_size=1, max_size=3),
       st.data())
def test_memo_changes_no_bits(real_points, complex_points, data):
    calls = [(fn, point) for point in real_points for fn in REAL_ROUTES]
    calls += [(fn, point) for point in complex_points for fn in COMPLEX_ROUTES]
    # A random interleaving that revisits earlier points, each call checked
    # against a fresh evaluation that leaves the memo as it was.
    order = data.draw(st.lists(st.integers(0, len(calls) - 1), min_size=1, max_size=40))
    for i in order:
        assert_matches_fresh(*calls[i])


@pytest.fixture
def counts(monkeypatch):
    """Series summed (calls into the series module's hyp0f1 and bessel_i from
    the rest of the package), Bessel core evaluations (its prefactors) and
    oracle passes."""
    tally = {"series": 0, "_bessel_prefactors": 0, "_trapezoid": 0}

    def counting(module, name, key):
        inner = getattr(module, name)

        def counted(*args):
            tally[key] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    for name, module in list(sys.modules.items()):
        if name.startswith("exptrig.") and module is not series:
            for attr, value in list(vars(module).items()):
                if value is series.hyp0f1 or value is series.bessel_i:
                    counting(module, attr, "series")
    counting(formulas, "_bessel_prefactors", "_bessel_prefactors")
    counting(quadrature, "_trapezoid", "_trapezoid")
    return tally


def test_real_sin_cos_and_f_sum_one_series(counts):
    rp = RealParams(0.37, -1.21, 0.83, 1.77, 3)
    for fn in (eval_improved_sin, eval_improved_cos, eval_f_hyp):
        fn(rp)
    assert counts["series"] == 1
    # The complex route on real coefficients is the same term.
    eval_complex_sin(rp.to_complex())
    eval_complex_cos(rp.to_complex())
    assert counts["series"] == 1


def test_complex_sin_then_cos_sum_two_series(counts):
    cp = ComplexParams(0.41 + 0.2j, -1.3, 0.6 - 0.7j, 1.9j, 2)
    eval_complex_sin(cp)
    assert counts["series"] == 2
    eval_complex_cos(cp)
    eval_complex_sin(cp)
    assert counts["series"] == 2


def test_original_and_corrected_routes_sum_one_bessel_series(counts):
    rp = RealParams(-1.43, 0.29, 0.61, 1.13, 1)
    for fn in (eval_original_sin, eval_original_cos, eval_f_bessel, eval_corrected_original_sin,
               eval_corrected_original_cos, eval_corrected_original_f):
        fn(rp)
    assert counts["series"] == 1 and counts["_bessel_prefactors"] == 1
    assert eval_f_bessel(rp) is eval_f_bessel(rp)


@pytest.mark.parametrize("rp", [RealParams(-1.37, 0.41, 0.59, 1.21, 1),
                                RealParams(0.73, -1.19, 0.47, 1.63, 0)])
def test_every_real_route_sums_one_series(counts, rp):
    # The original route's I_m series is the improved route's 0F1 series.
    for fn in (eval_original_sin, eval_original_cos, eval_f_bessel, eval_corrected_original_sin,
               eval_corrected_original_cos, eval_corrected_original_f, eval_improved_sin,
               eval_improved_cos, eval_f_hyp, eval_complex_f):
        fn(rp if fn is not eval_complex_f else rp.to_complex())
    assert counts["series"] == 1


def test_oracle_sin_and_cos_share_one_pass(counts):
    rp = RealParams(0.53, -0.91, 1.27, -0.33, 2)
    oracle_sin(rp)
    oracle_cos(rp)
    oracle_f(rp)
    assert counts["_trapezoid"] == 1
    cp = ComplexParams(0.53 + 0.1j, -0.91, 1.27, -0.33j, 2)
    oracle_sin(cp)
    oracle_cos(cp)
    assert counts["_trapezoid"] == 2


@pytest.mark.parametrize("first, second", [
    (RealParams(0.0, 1.1, -0.7, 0.4, 1), RealParams(-0.0, 1.1, -0.7, 0.4, 1)),
    (RealParams(0.4, -0.0, 1.3, 0.0, 3), RealParams(0.4, 0.0, 1.3, -0.0, 3)),
    (RealParams(3, 0.5, -1.5, 2.0, 2), RealParams(3.0, 0.5, -1.5, 2.0, 2)),
    (RealParams(1.5, 0.5, -1, 2.0, 2), RealParams(1.5, 0.5, -1.0, 2.0, 2)),
])
def test_equal_but_not_bit_identical_points_are_not_shared(counts, first, second):
    fns = (eval_f_hyp, eval_f_bessel, oracle_f)
    got = outcomes(fns, (first, second))
    assert counts["series"] == 2 and counts["_bessel_prefactors"] == 2
    with fresh():
        assert got == outcomes(fns, (first, second))


@pytest.mark.parametrize("first, second", [
    ((complex(0.5, 0.0), 1j, -1j), (complex(0.5, -0.0), 1j, -1j)),
    ((complex(-0.0, 0.5), 1j, -1j), (complex(0.0, 0.5), 1j, -1j)),
    ((0.5, 1j, -1j), (complex(0.5), 1j, -1j)),
])
def test_oracle_rows_with_other_zero_signs_or_types_are_not_shared(counts, first, second):
    got = [quadrature._rule((row,), 32) for row in (first, second)]
    assert counts["_trapezoid"] == 2
    assert repr(got) == repr([quadrature._rule.__wrapped__((row,), 32) for row in (first, second)])


def test_a_b_a_recomputes_and_matches_fresh(counts):
    a, b = RealParams(0.21, 0.32, -0.43, 0.54, 2), RealParams(-0.65, 0.76, 0.87, -0.98, 1)
    got = outcomes(REAL_ROUTES, (a, b, a))
    # One slot for the Bessel core and the oracle, two for the 0F1 term,
    # which the Bessel core reads.
    assert counts == {"_bessel_prefactors": 3, "_trapezoid": 3, "series": 2}
    with fresh():
        assert got == outcomes(REAL_ROUTES, (a, b, a))


@pytest.mark.parametrize("fn, params, error", [
    (eval_f_bessel, RealParams(1.0, -1.0, 1.0, 1.0, 2), DomainError),  # Y = 0
    (eval_original_cos, RealParams(0.3, 0.1, 0.2, 0.4, 400), ConvergenceError),  # prefactor underflow
    (eval_f_hyp, RealParams(2000.0, 0.0, 0.0, 0.0, 0), ConvergenceError),  # past MAX_TERMS
    (eval_complex_sin, ComplexParams(2000.0j, 0, 0, 0, 1), ConvergenceError),
    (oracle_sin, RealParams(40.0, 20.0, 0.0, 0.0, 1), DomainError),  # past the envelope
])
def test_refusal_is_raised_every_time(fn, params, error):
    for _ in range(2):
        with pytest.raises(error):
            fn(params)


def test_threads_sharing_the_memo_read_only_their_own_points():
    # Every thread walks the same few points, so threads often ask for a
    # point that another is storing at that moment.
    points = [RealParams(0.1 * i, -0.3, 0.7 - 0.2 * i, 1.1, i) for i in range(3)]
    cpoints = [ComplexParams(0.2j * i, -0.3, 0.7, 1.1 - 0.1j, i) for i in range(1, 4)]
    with fresh():
        expected = [(outcomes(REAL_ROUTES, [rp]), outcomes(COMPLEX_ROUTES, [cp]))
                    for rp, cp in zip(points, cpoints)]
    mismatches = []

    def worker():
        for _ in range(40):
            for i, (rp, cp) in enumerate(zip(points, cpoints)):
                if (outcomes(REAL_ROUTES, [rp]), outcomes(COMPLEX_ROUTES, [cp])) != expected[i]:
                    mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
