"""sin, cos and f at one point share one series and one oracle pass.

The evaluators store what they derive from a point on its parameter
record: the 0F1 term (formulas._f_term) and its reflection, the Bessel
record (eval_f_bessel) and the oracle's pass. A real record's
to_complex() reads the real record's values when its coefficients are
floats. formulas.fill_terms and quadrature.fill_passes store the terms
and passes of many records at once, as lanes. These tests check that a
stored value is bit for bit what a fresh, equal record gives, that
storing leaves a record's equality, hash and repr alone, that refusals
are never stored, and that the sharing really happens.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import example, given, settings
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
from exptrig.formulas import fill_terms
from exptrig.quadrature import fill_passes

REAL_ROUTES = (eval_original_sin, eval_original_cos, eval_f_bessel, eval_corrected_original_sin,
               eval_corrected_original_cos, eval_corrected_original_f, eval_improved_sin,
               eval_improved_cos, eval_f_hyp, oracle_f, oracle_sin, oracle_cos)
COMPLEX_ROUTES = (eval_complex_f, eval_complex_sin, eval_complex_cos, oracle_f, oracle_sin, oracle_cos)


def fresh(params):
    """An equal record with nothing stored on it."""
    return dataclasses.replace(params)


def outcome(fn, params):
    """Everything a route reports, with floats as repr so that signed zeros
    and nan count; a refusal as its type and message."""
    try:
        res = fn(params)
    except (DomainError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)
    return repr(res.value.real), repr(res.value.imag), res.route, repr(res.bound), res.count


def outcomes(fns, points):
    return [outcome(fn, params) for params in points for fn in fns]


def assert_matches_fresh(fn, params):
    assert outcome(fn, params) == outcome(fn, fresh(params)), (fn.__name__, params)


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
    # The complex twins of the real points read the real points' values.
    complex_points = complex_points + [rp.to_complex() for rp in real_points]
    calls = [(fn, point) for point in real_points for fn in REAL_ROUTES]
    calls += [(fn, point) for point in complex_points for fn in COMPLEX_ROUTES]
    # A random interleaving that revisits earlier points, each call checked
    # against a fresh record.
    order = data.draw(st.lists(st.integers(0, len(calls) - 1), min_size=1, max_size=40))
    for i in order:
        assert_matches_fresh(*calls[i])


@pytest.fixture
def counts(monkeypatch):
    """Series summed (calls into the series module's hyp0f1 and bessel_i from
    the rest of the package), Bessel core evaluations (its prefactors) and
    oracle passes."""
    tally = {"series": 0, "_bessel_prefactors": 0, "_trapezoids": 0}

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
    counting(quadrature, "_trapezoids", "_trapezoids")
    return tally


def run_every_route(params):
    """Call every real and complex route and oracle on params; the real
    routes refuse a non-real record."""
    for fn in REAL_ROUTES + COMPLEX_ROUTES:
        try:
            fn(params)
        except ValueError:
            assert not params.is_real


def test_a_record_stores_only_terms_families_passes_and_its_real_record():
    # Each store saves a series, a prefactor set, a pass or a record; the
    # complex family's cos and sin are read off its two stored terms.
    rp = RealParams(-2.0, 0.5, 0.3, 1.0, 3)
    run_every_route(rp)
    assert set(rp._cache) == {("term", False), "bessel", "hyp", ("pass", 1)}
    cp = ComplexParams(1 + 1j, 0.5, 0.25j, 1, 1)
    run_every_route(cp)
    assert set(cp._cache) == {("term", False), ("term", True), "hyp", ("pass", 1), ("pass", 2)}
    twin = rp.to_complex()
    run_every_route(twin)
    assert set(twin._cache) == {"real"}


def test_real_sin_cos_and_f_sum_one_series(counts):
    rp = RealParams(0.37, -1.21, 0.83, 1.77, 3)
    for fn in (eval_improved_sin, eval_improved_cos, eval_f_hyp):
        fn(rp)
    assert counts["series"] == 1
    # The complex route on real coefficients is the same term.
    eval_complex_sin(rp.to_complex())
    eval_complex_cos(rp.to_complex())
    assert counts["series"] == 1


@pytest.mark.parametrize("p", [1 + 2j, complex(-0.0, 2)])
def test_self_reflected_point_sums_two_series(counts, p):
    # At q = a = 0 the reflection (p, -q, -a, b) has the point's (u, v) bit
    # for bit, except that Re u = p.real - a.imag turns -0.0 into 0.0; the
    # record still sums its reflection's series, as every other one does.
    cp = ComplexParams(p, 0j, 0j, 1 + 2j, 3)
    got = outcomes((eval_complex_sin, eval_complex_cos), [cp])
    assert counts["series"] == 2
    assert got == outcomes((eval_complex_sin, eval_complex_cos), [fresh(cp)])


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
    assert eval_f_bessel(rp) == eval_f_bessel(rp)


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
    assert counts["_trapezoids"] == 1
    cp = ComplexParams(0.53 + 0.1j, -0.91, 1.27, -0.33j, 2)
    oracle_sin(cp)
    oracle_cos(cp)
    assert counts["_trapezoids"] == 2


def test_a_real_valued_twin_reads_the_pass_of_its_real_record(counts):
    fns = (oracle_f, oracle_sin, oracle_cos)
    rp = RealParams(0.53, -0.91, 1.27, -0.33, 2)
    got = outcomes(fns, [rp])
    twin = rp.to_complex()
    assert outcomes(fns, [twin]) == got and counts["_trapezoids"] == 1
    # A twin with -0.0 imaginary parts is not linked: its own to_real() integrates, to the same bits.
    cp = ComplexParams(complex(0.53, -0.0), -0.91, 1.27, complex(-0.33, -0.0), 2)
    assert outcomes(fns, [cp]) == got and counts["_trapezoids"] == 2
    assert set(twin._cache) == set(cp._cache) == {"real"}


def test_filled_records_sum_no_series_and_no_pass(counts):
    points = [RealParams(0.37, -1.21, 0.83, 1.77, 3), RealParams(2, 0.5, -1, 0.0, 0),
              ComplexParams(0.41 + 0.2j, -1.3, 0.6 - 0.7j, 1.9j, 2),
              ComplexParams(1 + 2j, 0j, 0j, 1 + 2j, 3), RealParams(0.3, 0.1, 0.2, 0.4, 1).to_complex()]
    fill_terms(points)
    fill_passes(points)
    counts["_trapezoids"] = 0  # the fills' own passes
    for point in points:
        for fn in REAL_ROUTES if isinstance(point, RealParams) else COMPLEX_ROUTES:
            # At non-real coefficients oracle_f integrates a pass of its own.
            if not (fn is oracle_f and isinstance(point, ComplexParams) and not point.is_real):
                fn(point)
    assert counts["series"] == 0 and counts["_trapezoids"] == 0


# Coefficients past the oracle envelope, and far enough out that a series
# overflows or runs to MAX_TERMS.
WIDE_COEFF = st.one_of(COEFF, st.floats(-40.0, 40.0, allow_nan=False),
                       st.sampled_from([60.0, -700.0, 4000.0, 1e155, -1e200]))
WIDE_REAL_POINT = st.builds(RealParams, WIDE_COEFF, WIDE_COEFF, WIDE_COEFF, WIDE_COEFF, st.integers(0, 40))
WIDE_COMPLEX_COEFF = st.one_of(WIDE_COEFF, st.builds(complex, WIDE_COEFF, WIDE_COEFF),
                               st.builds(complex, st.sampled_from([0.0, -0.0]), COEFF))
WIDE_COMPLEX_POINT = st.one_of(
    st.builds(ComplexParams, WIDE_COMPLEX_COEFF, WIDE_COMPLEX_COEFF, WIDE_COMPLEX_COEFF,
              WIDE_COMPLEX_COEFF, st.integers(0, 40)),
    # q = a = 0, where the reflection's (u, v) may be the point's
    st.builds(ComplexParams, WIDE_COMPLEX_COEFF, st.just(0j), st.sampled_from([0j, -0j]),
              WIDE_COMPLEX_COEFF, st.integers(0, 40)),
    WIDE_REAL_POINT.map(RealParams.to_complex))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(WIDE_REAL_POINT, WIDE_COMPLEX_POINT), min_size=1, max_size=8))
# closed forms whose values are past the float range, refused by their routes
@example([RealParams(1e-154, 0.0, 0.0, 0.0, 2), RealParams(3e153, 0.0, 2e-154, 3e153, 2),
          RealParams(1e154, 0.0, 0.0, 1e154, 2), ComplexParams(1e154j, 0j, 0j, 1e154j, 2),
          RealParams(713.0, 0.0, 0.0, 0.0, 2), RealParams(0.0, 1e154, -1e154, 1e-154, 2),
          RealParams(1.25e154, 0.0, 6.5e153, 0.0, 0)])
# int coefficients whose squares cancel to w = 0 exactly, but not in floats
@example([RealParams(1, -2**50, 2**50, 1, 0), ComplexParams(1, -2**50, 2**50, 1, 0)])
# m past what the lanes take: m + 1 wraps in int64 or does not fit one, or
# a divisor (k+1)(m+1+k) of the series would wrap (a count of 19 against
# 15); m with more digits than str() makes; these stay unfilled
@example([RealParams(1.0, 0.0, 0.0, 0.0, 2**63 - 1), RealParams(1.0, 0.0, 0.0, 0.0, 2**64),
          ComplexParams(1j, 0j, 0j, 0j, 2**64),
          RealParams(5337575606571968.0, 0.0, 0.0, -5337575606571840.0, 1547132282574819840),
          RealParams(1.0, 0.0, 0.0, 0.0, 10**5000)])
def test_filled_records_match_fresh(points):
    fill_terms(points)
    fill_passes(points)
    # A second fill has only the refused lanes left to try; an empty one has nothing.
    fill_terms(points)
    fill_terms([])
    for point in points:
        for fn in REAL_ROUTES if isinstance(point, RealParams) else COMPLEX_ROUTES:
            assert_matches_fresh(fn, point)


@pytest.mark.parametrize("block_nodes", [quadrature.BLOCK_NODES, 100])
def test_filled_blocks_match_fresh(monkeypatch, counts, block_nodes):
    # One and two rows at N = 32 to 256: at BLOCK_NODES = 100 a block holds
    # three points (one row, N = 32) or one. The largest budgets are past
    # the envelope.
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    points = [point for s in (0.0, 0.5, 3.0, 9.0, 20.0, 40.0, 55.0) for m in (0, 2, 30)
              for point in (RealParams(-s / 2, 0.0, s / 4, s / 4, m),
                            ComplexParams(complex(s / 2, -s / 4), s / 4, 0j, complex(0.0, s / 4), m))]
    fill_passes(points)
    assert counts["_trapezoids"] == 2
    got = outcomes((oracle_sin, oracle_cos), points)
    assert counts["_trapezoids"] == 2
    assert got == outcomes((oracle_sin, oracle_cos), map(fresh, points))
    assert outcomes((oracle_f,), points) == outcomes((oracle_f,), map(fresh, points))
    refused = [o for o in got if o[0] == "DomainError"]
    assert refused and {32, 64, 128, 256} <= {o[-1] for o in got if o not in refused}


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
    assert got == outcomes(fns, (fresh(first), fresh(second)))


@pytest.mark.parametrize("first, second", [
    # Equal points that differ in the sign of a zero in a, or in p, or in
    # type: each record integrates once, as a fresh record does.
    (RealParams(0.5, 0.0, 0.0, 1.0, 1), RealParams(0.5, 0.0, -0.0, 1.0, 1)),
    (RealParams(-0.0, 0.0, 0.5, 1.0, 1), RealParams(0.0, 0.0, 0.5, 1.0, 1)),
    (RealParams(0.5, 0.0, 0.0, 1.0, 1), ComplexParams(0.5 + 0j, 0j, 0j, 1.0 + 0j, 1)),
])
def test_oracle_rows_with_other_zero_signs_or_types_are_not_shared(counts, first, second):
    fns = (oracle_f, oracle_sin, oracle_cos)
    got = outcomes(fns, (first, second))
    assert counts["_trapezoids"] == 2
    assert got == outcomes(fns, (fresh(first), fresh(second)))


def test_a_b_a_reuses_a_and_matches_fresh(counts):
    a, b = RealParams(0.21, 0.32, -0.43, 0.54, 2), RealParams(-0.65, 0.76, 0.87, -0.98, 1)
    got = outcomes(REAL_ROUTES, (a, b, a))
    # The second visit to a reads everything from a's record.
    assert counts == {"_bessel_prefactors": 2, "_trapezoids": 2, "series": 2}
    assert got == outcomes(REAL_ROUTES, (fresh(a), fresh(b), fresh(a)))


def test_filled_record_keeps_eq_hash_and_repr():
    for point in (RealParams(0.3, -1.1, 0.7, 1.9, 2), ComplexParams(0.3j, -1.1, 0.7, 1.9 + 0.2j, 2)):
        before = repr(point), hash(point)
        for fn in REAL_ROUTES if isinstance(point, RealParams) else COMPLEX_ROUTES:
            fn(point)
        assert point._cache
        twin = fresh(point)
        assert twin._cache == {}
        assert point == twin and (repr(point), hash(point)) == (repr(twin), hash(twin)) == before


def test_int_point_to_complex_sums_its_own_series(counts):
    # An int coefficient is squared exactly, while to_real() gives floats,
    # so the complex twin keeps its own values.
    rp = RealParams(3, 0.5, -1, 2.0, 3)
    eval_improved_sin(rp)
    cp = rp.to_complex()
    got = outcomes((eval_complex_sin, eval_complex_cos), [cp])
    assert counts["series"] == 2
    assert got == outcomes((eval_complex_sin, eval_complex_cos),
                           [ComplexParams(3 + 0j, 0.5 + 0j, -1 + 0j, 2.0 + 0j, 3)])


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
    # Every thread walks the same few records, so threads often ask for a
    # value that another is storing at that moment.
    points = [RealParams(0.1 * i, -0.3, 0.7 - 0.2 * i, 1.1, i) for i in range(3)]
    cpoints = [ComplexParams(0.2j * i, -0.3, 0.7, 1.1 - 0.1j, i) for i in range(1, 4)]
    expected = [(outcomes(REAL_ROUTES, [fresh(rp)]), outcomes(COMPLEX_ROUTES, [fresh(cp)]))
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
