import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from exptrig import (
    ComplexParams,
    DomainError,
    RealParams,
    eval_complex_cos,
    eval_complex_sin,
    eval_improved_cos,
    eval_improved_sin,
    oracle_cos,
    oracle_f,
    oracle_sin,
)
from exptrig import quadrature
from exptrig.quadrature import N_MAX, _trapezoids, fill_passes, oracle_lanes

ORACLES = {"f": oracle_f, "sin": oracle_sin, "cos": oracle_cos}


def _mp_harmonic(u, v, k: int) -> mp.mpc:
    """Integral over [0, 2pi] of exp(u cos x + v sin x - ikx), for any integer k.

    The exponent is alpha e^{ix} + beta e^{-ix}, alpha = (u - iv)/2,
    beta = (u + iv)/2, whose k-th Fourier coefficient is
    alpha^k / k! 0F1(; k + 1; alpha beta) (beta^|k| for k < 0).
    """
    u, v = mp.mpc(u), mp.mpc(v)
    alpha, beta = (u - 1j * v) / 2, (u + 1j * v) / 2
    lead = alpha if k >= 0 else beta
    return 2 * mp.pi * lead ** abs(k) / mp.factorial(abs(k)) * mp.hyp0f1(abs(k) + 1, alpha * beta)


def _mp_family(p, q, a, b, m: int) -> dict[str, complex]:
    """mpmath values of the f, sin and cos integrals (complex coefficients allowed)."""
    with mp.workdps(50):
        plus = _mp_harmonic(p + 1j * a, q + 1j * b, m)
        minus = _mp_harmonic(p - 1j * a, q - 1j * b, -m)
        return {"f": complex(plus), "sin": complex((plus - minus) / 2j), "cos": complex((plus + minus) / 2)}


def _f_coeffs(rp: RealParams) -> np.ndarray:
    """The (u, v, -im) row of the f integrand exp(u cos x + v sin x - imx), as one point."""
    return np.array([[[rp.p + 1j * rp.a, rp.q + 1j * rp.b, -1j * rp.m]]])


def test_trivial_values():
    res = oracle_f(RealParams(0, 0, 0, 0, 0))
    assert cmath.isclose(res.value, 2 * math.pi, rel_tol=1e-13)
    res = oracle_f(RealParams(0, 0, 0, 0, 3))
    assert abs(res.value) < 1e-13


def test_frozen_value_matches_external_quadrature():
    # scipy.integrate.quad on the same integrand gave -4.476509869537687
    res = oracle_f(RealParams(-2, 0, 0, 1, 1))
    assert math.isclose(res.value.real, -4.476509869537687, rel_tol=1e-12)
    assert abs(res.value.imag) < 1e-12


def test_euler_split_for_real_params():
    rng = np.random.default_rng(47)
    for _ in range(25):
        rp = RealParams(*(float(v) for v in rng.uniform(-3, 3, 4)), int(rng.integers(0, 6)))
        f = oracle_f(rp).value
        s = oracle_sin(rp).value
        c = oracle_cos(rp).value
        scale = max(1.0, abs(f))
        assert abs(s - f.imag) < 1e-11 * scale
        assert abs(c - f.real) < 1e-11 * scale
        assert abs(s.imag) < 1e-11 * scale and abs(c.imag) < 1e-11 * scale


def test_complex_sin_cos_split_into_two_plain_integrals():
    # sin integral = (i/2)(f1 - f2), cos = (f1 + f2)/2, where f1/f2 are
    # plain-f integrals in substituted coefficients (f1 via conjugation
    # to turn its +mx phase into -mx).
    rng = np.random.default_rng(53)
    for _ in range(10):
        v = rng.uniform(-1.5, 1.5, 8)
        m = int(rng.integers(0, 5))
        p, q = complex(v[0], v[1]), complex(v[2], v[3])
        a, b = complex(v[4], v[5]), complex(v[6], v[7])
        cp = ComplexParams(p, q, a, b, m)
        p1 = complex(p.real + a.imag, p.imag - a.real)
        q1 = complex(q.real + b.imag, q.imag - b.real)
        p2 = complex(p.real - a.imag, p.imag + a.real)
        q2 = complex(q.real - b.imag, q.imag + b.real)
        f1 = oracle_f(ComplexParams(p1.conjugate(), q1.conjugate(), 0, 0, m)).value.conjugate()
        f2 = oracle_f(ComplexParams(p2, q2, 0, 0, m)).value
        s = oracle_sin(cp).value
        c = oracle_cos(cp).value
        assert cmath.isclose(s, 0.5j * (f1 - f2), rel_tol=1e-10, abs_tol=1e-11)
        assert cmath.isclose(c, 0.5 * (f1 + f2), rel_tol=1e-10, abs_tol=1e-11)


def test_half_range_symmetry_for_even_integrands():
    # with q = a = 0 the integrand mirrors around x = pi, so the
    # half-range integral is half the full-range one
    for p, b, m in [(-2.0, 1.0, 1), (1.5, 0.5, 2), (0.3, -2.0, 0)]:
        full = oracle_cos(RealParams(p, 0, 0, b, m)).value.real
        half, err = quad(lambda x: math.exp(p * math.cos(x)) * math.cos(b * math.sin(x) - m * x),
                         0, math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert err < 1e-9
        assert math.isclose(half, 0.5 * full, rel_tol=1e-11, abs_tol=1e-11)


def test_refinement_is_spectral():
    coeffs = _f_coeffs(RealParams(2.5, -1.0, 0.5, 1.0, 2))
    values = {n: _trapezoids(coeffs, [n])[0][0][0] for n in (16 * 2**k for k in range(8))}
    budget = 4 * (2.5 + 1.0 + 0.5 + 1.0 + 2)
    ns = sorted(values)
    deltas = {n: abs(values[n] - values[n // 2]) for n in ns[1:]}
    scale = abs(values[ns[-1]])
    for n_prev, n in zip(ns[1:], ns[2:]):
        if n_prev < budget or deltas[n_prev] < 1e-13 * scale:
            continue
        assert deltas[n] <= 0.5 * deltas[n_prev]


def test_self_consistency_after_convergence():
    rp = RealParams(1.0, 2.0, -1.0, 0.5, 3)
    res = oracle_f(rp)
    doubled = _trapezoids(_f_coeffs(rp), [4 * res.count])[0][0][0]
    assert abs(doubled - res.value) < 1e-12 * max(1.0, abs(res.value))


def test_result_bookkeeping():
    res = oracle_cos(RealParams(1.0, 0.5, -0.5, 0.25, 2))
    assert res.bound >= 0.0
    assert res.count >= 32 and res.count % 16 == 0


def test_envelope_refusal():
    with pytest.raises(DomainError):
        oracle_f(RealParams(30.0, 30.0, 0.0, 0.0, 0))
    with pytest.raises(DomainError):
        oracle_sin(ComplexParams(complex(0, 40), 20, 0, 0, 1))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the oracle refuses budgets past its envelope")
def test_item_3_oracle_just_past_the_envelope_matches_mpmath():
    res = oracle_f(RealParams(51.0, 0.0, 0.0, 0.0, 1))
    # f = 2pi I_1(51) at (p, q, a, b, m) = (51, 0, 0, 0, 1)
    want = complex(2 * mp.pi * mp.besseli(1, 51))
    assert abs(res.value - want) <= res.bound


# Large-m stratum: the sweeps only draw m <= 8. The node count is sized
# from m, so a high harmonic cannot alias onto a low one.


def test_zero_coefficients_at_large_m():
    assert abs(oracle_cos(RealParams(0, 0, 0, 0, 64)).value) < 1e-12
    for m in range(201):
        want = 2 * math.pi if m == 0 else 0.0
        for kind, orc in ORACLES.items():
            expect = 0.0 if kind == "sin" else want
            assert abs(orc(RealParams(0, 0, 0, 0, m)).value - expect) < 1e-12, (kind, m)


def test_every_m_to_129_matches_mpmath():
    p, q, a, b = 1.5, 0.3, -0.7, 2.0
    for m in range(130):
        ref = _mp_family(p, q, a, b, m)
        for kind, orc in ORACLES.items():
            res = orc(RealParams(p, q, a, b, m))
            err = abs(res.value - ref[kind])
            assert err <= max(1e-10 * abs(ref[kind]), 1e-12), (kind, m, res.value, ref[kind])
            assert err <= res.bound, (kind, m)


@pytest.mark.parametrize("coeffs", [(1.5, 0.3, -0.7, 2.0), (-4.0, 2.5, 3.0, -1.5),
                                    (1 + 2j, -0.5j, 2 - 1j, 0.7 + 0.3j)])
def test_large_m_nonzero_coefficients_match_mpmath(coeffs):
    for m in (130, 150, 175, 200):
        cp = ComplexParams(*(complex(c) for c in coeffs), m)
        ref = _mp_family(*coeffs, m)
        for kind, orc in ORACLES.items():
            res = orc(cp)
            assert res.count > m
            err = abs(res.value - ref[kind])
            assert err <= max(1e-10 * abs(ref[kind]), 1e-12), (kind, m)
            assert err <= res.bound, (kind, m)


def test_node_count_past_n_max_is_refused():
    # 10**5000 has more digits than str() of an int makes by default
    for m in (N_MAX, 10**5000):
        point = RealParams(0.0, 0.0, 0.0, 0.0, m)
        fill_passes([point])
        assert point._cache == {}
        with pytest.raises(DomainError):
            oracle_f(point)


# Properties. Coefficients are drawn from [-1, 1] and scaled to a total
# |p| + |q| + |a| + |b| below the oracle envelope of 50.

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def params_under_budget(draw, real: bool | None = None, max_m: int = 40):
    parts = draw(st.lists(unit, min_size=8, max_size=8))
    if real is None:
        real = draw(st.booleans())
    if real:
        parts[1::2] = [0.0] * 4
    coeffs = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
    total = sum(abs(c) for c in coeffs)
    budget = draw(st.floats(0.0, 49.5))
    scale = budget / total if total > 1e-9 else 0.0
    return ComplexParams(*(c * scale for c in coeffs), draw(st.integers(0, max_m)))


@settings(max_examples=60)
@given(params_under_budget(real=True))
def test_f_is_conjugate_symmetric_for_real_coefficients(cp):
    # x -> 2pi - x: conj f(p, q, a, b, m) = f(p, -q, -a, b, m)
    rp = cp.to_real()
    res = oracle_f(rp)
    mirrored = oracle_f(RealParams(rp.p, -rp.q, -rp.a, rp.b, rp.m))
    assert abs(res.value.conjugate() - mirrored.value) <= res.bound + mirrored.bound


@settings(max_examples=60)
@given(params_under_budget())
def test_sin_cos_m_parity(cp):
    # x -> pi - x: I_cos(p, q, a, b, m) = (-1)^m I_cos(-p, q, a, -b, m) and
    # I_sin(p, q, a, b, m) = (-1)^(m+1) I_sin(-p, q, a, -b, m)
    reflected = ComplexParams(-cp.p, cp.q, cp.a, -cp.b, cp.m)
    for orc, sign in ((oracle_cos, (-1) ** cp.m), (oracle_sin, (-1) ** (cp.m + 1))):
        res, ref = orc(cp), orc(reflected)
        assert abs(res.value - sign * ref.value) <= res.bound + ref.bound


@settings(max_examples=80)
@given(params_under_budget(max_m=60))
def test_error_estimate_bounds_the_mpmath_error(cp):
    ref = _mp_family(cp.p, cp.q, cp.a, cp.b, cp.m)
    for kind, orc in ORACLES.items():
        res = orc(cp)
        assert abs(res.value - ref[kind]) <= res.bound, kind


# Closed forms against the oracle, only inside the ranges the verify
# sweeps draw from: the 0F1 series cancels at large |a| and |b|.


@settings(max_examples=60)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4), st.integers(0, 8))
def test_improved_forms_match_oracle_in_real_sweep_range(coeffs, m):
    rp = RealParams(*coeffs, m)
    for ev, orc in ((eval_improved_sin, oracle_sin), (eval_improved_cos, oracle_cos)):
        o = orc(rp).value
        assert abs(ev(rp).value - o) <= max(1e-10 * abs(o), 1e-12)


@settings(max_examples=60)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=8, max_size=8), st.integers(0, 6))
def test_complex_forms_match_oracle_in_complex_sweep_range(parts, m):
    cp = ComplexParams(*(complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)), m)
    for ev, orc in ((eval_complex_sin, oracle_sin), (eval_complex_cos, oracle_cos)):
        o = orc(cp).value
        assert abs(ev(cp).value - o) <= max(1e-9 * abs(o), 1e-11)


@pytest.mark.parametrize("block_nodes", [quadrature.BLOCK_NODES, 100])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_lane_oracle_matches_scalar_bit_for_bit(monkeypatch, lane_contract, block_nodes, m):
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    # Budgets from 0 to 61: N = 32, 64 and 128 (and 256), and lanes past
    # the envelope, interleaved; signed zeros in q.
    s = np.linspace(0.0, 60.0, 41)[(17 * np.arange(41)) % 41]
    p, q, a, b = -0.5 * s, np.where(s > 10, -0.0, 0.0), 0.5 * s, (s % 7) / 4
    for kind, orc in ORACLES.items():
        lanes = oracle_lanes(p, q, a, b, m, kind)
        lane_contract(lanes)
        assert {32, 64, 128} <= set(lanes.count[lanes.ok].tolist())
        assert not lanes.ok.all()
        for i, pt in enumerate(zip(p.tolist(), q.tolist(), a.tolist(), b.tolist())):
            got = ((repr(complex(lanes.value[i])), repr(lanes.bound[i].item()), lanes.count[i])
                   if lanes.ok[i] else lanes.error[i])
            assert _outcome(orc, RealParams(*pt, m)) == got


def _outcome(orc, params):
    """The value's and bound's repr and N, or the refusal's message."""
    try:
        res = orc(params)
    except DomainError as exc:
        return str(exc)
    return repr(res.value), repr(res.bound), res.count


def _reference_cos(params):
    """_outcome(oracle_cos, params) from a per-point plan in plain Python:
    the reference that the array planner must match bit for bit."""
    p, q, a, b, m = params.p, params.q, params.a, params.b, params.m
    budget = abs(p) + abs(q) + abs(a) + abs(b)
    if budget > quadrature.ENVELOPE:
        return f"|p|+|q|+|a|+|b| = {budget:.3g} exceeds the oracle envelope {quadrature.ENVELOPE:g}"
    rows = ((p + 1j * a, q + 1j * b, -1j * m),)
    if isinstance(params, ComplexParams) and not params.is_real:
        rows += ((p - 1j * a, q - 1j * b, 1j * m),)
    radius = max(abs(u - 1j * v) + abs(u + 1j * v) for u, v, _ in rows) / 2
    n = quadrature._node_count(math.ceil(4 * radius), m)
    if n > N_MAX:
        return f"m = {m} needs {n} trapezoid nodes, above N_MAX = {N_MAX}"
    sums, abs_sum = (x[0].tolist() for x in _trapezoids(np.array([rows]), [n]))
    k = n - m
    alias = 8 * math.pi * math.exp(radius + k * math.log(radius) - math.lgamma(k + 1)) if radius else 0.0
    growth = quadrature.UNIT_ROUNDOFF * (16 + math.log2(n) + 20 * budget + 19 * m)
    value = complex(sums[0].real) if len(sums) == 1 else (sums[0] + sums[1]) / 2
    return repr(value), repr(alias + growth * abs_sum), n


@st.composite
def oracle_lane(draw):
    """A real or complex record with a budget from 0 to past the envelope,
    at times +-1e308 or integer coefficients, and m up to 400 or past N_MAX."""
    parts = draw(st.lists(unit, min_size=8, max_size=8))
    real = draw(st.booleans())
    if real:
        parts[1::2] = [0.0] * 4
    coeffs = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
    total = sum(abs(c) for c in coeffs)
    budget = draw(st.one_of(st.floats(0.0, 60.0), st.sampled_from([49.999, 50.0, 50.001, 1e308])))
    coeffs = [c / total * budget if total > 1e-9 else 0j for c in coeffs]
    for i in draw(st.lists(st.integers(0, 3), max_size=2)):
        coeffs[i] = draw(st.sampled_from([1e308, -1e308, 3, -2]))
    m = draw(st.one_of(st.integers(0, 400), st.integers(N_MAX, 2 * N_MAX), st.just(2**64)))
    if real:
        return RealParams(*(c.real if isinstance(c, complex) else c for c in coeffs), m)
    return ComplexParams(*map(complex, coeffs), m)


@settings(max_examples=60, deadline=None)
@given(st.lists(oracle_lane(), min_size=1, max_size=10))
def test_lanes_fills_and_scalar_calls_agree_bit_for_bit(lane_contract, points):
    # A fresh scalar call matches the plain-Python plan; a filled record
    # matches a fresh one; a lane of oracle_lanes matches the kind's oracle.
    filled = [dataclasses.replace(pt) for pt in points]
    fill_passes(filled)
    for pt, record in zip(points, filled):
        assert _outcome(oracle_cos, dataclasses.replace(pt)) == _reference_cos(pt)
        for orc in ORACLES.values():
            assert _outcome(orc, record) == _outcome(orc, dataclasses.replace(pt))
    real = [pt for pt in points if isinstance(pt, RealParams)]
    for m in {pt.m for pt in real}:
        group = [pt for pt in real if pt.m == m]
        coeffs = [np.array([getattr(pt, x) for pt in group], dtype=float) for x in "pqab"]
        for kind, orc in ORACLES.items():
            lanes = oracle_lanes(*coeffs, m, kind)
            lane_contract(lanes)
            for i, pt in enumerate(group):
                want = _outcome(orc, RealParams(pt.p, pt.q, pt.a, pt.b, m))
                if not lanes.ok[i]:
                    assert want == lanes.error[i] and lanes.count[i] == 0
                    continue
                assert want == (repr(complex(lanes.value[i])), repr(lanes.bound[i].item()), lanes.count[i])
