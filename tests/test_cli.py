import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from exptrig import (
    ENTRIES,
    ComplexParams,
    ConvergenceError,
    DomainError,
    RealParams,
    build_report,
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
from exptrig import cli
from exptrig.cli import BOUNDARY_EPS, _parse_grid, _reprs, main
from exptrig.quadrature import N_MAX


def run(*args):
    return CliRunner().invoke(main, args)


def test_eval_improved_cos():
    res = run("eval", "--kind", "cos", "--method", "improved",
              "-p", "-2", "-q", "0", "-a", "0", "-b", "1", "-m", "1")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert math.isclose(rec["value"]["re"], -4.476509869537685, rel_tol=1e-12)
    assert rec["value"]["im"] == 0.0
    assert rec["method"] == "Hyp0F1Real"
    assert rec["count"] > 0 and rec["bound"] >= 0


def test_eval_domain_error_exit_3():
    res = run("eval", "--kind", "cos", "--method", "original",
              "-p", "1", "-q", "-1", "-a", "1", "-b", "1", "-m", "2")
    assert res.exit_code == 3
    assert "Y = 0" in res.output


def test_eval_zero_sin_is_zero():
    res = run("eval", "--kind", "sin", "--method", "improved", "-m", "0")
    rec = json.loads(res.output)
    assert rec["value"] == {"re": 0.0, "im": 0.0}


def test_eval_complex_params_and_methods():
    res = run("eval", "--kind", "cos", "--method", "complex",
              "-p", "1+1i", "-b", "1+1i", "-m", "2")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert math.isclose(rec["value"]["im"], 2 * math.pi, rel_tol=1e-12)
    # real-only methods refuse complex parameters
    res = run("eval", "--kind", "cos", "--method", "improved", "-p", "1+1i")
    assert res.exit_code == 2


def test_eval_oracle_method():
    res = run("eval", "--kind", "f", "--method", "oracle",
              "-p", "-2", "-b", "1", "-m", "1")
    rec = json.loads(res.output)
    assert math.isclose(rec["value"]["re"], -4.4765098695376855, rel_tol=1e-10)
    assert rec["count"] >= 32
    assert rec["bound"] >= 0


def test_eval_corrected_f_is_labelled_corrected():
    res = run("eval", "--kind", "f", "--method", "corrected", "-p", "-2", "-b", "1", "-m", "1")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["method"] == "CorrectedBessel"
    # the flip applies here, so corrected f is minus the original f
    orig = json.loads(run("eval", "--kind", "f", "--method", "original",
                          "-p", "-2", "-b", "1", "-m", "1").output)
    assert rec["value"] == {"re": -orig["value"]["re"], "im": -orig["value"]["im"]}


def test_eval_every_method_and_kind():
    labels = {"original": "OriginalBessel", "corrected": "CorrectedBessel",
              "improved": "Hyp0F1Real", "complex": "Hyp0F1Complex", "oracle": "oracle"}
    rest = ("-q", "0.5", "-a", "0.25", "-b", "1", "-m", "3")
    for method, label in labels.items():
        for kind in ("sin", "cos", "f"):
            res = run("eval", "--kind", kind, "--method", method, "-p", "-2", *rest)
            assert res.exit_code == 0, (method, kind, res.output)
            rec = json.loads(res.output)
            assert rec["kind"] == kind and rec["method"] == label
            assert list(rec) == ["kind", "method", "value", "bound", "count"]
            if kind != "f":
                assert rec["value"]["im"] == 0.0
            res = run("eval", "--kind", kind, "--method", method, "-p", "-2+1i", *rest)
            assert res.exit_code == (0 if method in ("complex", "oracle") else 2), (method, kind)


def test_eval_usage_errors_exit_2():
    assert run("eval", "--kind", "cos", "--method", "improved", "-p", "abc").exit_code == 2
    assert run("eval", "--method", "improved").exit_code == 2
    assert run("eval", "--kind", "cos", "--method", "improved", "-m", "-3").exit_code == 2


def test_audit_single_point_sign_flip():
    res = run("audit", "--kind", "cos", "-p", "-2", "-b", "1", "-m", "1")
    assert res.exit_code == 0
    rec = json.loads(res.output.strip())
    assert rec["verdict"] == "SignFlip"
    assert rec["report"]["flip_applies"] is True
    assert rec["original"]["re"] > 0 and rec["oracle"]["re"] < 0
    assert rec["abs_discrepancy"] > 8


def test_audit_agree_and_inapplicable():
    rec = json.loads(run("audit", "-p", "2", "-q", "1", "-a", "1", "-b", "1", "-m", "1").output)
    assert rec["verdict"] == "Agree"
    assert rec["original"] is not None
    rec = json.loads(run("audit", "-p", "1", "-q", "-1", "-a", "1", "-b", "1", "-m", "1").output)
    assert rec["verdict"] == "OriginalInapplicable"
    assert rec["original"] is None
    assert rec["report"]["y_is_zero"] is True


def test_audit_zero_component_detail():
    # sin component is exactly zero in the a = q = 0 flip region
    rec = json.loads(run("audit", "--kind", "sin", "-p", "-2", "-b", "1", "-m", "1").output)
    assert rec["verdict"] == "Agree"
    assert rec["report"]["flip_applies"] is True
    assert "unobservable" in rec["detail"]


def test_audit_grid_stream():
    res = run("audit", "--kind", "cos", "--grid", "p=-2:2:3,b=-1:1:2", "-m", "1")
    lines = res.output.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"params", "report", "boundary", "original", "improved",
                            "oracle", "abs_discrepancy", "verdict", "detail"}
    # deterministic ordering and content
    assert res.output == run("audit", "--kind", "cos", "--grid", "p=-2:2:3,b=-1:1:2", "-m", "1").output


def test_audit_rejects_complex_params():
    assert run("audit", "-p", "1+2i").exit_code == 2


def test_audit_point_error_is_recorded_not_fatal():
    res = run("audit", "-p", "60", "-m", "1")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert "envelope" in rec["detail"]
    assert rec["verdict"] is None


@pytest.mark.parametrize("args, reason", [
    # bessel_i's prefactor (z/2)^m/m! underflows
    (("-p", "0.5", "-b", "1", "-m", "171"), "underflowed"),
    # (b-p)^2 + (a+q)^2 underflows to 0 though Y != 0
    (("-p", "1e-170", "-a", "1e-170", "-m", "1"), "underflows to 0"),
    # [(b-p)^2 + (a+q)^2]^(-m/2) overflows
    (("-p", "1e-160", "-m", "3"), "overflows"),
    # (A-iB)^(m/2) overflows
    (("-p", "40", "-m", "400"), "overflows"),
    # the same underflow at an odd m, near the case 1 boundary
    (("-p", "-1e-200", "-q", "1e-200", "-b", "1e-200", "-m", "3"), "underflows to 0"),
    # 2pi [(b-p)^2 + (a+q)^2]^(-m/2) overflows in a float product
    (("-p", "1e-154", "-m", "2"), "overflows"),
])
def test_audit_records_original_refusal(args, reason):
    res = run("audit", *args)
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["original"] is None and rec["verdict"] is None and rec["abs_discrepancy"] is None
    assert rec["improved"] is not None and rec["oracle"] is not None
    assert rec["detail"].startswith("error: ") and reason in rec["detail"]
    assert rec["report"]["y_is_zero"] is False and "Y = 0" not in rec["detail"]


def test_eval_original_underflowed_y_norm_is_not_called_y_zero():
    res = run("eval", "--kind", "f", "--method", "original", "-p", "-1e-200", "-q", "1e-200",
              "-b", "1e-200", "-m", "3")
    assert res.exit_code == 3
    assert "underflows to 0, though Y != 0" in res.output and "(Y = 0)" not in res.output


def test_eval_original_overflow_exit_3():
    # A ** that overflows, |C + iD| past the float range at m = 0, then
    # values that overflow in a float product: 2pi [(b-p)^2 + (a+q)^2]^(-m/2),
    # its product with (A-iB)^(m/2), and the improved route's value.
    for method, args in (("original", ("-p", "1e-160", "-m", "3")),
                         ("original", ("-p", "1.25e154", "-a", "6.5e153", "-m", "0")),
                         ("original", ("-p", "1e-154", "-m", "2")),
                         ("original", ("-p", "3e153", "-b", "3e153", "-a", "2e-154", "-m", "2")),
                         ("improved", ("-p", "1e154", "-b", "1e154", "-m", "2"))):
        res = run("eval", "--kind", "f", "--method", method, *args)
        assert res.exit_code == 3, (method, args, res.output)
        assert "overflows" in res.output


@pytest.mark.parametrize("method, args", [
    ("original", ("-p", "713", "-m", "2")),
    ("improved", ("-q", "1e154", "-a", "-1e154", "-b", "1e-154", "-m", "2")),
])
def test_sin_is_not_refused_where_only_re_f_overflows(method, args):
    # Each route refuses its own value: f and cos overflow, sin does not.
    for kind, code in (("f", 3), ("cos", 3), ("sin", 0)):
        res = run("eval", "--kind", kind, "--method", method, *args)
        assert res.exit_code == code, (kind, res.output)
    assert math.isfinite(json.loads(res.output)["value"]["re"])


def test_original_route_refuses_overflowing_y_norm():
    # (b-p)^2 overflows: a typed refusal, not OverflowError; audit runs the
    # original route over every lane of a chunk, so it must not raise either
    res = run("eval", "--kind", "f", "--method", "original", "-p", "1e200", "-m", "1")
    assert res.exit_code == 3
    assert "overflows" in res.output
    res = run("audit", "--grid", "p=-1e200:1e200:3", "-m", "1")
    assert res.exit_code == 0, res.output
    verdicts = [json.loads(line)["verdict"] for line in res.output.splitlines()]
    assert verdicts == [None, "OriginalInapplicable", None]
    # |C + iD| overflows, though C and D do not, and (b-p)^2 + (a+q)^2 does at m = 0
    res = run("audit", "-p", "1.25e154", "-a", "6.5e153", "-m", "0")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["verdict"] is None


@pytest.mark.parametrize("m", [str(N_MAX - 1), str(N_MAX), "10000000", "100000000000000000000"])
@pytest.mark.parametrize("fmt", ["--csv", "--json"])
def test_audit_refuses_m_past_n_max_before_any_row(m, fmt):
    # N > N_MAX at every point, R = 0 included, so the oracle would refuse
    # each one; audit says so once, as eval --method oracle does, and
    # writes no row.
    res = run("audit", fmt, "--grid", "p=-3:3:61,b=-3:3:61", "-m", m)
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert f"m = {m}" in res.stderr and f"N_MAX = {N_MAX}" in res.stderr


@pytest.mark.parametrize("args, code", [
    ("eval --kind f --method improved -m 100000000000000000000", 0),
    ("eval --kind cos --method original -p 1 -m 100000000000000000000", 3),
    # past the float range, alpha^m/m! cannot divide by its last steps j
    pytest.param(f"eval --kind f --method improved -m {10**400}", 3, id="improved-m-10**400"),
    pytest.param(f"eval --kind f --method complex -m {10**400}", 3, id="complex-m-10**400"),
])
def test_closed_forms_answer_at_any_m_in_seconds(args, code):
    # alpha^m/m! and the Bessel prefix (z/2)^m/m! stop stepping once their
    # product has underflowed: at this m the plain loops would never end.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-m", "exptrig", *args.split()], capture_output=True, text=True,
                         env=env, timeout=30)
    assert res.returncode == code, res.stderr
    if code == 3:
        # a typed refusal: one error line, no traceback
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


# Runs the CLI on its arguments, then reports on stderr whether difflib was imported.
DIFFLIB_PROBE = ("import sys\nfrom exptrig.cli import main\ntry:\n    main(sys.argv[1:])\n"
                 "finally:\n    print('difflib' in sys.modules, file=sys.stderr)\n")


def _probe(*args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", DIFFLIB_PROBE, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_short_options_parse_without_difflib():
    # A token that is exactly a short option goes straight to click's short
    # match; attached values (-p0.5) take click's own path, which tries a
    # long option first and imports difflib for its suggestions.
    fast = _probe("audit", "--csv", "-p", "0.5", "-q", "0.1", "-a", "0.2", "-b", "0.3", "-m", "1")
    slow = _probe("audit", "--csv", "-p0.5", "-q0.1", "-a0.2", "-b0.3", "-m1")
    assert fast.returncode == slow.returncode == 0, (fast.stderr, slow.stderr)
    assert fast.stderr.splitlines()[-1] == "False" and slow.stderr.splitlines()[-1] == "True"
    assert fast.stdout == slow.stdout and fast.stdout.count("\n") == 2


@pytest.mark.parametrize("args, message", [
    (("-p=0.5",), "Invalid value for '-p': cannot parse '=0.5'"),
    (("-x", "1"), "No such option '-x'."),
])
def test_other_option_tokens_keep_clicks_parse(args, message):
    res = _probe("audit", "--csv", *args)
    assert res.returncode == 2 and message in res.stderr, res.stderr


# b*q overflows in build_reports' ratios -b*a/q and -b*q/a; the lanes
# that read them compare against inf, as the scalar predicates do.
OVERFLOWING_RATIOS = ("--grid", "p=-1e200:1e200:5,b=-1e300:1e300:7", "-q", "1e154", "-m", "3")


@pytest.mark.parametrize("command", [
    ("audit", "--csv", *OVERFLOWING_RATIOS), ("scan", *OVERFLOWING_RATIOS),
    # p + b*K overflows in audit's boundary flag.
    ("audit", "--csv", "-p", "1e308", "-b", "-1e308", "-m", "1"),
])
def test_overflowing_predicate_ratios_warn_nothing(command):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run(*command)
    assert res.exit_code == 0, res.exception
    assert res.output == run(*command).output


def test_audit_csv_mode():
    res = run("audit", "--csv", "--kind", "cos", "--grid", "p=-2:2:3", "-b", "1", "-m", "1")
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("p,q,a,b,m,case1")
    assert len(lines) == 4
    assert lines[1].endswith("SignFlip,")


def test_audit_signflip_implies_predicate():
    res = run("audit", "--kind", "f", "--grid", "p=-3:3:9,q=-3:3:9", "-a", "1", "-b", "1", "-m", "3")
    for line in res.output.strip().splitlines():
        rec = json.loads(line)
        if rec["verdict"] == "SignFlip":
            assert rec["report"]["flip_applies"] or rec["detail"]


FOUND_AUDITS = [("-p", "0.3", "-a", "20", "-b", "20", "-m", "1"), ("-a", "24", "-b", "24", "-m", "1"),
                ("-p", "30", "-m", "200"), ("-p", "10", "-m", "100")]


@pytest.mark.parametrize("args", FOUND_AUDITS + [("--kind", kind, "--grid", "p=-3:3:61,b=-3:3:61", "-m", "1")
                                                 for kind in ("f", "sin", "cos")])
def test_audit_verdict_is_never_contradicted_by_its_row(args):
    # Agree only within tol_abs of the oracle, SignFlip only within it of
    # the negated oracle, and Undecided, with its detail, where neither holds.
    lines = run("audit", *args).output.splitlines()
    for rec in map(json.loads, lines):
        if rec["verdict"] in (None, "OriginalInapplicable"):
            continue
        orig, orc = (complex(rec[name]["re"], rec[name]["im"]) for name in ("original", "oracle"))
        tol_abs = max(1e-9 * max(abs(orig), abs(orc)), 1e-11)
        agree, flipped = abs(orig - orc) <= tol_abs, abs(orig + orc) <= tol_abs
        want = "Agree" if agree else "SignFlip" if flipped else "Undecided"
        assert rec["verdict"] == want, rec
        assert (rec["detail"] == "unclassified discrepancy; neither match within tolerance") == (want == "Undecided")
    if args in FOUND_AUDITS:
        assert json.loads(lines[0])["verdict"] == "Undecided"


def test_scan_json_mode():
    res = run("scan", "--json", "--grid", "p=-1:1:2,b=0:1:2", "-m", "1")
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert len(recs) == 4
    assert all(set(r) == {"x", "y", "case1", "case2", "case3", "overall", "flip_applies"}
               for r in recs)


def test_scan_region_matches_p_less_than_b():
    res = run("scan", "--grid", "p=-3:3:7,b=-3:3:7", "-m", "1")
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,y,case1,case2,case3,overall,flip_applies"
    assert len(lines) == 50
    for line in lines[1:]:
        x, y, c1, c2, c3, overall, flip = line.split(",")
        p, b = float(x), float(y)
        if p == b:
            assert overall == "0"   # Y = 0 line; predicate formula gives false here
        else:
            assert (overall == "1") == (p < b)
        assert flip == overall      # m = 1 is odd
        assert (int(c1) + int(c2) + int(c3)) in (0, 1, 3)


def test_scan_even_m_never_flips():
    res = run("scan", "--grid", "p=-3:3:5,b=-3:3:5", "-m", "2")
    for line in res.output.strip().splitlines()[1:]:
        assert line.endswith(",0")


def test_scan_usage_errors():
    assert run("scan", "--grid", "p=-3:3:5", "-m", "1").exit_code == 2
    assert run("scan", "--grid", "p=-3:3:5,p=-1:1:3").exit_code == 2
    assert run("scan", "--grid", "z=-3:3:5,b=-1:1:3").exit_code == 2
    assert run("scan", "--grid", "p=-3:3:5,b=oops:1:3").exit_code == 2
    # The variable is exactly one of p, q, a and b.
    for spec in ("pq=0:1:2,b=0:1:2", "=0:1:2", "ab=0:1:2"):
        assert run("scan", "--grid", spec).exit_code == 2, spec
    assert run("audit", "--grid", "=0:1:2").exit_code == 2
    # A count of 0, three axes, and a coefficient that is not finite.
    assert run("scan", "--grid", "p=-3:3:0,b=-1:1:3").exit_code == 2
    assert run("audit", "--grid", "p=0:1:2,b=0:1:2,q=0:1:2").exit_code == 2
    for text in ("inf", "-inf", "Infinity", "nan"):
        res = run("audit", "-p", text)
        assert res.exit_code == 2 and f"parameter {text!r} is not finite" in res.output, text
    # Counts past numpy's array size limit, which it refuses before allocating.
    for cmd, spec in (("scan", "p=0:1:4611686018427387904,b=0:1:2"),
                      ("scan", "p=0:1:99999999999999999999,b=0:1:2"),
                      ("audit", "p=0:1:4611686018427387904")):
        res = run(cmd, "--grid", spec)
        assert res.exit_code == 2 and "is too large" in res.output, (cmd, spec)


def test_grid_rejects_non_finite_bounds():
    # the last grid has finite bounds but overflows linspace's step
    for spec in ("p=nan:1:3,b=0:1:3", "p=-3:inf:3,b=0:1:3", "p=-inf:1:3,b=0:1:3",
                 "p=0:1:3,b=0:nan:1", "p=-1e308:1e308:3,b=0:1:3"):
        for cmd in ("scan", "audit"):
            res = run(cmd, "--grid", spec, "-m", "1")
            assert res.exit_code == 2, (cmd, spec, res.output)
            assert "finite" in res.output


def _grid_coefficients(grid, base):
    """Each grid point in row-major order: its (p, q, a, b) and its axis values."""
    axes = _parse_grid(grid) if grid else []
    names = [var for var, _ in axes]
    for values in itertools.product(*(vals.tolist() for _, vals in axes)):
        pt = {"p": 0.0, "q": 0.0, "a": 0.0, "b": 0.0, **base, **dict(zip(names, values))}
        yield tuple(pt[v] for v in "pqab"), values


def _scan_reference(grid, base, m, as_csv):
    lines = ["x,y,case1,case2,case3,overall,flip_applies"] if as_csv else []
    for pt, (x, y) in _grid_coefficients(grid, base):
        rep = build_report(RealParams(*pt, m))
        if as_csv:
            lines.append(f"{x!r},{y!r},{rep.case1:d},{rep.case2:d},"
                         f"{rep.case3:d},{rep.overall:d},{rep.flip_applies:d}")
        else:
            lines.append(json.dumps({"x": x, "y": y, "case1": rep.case1, "case2": rep.case2,
                                     "case3": rep.case3, "overall": rep.overall,
                                     "flip_applies": rep.flip_applies}, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


AUDIT_CSV_HEADER = ("p,q,a,b,m,case1,case2,case3,k_constant,overall,flip_applies,"
                    "y_is_zero,boundary,original_re,original_im,improved_re,improved_im,"
                    "oracle_re,oracle_im,abs_discrepancy,verdict,detail")
# Each kind's (improved, oracle, original) route, in the order audit calls them.
AUDIT_ROUTES = {
    "f": (eval_f_hyp, oracle_f, eval_f_bessel),
    "sin": (eval_improved_sin, oracle_sin, eval_original_sin),
    "cos": (eval_improved_cos, oracle_cos, eval_original_cos),
}


def _audit_point_reference(rp, kind, tol):
    """One audit record, as a dict in output order, from the public scalar
    routes and build_report, with the verdict rule written out."""
    rep = build_report(rp)
    rec = {"params": dict(zip("pqabm", (rp.p, rp.q, rp.a, rp.b, rp.m))), "report": vars(rep),
           "boundary": abs(rp.p + rp.b * rep.k_constant) < BOUNDARY_EPS * max(1.0, abs(rp.p)),
           "original": None, "improved": None, "oracle": None,
           "abs_discrepancy": None, "verdict": None, "detail": None}
    improved, oracle, original = AUDIT_ROUTES[kind]
    try:
        rec["improved"] = improved(rp).value
        rec["oracle"] = orc = oracle(rp).value
        if not rep.y_is_zero:
            rec["original"] = orig = original(rp).value
    except (DomainError, ConvergenceError) as exc:
        rec["detail"] = f"error: {exc}"
        return rec
    if rep.y_is_zero:
        rec["abs_discrepancy"] = abs(rec["improved"] - orc)
        rec["verdict"] = "OriginalInapplicable"
        return rec
    rec["abs_discrepancy"] = miss = abs(orig - orc)
    tol_abs = max(tol * max(abs(orig), abs(orc)), 1e-11)
    flip = abs(orig + orc)
    agree, flipped = miss <= tol_abs, flip <= tol_abs
    if agree or flipped:
        rec["verdict"] = "Agree" if agree else "SignFlip"
        if agree and flipped and rep.flip_applies:
            rec["detail"] = "component is zero; predicted flip unobservable"
    else:
        rec["verdict"] = "Undecided"
        rec["detail"] = "unclassified discrepancy; neither match within tolerance"
    return rec


def _audit_reference(grid, base, m, kind, as_json, tol=1e-9):
    lines = [] if as_json else [AUDIT_CSV_HEADER]
    for pt, _ in _grid_coefficients(grid, base):
        rec = _audit_point_reference(RealParams(*pt, m), kind, tol)
        if as_json:
            for name in ("original", "improved", "oracle"):
                z = rec[name]
                rec[name] = None if z is None else {"re": z.real, "im": z.imag}
            lines.append(json.dumps(rec, separators=(",", ":")))
            continue
        cells = [repr(x) for x in pt] + [str(m)]
        cells += [repr(v) if name == "k_constant" else f"{v:d}" for name, v in rec["report"].items()]
        cells.append(f"{rec['boundary']:d}")
        for name in ("original", "improved", "oracle"):
            z = rec[name]
            cells += ["", ""] if z is None else [repr(z.real), repr(z.imag)]
        disc = rec["abs_discrepancy"]
        cells += ["" if disc is None else repr(disc), rec["verdict"] or "",
                  (rec["detail"] or "").replace(",", ";")]
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


def _base_args(base):
    return [arg for name, v in base.items() for arg in (f"-{name}", repr(v))]


def _strict_json(line):
    """line parsed as standard JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON: {line}")
    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("chunk", [cli.CHUNK_POINTS, 100, 7])
@pytest.mark.parametrize("grid, base, m", [
    # 67 x 71 points, a multiple of none of the chunk sizes; crosses p = b and p = -b
    ("p=-3:3:67,b=-3:3:71", {"q": -0.0}, 1),
    # p = b and p = -b exactly on the grid, with X = 0 and Y = 0 on the diagonals
    ("p=-3:3:61,b=-3:3:61", {"a": 1.0, "q": 1.0}, 3),
    ("b=-3:3:61,p=-3:3:61", {"a": -1.0, "q": 1.0}, 1),
    # the a = +-q diagonals at p = +-b
    ("a=-2:2:41,q=-2:2:41", {"p": 1.0, "b": 1.0}, 5),
    ("q=-2:2:41,a=-2:2:41", {"p": -1.0, "b": 1.0}, 1),
    ("a=-2:2:41,q=-2:2:41", {"p": -0.0, "b": 0.0}, 2),
    # a 1-point outer axis, a 1-point inner axis and a -0.0 axis value
    ("p=0.5:0.5:1,b=-3:3:9", {}, 1),
    ("b=-3:3:9,p=0.5:0.5:1", {"q": 1.0}, 1),
    ("p=-0.0:0:1,b=-3:3:9", {}, 1),
    # an inner axis longer than every chunk, so rows span chunks and a
    # chunk holds the end of one row and the start of the next
    ("a=-2:2:2,q=-2:2:4099", {"p": -1.0, "b": 1.0}, 1),
])
def test_scan_matches_scalar_predicates_byte_for_byte(monkeypatch, chunk, grid, base, m):
    monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
    for as_csv in (True, False):
        res = run("scan", "--csv" if as_csv else "--json", "--grid", grid,
                  *_base_args(base), "-m", str(m))
        assert res.exit_code == 0
        assert res.output == _scan_reference(grid, base, m, as_csv)
        if not as_csv:
            for line in res.output.splitlines():
                _strict_json(line)


@pytest.mark.parametrize("kind", ["f", "sin", "cos"])
@pytest.mark.parametrize("grid, base, m", [
    (None, {"p": -2.0, "q": -0.0, "b": 1.0}, 1),
    (None, {"p": 1.0, "q": -1.0, "a": 1.0, "b": 1.0}, 1),
    # 23 points, a refused oracle at |p| = 60, chunks of 12 and 11
    ("p=-60:60:23", {"q": -0.0, "b": 1.0}, 3),
    # 7 x 5 points, chunks of 12, 12 and 11 that end mid-row; Y = 0 at p = b on a = q = 0
    ("p=-3:3:7,b=-3:3:5", {"q": -0.0}, 1),
    ("a=-2:2:5,q=-2:2:7", {"p": -1.0, "b": 1.0}, 2),
    # two rows of 23 points over chunks of 12 that split them, mixing ok lanes, lanes past the
    # oracle envelope and a refused original at p ~ 1e-15: its front power
    # overflows at b = 0 and the Bessel prefactor underflows at b = 1
    ("b=0:1:2,p=-60:60:23", {"q": -0.0}, 171),
    # 0.0 and -0.0 in one chunk's p column
    ("p=0:-0.0:2,b=-1:1:3", {"q": -0.0}, 1),
    # K = q/a or a/q varies per lane, and is 0.0 or -0.0 where q = 0 or a = 0
    ("a=-2:2:5,q=-1:1:3", {"p": -1.0, "b": 1.0}, 3),
    # K = a/q = 0.5: five lanes on p = -bK carry the boundary flag
    ("p=-1:1:5,b=-2:2:5", {"q": 1.0, "a": 0.5}, 1),
    # a = -q != 0: Y = 0 on the diagonal p = b
    ("p=-2:2:5,b=-2:2:5", {"q": 1.0, "a": -1.0}, 3),
    # series terms that overflow, past the oracle envelope too
    ("a=-1e200:1e200:3,b=-1e150:1e150:3", {}, 2),
    # series that need more than MAX_TERMS terms
    ("a=400:500:3,b=400:500:3", {}, 1),
    # (b-p)^2 + (a+q)^2 underflows to 0 at p = 0, a = +-1e-170, next to Y = 0
    ("p=-1e-150:1e-150:3,a=-1e-170:1e-170:3", {}, 1),
])
def test_audit_matches_scalar_path_byte_for_byte(monkeypatch, kind, grid, base, m):
    monkeypatch.setattr(cli, "CHUNK_POINTS", 12)
    lines = {}
    for as_json in (True, False):
        args = ["--grid", grid] if grid else []
        res = run("audit", "--kind", kind, "--json" if as_json else "--csv", *args,
                  *_base_args(base), "-m", str(m))
        assert res.exit_code == 0
        assert res.output == _audit_reference(grid, base, m, kind, as_json)
        lines[as_json] = res.output.splitlines()
    records = [_strict_json(line) for line in lines[True]]
    # The CSV header is a JSON record's keys flattened: the params and report
    # keys in turn, and _re and _im for each of the three values.
    flat = [key for name, v in records[0].items()
            for key in (v if name in ("params", "report") else
                        (f"{name}_re", f"{name}_im") if name in ("original", "improved", "oracle") else
                        (name,))]
    assert lines[False][0] == ",".join(flat)


@pytest.mark.parametrize("command", [["scan"], ["audit", "--csv"]])
def test_memory_stays_flat_on_long_rows(monkeypatch, command):
    # Two rows of 4 chunks each against 64 rows of 64 points, the same 4096
    # points, after an untraced run that fills the caches: a chunk holds at
    # most CHUNK_POINTS points however long its rows, and scan keeps no
    # texts for a whole axis longer than that.
    monkeypatch.setattr(cli, "CHUNK_POINTS", 512)
    peaks = []
    with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", sink)
        main.main([*command, "--grid", "p=0:1:3,b=-3:3:3", "-m", "1"], standalone_mode=False)
        for grid in ("p=0:1:2,b=-3:3:2048", "p=0:1:64,b=-3:3:64"):
            tracemalloc.start()
            try:
                main.main([*command, "--grid", grid, "-m", "1"], standalone_mode=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] <= 1.5 * peaks[1], peaks


def test_reprs_keeps_signed_zeros_apart():
    x = np.array([0.0, -0.0, 1.5, 0.0, -0.0, math.nan, 0.1 + 0.2])
    assert _reprs(x) == [repr(v) for v in x.tolist()]
    assert _reprs(x)[:2] == ["0.0", "-0.0"]


def _csv_column(output, name):
    lines = output.splitlines()
    return [row.split(",")[lines[0].split(",").index(name)] for row in lines[1:]]


def test_audit_csv_rows_carry_signed_zeros_and_boundary_lanes():
    res = run("audit", "--csv", "--grid", "p=0:-0.0:2,b=-1:1:3", "-m", "1")
    assert _csv_column(res.output, "p") == 3 * ["0.0"] + 3 * ["-0.0"]
    res = run("audit", "--csv", "--grid", "a=-2:2:5,q=-1:1:3", "-p", "-1", "-b", "1", "-m", "3")
    assert {"0.0", "-0.0", "0.5", "-0.5", "1.0", "-1.0"} <= set(_csv_column(res.output, "k_constant"))
    res = run("audit", "--csv", "--grid", "p=-1:1:5,b=-2:2:5", "-q", "1", "-a", "0.5", "-m", "1")
    assert _csv_column(res.output, "boundary").count("1") == 5


def test_verify_passes_and_is_deterministic():
    a = run("verify", "--seed", "42", "--samples", "20")
    b = run("verify", "--seed", "42", "--samples", "20")
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output == b.output
    assert a.output.strip().endswith("PASS")


def test_verify_single_entry():
    res = run("verify", "--entry", "GR-3.931-4")
    assert res.exit_code == 0
    assert "GR-3.931-4" in res.output
    assert run("verify", "--entry", "GR-nope").exit_code == 2


def test_verify_expected_failure_mode():
    res = run("verify", "--entry", "GR-3.937-3-original", "--p-negative")
    assert res.exit_code == 0
    assert "SignFlip as predicted" in res.output
    # only makes sense for the faithful-original entries
    assert run("verify", "--entry", "GR-3.937-3", "--p-negative").exit_code == 2


def test_verify_expected_failure_mode_covers_every_original_entry():
    res = run("verify", "--p-negative")
    assert res.exit_code == 0, res.output
    originals = [e.id for e in ENTRIES if not e.corrected and e.flip_samples]
    assert originals == ["GR-3.937-3-original", "GR-3.937-4-original"]
    headers = [line.split(":")[0] for line in res.output.splitlines() if "expected-failure audit" in line]
    assert headers == originals
    assert res.output.strip().endswith("PASS")


def test_verify_absurd_tolerance_fails():
    res = run("verify", "--entry", "GR-3.937-3", "--tol", "1e-18")
    assert res.exit_code == 1
    assert "FAIL" in res.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_non_finite_or_negative_tol_is_usage_error(tol):
    # every comparison with a NaN tolerance is False, so verify would pass everything
    res = run("verify", "--seed", "42", "--samples", "1", "--tol", tol)
    assert res.exit_code == 2 and "PASS" not in res.output
    assert run("audit", "-p", "-2", "-b", "1", "-m", "1", "--tol", tol).exit_code == 2


@pytest.mark.parametrize("samples", ["-3", "-1"])
def test_negative_samples_is_usage_error(samples):
    # a negative count would skip the sweep without a word and print PASS
    res = run("verify", "--seed", "42", "--samples", samples)
    assert res.exit_code == 2 and "PASS" not in res.output


def test_negative_seed_is_usage_error():
    # random.Random would take -1 as the seed 1, without a word
    res = run("verify", "--seed", "-1", "--samples", "1")
    assert res.exit_code == 2 and "catalog" not in res.output


def test_zero_samples_runs_the_catalog_only():
    res = run("verify", "--seed", "42", "--samples", "0")
    assert res.exit_code == 0 and "sweep" not in res.output
    assert res.output.strip().endswith("PASS")


def test_zero_tol_is_accepted():
    assert run("audit", "-p", "-2", "-b", "1", "-m", "1", "--tol", "0").exit_code == 0


def test_verify_sweep_calls_go_through_cli_bindings(monkeypatch):
    # rebinding these names on exptrig.cli must reach every sweep call, in
    # the order sin, oracle sin, cos, oracle cos for each sample
    args = ("verify", "--seed", "5", "--samples", "3", "--complex")
    unpatched = run(*args)
    calls = []
    points = []

    def recording(name, fn):
        def wrapper(params):
            calls.append(name)
            points.append(params)
            return fn(params)
        return wrapper

    for name in ("eval_improved_sin", "eval_improved_cos", "eval_complex_sin",
                 "eval_complex_cos", "oracle_sin", "oracle_cos"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    res = run(*args)
    assert res.exit_code == 0
    assert res.output == unpatched.output
    assert calls == (3 * ["eval_improved_sin", "oracle_sin", "eval_improved_cos", "oracle_cos"]
                     + 3 * ["eval_complex_sin", "oracle_sin", "eval_complex_cos", "oracle_cos"])
    # The points are the documented stream: one random.Random(seed) draws
    # every real sample, then every complex one: p, q, a, b as uniform(-5, 5)
    # and m as randrange(9); then the re and im of p, q, a, b in turn as
    # uniform(-3, 3) and m as randrange(7). Random's int seeding, uniform
    # and randrange are the same on every supported Python, so are they.
    rng = random.Random(5)
    want = [RealParams(*[rng.uniform(-5.0, 5.0) for _ in range(4)], rng.randrange(9)) for _ in range(3)]
    for _ in range(3):
        parts = [rng.uniform(-3.0, 3.0) for _ in range(8)]
        want.append(ComplexParams(*map(complex, parts[0::2], parts[1::2]), rng.randrange(7)))
    assert [(type(p), p.p, p.q, p.a, p.b, p.m) for p in points[::4]] == \
        [(type(p), p.p, p.q, p.a, p.b, p.m) for p in want]


# The six bindings the sweep calls, as bench/worker.py's Recorder wraps them,
# and the order of one sample's calls in each domain.
SWEEP_BINDINGS = ("eval_improved_sin", "eval_improved_cos", "eval_complex_sin",
                  "eval_complex_cos", "oracle_sin", "oracle_cos")
SWEEP_CALLS = {
    "real": ("eval_improved_sin", "oracle_sin", "eval_improved_cos", "oracle_cos"),
    "complex": ("eval_complex_sin", "oracle_sin", "eval_complex_cos", "oracle_cos"),
}


def test_verify_sweep_results_match_fresh_records(monkeypatch):
    # Every recorded sweep call, whatever the sweep stored on its record
    # beforehand, is what the scalar route gives on a new record.
    samples = 300
    calls = []

    def recording(name, fn):
        def wrapper(params):
            res = fn(params)
            calls.append((name, params, res))
            return res
        return wrapper

    scalar = {name: getattr(cli, name) for name in SWEEP_BINDINGS}
    for name, fn in scalar.items():
        monkeypatch.setattr(cli, name, recording(name, fn))
    res = run("verify", "--seed", "7", "--samples", str(samples), "--complex")
    assert res.exit_code == 0, res.output
    names = [name for name, _, _ in calls]
    assert names == samples * list(SWEEP_CALLS["real"]) + samples * list(SWEEP_CALLS["complex"])
    for i in range(0, len(calls), 4):
        assert len({id(params) for _, params, _ in calls[i:i + 4]}) == 1
    for name, params, got in calls:
        point = type(params)(params.p, params.q, params.a, params.b, params.m)
        assert repr(scalar[name](point)) == repr(got), (name, params)


def test_verify_sweeps_report_a_nonzero_margin():
    # A fill that compared a value with itself would report a zero margin.
    res = run("verify", "--seed", "3", "--samples", "300", "--complex")
    margins = dict(re.findall(r"sweep (real|complex): .* worst_margin=(\S+) ok", res.output))
    assert margins.keys() == {"real", "complex"}
    assert all(float(margin) > 0.0 for margin in margins.values()), margins


def test_verify_sweep_names_its_offenders(monkeypatch):
    # The real sin and the complex cos routes off by 1e-6: exit 1, and every
    # offender line names one of those two, with its sample and its point in
    # the text eval reads back bit for bit.
    points = {}

    def off(domain, fn):
        def wrapper(params):
            points.setdefault(domain, []).append(params)
            res = fn(params)
            return res._replace(value=res.value + 1e-6)
        return wrapper

    for domain, name in (("real", "eval_improved_sin"), ("complex", "eval_complex_cos")):
        monkeypatch.setattr(cli, name, off(domain, getattr(cli, name)))
    res = run("verify", "--seed", "3", "--samples", "20", "--complex")
    assert res.exit_code == 1
    lines = [line.strip() for line in res.output.splitlines() if " sample " in line]
    offender = r"(real|complex) sample (\d+) (sin|cos) p=(\S+) q=(\S+) a=(\S+) b=(\S+) m=(\d+): margin \S+"
    found = [re.fullmatch(offender, line) for line in lines]
    assert all(found), lines
    assert {match[1] + " " + match[3] for match in found} == {"real sin", "complex cos"}
    for match in found:
        domain, i = match[1], int(match[2])
        want = points[domain][i]
        got = [cli._parse_param(text) for text in match.groups()[3:7]]
        assert repr(got) == repr([complex(getattr(want, name)) for name in "pqab"]), match[0]
        assert int(match[8]) == want.m
    # signed zeros and exponents read back too
    for z in (complex(-0.0, -1.5), complex(0.5, 0.0), complex(0.0, -0.0), complex(1e-300, -2.5e17)):
        assert repr(cli._parse_param(cli._coefficient(z))) == repr(z)
    assert repr(cli._parse_param(cli._coefficient(-0.0))) == repr(complex(-0.0))


class _Draws:
    """Stands in for verify's random.Random: uniform hands out the given
    coefficients in turn, and randrange the given m."""

    def __init__(self, coeffs, m):
        self._coeffs = iter(coeffs)
        self._m = m

    def uniform(self, lo, hi):
        return next(self._coeffs)

    def randrange(self, stop):
        return self._m


@pytest.mark.parametrize("coeffs, kind", [
    # verify's real sample 632 at seed 1205 and 585 at seed 1070, when it drew with numpy's generator
    ((-4.8025105721123555, 4.950568000032719, 4.644311546233576, 3.4711760180289115), "sin"),
    ((4.958174117126378, -4.712304965873737, -3.513904722045511, -3.616842185057404), "cos"),
])
def test_verify_sweep_counts_the_oracles_rounding_as_undecided(coeffs, kind):
    # The improved route is right to 1e-19 here, while the oracle is off by
    # about 1.1e-12, inside its own bound (about 5e-11) but past the
    # absolute floor of 1e-12. The miss is within the sum of the tolerance
    # and both bounds, so the comparison is undecided, not an offender.
    worst, undecided, offenders = cli._sweep(_Draws(coeffs, 7), 1, 1e-10, "real")
    assert worst > 1.0 and undecided == 1 and offenders == []
    params = RealParams(*coeffs, 7)
    v = cli._route("improved", kind)(params)
    o = cli._route("oracle", kind)(params)
    p, q, a, b = map(mpmath.mpf, coeffs)
    part = mpmath.sin if kind == "sin" else mpmath.cos
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda x: mpmath.exp(p * mpmath.cos(x) + q * mpmath.sin(x))
                          * part(a * mpmath.cos(x) + b * mpmath.sin(x) - 7 * x),
                          mpmath.linspace(0, 2 * mpmath.pi, 9))
    assert abs(v.value - complex(ref)) < 1e-18
    assert abs(o.value - complex(ref)) <= o.bound


# Runs verify through exptrig.cli.main, reporting on stderr whether numpy
# itself, then import exptrig, then the run loaded numpy.random.
NUMPY_RANDOM_PROBE = ("import sys\nimport numpy\nbare = 'numpy.random' in sys.modules\nimport exptrig\n"
                      "imported = 'numpy.random' in sys.modules\nfrom exptrig.cli import main\ntry:\n"
                      "    main(['verify', '--seed', '1', '--samples', '5', '--complex'])\nfinally:\n"
                      "    print(bare, imported, 'numpy.random' in sys.modules, file=sys.stderr)\n")


def test_verify_never_loads_numpy_random():
    # The sweep draws from the standard library's generator; numpy.random
    # would add its extension modules, hashlib and secrets to every verify.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0 and res.stdout.strip().endswith("PASS"), res.stderr
    bare, imported, ran = res.stderr.splitlines()[-1].split()
    if bare == "True":
        pytest.skip("this numpy imports numpy.random itself")
    assert (imported, ran) == ("False", "False")


def test_list():
    res = run("list")
    lines = res.output.strip().splitlines()
    assert len(lines) == 11
    assert any(line.startswith("GR-3.931-4") for line in lines)
    res = run("list", "--json")
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert {r["id"] for r in recs} >= {"GR-3.931-4", "GR-3.937-3-original"}
