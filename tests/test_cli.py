import itertools
import json
import math
import warnings

import pytest
from click.testing import CliRunner

from exptrig import ENTRIES, RealParams, build_report
from exptrig import cli
from exptrig.cli import BOUNDARY_EPS, _audit_point, _parse_grid, main


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
    assert rec["terms_used"] > 0 and rec["truncation_estimate"] >= 0


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
    assert rec["evaluations"] >= 32
    assert rec["error_estimate"] >= 0


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
    (("-p", "1e-170", "-a", "1e-170", "-m", "1"), "= 0 (Y = 0)"),
    # [(b-p)^2 + (a+q)^2]^(-m/2) overflows
    (("-p", "1e-160", "-m", "3"), "overflows"),
    # (A-iB)^(m/2) overflows
    (("-p", "40", "-m", "400"), "overflows"),
])
def test_audit_records_original_refusal(args, reason):
    res = run("audit", *args)
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["original"] is None and rec["verdict"] is None and rec["abs_discrepancy"] is None
    assert rec["improved"] is not None and rec["oracle"] is not None
    assert rec["detail"].startswith("error: ") and reason in rec["detail"]


def test_eval_original_overflow_exit_3():
    res = run("eval", "--kind", "f", "--method", "original", "-p", "1e-160", "-m", "3")
    assert res.exit_code == 3
    assert "overflows" in res.output


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


@pytest.mark.parametrize("command", [("audit", "--csv"), ("scan",)])
def test_overflowing_predicate_ratios_warn_nothing(command):
    # b*q overflows in build_reports' ratios -b*a/q and -b*q/a; the lanes
    # that read them compare against inf, as the scalar predicates do.
    args = (*command, "--grid", "p=-1e200:1e200:5,b=-1e300:1e300:7", "-q", "1e154", "-m", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run(*args)
    assert res.exit_code == 0, res.exception
    assert res.output == run(*args).output


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


def _audit_reference(grid, base, m, kind, as_json):
    lines = [] if as_json else [cli.AuditRecord.CSV_HEADER]
    for pt, _ in _grid_coefficients(grid, base):
        rp = RealParams(*pt, m)
        rep = build_report(rp)
        boundary = abs(rp.p + rp.b * rep.k_constant) < BOUNDARY_EPS * max(1.0, abs(rp.p))
        rec = _audit_point(rp, rep, boundary, kind, 1e-9)
        lines.append(json.dumps(rec.to_json_dict(), separators=(",", ":")) if as_json
                     else rec.to_csv_row())
    return "".join(line + "\n" for line in lines)


def _base_args(base):
    return [arg for name, v in base.items() for arg in (f"-{name}", repr(v))]


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
])
def test_scan_matches_scalar_predicates_byte_for_byte(monkeypatch, chunk, grid, base, m):
    monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
    for as_csv in (True, False):
        res = run("scan", "--csv" if as_csv else "--json", "--grid", grid,
                  *_base_args(base), "-m", str(m))
        assert res.exit_code == 0
        assert res.output == _scan_reference(grid, base, m, as_csv)


@pytest.mark.parametrize("kind", ["f", "sin", "cos"])
@pytest.mark.parametrize("grid, base, m", [
    (None, {"p": -2.0, "q": -0.0, "b": 1.0}, 1),
    (None, {"p": 1.0, "q": -1.0, "a": 1.0, "b": 1.0}, 1),
    # 23 points, a refused oracle at |p| = 60, chunks of 12 and 11
    ("p=-60:60:23", {"q": -0.0, "b": 1.0}, 3),
    # 7 x 5 points, chunks of two rows; Y = 0 at p = b on a = q = 0
    ("p=-3:3:7,b=-3:3:5", {"q": -0.0}, 1),
    ("a=-2:2:5,q=-2:2:7", {"p": -1.0, "b": 1.0}, 2),
    # rows of 23 points, one chunk each, mixing ok lanes, lanes past the
    # oracle envelope and a refused original at p ~ 1e-15: its front power
    # overflows at b = 0 and the Bessel prefactor underflows at b = 1
    ("b=0:1:2,p=-60:60:23", {"q": -0.0}, 171),
])
def test_audit_matches_scalar_path_byte_for_byte(monkeypatch, kind, grid, base, m):
    monkeypatch.setattr(cli, "CHUNK_POINTS", 12)
    for as_json in (True, False):
        args = ["--grid", grid] if grid else []
        res = run("audit", "--kind", kind, "--json" if as_json else "--csv", *args,
                  *_base_args(base), "-m", str(m))
        assert res.exit_code == 0
        assert res.output == _audit_reference(grid, base, m, kind, as_json)


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
    # numpy's generator would refuse it only after the catalog stage, as a crash
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

    def recording(name, fn):
        def wrapper(params):
            calls.append(name)
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


def test_list():
    res = run("list")
    lines = res.output.strip().splitlines()
    assert len(lines) == 11
    assert any(line.startswith("GR-3.931-4") for line in lines)
    res = run("list", "--json")
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert {r["id"] for r in recs} >= {"GR-3.931-4", "GR-3.937-3-original"}
