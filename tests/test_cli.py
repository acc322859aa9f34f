import json
import math

from click.testing import CliRunner

from exptrig.cli import main


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


def test_verify_absurd_tolerance_fails():
    res = run("verify", "--entry", "GR-3.937-3", "--tol", "1e-18")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_list():
    res = run("list")
    lines = res.output.strip().splitlines()
    assert len(lines) == 11
    assert any(line.startswith("GR-3.931-4") for line in lines)
    res = run("list", "--json")
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert {r["id"] for r in recs} >= {"GR-3.931-4", "GR-3.937-3-original"}
