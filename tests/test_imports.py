"""numpy is imported by the functions that take or return arrays, and by
cli; the scalar routes, records and predicates run on the standard
library alone. Each probe runs in a fresh interpreter, since this test
process has numpy loaded already."""

import os
import subprocess
import sys

import pytest

import exptrig

SRC = os.path.dirname(os.path.dirname(exptrig.__file__))


def run_probe(code: str) -> str:
    """The last line a fresh interpreter prints running code, with src on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


# Every scalar public route, the records, the predicates and the catalog's
# closed forms, one refusal among them; then whether numpy was loaded.
SCALAR_PROBE = """
import sys
import exptrig as ex

rp = ex.RealParams(0.3, -0.2, 0.5, 0.7, 3)
cp, cq = rp.to_complex(), ex.ComplexParams(0.3 + 0.1j, -0.2, 0.5j, 0.7, 2)
results = [fn(rp) for fn in (ex.eval_original_sin, ex.eval_original_cos, ex.eval_f_bessel,
                             ex.eval_corrected_original_sin, ex.eval_corrected_original_cos,
                             ex.eval_corrected_original_f, ex.eval_improved_sin, ex.eval_improved_cos,
                             ex.eval_f_hyp)]
results += [fn(c) for fn in (ex.eval_complex_sin, ex.eval_complex_cos, ex.eval_complex_f) for c in (cp, cq)]
results += [ex.hyp0f1(4, 0.5 + 0.2j), ex.bessel_i(3, 1.5 + 0.5j)]
values = [ex.cpow_half(-1 + 0j, 3), ex.pow_int_over_factorial(2 + 1j, 5), ex.build_report(rp),
          ex.overall_sign_error(rp.p, rp.q, rp.a, rp.b)]
values += [ex.gr_3_931_4(2 - 3j), ex.gr_3_936_4(1 + 1j, 3, -1)]
values += [fn(1 + 1j, 3) for fn in (ex.gr_3_932_1, ex.gr_3_932_2, ex.gr_3_936_1, ex.gr_3_936_2, ex.gr_3_936_3)]
values += [fn(-2.0, 1.0, 3) for fn in (ex.gr_3_937_3_original, ex.gr_3_937_4_original,
                                        ex.gr_3_937_3_corrected, ex.gr_3_937_4_corrected)]
values += [fn(1 + 1j, 0.5, 3) for fn in (ex.gr_3_937_3_complex, ex.gr_3_937_4_complex)]
try:
    ex.eval_original_sin(ex.RealParams(1.0, 2.0, -2.0, 1.0, 1))  # Y = 0
    refused = False
except ex.DomainError:
    refused = True
print(len(results) + len(values), refused, "numpy" in sys.modules)
"""


def test_scalar_routes_never_load_numpy():
    assert run_probe(SCALAR_PROBE) == "34 True False"


def test_cli_loads_numpy():
    assert run_probe("import sys\nimport exptrig.cli\nprint('numpy' in sys.modules)") == "True"


# A call that loads numpy itself in a probe that has not (LOADS), against
# the same call with numpy imported before exptrig. eval_lanes takes
# arrays, so its probe imports numpy after exptrig, just before the call.
FIRST_CALLS = {
    "oracle_f": "from exptrig import RealParams, oracle_f\n"
                "out = [oracle_f(RealParams(0.3, -0.2, 0.5, 0.7, 3)), oracle_f(RealParams(-4.0, 1.0, 9.0, 2.0, 40))]",
    "build_reports": "from exptrig import build_reports\n"
                     "out = vars(build_reports([-3.0, 0.0, 1.5, 2.0], [0.0, 0.0, -1.0, 0.5], "
                     "[0.0, 0.0, 2.0, -0.5], [1.0, 0.0, -2.0, 2.0], 3))",
    "hyp0f1_lanes": "from exptrig.series import hyp0f1_lanes\n"
                    "out = hyp0f1_lanes([1, 4, 9, 2], [0.5, -3.0, 20.0, 1e300], [0.2, 1.0, -5.0, 1e300])",
    "eval_lanes": "from exptrig.formulas import eval_lanes\nimport numpy as np\n"
                  "p, q, a, b = (np.linspace(lo, -lo, 9) for lo in (-3.0, 0.5, 2.0, -1e-160))\n"
                  "out = [eval_lanes(p, q, a, b, 3, kind) for kind in ('f', 'sin', 'cos')]",
    "fill_terms": "from exptrig import ComplexParams, RealParams\nfrom exptrig.formulas import fill_terms\n"
                  "records = [RealParams(0.3, -0.2, 0.5, 0.7, 3), RealParams(-4.0, 1.0, 9.0, 2.0, 40), "
                  "ComplexParams(0.3 + 0.1j, -0.2, 0.5j, 0.7, 2)]\n"
                  "fill_terms(records)\nout = [sorted(r._cache.items()) for r in records]",
}
LOADS = """
import sys
import exptrig
before = "numpy" in sys.modules
{call}
def plain(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, dict):
        return {{k: plain(v) for k, v in x.items()}}
    return [plain(v) for v in x] if isinstance(x, (list, tuple)) else x
print(before, "numpy" in sys.modules, repr(plain(out)))
"""


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_first_numpy_caller_gives_the_bits_of_a_numpy_first_process(name):
    code = LOADS.format(call=FIRST_CALLS[name])
    first = run_probe(code)
    assert first.startswith("False True "), first
    assert run_probe("import numpy\n" + code) == "True True " + first.removeprefix("False True ")
