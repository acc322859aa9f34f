#!/usr/bin/env python3
"""Self-test of the benchmark's reference and output checkers.

    python3 bench/selftest.py

Part 1 holds the mpmath reference against values known exactly:
p = q = a = b = 0 gives 2pi delta_{m0}; GR 3.936-1 gives 2pi p'^m/m!
for real and complex p'; the reference original form equals the value
where the paper predicts no sign error and its negative where it does.

Part 2 runs every workload once at a small size, requires that no
operation fails, and then feeds each checker the same output twice
more: once with one sign flipped, once with one value perturbed beyond
tolerance. Each time exactly one operation must be counted as failed.
Last it runs the workload again in the same directory with a copy of
exptrig that fails on import, so that every worker dies before writing
its report, and requires every point to be counted as failed.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1e-7  # relative; a thousand times the real tolerance
FAILURES: list[str] = []


def expect(cond: bool, label: str) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {label}")
    if not cond:
        FAILURES.append(label)


def near(got, want, rel: float = 1e-20) -> bool:
    return abs(got - want) <= rel * max(1, abs(want))


def reference_tests() -> None:
    print("reference against exact values")
    for m in (0, 1, 2, 7, 40, 64):
        exact = 2 * mp.pi if m == 0 else 0
        c, s = ref.family(0, 0, 0, 0, m)
        expect(near(c, exact) and near(s, 0), f"p = q = a = b = 0, m = {m}: 2pi delta_m0")
    for pp in (1.7, -2.3, complex(1.5, -0.5), complex(0, 2)):
        for m in (0, 1, 2, 5, 12, 40):
            exact = 2 * mp.pi * mp.mpc(pp) ** m / mp.factorial(m)
            c, s = ref.family(pp, 0, 0, pp, m)
            ok = near(c, exact) and near(s, 0)
            ok = ok and near(ref.catalog_value("GR-3.936-1", (pp, m)), exact)
            expect(ok, f"GR 3.936-1, p' = {pp}, m = {m}: 2pi p'^m/m!")
    for point in ((2.0, 0.3, 0.1, 0.5, 3), (-2.0, 0.0, 0.0, 1.0, 1), (-1.5, 1.2, 0.4, 2.0, 3),
                  (0.5, -0.3, -1.8, -1.1, 5), (-0.7, 0.2, 0.9, 1.3, 2)):
        sign = -1 if ref.book_flip_condition(*point) else 1
        c, s = ref.family(*point)
        expect(near(ref.original_f(*point), sign * (c + 1j * s), 1e-20),
               f"original form at {point} is {'-' if sign < 0 else '+'}value")


def _csv_edit(text: str, row: int, col: str, fn) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(col)
    cells[j] = fn(cells[j])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def _neg(cell: str) -> str:
    return repr(-float(cell))


def _bump(cell: str) -> str:
    return repr(float(cell) * (1 + PERTURB))


def _pick(refs: dict, ok) -> int:
    return next(i for i in sorted(refs) if refs[i] is not None and ok(refs[i]))


def mutations(wl, outputs: list, refs: list) -> list[tuple[str, list]]:
    """(label, mutated outputs) with one sign flipped, then one value perturbed."""
    flip, bump = copy.deepcopy(outputs), copy.deepcopy(outputs)
    if wl.name == "audit-grid":
        i = _pick(refs[0], lambda f: abs(f) > 1e-3)
        flip[0] = _csv_edit(flip[0], i, "oracle_re", _neg)
        k = 1  # sin grid: the improved column is real
        i = _pick(refs[k], lambda f: abs(f.imag) > 1e-3)
        bump[k] = _csv_edit(bump[k], i, "improved_re", _bump)
    elif wl.name == "scan-grid":
        k = next(k for k, inv in enumerate(wl.invocations) if refs[k])
        i = _pick(refs[k], lambda pair: abs(pair[0]) > 1e-3)
        flip[k] = _csv_edit(flip[k], i, "flip_applies", lambda c: "0" if c == "1" else "1")
        bump[0] = _csv_edit(bump[0], 3, "x", _bump)
    elif wl.name == "closed-forms":
        n_real = len(wl.invocations[0].points["real"])
        i = _pick({j: v for j, v in refs[0].items() if j < n_real}, lambda v: abs(v[0].real) > 1e-3)
        flip[0][i][12] = -flip[0][i][12]  # improved cos, real part
        j = _pick({j: v for j, v in refs[0].items() if j >= n_real}, lambda v: abs(v[0]) > 1e-3)
        bump[0][j][2] *= 1 + PERTURB  # complex cos, real part
    else:
        i = next(i for i, v in enumerate(refs[0]["values"]) if abs(v) > 1e-3)
        eid, args, value = flip[0]["catalog"][i]
        flip[0]["catalog"][i] = (eid, args, -value)
        calls = bump[0]["sweep"]
        n = checks.sweep_samples(wl.invocations[0])
        j = next(j for j in range(4 * n, 8 * n)  # a complex sample held to the reference
                 if (j // 4 - n) in refs[0]["sweep"]["complex"] and abs(calls[j][2]) > 1e-3)
        name, params, value = calls[j]
        calls[j] = (name, params, value * (1 + PERTURB))
    return [("one sign flipped", flip), ("one value perturbed", bump)]


SMALL = {
    "audit-grid": lambda seed: workloads.audit_workload(seed, side=7),
    "scan-grid": lambda seed: workloads.scan_workload(seed, side=21),
    "closed-forms": lambda seed: workloads.closed_workload(seed, n_real=60, n_complex=30),
    "verify-sweep": lambda seed: workloads.verify_workload(seed, samples=20),
}


def broken_env() -> dict:
    """Worker environment whose exptrig package raises on import."""
    pkg = os.path.join(run.OUT, "selftest", "broken", "exptrig")
    os.makedirs(pkg, exist_ok=True)
    with open(os.path.join(pkg, "__init__.py"), "w") as fh:
        fh.write('raise ImportError("exptrig made unimportable by the benchmark self-test")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(pkg)
    return env


def checker_tests(seed: int = 7) -> None:
    env = run.child_env()
    for name, build in SMALL.items():
        print(f"checker {name}")
        wl = build(seed)
        workdir = run.prepare(wl, os.path.join(run.OUT, "selftest", name))
        first = run.run_round(wl, workdir, 0, False, env)
        outputs = run.round_outputs(wl, workdir, first, env)
        refs = checks.references(wl)
        clean = sum(len(f) for f in checks.check_outputs(wl, outputs, refs))
        expect(clean == 0, f"unmodified output: {clean} of {wl.points} failed")
        for label, mutated in mutations(wl, outputs, refs):
            bad = sum(len(f) for f in checks.check_outputs(wl, mutated, refs))
            expect(bad == 1, f"{label}: {bad} failed")
        # Round 0's files from above are still in workdir; none may be read back.
        print("  (the workers' ImportError tracebacks below are expected)")
        dead = run.run_round(wl, workdir, 0, False, broken_env())
        outputs = run.round_outputs(wl, workdir, dead, broken_env())
        bad = run.count_failed(wl, [dead], checks.check_outputs(wl, outputs, refs))
        expect(bad == wl.points, f"worker dies before its report: {bad} of {wl.points} failed")


def main() -> int:
    reference_tests()
    checker_tests()
    print(f"{'PASS' if not FAILURES else 'FAIL'}: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
