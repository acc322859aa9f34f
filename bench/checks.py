"""Correctness checks of each workload's outputs.

Each check takes one invocation's output (plus the reference values it
needs, computed beforehand) and returns the set of operation indices
that failed. An operation is one parameter point: one grid point for
audit and scan, one sampled point across all its routes for the closed
forms, one catalog sample or sweep sample for verify. Values are judged
against the mpmath reference in reference.py or against a property the
paper proves, never against a stored copy of earlier output.

``CHECKERS`` at the end maps each workload to the functions that judge
it: the reference values an invocation's check needs, the loader of an
invocation's output files, and the check itself.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

import reference as ref
from workloads import COMPLEX_ROUTES, REAL_ROUTES, Grid, Invocation

# Acceptance tolerances: max(rel * |v|, abs).
TOL_REAL = (1e-10, 1e-12)
TOL_COMPLEX = (1e-9, 1e-11)
# A component this small is treated as zero: its sign carries no verdict.
ZERO_FLOOR = 1e-8
# The reference original must equal +-(reference value) to this, relatively.
SIGN_RTOL = 1e-6

# Reference subsample sizes per round of checks.
AUDIT_SAMPLE_PER_GRID = 12
SCAN_SAMPLE_PER_GRID = 30
CLOSED_SAMPLE_REAL = 40
CLOSED_SAMPLE_COMPLEX = 20
SWEEP_SAMPLE = 20  # per verify sweep, real and complex


def close(got: complex, want: complex, tol: tuple[float, float]) -> bool:
    return abs(got - want) <= max(tol[0] * abs(want), tol[1])


def subsample(label: str, seed: int, total: int, k: int) -> list[int]:
    return sorted(random.Random(f"check:{label}:{seed}").sample(range(total), min(k, total)))


@lru_cache(maxsize=None)
def ref_pair(p, q, a, b, m: int) -> tuple[complex, complex]:
    """Reference (I_cos, I_sin), rounded to binary64."""
    c, s = ref.family(p, q, a, b, m)
    return complex(c), complex(s)


def ref_f(p: float, q: float, a: float, b: float, m: int) -> complex:
    """Reference f = I_cos + i I_sin for real coefficients."""
    c, s = ref_pair(p, q, a, b, m)
    return c + 1j * s


def grid_points(grid: Grid) -> list[tuple[float, float, float, float]]:
    """Grid points in the CLI's order: first axis outer, second inner, linspace values."""
    (v1, lo1, hi1, n1), (v2, lo2, hi2, n2) = grid.axes
    out = []
    for x in np.linspace(lo1, hi1, n1):
        for y in np.linspace(lo2, hi2, n2):
            pt = dict(grid.base)
            pt[v1] = float(x)
            pt[v2] = float(y)
            out.append((pt["p"], pt["q"], pt["a"], pt["b"]))
    return out


def _component(f: complex, kind: str) -> complex:
    if kind == "f":
        return f
    return complex(f.imag if kind == "sin" else f.real, 0.0)


def read_text(paths: dict) -> str:
    with open(paths["out"]) as fh:
        return fh.read()


# --- audit-grid ---------------------------------------------------------------

def audit_refs(seed: int, k: int, inv: Invocation) -> dict[int, complex]:
    pts = grid_points(inv.grid)
    sample = subsample(f"audit-{k}", seed, inv.count, AUDIT_SAMPLE_PER_GRID)
    return {i: ref_f(*pts[i], inv.grid.m) for i in sample}


def check_audit(inv: Invocation, text: str, refs: dict[int, complex]) -> set[int]:
    grid = inv.grid
    pts = grid_points(grid)
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = set(range(len(rows), len(pts)))  # missing rows
    if len(rows) > len(pts):
        failed.update(range(len(pts)))
    for i, row in enumerate(rows[:len(pts)]):
        try:
            ok = _audit_row_ok(grid, pts[i], row, refs.get(i))
        except (KeyError, ValueError, TypeError):
            ok = False
        if not ok:
            failed.add(i)
    return failed


def _cval(row: dict, col: str) -> complex:
    return complex(float(row[col + "_re"]), float(row[col + "_im"]))


def _audit_row_ok(grid: Grid, pt: tuple, row: dict, f_ref: complex | None) -> bool:
    p, q, a, b = pt
    if (float(row["p"]), float(row["q"]), float(row["a"]), float(row["b"]), int(row["m"])) \
            != (p, q, a, b, grid.m):
        return False
    if row["detail"].startswith("error:"):
        return False
    on_y_zero = a == -q and p == b
    if (row["verdict"] == "OriginalInapplicable") != on_y_zero:
        return False
    oracle = _cval(row, "oracle")
    improved = _cval(row, "improved")
    if not on_y_zero and row["boundary"] == "0" and abs(oracle) > ZERO_FLOOR:
        if (row["verdict"] == "SignFlip") != (row["flip_applies"] == "1"):
            return False
        if "unclassified" in row["detail"]:
            return False
    if f_ref is not None:
        want = _component(f_ref, grid.kind)
        if not (close(oracle, want, TOL_REAL) and close(improved, want, TOL_REAL)):
            return False
    return True


# --- scan-grid ----------------------------------------------------------------

def _a_q_zero(grid: Grid) -> bool:
    return grid.base["a"] == 0 and grid.base["q"] == 0 and {v for v, *_ in grid.axes} == {"p", "b"}


def scan_property_grid(grid: Grid) -> bool:
    """Grids judged row by row by a proven property rather than the reference:
    even m (no flip anywhere) and a = q = 0 with odd m (flip exactly where p < b)."""
    return grid.m % 2 == 0 or _a_q_zero(grid)


def scan_refs(seed: int, k: int, inv: Invocation) -> dict[int, tuple[complex, complex] | None]:
    """(reference value, reference original form) of f, or None near a branch cut."""
    grid = inv.grid
    if scan_property_grid(grid):
        return {}
    pts = grid_points(grid)
    out = {}
    for i in subsample(f"scan-{k}", seed, inv.count, SCAN_SAMPLE_PER_GRID):
        if ref.near_branch_cut(*pts[i]):
            out[i] = None
        else:
            out[i] = (ref_f(*pts[i], grid.m), complex(ref.original_f(*pts[i], grid.m)))
    return out


def check_scan(inv: Invocation, text: str, refs: dict) -> set[int]:
    grid = inv.grid
    pts = grid_points(grid)
    lines = text.splitlines()
    if not lines or lines[0] != "x,y,case1,case2,case3,overall,flip_applies":
        return set(range(len(pts)))
    rows = lines[1:]
    failed = set(range(len(rows), len(pts)))
    if len(rows) > len(pts):
        failed.update(range(len(pts)))
    (v1, *_), (v2, *_) = grid.axes
    names = ("p", "q", "a", "b")
    for i, line in enumerate(rows[:len(pts)]):
        try:
            ok = _scan_row_ok(grid, pts[i], line.split(","), (names.index(v1), names.index(v2)),
                              refs.get(i))
        except (ValueError, IndexError):
            ok = False
        if not ok:
            failed.add(i)
    return failed


def _scan_row_ok(grid: Grid, pt: tuple, cells: list[str], axes: tuple, pair) -> bool:
    if len(cells) != 7 or (float(cells[0]), float(cells[1])) != (pt[axes[0]], pt[axes[1]]):
        return False
    if cells[6] not in ("0", "1"):
        return False
    flip = cells[6] == "1"
    p, q, a, b = pt
    if grid.m % 2 == 0:
        return not flip
    if _a_q_zero(grid):
        return flip == (p < b)
    if pair is None:
        return True
    f_ref, orig_ref = pair
    if abs(f_ref) <= ZERO_FLOOR:
        return True
    agree = abs(orig_ref - f_ref) <= SIGN_RTOL * abs(f_ref)
    flipped = abs(orig_ref + f_ref) <= SIGN_RTOL * abs(f_ref)
    if agree == flipped:
        return False
    return flip == flipped


# --- closed-forms -------------------------------------------------------------

def closed_refs(seed: int, k: int, inv: Invocation) -> dict[int, tuple]:
    """Reference f (real points) or (I_cos, I_sin) (complex points) on a seeded subsample."""
    points = inv.points
    n_real = len(points["real"])
    out = {}
    for i in subsample("closed-real", seed, n_real, CLOSED_SAMPLE_REAL):
        out[i] = (ref_f(*points["real"][i]),)
    for j in subsample("closed-complex", seed, len(points["complex"]), CLOSED_SAMPLE_COMPLEX):
        pr, pi, qr, qi, ar, ai, br, bi, m = points["complex"][j]
        out[n_real + j] = ref_pair(complex(pr, pi), complex(qr, qi), complex(ar, ai), complex(br, bi), m)
    return out


def load_closed(paths: dict) -> list:
    with open(paths["values"]) as fh:
        return json.load(fh)


def _routes(row: list[float], names: tuple) -> dict:
    return {name: complex(row[2 * k], row[2 * k + 1]) for k, name in enumerate(names)}


def check_closed(inv: Invocation, values: list, refs: dict) -> set[int]:
    points = inv.points
    n_real = len(points["real"])
    total = n_real + len(points["complex"])
    if not isinstance(values, list) or len(values) != total:
        return set(range(total))
    failed = set()
    for i, row in enumerate(values):
        try:
            if i < n_real:
                ok = _closed_real_ok(points["real"][i], _routes(row, REAL_ROUTES), refs.get(i))
            else:
                ok = _closed_complex_ok(_routes(row, COMPLEX_ROUTES), refs.get(i))
        except (IndexError, TypeError):
            ok = False
        if not ok:
            failed.add(i)
    return failed


def _closed_real_ok(point: list, v: dict, want: tuple | None) -> bool:
    p, q, a, b, m = point
    # f = I_cos + i I_sin on every route that has an f form; the complex
    # route has none, so its pair is held against the improved f.
    for route in ("original", "improved"):
        if not close(v[route, "cos"] + 1j * v[route, "sin"], v[route, "f"], TOL_REAL):
            return False
    if not close(v["complex", "cos"] + 1j * v["complex", "sin"], v["improved", "f"], TOL_REAL):
        return False
    # The original equals (-1)^flip times the corrected, flip by the paper's condition.
    sign = -1.0 if ref.book_flip_condition(p, q, a, b, m) else 1.0
    for kind in ("sin", "cos"):
        if not close(v["original", kind], sign * v["corrected", kind], TOL_REAL):
            return False
    if want is not None:
        f = want[0]
        for route in ("improved", "corrected", "complex"):
            if not (close(v[route, "cos"], complex(f.real), TOL_REAL)
                    and close(v[route, "sin"], complex(f.imag), TOL_REAL)):
                return False
        if not close(v["improved", "f"], f, TOL_REAL):
            return False
    return True


def _closed_complex_ok(v: dict, want: tuple | None) -> bool:
    if want is None:
        return all(cmath.isfinite(z) for z in v.values())
    return close(v["complex", "cos"], want[0], TOL_COMPLEX) and close(v["complex", "sin"], want[1], TOL_COMPLEX)


# --- verify-sweep -------------------------------------------------------------
#
# The text of `exptrig verify` carries only verdicts, so the run loads a
# separate, untimed invocation of the same command line that also records
# the values the program computed (worker.Recorder): each catalog sample's
# closed form, and the evaluator and oracle values of every sweep sample.
# Its standard output must equal the timed rounds' byte for byte.

# The calls that make one sweep sample, in the order `exptrig verify` makes them.
SWEEP_CALLS = {
    "real": ("eval_improved_sin", "oracle_sin", "eval_improved_cos", "oracle_cos"),
    "complex": ("eval_complex_sin", "oracle_sin", "eval_complex_cos", "oracle_cos"),
}


def catalog_samples() -> list[tuple[str, tuple]]:
    from exptrig import catalog

    return [(entry.id, args) for entry in catalog.ENTRIES for args in entry.samples]


def sweep_samples(inv: Invocation) -> int:
    return int(inv.argv[inv.argv.index("--samples") + 1])


def verify_refs(seed: int, k: int, inv: Invocation) -> dict:
    """The catalog samples with their reference values, and which sweep
    samples are held to the reference (their parameters come from the run)."""
    samples = catalog_samples()
    n = sweep_samples(inv)
    return {"samples": samples,
            "values": [complex(ref.catalog_value(eid, args)) for eid, args in samples],
            "sweep": {kind: set(subsample(f"verify-{kind}", seed, n, SWEEP_SAMPLE))
                      for kind in SWEEP_CALLS}}


def _decode(x):
    """A recorded number: [re, im] back to complex; integers stay integers."""
    return complex(*x) if isinstance(x, list) else x


def load_verify(paths: dict) -> dict:
    with open(paths["capture"]) as fh:
        cap = json.load(fh)
    return {"text": read_text(paths),
            "catalog": [(eid, tuple(map(_decode, args)), _decode(v)) for eid, args, v in cap["catalog"]],
            "sweep": [(name, tuple(map(_decode, params)), _decode(v)) for name, params, v in cap["calls"]]}


def _is_complex(args: tuple) -> bool:
    return any(isinstance(x, complex) and x.imag != 0 for x in args)


def _sweep_sample_ok(calls: list, names: tuple, tol: tuple, against_ref: bool) -> bool:
    """One sample's four recorded calls: the right functions, one parameter
    point, and on the subsample every value equal to the reference."""
    if tuple(name for name, _, _ in calls) != names or len({params for _, params, _ in calls}) != 1:
        return False
    if not against_ref:
        return True
    c, s = ref_pair(*calls[0][1])
    return all(close(v, s if name.endswith("sin") else c, tol) for name, _, v in calls)


def check_verify(inv: Invocation, out: dict, want: dict) -> set[int]:
    samples = want["samples"]
    n_cat = len(samples)
    n = sweep_samples(inv)
    failed = set()
    status = {}
    sweeps = {}
    lines = out["text"].splitlines()
    for line in lines:
        cells = line.split()
        if len(cells) >= 2 and cells[0].startswith("GR-"):
            status[cells[0]] = cells[1]
        elif line.startswith("sweep "):
            kind = cells[1].rstrip(":")
            sweeps[kind] = cells[-1] == "ok" and f"n={n}" in cells
    recorded = out["catalog"]
    if len(recorded) != n_cat:
        failed.update(range(n_cat))
    for k, (eid, args) in enumerate(samples[:len(recorded)]):
        tol = TOL_COMPLEX if _is_complex(args) else TOL_REAL
        got_id, got_args, value = recorded[k]
        if status.get(eid) != "ok" or (got_id, got_args) != (eid, args) \
                or not close(value, want["values"][k], tol):
            failed.add(k)
    calls = out["sweep"]
    for s, (kind, names) in enumerate(SWEEP_CALLS.items()):
        offset = n_cat + s * n
        tol = TOL_REAL if kind == "real" else TOL_COMPLEX
        for i in range(n):
            group = calls[4 * (s * n + i):4 * (s * n + i + 1)]
            if len(calls) != 8 * n or not sweeps.get(kind, False) \
                    or not _sweep_sample_ok(group, names, tol, i in want["sweep"][kind]):
                failed.add(offset + i)
    if (not lines or lines[-1] != "PASS") and not failed:
        failed.update(range(n_cat + 2 * n))
    return failed


# --- dispatch -----------------------------------------------------------------

@dataclass(frozen=True)
class Checker:
    refs: Callable[[int, int, Invocation], object]  # (seed, index, invocation) -> reference data
    load: Callable[[dict], object]  # output file paths -> the output the check takes
    check: Callable[[Invocation, object, object], set[int]]  # -> failed operation indices
    capture: bool = False  # load from an untimed run that records the program's values


CHECKERS = {
    "audit-grid": Checker(audit_refs, read_text, check_audit),
    "scan-grid": Checker(scan_refs, read_text, check_scan),
    "closed-forms": Checker(closed_refs, load_closed, check_closed),
    "verify-sweep": Checker(verify_refs, load_verify, check_verify, capture=True),
}


def references(wl) -> list:
    """Reference data each invocation's check needs, one entry per invocation."""
    checker = CHECKERS[wl.name]
    return [checker.refs(wl.seed, k, inv) for k, inv in enumerate(wl.invocations)]


def check_outputs(wl, outputs: list, refs: list) -> list[set[int]]:
    """Failed operation indices of each invocation. An output of None (the
    invocation did not end cleanly) fails every point of its invocation."""
    checker = CHECKERS[wl.name]
    return [set(range(inv.count)) if out is None else checker.check(inv, out, want)
            for inv, out, want in zip(wl.invocations, outputs, refs)]
