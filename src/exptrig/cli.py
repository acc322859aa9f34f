"""Command-line front end.

Subcommands: eval (one closed-form or oracle evaluation), audit
(original-vs-oracle comparison with the sign-error report, JSON lines
or CSV), scan (2-D predicate grid, CSV or JSON lines), verify (catalog
+ random oracle cross-checks), list (catalog contents).

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain or
convergence refusal. Output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Iterator

import click
import numpy as np

from . import catalog as cat
from .conditions import SignErrorReport, build_reports, sign_verdict
from .errors import ConvergenceError, DomainError
from .formulas import (
    eval_complex_cos,
    eval_complex_f,
    eval_complex_sin,
    eval_corrected_original_cos,
    eval_corrected_original_f,
    eval_corrected_original_sin,
    eval_f_bessel,
    eval_f_hyp,
    eval_f_lanes,
    eval_improved_cos,
    eval_improved_sin,
    eval_original_cos,
    eval_original_sin,
    fill_terms,
)
from .params import ComplexParams, RealParams
from .quadrature import fill_passes, oracle_cos, oracle_f, oracle_f_lanes, oracle_sin

BOUNDARY_EPS = 1e-12
# Grid points per chunk that scan and audit evaluate and write at once
# (whole rows of the outer axis, at least one row): memory stays flat as
# the grid grows.
CHUNK_POINTS = 4096
# Samples per chunk that verify draws and fills as lanes at once.
SWEEP_CHUNK = 256
SWEEP_ATOL_REAL = 1e-12
SWEEP_ATOL_COMPLEX = 1e-11


def _parse_param(text: str) -> complex:
    """Accept 're' or 're+imi' (e.g. -2, 1.5, -1+0.5i, 3i)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        z = complex(cleaned)
    except ValueError:
        raise click.BadParameter(f"cannot parse {text!r}; expected 're' or 're+imi'")
    if not cmath.isfinite(z):
        raise click.BadParameter(f"parameter {text!r} is not finite")
    return z


class ParamType(click.ParamType):
    name = "number"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        return _parse_param(str(value))


PARAM = ParamType()


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _require_real(values: dict[str, complex], method: str) -> RealParams:
    for name, z in values.items():
        if name != "m" and z.imag != 0:
            raise click.UsageError(
                f"method '{method}' needs real parameters but {name} = {z}; use --method complex"
            )
    return RealParams(values["p"].real, values["q"].real, values["a"].real,
                      values["b"].real, values["m"])


def _tolerance(ctx, param, value: float) -> float:
    # A NaN tolerance would pass every check, since each comparison with it is False.
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"must be finite and >= 0, got {value!r}")
    return value


def _param_options(fn):
    for name in ("b", "a", "q", "p"):
        fn = click.option(f"-{name}", name, type=PARAM, default="0", show_default=True,
                          help=f"coefficient {name}, 're' or 're+imi'")(fn)
    return click.option("-m", "m", type=click.IntRange(min=0), default=0, show_default=True,
                        help="harmonic index")(fn)


@click.group()
@click.version_option(package_name="exptrig")
def main() -> None:
    """Evaluate exp(p cos x + q sin x) {sin,cos}(a cos x + b sin x - mx) integrals,
    audit the original closed forms for sign errors, and verify the catalog."""


def _route(method: str, kind: str):
    """The evaluator behind (method, kind). "complex" and "oracle" take
    ComplexParams, the other methods RealParams.

    The table is built on each call, from the module's current bindings,
    so that a caller who rebinds an evaluator here is seen.
    """
    return {
        ("original", "sin"): eval_original_sin,
        ("original", "cos"): eval_original_cos,
        ("original", "f"): eval_f_bessel,
        ("corrected", "sin"): eval_corrected_original_sin,
        ("corrected", "cos"): eval_corrected_original_cos,
        ("corrected", "f"): eval_corrected_original_f,
        ("improved", "sin"): eval_improved_sin,
        ("improved", "cos"): eval_improved_cos,
        ("improved", "f"): eval_f_hyp,
        ("complex", "sin"): eval_complex_sin,
        ("complex", "cos"): eval_complex_cos,
        ("complex", "f"): eval_complex_f,
        ("oracle", "sin"): oracle_sin,
        ("oracle", "cos"): oracle_cos,
        ("oracle", "f"): oracle_f,
    }[method, kind]


@main.command("eval")
@click.option("--kind", type=click.Choice(["sin", "cos", "f"]), required=True)
@click.option("--method", type=click.Choice(["original", "corrected", "improved", "complex", "oracle"]),
              required=True)
@_param_options
def cmd_eval(kind: str, method: str, p: complex, q: complex, a: complex, b: complex, m: int) -> None:
    """Evaluate one integral; prints a single JSON object."""
    if method in ("complex", "oracle"):
        params = ComplexParams(p, q, a, b, m)
    else:
        params = _require_real({"p": p, "q": q, "a": a, "b": b, "m": m}, method)
    try:
        res = _route(method, kind)(params)
    except (DomainError, ConvergenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if method == "oracle":
        click.echo(_dump({
            "kind": kind,
            "method": "oracle",
            "value": _cjson(res.value),
            "error_estimate": res.error_estimate,
            "evaluations": res.evaluations,
        }))
    else:
        click.echo(_dump({
            "kind": kind,
            "method": res.method.value,
            "value": _cjson(res.value),
            "terms_used": res.terms_used,
            "truncation_estimate": res.truncation_estimate,
        }))


def _parse_grid(text: str) -> list[tuple[str, np.ndarray]]:
    axes: list[tuple[str, np.ndarray]] = []
    for chunk in text.split(","):
        try:
            var, spec = chunk.split("=")
            lo_s, hi_s, n_s = spec.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise click.BadParameter(f"bad grid chunk {chunk!r}; expected var=lo:hi:count")
        var = var.strip()
        if var not in "pqab":
            raise click.BadParameter(f"grid variable must be one of p,q,a,b, got {var!r}")
        if n < 1:
            raise click.BadParameter("grid count must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise click.BadParameter(f"grid bounds must be finite, got {chunk!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linspace(lo, hi, n)
        if not np.isfinite(vals).all():
            raise click.BadParameter(f"grid {chunk!r} overflows to non-finite values")
        axes.append((var, vals))
    if not axes or len(axes) > 2:
        raise click.BadParameter(f"grid needs 1..2 axes, got {len(axes)}")
    if len({v for v, _ in axes}) != len(axes):
        raise click.BadParameter("grid variables must be distinct")
    return axes


def _grid_chunks(base: dict[str, float], axes: list[tuple[str, np.ndarray]]
                 ) -> Iterator[tuple[range, dict[str, np.ndarray]]]:
    """The grid over 0, 1 or 2 axes in row-major order, in chunks.

    Each chunk is (rows, coefficients): the outer-axis indices it covers
    and an array of each of p, q, a, b over its points. A chunk is as
    many whole rows as fit in CHUNK_POINTS, and at least one.
    """
    n_outer = len(axes[0][1]) if axes else 1
    n_inner = len(axes[1][1]) if len(axes) == 2 else 1
    step = max(1, CHUNK_POINTS // n_inner)
    for start in range(0, n_outer, step):
        rows = range(start, min(start + step, n_outer))
        coeffs = {v: np.full(len(rows) * n_inner, base[v]) for v in "pqab"}
        if axes:
            coeffs[axes[0][0]] = np.repeat(axes[0][1][rows.start:rows.stop], n_inner)
        if len(axes) == 2:
            coeffs[axes[1][0]] = np.tile(axes[1][1], len(rows))
        yield rows, coeffs


@dataclass
class AuditRecord:
    """One audited point: parameter echo (p, q, a, b, m), predicate report,
    three values, and the original-vs-oracle verdict."""

    params: tuple[float, float, float, float, int]
    report: SignErrorReport
    boundary: bool
    original: complex | None = None
    improved: complex | None = None
    oracle: complex | None = None
    abs_discrepancy: float | None = None
    verdict: str | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "params": dict(zip("pqabm", self.params)),
            "report": dict(vars(self.report)),
            "boundary": self.boundary,
            "original": None if self.original is None else _cjson(self.original),
            "improved": None if self.improved is None else _cjson(self.improved),
            "oracle": None if self.oracle is None else _cjson(self.oracle),
            "abs_discrepancy": self.abs_discrepancy,
            "verdict": self.verdict,
            "detail": self.detail,
        }

    CSV_HEADER = ("p,q,a,b,m,case1,case2,case3,k_constant,overall,flip_applies,"
                  "y_is_zero,boundary,original_re,original_im,improved_re,improved_im,"
                  "oracle_re,oracle_im,abs_discrepancy,verdict,detail")

    def to_csv_row(self) -> str:
        def num(v):
            return "" if v is None else repr(v)

        def pair(z):
            return ("", "") if z is None else (repr(z.real), repr(z.imag))

        o_re, o_im = pair(self.original)
        i_re, i_im = pair(self.improved)
        r_re, r_im = pair(self.oracle)
        detail = (self.detail or "").replace(",", ";")
        *coeffs, m = self.params
        cells = [*map(repr, coeffs), str(m),
                 f"{self.report.case1:d}", f"{self.report.case2:d}", f"{self.report.case3:d}",
                 repr(self.report.k_constant), f"{self.report.overall:d}",
                 f"{self.report.flip_applies:d}", f"{self.report.y_is_zero:d}",
                 f"{self.boundary:d}", o_re, o_im, i_re, i_im, r_re, r_im,
                 num(self.abs_discrepancy), self.verdict or "", detail]
        return ",".join(cells)


def _judge(rec: AuditRecord, tol: float) -> AuditRecord:
    """The verdict rule: fill in rec's discrepancy, verdict and detail from
    its improved, oracle and (unless Y = 0) original values."""
    if rec.report.y_is_zero:
        rec.abs_discrepancy = abs(rec.improved - rec.oracle)
        rec.verdict = "OriginalInapplicable"
        return rec
    original, oracle = rec.original, rec.oracle
    rec.abs_discrepancy = abs(original - oracle)
    tol_abs = max(tol * max(abs(original), abs(oracle)), 1e-11)
    rec.verdict, unobservable, unclassified = sign_verdict(original, oracle, tol_abs)
    if unobservable and rec.report.flip_applies:
        rec.detail = "component is zero; predicted flip unobservable"
    elif unclassified:
        rec.detail = "unclassified discrepancy; neither match within tolerance"
    return rec


def _audit_point(rp: RealParams, report: SignErrorReport, boundary: bool,
                 kind: str, tol: float) -> AuditRecord:
    """One point through the scalar routes. A refusal by any route is
    recorded in detail, with the values computed before it and no verdict."""
    rec = AuditRecord(params=(rp.p, rp.q, rp.a, rp.b, rp.m), report=report, boundary=boundary)
    try:
        rec.improved = _route("improved", kind)(rp).value
        rec.oracle = _route("oracle", kind)(rp).value
        if not report.y_is_zero:
            rec.original = _route("original", kind)(rp).value
    except (DomainError, ConvergenceError) as exc:
        rec.detail = f"error: {exc}"
        return rec
    return _judge(rec, tol)


def _component(lanes, kind: str) -> list[complex]:
    """Each lane's f, or its sin (Im f) or cos (Re f) component as a real complex."""
    z = np.zeros(len(lanes.re), dtype=complex)
    if kind == "f":
        z.real, z.imag = lanes.re, lanes.im
    else:
        z.real = lanes.im if kind == "sin" else lanes.re
    return z.tolist()


def _audit_chunk(c: dict[str, np.ndarray], m: int, kind: str, tol: float) -> Iterator[AuditRecord]:
    """The records of one chunk of coefficient arrays. The predicates and
    every route run over all its lanes at once; a lane that any route
    refuses goes through _audit_point, which records the refusal."""
    p, q, a, b = (c[v] for v in "pqab")
    batch = build_reports(p, q, a, b, m)
    boundary = np.abs(p + b * batch.k_constant) < BOUNDARY_EPS * np.maximum(1.0, np.abs(p))
    # Python bool and float, as build_report gives: json rejects
    # np.bool_, and repr(np.float64) is not repr(float) under numpy 2.
    reports = map(SignErrorReport, *(getattr(batch, f.name).tolist() for f in fields(batch)))
    (improved, original), oracle = eval_f_lanes(p, q, a, b, m), oracle_f_lanes(p, q, a, b, m)
    # The original formulas are inapplicable at Y = 0, where no verdict needs them.
    ok = improved.ok & oracle.ok & (original.ok | batch.y_is_zero)
    points = zip(*(x.tolist() for x in (p, q, a, b)), itertools.repeat(m))
    lanes = zip(points, reports, boundary.tolist(), ok.tolist(), _component(original, kind),
                _component(improved, kind), _component(oracle, kind))
    for pt, report, bnd, lane_ok, orig, imp, orc in lanes:
        if lane_ok:
            orig = None if report.y_is_zero else orig
            yield _judge(AuditRecord(pt, report, bnd, orig, imp, orc), tol)
        else:
            yield _audit_point(RealParams(*pt), report, bnd, kind, tol)


@main.command("audit")
@click.option("--kind", type=click.Choice(["sin", "cos", "f"]), default="f", show_default=True)
@click.option("--grid", "grid_spec", type=str, default=None,
              help="sweep 1 or 2 of p,q,a,b: 'p=-3:3:61,b=-3:3:61'")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance,
              help="relative tolerance for the verdict comparison")
@click.option("--json/--csv", "as_json", default=True,
              help="JSON lines (default) or flat CSV")
@_param_options
def cmd_audit(kind: str, grid_spec: str | None, tol: float, as_json: bool,
              p: complex, q: complex, a: complex, b: complex, m: int) -> None:
    """Compare the original formulas against the oracle, point by point."""
    values = {"p": p, "q": q, "a": a, "b": b, "m": m}
    rp = _require_real(values, "audit")
    base = {"p": rp.p, "q": rp.q, "a": rp.a, "b": rp.b}
    axes = _parse_grid(grid_spec) if grid_spec else []
    if not as_json:
        click.echo(AuditRecord.CSV_HEADER)
    for _, c in _grid_chunks(base, axes):
        click.echo("\n".join(_dump(rec.to_json_dict()) if as_json else rec.to_csv_row()
                              for rec in _audit_chunk(c, m, kind, tol)))


@main.command("scan")
@click.option("--grid", "grid_spec", type=str, required=True,
              help="exactly two of p,q,a,b: 'p=-3:3:61,b=-3:3:61'")
@click.option("--csv/--json", "as_csv", default=True,
              help="CSV (default) or JSON lines")
@_param_options
def cmd_scan(grid_spec: str, as_csv: bool,
             p: complex, q: complex, a: complex, b: complex, m: int) -> None:
    """Predicate scan over a 2-D parameter grid."""
    values = {"p": p, "q": q, "a": a, "b": b, "m": m}
    rp = _require_real(values, "scan")
    axes = _parse_grid(grid_spec)
    if len(axes) != 2:
        raise click.UsageError("scan needs exactly two grid variables")
    base = {"p": rp.p, "q": rp.q, "a": rp.a, "b": rp.b}
    # A row is the two axis values, each repr'd once, then one of 32 flag
    # suffixes, indexed by a code whose bits are the five flags in order.
    flags = ("case1", "case2", "case3", "overall", "flip_applies")
    flag_sets = list(itertools.product((False, True), repeat=len(flags)))
    if as_csv:
        click.echo("x,y," + ",".join(flags))
        xs = [repr(x) + "," for x in axes[0][1].tolist()]
        ys = [repr(y) for y in axes[1][1].tolist()]
        suffixes = ["".join(f",{bit:d}" for bit in bits) + "\n" for bits in flag_sets]
    else:
        xs = ['{"x":' + repr(x) for x in axes[0][1].tolist()]
        ys = [',"y":' + repr(y) for y in axes[1][1].tolist()]
        suffixes = ["," + _dump(dict(zip(flags, bits)))[1:] + "\n" for bits in flag_sets]
    for rows, c in _grid_chunks(base, axes):
        batch = build_reports(c["p"], c["q"], c["a"], c["b"], m)
        codes = np.zeros(len(c["p"]), dtype=np.intp)
        for name in flags:
            codes = 2 * codes + getattr(batch, name)
        cells = (xs[i] + y for i in rows for y in ys)
        click.echo("".join([cell + suffixes[k] for cell, k in zip(cells, codes.tolist())]), nl=False)


def _sweep(rng: np.random.Generator, samples: int, rtol: float, domain: str) -> tuple[float, list[str]]:
    """Random points of the "real" (improved routes, coefficients in [-5, 5],
    m <= 8) or "complex" domain (complex routes, in [-3, 3], m <= 6). Each
    calls sin, oracle sin, cos, oracle cos through this module's bindings.

    Points are drawn SWEEP_CHUNK at a time, and each chunk's series and
    oracle passes are filled as lanes first, so those calls read them."""
    real = domain == "real"
    routes = [(kind, _route("improved" if real else "complex", kind), _route("oracle", kind))
              for kind in ("sin", "cos")]
    atol = SWEEP_ATOL_REAL if real else SWEEP_ATOL_COMPLEX
    worst = 0.0
    offenders: list[str] = []
    for start in range(0, samples, SWEEP_CHUNK):
        chunk = []
        for _ in range(min(SWEEP_CHUNK, samples - start)):
            if real:
                vals = rng.uniform(-5.0, 5.0, size=4).tolist()
                chunk.append(RealParams(*vals, int(rng.integers(0, 9))))
            else:
                vals = rng.uniform(-3.0, 3.0, size=8).tolist()
                chunk.append(ComplexParams(*map(complex, vals[0::2], vals[1::2]), int(rng.integers(0, 7))))
        fill_terms(chunk)
        fill_passes(chunk)
        for i, params in enumerate(chunk, start):
            for kind, ev, orc in routes:
                v = ev(params).value
                o = orc(params).value
                margin = abs(v - o) / max(rtol * abs(o), atol)
                worst = max(worst, margin)
                if margin > 1.0:
                    at = (f"p={params.p:.6g} q={params.q:.6g} a={params.a:.6g} b={params.b:.6g} "
                          if real else "")
                    offenders.append(f"{domain} sample {i} {kind} {at}m={params.m}: margin {margin:.3g}")
    return worst, offenders


@main.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=200, show_default=True,
              help="random oracle cross-check points")
@click.option("--tol", type=float, default=1e-10, show_default=True, callback=_tolerance,
              help="catalog and real-sweep relative tolerance; the complex sweep uses 10x this")
@click.option("--complex", "do_complex", is_flag=True, help="add a complex-parameter sweep")
@click.option("--entry", "entry_id", type=str, default=None,
              help="restrict the catalog stage to one entry id")
@click.option("--p-negative", "p_negative", is_flag=True,
              help="expected-failure mode for faithful-original entries (all of them "
                   "unless --entry names one): verify the predicted sign flips on p < 0 samples")
def cmd_verify(seed: int, samples: int, tol: float, do_complex: bool,
               entry_id: str | None, p_negative: bool) -> None:
    """Verify catalog entries and random points against the oracle."""
    failures: list[str] = []
    try:
        entries = [cat.get_entry(entry_id)] if entry_id else list(cat.ENTRIES)
    except KeyError as exc:
        raise click.UsageError(str(exc))

    if p_negative:
        originals = [e for e in entries if e.flip_law is not None]
        if entry_id and not originals:
            raise click.UsageError(f"{entry_id} is not a faithful-original entry; "
                                   "--p-negative applies to *-original entries")
        for entry in originals:
            findings, bad = cat.check_expected_flips(entry, tol=tol)
            click.echo(f"{entry.id}: expected-failure audit, {len(findings)} findings")
            for line in findings:
                click.echo(f"  {line}")
            failures.extend(bad)
    else:
        click.echo("catalog:")
        for entry in entries:
            res = cat.check_entry(entry, tol=tol)
            status = "ok" if not res.failures else "FAIL"
            click.echo(f"  {entry.id:22s} {status:4s} checks={res.checks:<3d} "
                       f"max_err_eval={res.max_err_eval:.3e} max_err_oracle={res.max_err_oracle:.3e}")
            failures.extend(res.failures)

        if entry_id is None and samples > 0:
            rng = np.random.default_rng(seed)
            sweeps = [("real", tol), ("complex", 10 * tol)] if do_complex else [("real", tol)]
            for domain, rtol in sweeps:
                worst, bad = _sweep(rng, samples, rtol, domain)
                failures.extend(bad)
                click.echo(f"sweep {domain}: n={samples} seed={seed} worst_margin={worst:.3e} "
                           f"{'ok' if not bad else 'FAIL'}")

    if failures:
        click.echo(f"FAIL: {len(failures)} checks out of tolerance")
        for line in failures:
            click.echo(f"  {line}")
        sys.exit(1)
    click.echo("PASS")


@main.command("list")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cmd_list(as_json: bool) -> None:
    """List the catalog entries."""
    for entry in cat.ENTRIES:
        if as_json:
            click.echo(_dump({
                "id": entry.id,
                "args": entry.arg_doc,
                "corrected": entry.corrected,
                "restriction": entry.original_restriction,
                "description": entry.description,
            }))
        else:
            click.echo(cat.describe_entry(entry))


if __name__ == "__main__":
    main()
