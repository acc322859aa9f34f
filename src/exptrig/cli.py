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
import functools
import itertools
import json
import math
import random
import re
import sys
from typing import Iterable, Iterator

import click
import numpy as np

from . import catalog as cat
from .conditions import build_reports, sign_verdict
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
    eval_lanes,
    eval_improved_cos,
    eval_improved_sin,
    eval_original_cos,
    eval_original_sin,
    fill_terms,
)
from .params import ComplexParams, RealParams
from .quadrature import N_MAX, fill_passes, oracle_cos, oracle_f, oracle_lanes, oracle_sin, refuses_every_point

BOUNDARY_EPS = 1e-12
# Grid points per chunk that scan and audit evaluate and write at once
# (a flat range in row-major order, which may end or start mid-row), and
# samples per chunk that verify draws and fills as lanes at once: memory
# stays flat as the grid, its rows or the sample count grow.
CHUNK_POINTS = 4096
SWEEP_ATOL_REAL = 1e-12
SWEEP_ATOL_COMPLEX = 1e-11


def _parse_param(text: str) -> complex:
    """Accept 're' or 're+imi' (e.g. -2, 1.5, -1+0.5i, 3i)."""
    cleaned = re.sub("[iI]$", "j", text.strip().replace(" ", ""))  # "inf" keeps its i
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


def _refuse(exc: DomainError | ConvergenceError) -> None:
    """Report a typed refusal on stderr and exit 3."""
    click.echo(f"error: {exc}", err=True)
    sys.exit(3)


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


class _Command(click.Command):
    """A click command whose parser takes a token that is exactly one of
    its short options, such as -p, straight to click's short-option match.

    click tries every option token as a long option first, and each miss
    raises NoSuchOption, which imports difflib and looks for close long
    options: about half of a one-point audit's parse. Every other token
    (-p0.5, -p=0.5, -x, --kind) takes click's own path, and so does every
    token where the parser lacks the private attributes used here."""

    def make_parser(self, ctx: click.Context):
        parser = super().make_parser(ctx)
        short = getattr(parser, "_short_opt", None)
        match_short = getattr(parser, "_match_short_opt", None)
        process = getattr(parser, "_process_opts", None)
        if isinstance(short, dict) and callable(match_short) and callable(process) \
                and ctx.token_normalize_func is None:
            def process_opts(arg, state):
                (match_short if arg in short else process)(arg, state)

            parser._process_opts = process_opts
        return parser


main.command_class = _Command


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
        _refuse(exc)
    # res.route is the closed form's Method, a str, or "oracle".
    click.echo(_dump({"kind": kind, "method": res.route, "value": _cjson(res.value), "bound": res.bound,
                      "count": res.count}))


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
        if var not in ("p", "q", "a", "b"):
            raise click.BadParameter(f"grid variable must be one of p,q,a,b, got {var!r}")
        if n < 1:
            raise click.BadParameter("grid count must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise click.BadParameter(f"grid bounds must be finite, got {chunk!r}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.linspace(lo, hi, n)
        except (ValueError, MemoryError):
            raise click.BadParameter(f"grid count {n} is too large")
        if not np.isfinite(vals).all():
            raise click.BadParameter(f"grid {chunk!r} overflows to non-finite values")
        axes.append((var, vals))
    if not axes or len(axes) > 2:
        raise click.BadParameter(f"grid needs 1..2 axes, got {len(axes)}")
    if len({v for v, _ in axes}) != len(axes):
        raise click.BadParameter("grid variables must be distinct")
    return axes


def _grid_chunks(base: dict[str, float], axes: list[tuple[str, np.ndarray]]
                 ) -> Iterator[tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]]:
    """The grid over 0, 1 or 2 axes in row-major order, in chunks.

    Each chunk is (index, coefficients): one array per axis of each
    point's index along it, and an array of each of p, q, a, b over its
    points. A chunk is a flat range of at most CHUNK_POINTS points, so a
    long row spans several chunks.
    """
    shape = tuple(len(vals) for _, vals in axes)
    total = math.prod(shape)
    for start in range(0, total, CHUNK_POINTS):
        flat = np.arange(start, min(start + CHUNK_POINTS, total))
        index = np.unravel_index(flat, shape) if axes else ()  # no axes: one point; unravel_index refuses ()
        coeffs = {v: np.full(len(flat), base[v]) for v in "pqab"}
        for (var, vals), i in zip(axes, index):
            coeffs[var] = vals[i]
        yield index, coeffs


UNOBSERVABLE = "component is zero; predicted flip unobservable"
UNCLASSIFIED = "unclassified discrepancy; neither match within tolerance"


def _audit_chunk(c: dict[str, np.ndarray], m: int, kind: str, tol: float) -> dict:
    """One chunk's audit records as one dict of columns in output order, an
    entry per point (m is one int for all), whose keys are the JSON keys.
    params and report are groups of columns. original, improved, oracle and
    abs_discrepancy are (values, shown) pairs, shown False where absent: not
    the original at Y = 0, and no value from a refusing route on. verdict
    and detail are None where absent; a point without a verdict has its
    refusal in detail. Every route runs over all lanes at once, read in the
    scalar order, improved, oracle, then original (inapplicable at Y = 0,
    where no verdict needs it): a lane has the values of the routes before
    its first refusal."""
    p, q, a, b = (c[v] for v in "pqab")
    report = build_reports(p, q, a, b, m)
    y_is_zero = report.y_is_zero
    with np.errstate(over="ignore", invalid="ignore"):
        boundary = np.abs(p + b * report.k_constant) < BOUNDARY_EPS * np.maximum(1.0, np.abs(p))
    (improved, original), oracle = eval_lanes(p, q, a, b, m, kind), oracle_lanes(p, q, a, b, m, kind)
    reached = improved.ok & oracle.ok
    ok = reached & (original.ok | y_is_zero)
    computed = [reached & original.ok & ~y_is_zero, improved.ok, reached]
    orig, imp, orc = np.where(computed, [lanes.value for lanes in (original, improved, oracle)], 0.0)
    detail = np.full(len(p), None, dtype=object)
    for i in np.flatnonzero(~ok).tolist():
        detail[i] = f"error: {improved.error[i] or oracle.error[i] or original.error[i]}"
    with np.errstate(over="ignore", invalid="ignore"):
        tol_abs = np.maximum(tol * np.maximum(np.hypot(orig.real, orig.imag), np.hypot(orc.real, orc.imag)),
                             1e-11)
        miss = np.where(y_is_zero, imp, orig) - orc
        discrepancy = np.hypot(miss.real, miss.imag)
    verdict, unobservable = sign_verdict(orig, orc, tol_abs)
    applicable = ok & ~y_is_zero
    detail[applicable & (verdict == "Undecided")] = UNCLASSIFIED
    detail[applicable & unobservable & report.flip_applies] = UNOBSERVABLE
    return {
        "params": {**c, "m": m},
        "report": vars(report),
        "boundary": boundary,
        "original": (orig, computed[0]), "improved": (imp, computed[1]), "oracle": (orc, computed[2]),
        "abs_discrepancy": (discrepancy, ok),
        "verdict": np.where(ok, np.where(y_is_zero, "OriginalInapplicable", verdict), None),
        "detail": detail,
    }


def _reprs(x: np.ndarray, shown: np.ndarray | None = None) -> list[str]:
    """repr of each float of x, or "" where shown is False. Each repr is
    taken once per distinct bit pattern: the int64 view keeps -0.0 and
    0.0 apart."""
    bits, where = np.unique(np.asarray(x, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)[where]
    if shown is not None:
        texts[~shown] = ""
    return texts.tolist()


def _csv_columns(record: dict) -> Iterator[tuple[str, Iterable[str]]]:
    """The CSV columns of an audit record as (header, cells): a group gives
    its columns in turn, a complex column name_re and name_im, a flag 0 or
    1, a float its repr (see _reprs), a text "" for None and ";" for ","."""
    for name, col in record.items():
        values, shown = col if isinstance(col, tuple) else (col, None)
        if isinstance(values, dict):
            yield from _csv_columns(values)
        elif isinstance(values, int):
            yield name, itertools.repeat(str(values))
        elif values.dtype == bool:
            yield name, np.where(values, "1", "0").tolist()
        elif values.dtype == object:
            yield name, ["" if v is None else v.replace(",", ";") for v in values.tolist()]
        elif values.dtype.kind == "c":
            yield f"{name}_re", _reprs(values.real, shown)
            yield f"{name}_im", _reprs(values.imag, shown)
        else:
            yield name, _reprs(values, shown)


def _json_records(record: dict) -> Iterator[dict]:
    """Each point's dict of an audit record, or of one of its groups, made
    as it is read: a complex value is {"re", "im"}, and a value not shown
    is None."""
    cells = []
    for col in record.values():
        if isinstance(col, dict):
            cells.append(_json_records(col))
        elif isinstance(col, int):
            cells.append(itertools.repeat(col))
        elif isinstance(col, tuple):
            values, shown = col
            convert = _cjson if values.dtype.kind == "c" else float
            cells.append([convert(v) if s else None for v, s in zip(values.tolist(), shown.tolist())])
        else:
            cells.append(col.tolist())
    return (dict(zip(record, row)) for row in zip(*cells))


def _audit_text(record: dict, as_json: bool, header: bool) -> str:
    """One chunk's text: a JSON line per point, the record nested, or a CSV
    row per point, the record flattened, after the header line if asked."""
    if as_json:
        return "\n".join([_dump(rec) for rec in _json_records(record)])
    names, cells = zip(*_csv_columns(record))
    rows = [",".join(names)] if header else []
    rows += map(",".join, zip(*cells))
    return "\n".join(rows)


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
    rp = _require_real({"p": p, "q": q, "a": a, "b": b, "m": m}, "audit")
    base = {"p": rp.p, "q": rp.q, "a": rp.a, "b": rp.b}
    axes = _parse_grid(grid_spec) if grid_spec else []
    if refuses_every_point(m):
        # Every row would hold the oracle's refusal, so refuse once (exit 3).
        # This also keeps m below int64, the type the lanes hold it in.
        _refuse(DomainError(f"m = {m} needs more than N_MAX = {N_MAX} trapezoid nodes at every point"))
    for i, (_, c) in enumerate(_grid_chunks(base, axes)):
        click.echo(_audit_text(_audit_chunk(c, m, kind, tol), as_json, header=i == 0))


@main.command("scan")
@click.option("--grid", "grid_spec", type=str, required=True,
              help="exactly two of p,q,a,b: 'p=-3:3:61,b=-3:3:61'")
@click.option("--csv/--json", "as_csv", default=True,
              help="CSV (default) or JSON lines")
@_param_options
def cmd_scan(grid_spec: str, as_csv: bool,
             p: complex, q: complex, a: complex, b: complex, m: int) -> None:
    """Predicate scan over a 2-D parameter grid."""
    rp = _require_real({"p": p, "q": q, "a": a, "b": b, "m": m}, "scan")
    axes = _parse_grid(grid_spec)
    if len(axes) != 2:
        raise click.UsageError("scan needs exactly two grid variables")
    base = {"p": rp.p, "q": rp.q, "a": rp.a, "b": rp.b}
    # A row is the x text, the y text, then one of 32 flag suffixes, indexed
    # by a code whose bits are the five flags in order.
    flags = ("case1", "case2", "case3", "overall", "flip_applies")
    flag_sets = list(itertools.product((False, True), repeat=len(flags)))
    if as_csv:
        click.echo("x,y," + ",".join(flags))
        affixes = (("", ","), ("", ""))
        suffixes = ["".join(f",{bit:d}" for bit in bits) + "\n" for bits in flag_sets]
    else:
        affixes = (('{"x":', ',"y":'), ("", ""))
        suffixes = ["," + _dump(dict(zip(flags, bits)))[1:] + "\n" for bits in flag_sets]
    suffixes = np.array(suffixes, dtype=object)

    def run_texts(axis: int, first: int, width: int) -> np.ndarray:
        """head + repr(v) + tail of the width values of an axis from index
        first on, wrapping past its end, as an object array. A run holds
        each index once, so unlike _reprs it has no repeats to skip."""
        (_, vals), (head, tail) = axes[axis], affixes[axis]
        run = np.take(vals, first + np.arange(width), mode="wrap")
        return np.array([f"{head}{v!r}{tail}" for v in run.tolist()], dtype=object)

    @functools.cache
    def whole(axis: int) -> np.ndarray:
        return run_texts(axis, 0, len(axes[axis][1]))

    def texts(axis: int, at: np.ndarray) -> np.ndarray:
        """The text of each point of a chunk along an axis. The chunk's
        indices along it are a run of consecutive ones that may wrap past
        its end. A run over the whole axis, as the inner one is in chunks
        of short rows, takes the texts made for it once; a shorter run's
        texts are made for its chunk."""
        n = len(axes[axis][1])
        offset = at - at[0]
        offset[offset < 0] += n
        width = int(offset.max()) + 1
        if width == n:
            return whole(axis)[at]
        return run_texts(axis, int(at[0]), width)[offset]

    for index, c in _grid_chunks(base, axes):
        batch = build_reports(c["p"], c["q"], c["a"], c["b"], m)
        codes = np.zeros(len(c["p"]), dtype=np.uint8)
        for name in flags:
            codes = 2 * codes + getattr(batch, name)
        cells = np.stack([texts(0, index[0]), texts(1, index[1]), suffixes[codes]], axis=1)
        # color=True: the rows hold no ANSI styles, so click need not scan them for any to strip.
        click.echo("".join(cells.ravel().tolist()), nl=False, color=True)
        del cells  # the chunk's texts go before the next chunk is built


def _coefficient(x: float | complex) -> str:
    """x as eval's -p, -q, -a and -b read it back bit for bit: the repr of a
    float, or 're+imi' of a complex from the reprs of its parts."""
    if isinstance(x, float):
        return repr(x)
    return f"{x.real!r}{'+' if math.copysign(1.0, x.imag) > 0 else ''}{x.imag!r}i"


def _sweep(rng: random.Random, samples: int, rtol: float, domain: str) -> tuple[float, int, list[str]]:
    """Random points of the "real" (improved routes, coefficients in [-5, 5],
    m <= 8) or "complex" domain (complex routes, in [-3, 3], m <= 6). Each
    calls sin, oracle sin, cos, oracle cos through this module's bindings.

    A real sample draws p, q, a, b as rng.uniform(-5.0, 5.0), then m as
    rng.randrange(9); a complex one draws the re and im of p, q, a, b in
    turn as rng.uniform(-3.0, 3.0), then m as rng.randrange(7).

    A comparison whose miss |v - o| is past max(rtol |o|, atol) is an
    offender only if the miss is also past that plus both results' bounds;
    within them it is undecided: the route or the oracle may be the one off.
    Returns the worst miss over max(rtol |o|, atol), the undecided count and
    the offender lines, each naming its point as eval reads it.

    Points are drawn CHUNK_POINTS at a time, and each chunk's series and
    oracle passes are filled as lanes first, so those calls read them."""
    real = domain == "real"
    routes = [(kind, _route("improved" if real else "complex", kind), _route("oracle", kind))
              for kind in ("sin", "cos")]
    atol = SWEEP_ATOL_REAL if real else SWEEP_ATOL_COMPLEX
    worst = 0.0
    undecided = 0
    offenders: list[str] = []
    for start in range(0, samples, CHUNK_POINTS):
        chunk = []
        for _ in range(min(CHUNK_POINTS, samples - start)):
            if real:
                chunk.append(RealParams(*[rng.uniform(-5.0, 5.0) for _ in range(4)], rng.randrange(9)))
            else:
                vals = [rng.uniform(-3.0, 3.0) for _ in range(8)]
                chunk.append(ComplexParams(*map(complex, vals[0::2], vals[1::2]), rng.randrange(7)))
        fill_terms(chunk)
        fill_passes(chunk)
        for i, params in enumerate(chunk, start):
            for kind, ev, orc in routes:
                v = ev(params)
                o = orc(params)
                miss = abs(v.value - o.value)
                allowed = max(rtol * abs(o.value), atol)
                margin = miss / allowed
                worst = max(worst, margin)
                if margin <= 1.0:
                    continue
                if miss <= allowed + v.bound + o.bound:
                    undecided += 1
                else:
                    at = " ".join(f"{name}={_coefficient(getattr(params, name))}" for name in "pqab")
                    offenders.append(f"{domain} sample {i} {kind} {at} m={params.m}: margin {margin:.3g}")
    return worst, undecided, offenders


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
            rng = random.Random(seed)
            sweeps = [("real", tol), ("complex", 10 * tol)] if do_complex else [("real", tol)]
            for domain, rtol in sweeps:
                worst, undecided, bad = _sweep(rng, samples, rtol, domain)
                failures.extend(bad)
                click.echo(f"sweep {domain}: n={samples} seed={seed} undecided={undecided} "
                           f"worst_margin={worst:.3e} {'ok' if not bad else 'FAIL'}")

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
