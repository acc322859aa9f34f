"""The benchmark's workloads and the inputs each one makes from its seed.

A workload is a list of invocations. A CLI invocation is an exptrig
command line, run as ``exptrig <argv>`` in a fresh interpreter; a
library invocation is a file of parameter points that a fresh
interpreter evaluates through the public closed-form functions. One
round runs every invocation once; a run repeats whole rounds.

Every size below is fixed; the seed only moves the fixed coefficients,
the grid extents and the sampled points, so the work per round is about
the same on every seed. The oracle is only ever asked for m <= 8 and
coefficient budgets below 10, away from the aliasing at large m and
the series cancellation at large |a|, |b| (see CHANGES.md).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

# Grid sides and sample counts per invocation, chosen so that every
# workload's compute outweighs interpreter start-up and one round takes
# about one to three seconds on one core.
AUDIT_SIDE = 25
SCAN_SIDE = 201
CLOSED_REAL = 3000
CLOSED_COMPLEX = 1500
VERIFY_SAMPLES = 1000

# Closed-form sampling ranges: real coefficients in [-5, 5], complex
# coefficients of modulus <= 3, m from 0 to 60. The points cycle through
# every m in turn rather than drawing it, so that the series lengths, and
# with them the work per round, do not change with the seed.
REAL_BOUND = 5.0
COMPLEX_RADIUS = 3.0
M_MAX = 60

# The public function behind each (route, kind). Every route is evaluated
# at every real point, and the complex route at every complex point, in
# this order.
ROUTE_FUNCTIONS = {
    ("original", "sin"): "eval_original_sin",
    ("original", "cos"): "eval_original_cos",
    ("original", "f"): "eval_f_bessel",
    ("corrected", "sin"): "eval_corrected_original_sin",
    ("corrected", "cos"): "eval_corrected_original_cos",
    ("improved", "sin"): "eval_improved_sin",
    ("improved", "cos"): "eval_improved_cos",
    ("improved", "f"): "eval_f_hyp",
    ("complex", "sin"): "eval_complex_sin",
    ("complex", "cos"): "eval_complex_cos",
}
REAL_ROUTES = tuple(ROUTE_FUNCTIONS)
COMPLEX_ROUTES = (("complex", "sin"), ("complex", "cos"))


@dataclass(frozen=True)
class Grid:
    """A 2-D grid over two of p, q, a, b with the other two fixed."""

    base: dict  # fixed coefficients p, q, a, b (the grid axes overwrite two)
    axes: tuple  # ((var, lo, hi, n), (var, lo, hi, n))
    m: int
    kind: str = "f"

    @property
    def size(self) -> int:
        return self.axes[0][3] * self.axes[1][3]

    def spec(self) -> str:
        return ",".join(f"{v}={lo!r}:{hi!r}:{n}" for v, lo, hi, n in self.axes)

    def coefficient_args(self) -> list[str]:
        out = []
        for name in ("p", "q", "a", "b"):
            out += [f"-{name}", repr(self.base[name])]
        return out + ["-m", str(self.m)]


@dataclass(frozen=True)
class Invocation:
    argv: tuple = ()  # CLI arguments after "exptrig"; empty for a library invocation
    points: dict = field(default_factory=dict)  # library invocation input
    grid: Grid | None = None
    count: int = 0  # parameter points completed by this invocation


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple

    @property
    def points(self) -> int:
        return sum(inv.count for inv in self.invocations)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _r(rng: random.Random, lo: float, hi: float) -> float:
    # Three decimals keep the command lines short and readable.
    return round(rng.uniform(lo, hi), 3)


def audit_grids(seed: int, side: int = AUDIT_SIDE) -> list[Grid]:
    """Five (p, b) or (a, q) grids that together cross case 1, case 2,
    case 3 and the Y = 0 line, with kinds f, sin, cos and m = 1..5.

    The seed moves the extents and fixed coefficients only slightly: the
    oracle's node count grows with the coefficient budget, so wider moves
    would change the work per round from seed to seed.
    """
    rng = _rng("audit-grid", seed)
    half = _r(rng, 2.9, 3.1)
    pb = (("p", -half, half, side), ("b", -half, half, side))
    c = _r(rng, 0.9, 1.1)
    return [
        # a = q = 0: case 3 below p = b, cases 1 and 2 below p = -|b|,
        # Y = 0 on the diagonal p = b.
        Grid({"p": 0.0, "q": 0.0, "a": 0.0, "b": 0.0}, pb, 1, "f"),
        # q > |a|: case 1 below p = -b a/q.
        Grid({"p": 0.0, "q": _r(rng, 1.4, 1.6), "a": _r(rng, 0.3, 0.5), "b": 0.0}, pb, 3, "sin"),
        # |a| > |q|: case 2 below p = -b q/a.
        Grid({"p": 0.0, "q": _r(rng, 0.6, 0.8), "a": _r(rng, -2.1, -1.9), "b": 0.0}, pb, 5, "cos"),
        # a = -q != 0: case 3 and the Y = 0 diagonal, even m.
        Grid({"p": 0.0, "q": c, "a": -c, "b": 0.0}, pb, 2, "cos"),
        # (a, q) plane at fixed p < 0 < b, even m.
        Grid({"p": _r(rng, -1.6, -1.4), "q": 0.0, "a": 0.0, "b": _r(rng, 0.9, 1.1)},
             (("a", -2.0, 2.0, side), ("q", -2.0, 2.0, side)), 4, "f"),
    ]


def scan_grids(seed: int, side: int = SCAN_SIDE) -> list[Grid]:
    """Three large grids; the first has a = q = 0 and odd m."""
    rng = _rng("scan-grid", seed)
    half = _r(rng, 2.9, 3.1)
    pb = (("p", -half, half, side), ("b", -half, half, side))
    return [
        Grid({"p": 0.0, "q": 0.0, "a": 0.0, "b": 0.0}, pb, rng.choice((1, 3, 5))),
        Grid({"p": 0.0, "q": _r(rng, 1.2, 1.8), "a": _r(rng, -0.8, 0.8), "b": 0.0}, pb,
             rng.randint(1, 5)),
        Grid({"p": _r(rng, -2.0, -1.0), "q": 0.0, "a": 0.0, "b": _r(rng, 0.5, 1.5)},
             (("a", -2.5, 2.5, side), ("q", -2.5, 2.5, side)), rng.choice((1, 3, 5))),
    ]


def closed_points(seed: int, n_real: int = CLOSED_REAL, n_complex: int = CLOSED_COMPLEX) -> dict:
    rng = _rng("closed-forms", seed)
    real = [[rng.uniform(-REAL_BOUND, REAL_BOUND) for _ in range(4)] + [i % (M_MAX + 1)]
            for i in range(n_real)]
    cplx = []
    for i in range(n_complex):
        row = []
        for _ in range(4):
            z = cmath.rect(COMPLEX_RADIUS * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            row += [z.real, z.imag]
        cplx.append(row + [i % (M_MAX + 1)])
    return {"real": real, "complex": cplx}


def audit_workload(seed: int, side: int = AUDIT_SIDE) -> Workload:
    invs = [Invocation(argv=("audit", "--csv", "--kind", g.kind, "--grid", g.spec(),
                             *g.coefficient_args()), grid=g, count=g.size)
            for g in audit_grids(seed, side)]
    return Workload("audit-grid", seed, tuple(invs))


def scan_workload(seed: int, side: int = SCAN_SIDE) -> Workload:
    invs = [Invocation(argv=("scan", "--grid", g.spec(), *g.coefficient_args()), grid=g, count=g.size)
            for g in scan_grids(seed, side)]
    return Workload("scan-grid", seed, tuple(invs))


def closed_workload(seed: int, n_real: int = CLOSED_REAL, n_complex: int = CLOSED_COMPLEX) -> Workload:
    pts = closed_points(seed, n_real, n_complex)
    return Workload("closed-forms", seed, (Invocation(points=pts, count=n_real + n_complex),))


def verify_workload(seed: int, samples: int = VERIFY_SAMPLES) -> Workload:
    sweep_seed = _rng("verify-sweep", seed).randrange(1, 2**31)
    inv = Invocation(argv=("verify", "--complex", "--samples", str(samples), "--seed", str(sweep_seed)),
                     count=catalog_checks() + 2 * samples)
    return Workload("verify-sweep", seed, (inv,))


WORKLOADS = {"audit-grid": audit_workload, "scan-grid": scan_workload,
            "closed-forms": closed_workload, "verify-sweep": verify_workload}


def catalog_checks() -> int:
    """Catalog samples that ``exptrig verify`` replays; each is one point."""
    from exptrig import catalog

    return sum(len(entry.samples) for entry in catalog.ENTRIES)
