"""One invocation of the program in a fresh interpreter.

    python3 bench/worker.py REQUEST.json    run one invocation
    python3 bench/worker.py --setup         time the imports and exit

A CLI request runs ``exptrig <argv>`` through the package's click entry
point, with standard output already redirected to a file by the caller,
exactly as ``python -m exptrig <argv> > file`` would. A library request
evaluates every closed-form route at each parameter point through the
public functions of the package and writes the values to a file.

The worker writes a small JSON report: the exit code, the monotonic
clock (shared by every process on the machine) at the moment the
program was ready, the seconds spent after that, and its peak resident
memory. With a trace path in the request, every binding of the traced
public functions is wrapped before the work starts and the spans are
written when it ends. With a capture path, the values that
``exptrig verify`` computes are recorded and written when it ends (see
``Recorder``). A worker that dies before its report is written leaves
no report; the caller counts that invocation as failed.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup_probe() -> None:
    import numpy  # noqa: F401

    t_numpy = time.monotonic()
    import exptrig.cli  # noqa: F401

    t_ready = time.monotonic()
    print(json.dumps({"start": T_START, "numpy": t_numpy, "ready": t_ready}))


def _library(points: dict) -> list:
    import exptrig as ex
    from workloads import COMPLEX_ROUTES, REAL_ROUTES, ROUTE_FUNCTIONS

    real_fns = [(route == "complex", getattr(ex, ROUTE_FUNCTIONS[route, kind]))
                for route, kind in REAL_ROUTES]
    complex_fns = [getattr(ex, ROUTE_FUNCTIONS[r]) for r in COMPLEX_ROUTES]
    out = []
    for p, q, a, b, m in points["real"]:
        rp = ex.RealParams(p, q, a, b, m)
        cp = rp.to_complex()
        row = []
        for takes_complex, fn in real_fns:
            v = fn(cp if takes_complex else rp).value
            row += (v.real, v.imag)
        out.append(row)
    for pr, pi, qr, qi, ar, ai, br, bi, m in points["complex"]:
        cp = ex.ComplexParams(complex(pr, pi), complex(qr, qi), complex(ar, ai), complex(br, bi), m)
        row = []
        for fn in complex_fns:
            v = fn(cp).value
            row += (v.real, v.imag)
        out.append(row)
    return out


def _number(x):
    """JSON form of a recorded number: integers as they are, others as [re, im]."""
    if isinstance(x, int):
        return x
    z = complex(x)
    return [z.real, z.imag]


class Recorder:
    """Records the values behind the verdicts of ``exptrig verify``.

    The sweep's evaluator and oracle calls go through the bindings in
    exptrig.cli, so those are wrapped there: each call appends (function,
    p, q, a, b, m, value). Each catalog entry's closed form is wrapped on
    the entry itself: each call appends (entry id, arguments, value).
    """

    SWEEP_FUNCTIONS = ("eval_improved_sin", "eval_improved_cos", "eval_complex_sin",
                       "eval_complex_cos", "oracle_sin", "oracle_cos")

    def __init__(self) -> None:
        self.calls = []
        self.catalog = []

    def install(self) -> None:
        cli = sys.modules["exptrig.cli"]
        for name in self.SWEEP_FUNCTIONS:
            setattr(cli, name, self._sweep_call(name, getattr(cli, name)))
        for entry in sys.modules["exptrig.catalog"].ENTRIES:
            # CatalogEntry is frozen; the wrapper lives only in this process.
            object.__setattr__(entry, "closed_form", self._closed_call(entry.id, entry.closed_form))

    def _sweep_call(self, name, fn):
        def recorded(params):
            result = fn(params)
            args = [params.p, params.q, params.a, params.b, params.m]
            self.calls.append((name, [_number(x) for x in args], _number(result.value)))
            return result
        return recorded

    def _closed_call(self, entry_id, fn):
        def recorded(*args):
            value = fn(*args)
            self.catalog.append((entry_id, [_number(x) for x in args], _number(value)))
            return value
        return recorded

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"calls": self.calls, "catalog": self.catalog}, fh)


def _peak_rss_mb() -> float:
    """Peak resident set of this process image, from VmHWM.

    ru_maxrss is no use here: Linux carries it across exec, so a child
    forked from a large parent inherits the parent's figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    if sys.argv[1] == "--setup":
        _setup_probe()
        return 0
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    tracer = None
    if req["mode"] == "cli":
        from exptrig.cli import main as entry
    else:
        with open(req["points"]) as fh:
            points = json.load(fh)
        import exptrig  # noqa: F401
        import workloads  # noqa: F401  (the route table _library reads)
    if req.get("trace"):
        from tracing import Tracer  # the worker's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
    recorder = None
    if req.get("capture"):
        recorder = Recorder()
        recorder.install()
    t_ready = time.monotonic()
    code = 0
    values = None
    try:
        if req["mode"] == "cli":
            if tracer is not None:
                entry = tracer.span("cli", entry)
            try:
                entry(list(req["argv"]), prog_name="exptrig")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        else:
            run = _library if tracer is None else tracer.span("library", _library)
            values = run(points)
    except Exception:
        # A crash in the program is a failed invocation, not a failed
        # benchmark: report it, and let the checks count its points.
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    t_done = time.monotonic()
    if req["mode"] != "cli":
        with open(req["values"], "w") as fh:
            json.dump(values, fh)
    if tracer is not None:
        tracer.dump(req["trace"])
    if recorder is not None:
        recorder.dump(req["capture"])
    with open(req["report"], "w") as fh:
        json.dump({"exit": code, "ready": t_ready, "compute_s": t_done - t_ready,
                   "peak_rss_mb": _peak_rss_mb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
