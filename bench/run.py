#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs to be installed. Each invocation of the
program runs in a fresh interpreter (bench/worker.py). A run repeats whole
rounds of the workload until S seconds have passed, timing interpreter
start-up plus ``import exptrig.cli`` twice after every round, then
computes the mpmath reference values and checks the outputs, outside
every timed part. An invocation that does not exit with 0 and write all
its files fails every one of its points.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 rounds
alternate between untraced and traced, and the object holds the
per-layer metrics, including the tracing overhead. Outputs and span
files are written under bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

# Start-up timings: two after every round, and at least MIN_PROBES per
# run; their median is setup_s. Spreading them over the run keeps a
# passing burst of load on the machine from setting the figure.
PROBES_PER_ROUND = 2
MIN_PROBES = 9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], stdout_path: str, env: dict) -> tuple[float, float, int]:
    """Run the worker; return (start clock, wall s, exit code)."""
    with open(stdout_path, "wb") as out:
        t0 = time.monotonic()
        code = subprocess.run([sys.executable, WORKER, *args], stdout=out, env=env, cwd=ROOT).returncode
    return t0, time.monotonic() - t0, code


def setup_probe(workdir: str, env: dict) -> dict:
    path = os.path.join(workdir, "setup.out")
    t0, _, code = spawn(["--setup"], path, env)
    if code != 0:
        raise RuntimeError("interpreter start-up with import exptrig.cli failed")
    with open(path) as fh:
        stamps = json.load(fh)
    return {"setup_s": stamps["ready"] - t0,
            "import_numpy_s": stamps["numpy"] - stamps["start"],
            "import_exptrig_s": stamps["ready"] - stamps["numpy"]}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(wl, workdir: str) -> str:
    """Make an empty output directory and write the library invocations' inputs.

    Emptying it first means no file of an earlier run can be read as this
    run's output.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for k, inv in enumerate(wl.invocations):
        if not inv.argv:
            with open(os.path.join(workdir, f"points-{k}.json"), "w") as fh:
                json.dump(inv.points, fh)
    return workdir


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def invoke(inv, workdir: str, k: int, base: str, env: dict, trace: bool = False,
           capture: bool = False) -> dict:
    """Run one invocation in a fresh interpreter.

    Its output files are deleted first. The invocation has ended cleanly
    ("done") only if the process exits with 0 and wrote its report and
    every other file asked of it; its output's digest is then kept.
    """
    paths = {"out": base + ".out", "values": base + ".values.json", "report": base + ".report.json",
             "trace": os.path.join(workdir, f"spans-{k}.bin") if trace else None,
             "capture": base + ".capture.json" if capture else None}
    for path in paths.values():
        if path and os.path.exists(path):
            os.remove(path)
    req = {"mode": "cli" if inv.argv else "library", "argv": list(inv.argv),
           "points": os.path.join(workdir, f"points-{k}.json"), **paths}
    with open(base + ".request.json", "w") as fh:
        json.dump(req, fh)
    _, wall, code = spawn([base + ".request.json"], paths["out"], env)
    report = _read_json(paths["report"])
    needed = [paths[key] for key in ("trace", "capture") if paths[key]]
    if not inv.argv:
        needed.append(paths["values"])
    done = code == 0 and report is not None and all(os.path.exists(p) for p in needed)
    output = paths["out"] if inv.argv else paths["values"]
    return {"paths": paths, "wall": wall, "report": report,
            "digest": digest(output) if done else None}


def run_round(wl, workdir: str, index: int, traced: bool, env: dict) -> dict:
    """One pass over every invocation of the workload."""
    tag = "first" if index == 0 else "cur"
    rnd = {"wall_s": 0.0, "compute_s": 0.0, "rss_mb": 0.0, "digests": [], "paths": [],
           "output_bytes": 0, "spans": [], "traced": traced}
    for k, inv in enumerate(wl.invocations):
        res = invoke(inv, workdir, k, os.path.join(workdir, f"{tag}-{k}"), env, trace=traced)
        report = res["report"]
        rnd["wall_s"] += res["wall"]
        # A worker that died wrote no report: charge its wall time instead.
        rnd["compute_s"] += report["compute_s"] if report else res["wall"]
        rnd["rss_mb"] = max(rnd["rss_mb"], report["peak_rss_mb"] if report else 0.0)
        rnd["digests"].append(res["digest"])
        rnd["paths"].append(res["paths"])
        rnd["output_bytes"] += os.path.getsize(res["paths"]["out"])
        if traced and res["digest"] is not None:
            rnd["spans"].append(res["paths"]["trace"])
    return rnd


def round_outputs(wl, workdir: str, first: dict, env: dict) -> list:
    """Round 0's output of each invocation, loaded for its check, or None
    where the invocation did not end cleanly.

    A workload whose checker captures values is loaded instead from one
    more, untimed, run of the same invocation that records them; its
    standard output must equal round 0's.
    """
    checker = checks.CHECKERS[wl.name]
    outputs = []
    for k, inv in enumerate(wl.invocations):
        paths = first["paths"][k] if first["digests"][k] is not None else None
        if paths and checker.capture:
            res = invoke(inv, workdir, k, os.path.join(workdir, f"capture-{k}"), env, capture=True)
            paths = res["paths"] if res["digest"] == first["digests"][k] else None
        outputs.append(checker.load(paths) if paths else None)
    return outputs


def count_failed(wl, rounds: list[dict], first_failed: list[set[int]]) -> int:
    """Round 0 is checked in full; a later round that did not end cleanly,
    or whose output differs in any byte from round 0 (the program is
    deterministic), fails every point of that invocation."""
    total = 0
    for rnd in rounds:
        for k, inv in enumerate(wl.invocations):
            same = rnd["digests"][k] is not None and rnd["digests"][k] == rounds[0]["digests"][k]
            total += len(first_failed[k]) if same else inv.count
    return total


def layer_metrics(sums: dict, points: int, output_bytes: int, is_cli: bool) -> dict[str, float]:
    out = {}
    for name in tracing.LAYER_NAMES:
        s = sums[name]
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_ns"] / 1e9
        out[f"{name}.us_per_call"] = s["incl_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0
    series = [sums["series.hyp0f1"], sums["series.bessel_i"]]
    n_series = sum(s["spans"] for s in series)
    out["series.terms_per_call"] = sum(s["count"] for s in series) / n_series if n_series else 0.0
    oracle = sums["quadrature.oracle"]
    out["quadrature.nodes_per_call"] = oracle["count"] / oracle["spans"] if oracle["spans"] else 0.0
    out["quadrature.ns_per_node"] = oracle["incl_ns"] / oracle["count"] if oracle["count"] else 0.0
    out["cli.us_per_point"] = sums["cli"]["self_ns"] / points / 1e3 if is_cli else 0.0
    out["cli.output_bytes"] = output_bytes if is_cli else 0
    return out


def medians(rows: list[dict]) -> dict[str, float]:
    """Per-key median; the lower middle one for an even count, so counts stay whole."""
    return {key: statistics.median_low(r[key] for r in rows) for key in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "exptrig", "cli.py")):
        print(f"error: no exptrig sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    workdir = prepare(wl, os.path.join(OUT, wl.name))
    env = child_env()

    setup_probe(workdir, env)  # warm-up: byte-compiles the sources once
    probes = []
    rounds = []
    t_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = run_round(wl, workdir, len(rounds), traced, env)
        if traced:
            rnd["layers"] = layer_metrics(tracing.layer_sums(rnd["spans"]), wl.points,
                                          rnd["output_bytes"], bool(wl.invocations[0].argv))
        rounds.append(rnd)
        probes += [setup_probe(workdir, env) for _ in range(PROBES_PER_ROUND)]
        if time.monotonic() - t_start >= args.seconds and (not args.trace or len(rounds) >= 2):
            break
    probes += [setup_probe(workdir, env) for _ in range(MIN_PROBES - len(probes))]

    outputs = round_outputs(wl, workdir, rounds[0], env)
    first_failed = checks.check_outputs(wl, outputs, checks.references(wl))
    failed = count_failed(wl, rounds, first_failed)
    attempted = wl.points * len(rounds)
    plain = [r for r in rounds if not r["traced"]]
    setup = medians(probes)
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        values = medians([r["layers"] for r in traced_rounds])
        values["setup.import_numpy_s"] = setup["import_numpy_s"]
        values["setup.import_exptrig_s"] = setup["import_exptrig_s"]
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                                      - statistics.median(r["wall_s"] for r in plain))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "points_per_s": statistics.median(wl.points / r["compute_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload={wl.name} seed={wl.seed} rounds={len(rounds)} points/round={wl.points} "
          f"invocations/round={len(wl.invocations)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
