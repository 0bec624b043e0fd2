"""Monte Carlo cell benchmark for kkbench.

    python3 perfbench/run.py --workload cv-pf-5000 [--seed 42] [--seconds 30] [--trace 0|1]

Run from anywhere; kkbench is imported from the ``src`` directory next to
this one.  One process runs passes of ``kkbench.cli.main(["run", ...,
"--workers", "1"])`` back to back (a closed loop, concurrency 1) until the
next pass would overrun ``--seconds``.  Every pass runs the same R
realizations, so each is checked against the first, against its run CSV read
back with ``read_run_csv``, and against the stored reference for the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass, then traced passes with wrappers installed on kkbench from outside
(see tracing.py), and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object; the exit code is 1 when
a check fails.  Run records (and spans, when traced) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

from workloads import (
    BLAS_THREAD_VARS, LAYERS, OUT, REFERENCE, ROOT, SRC, WORKLOADS, declared_metrics, import_kkbench,
    pin_blas_threads, quality,
)

SETUP_LAUNCHES = 7
# The set-up probe's time on a quiet core of the reference host (README); a
# launch's set-up time is rescaled to a core running at that speed.
SETUP_PROBE_NOMINAL_S = 0.010
# Timed realizations a run makes at least, even past --seconds, so that the
# tail (ten samples beyond it) lies above the median.
MIN_TIMED = 21

# A fresh interpreter up to the point where realization 0 could start: the
# import of the entry point plus building the model and the cell's config.
# A pure-Python probe runs just before and just after that work, in the same
# process, and is not part of the set-up time.
SETUP_CODE = """\
import time
started = time.monotonic()


def probe():
    start, acc = time.perf_counter(), 0
    for i in range(150000):
        acc += i * i
    return time.perf_counter() - start


before = probe()
ready_from = time.monotonic()
import sys
sys.path.insert(0, {src!r})
import kkbench.cli
from kkbench.bench import ScenarioConfig, build_model
build_model({scenario!r})
ScenarioConfig({scenario!r}, {filter!r}, {particles}, {realizations}, {seed}, {lam!r}, {kappa!r})
ready = time.monotonic()
print(started, ready - ready_from, before, probe())
"""


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup(w, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of each launch in seconds at the nominal probe speed, and
    as measured.

    The time from spawning a fresh interpreter to ready, leaving out the
    child's probes, times SETUP_PROBE_NOMINAL_S over the mean of those probes.
    The child runs on whichever core is free, at whatever speed the host
    gives it then, so only a probe in the child itself tracks that speed;
    the median of nine raw launches moved by up to 50% between groups of
    launches a minute apart.
    """
    code = SETUP_CODE.format(src=str(SRC), scenario=w.scenario, filter=w.filter, particles=w.particles,
                             realizations=w.realizations, seed=seed, lam=w.lam, kappa=w.kappa)
    scaled, measured = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up launch failed:\n{proc.stderr}")
        started, work, before, after = map(float, proc.stdout.split())
        measured.append(started - start + work)
        scaled.append(measured[-1] * 2.0 * SETUP_PROBE_NOMINAL_S / (before + after))
    return scaled, measured


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Calibration:
    """A fixed piece of work timed right after every realization.

    On a shared host the cores switch between a quiet and a contended speed,
    for a fraction of a second to minutes at a time, and contention slows this
    probe and kkbench alike.  A realization's cost in probe units (its wall
    time over the mean of the probes just before and after it) is therefore
    much steadier from run to run than its wall time.  The probe is made of
    three kinds of work: a pure-Python loop, small numpy operations and
    100x100 LAPACK solves, repeated ``loops``, ``ops`` and ``solves`` times.
    Contention slows each kind by a different factor, and so each workload
    has its own mix (``Workload.probe``), chosen so that its probe slows down
    as much as the workload does (README, "End-to-end metrics").
    """

    def __init__(self, loops: int, ops: int, solves: int):
        import numpy as np

        b = np.random.default_rng(0).standard_normal((100, 100))
        self._a, self._b, self._solve = b @ b.T + 100.0 * np.eye(100), b, np.linalg.solve
        self._F, self._G = np.eye(4) + np.eye(4, k=1), np.ones((4, 2))
        self._x, self._u = np.ones(4), np.ones(2)
        self._loops, self._ops, self._solves = loops, ops, solves

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(self._loops):
            acc += i * i
        F, G, x, u = self._F, self._G, self._x, self._u
        for _ in range(self._ops):
            F @ x + G @ u
        for _ in range(self._solves):
            self._solve(self._a, self._b)
        return perf_counter() - start


class Recorder:
    """The two wrappers every run installs: wall time and probe-unit cost of
    each ``run_one``, and the records ``run_mc`` hands back to ``cli.main``."""

    def __init__(self, bench, cli, patches, probe):
        self.reset()
        self._last_probe = None
        calibrate = Calibration(*probe)
        self.run_one, run_mc = bench.run_one, cli.run_mc

        def timed_run_one(*args, **kwargs):
            if self._last_probe is None:
                self._last_probe = calibrate()
            start = perf_counter()
            rec = self.run_one(*args, **kwargs)
            elapsed = perf_counter() - start
            probe = calibrate()
            self.times.append(elapsed)
            self.costs.append(2.0 * elapsed / (self._last_probe + probe))
            self.probes.append(probe)
            self._last_probe = probe
            return rec

        def captured_run_mc(*args, **kwargs):
            out = run_mc(*args, **kwargs)
            self.records.append(out[0])
            return out

        patches.set(bench, "run_one", timed_run_one)
        patches.set(cli, "run_mc", captured_run_mc)

    def reset(self):
        self.times, self.costs, self.probes, self.records = [], [], [], []


def same_metric(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def run_pass(main, recorder, argv, csv_path, read_run_csv, realizations, first, errors) -> dict:
    """One ``cli.main`` call, checked; returns its timings and records."""
    recorder.reset()
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = perf_counter() - start
    result = {"wall": wall, "times": recorder.times, "costs": recorder.costs, "probes": recorder.probes,
              "records": [], "stdout": out.getvalue()}
    if code != 0:
        errors.append(f"kkbench run exited with {code}")
    if len(recorder.records) != 1:
        errors.append(f"run_mc ran {len(recorder.records)} times in one pass")
        return result
    records = result["records"] = recorder.records[0]
    if [rec.realization for rec in records] != list(range(realizations)):
        errors.append("realization indices are not 0..R-1")
    stored = read_run_csv(csv_path)
    if len(stored) != len(records) or any(
        a.realization != b.realization or a.diverged != b.diverged
        or not same_metric(a.metric, b.metric) or a.runtime_s != b.runtime_s
        for a, b in zip(records, stored)
    ):
        errors.append("run CSV read back does not match the in-memory records")
    if first is not None and (
        len(records) != len(first)
        or any(a.diverged != b.diverged or not same_metric(a.metric, b.metric) for a, b in zip(records, first))
    ):
        errors.append("a pass produced different metrics from the first pass")
    return result


def check_reference(name: str, seed: int, records, errors: list) -> str:
    """Compare the pass's metrics with the ones stored for this workload and seed.

    Realization r draws its trajectory and observations from the same seeded
    stream on every platform, so the comparison is paired: the mean of the
    per-realization differences must lie within ``tolerance_se`` standard
    errors of those differences (or ``tolerance_abs``, for a platform that
    moves every realization by a few ulps alike).  On the platform that wrote
    the references the metrics repeat bit for bit.
    """
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    entry = reference["workloads"].get(name)
    if entry is None or entry["realizations"] != len(records) or str(seed) not in entry["seeds"]:
        return f"no stored reference for seed {seed}; checked pass-to-pass and CSV agreement only"
    ref = entry["seeds"][str(seed)]
    skip = set(ref["diverged_at"]) | {rec.realization for rec in records if rec.diverged}
    diffs = [rec.metric - m for rec, m in zip(records, ref["metrics"]) if rec.realization not in skip]
    if len(diffs) < 2:
        errors.append(f"only {len(diffs)} realizations converged both here and in the reference")
        return "reference check impossible"
    k, floor = reference["tolerance_se"], reference["tolerance_abs"]
    delta, se = statistics.fmean(diffs), statistics.stdev(diffs) / math.sqrt(len(diffs))
    ok = abs(delta) <= max(k * se, floor)
    if not ok:
        errors.append(f"metrics differ from the reference by {delta:+.4g} on average, beyond {k:g} x {se:.4g} SE")
    changed = sum(d != 0 for d in diffs)
    verdict = "bit-identical" if not changed else (
        f"{changed}/{len(diffs)} differ, mean {delta:+.3g} +- {se:.3g} SE, {'ok' if ok else 'MISMATCH'}")
    return f"reference {ref['metric_mean']:.6g}, paired by realization (tolerance {k:g} SE of the differences): {verdict}"


def end_to_end_metrics(w, setup, passes) -> tuple[dict, dict]:
    """The end-to-end metrics as (value, how it was taken), and the wall-time
    ones printed beside them as (value, unit, how it was taken)."""
    times = [t for p in passes for t in p["times"]]
    costs = [c for p in passes for c in p["costs"]]
    probes = [c for p in passes for c in p["probes"]]
    # cli.main wall time with the probes taken out; in probe units it is
    # pooled over the run (a ratio of sums is steadier than a median of a few).
    pass_s = [p["wall"] - sum(p["probes"]) for p in passes]
    per_pass = f"{len(passes)} cli.main calls, CSV write included"
    cost_tail, cost_level = tail(costs)
    time_tail, time_level = tail(times)
    declared = {
        "setup_s": (statistics.median(setup[0]), f"median of {len(setup[0])} launches, at the nominal probe speed"),
        "realization_cost.p50": (statistics.median(costs), f"n={len(costs)}"),
        "realization_cost.tail": (cost_tail, f"p{cost_level:.1f}, n={len(costs)}, 10 beyond"),
        "realizations_per_probe": (len(costs) * statistics.mean(probes) / sum(pass_s), f"pooled over {per_pass}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "this process"),
    }
    wall = {
        "realization_s.p50": (statistics.median(times), "s", f"n={len(times)}"),
        "realization_s.tail": (time_tail, "s", f"p{time_level:.1f}, n={len(times)}, 10 beyond"),
        "realizations_per_s": (statistics.median(w.realizations / s for s in pass_s), "1/s", f"median of {per_pass}"),
        "probe_s.p50": (statistics.median(probes), "s", f"n={len(probes)}"),
        "setup_wall_s": (statistics.median(setup[1]), "s", f"median of {len(setup[1])} launches, as measured"),
    }
    return declared, wall


def traced_metrics(w, tracer, untraced, passes, names, errors) -> dict:
    """Per-layer metrics as (value, how it was taken), the tracing overhead
    among them; checks which layers fired."""
    from tracing import layer_metrics

    layer_calls = tracer.layer_calls()
    print(f"  layer calls      {json.dumps(layer_calls, sort_keys=True)}")
    for layer in LAYERS:
        used, calls = layer in w.layers, layer_calls.get(layer, 0)
        if used != bool(calls):
            errors.append(f"layer {layer} recorded {calls} calls; {'used' if used else 'bypassed'} on {w.name}")
    metrics = layer_metrics(tracer, names)
    costs = [c for p in passes for c in p["costs"]]
    times = [t for p in passes for t in p["times"]]
    traced_by_r = [statistics.median(costs[r::w.realizations]) for r in range(w.realizations)]
    overhead = statistics.median(t / u for t, u in zip(traced_by_r, untraced["costs"])) - 1.0
    metrics["trace.overhead_frac"] = (
        overhead,
        f"traced/untraced run_one cost - 1, paired by realization; wall p50 untraced "
        f"{statistics.median(untraced['times']):.4g} s, traced {statistics.median(times):.4g} s",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    pin_blas_threads(os.environ)  # before anything imports numpy
    kkbench = import_kkbench()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    setup = measure_setup(w, args.seed) if args.trace == 0 else ([], [])

    from kkbench.bench import read_run_csv
    from tracing import Patches, Tracer

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"
    csv_path = str(OUT / f"{stem}.csv")
    errors: list[str] = []
    patches = Patches()
    recorder = Recorder(kkbench.bench, kkbench.cli, patches, w.probe)
    tracer = Tracer() if args.trace else None
    cli_main = kkbench.cli.main

    def one_pass(first, realizations=w.realizations):
        argv = w.argv(args.seed, csv_path, realizations=realizations)
        return run_pass(cli_main, recorder, argv, csv_path, read_run_csv, realizations, first, errors)

    untraced = None
    passes = []
    try:
        # Warm-up: lazy imports inside numpy/scipy and first-touch page faults.
        one_pass(None, realizations=1)
        started = perf_counter()
        if tracer is not None:
            untraced = one_pass(None)
            tracer.install(kkbench, patches)
            recorder.run_one = tracer.realization_span(recorder.run_one)
            cli_main = tracer.span("cli.main", kkbench.cli.main)
        while (sum(len(p["times"]) for p in passes) < MIN_TIMED
               or perf_counter() - started + passes[-1]["wall"] <= args.seconds):
            passes.append(one_pass((untraced or passes[0])["records"] if untraced or passes else None))
    finally:
        patches.restore()
    env["loadavg_end"] = os.getloadavg()

    records = (untraced or passes[0])["records"]
    q = quality(records)
    reference_note = check_reference(w.name, args.seed, records, errors)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {len(passes)} "
          f"{'traced ' if tracer else ''}passes of R={w.realizations} ({w.scenario} {w.filter} M={w.particles} "
          f"lambda={w.lam:g} kappa={w.kappa:g}, workers 1, closed loop)")
    print(f"env {json.dumps(env)}")
    print(passes[0]["stdout"].strip())
    print(f"  metric_mean      {q['metric_mean']:.6g} {'MSE' if w.scenario == 'ungm' else 'LMSE'} "
          f"(lower is better) +- {q['metric_se']:.4g} SE; {reference_note}")
    print(f"  diverged_frac    {q['diverged'] / q['attempted']:.4g} ({q['diverged']}/{q['attempted']}, harness flag)")
    print(f"  lost_frac        {q['lost'] / q['attempted']:.4g} ({q['lost']}/{q['attempted']}, mean position error > 1)")

    if tracer is None:
        computed, wall = end_to_end_metrics(w, setup, passes)
    else:
        computed, wall = traced_metrics(w, tracer, untraced, passes, declared, errors), {}
        tracer.write(OUT / f"{stem}-spans.jsonl", {"workload": w.name, "seed": args.seed, "env": env})
    missing = sorted(declared.keys() - computed.keys())
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json declares metrics this harness does not compute: {missing}")
    metrics = {name: (computed[name][0], unit, computed[name][1]) for name, unit in declared.items()}
    for name, (value, unit, note) in {**metrics, **wall}.items():
        print(f"  {name:<36} {value:.6g} {unit}  ({note})")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": sum(rec.diverged for p in passes for rec in p["records"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "quality": q, "setup_s": setup, "errors": errors, "result": result,
                   "passes": [{k: p[k] for k in ("wall", "times", "costs", "probes")} for p in passes]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
