"""Traced runs: wrappers installed on kkbench from outside, spans kept in memory.

Every wrapper is installed on the name a caller looks up (the filters import
by name, so ``kkbench.akkf.gram`` and ``kkbench.baselines.gram`` are separate
lookups) and restored by :meth:`Patches.restore`.  Three kinds of record:

* spans ``[realization, id, parent, name, start, end]`` for stage-level calls
  (a few dozen per filter step);
* aggregates ``{(parent span, name): [calls, seconds]}`` for the model
  callbacks, which fire about 150k times per realization on the particle
  filter; one span per call would swamp memory and the overhead measurement;
* counters ``{(realization, name): value}`` for events that carry no time of
  their own (Cholesky attempts and their computed flops, CT noise-root
  fallbacks, clipped PSD repairs, distinct resampling indices).

A span's name starts with its layer, which is the kkbench module that defines
the function.  Realization ids count up across passes; records outside any
realization (``cli.main`` and its direct children) carry realization None.
The harness's own entry wrappers (:data:`ENTRY_SPANS`) time what it calls,
so they never count as evidence that a layer ran.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# Spans the harness puts around its own calls into kkbench.
ENTRY_SPANS = ("bench.run_one", "cli.main")
# Counted events; each is a per-realization quantity of its own name.
COUNTERS = (
    "kernels.cholesky.calls", "kernels.cholesky.computed_gflop", "kernels.ridge_solve.first_try",
    "kernels.psd_repair.clipped", "models.ct_noise_root.calls", "models.ct_noise_root.fallbacks",
    "baselines.resample.distinct", "baselines.resample.drawn",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Patches:
    """Attribute replacements that can all be undone, in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.counters = defaultdict(float)
        self.realization = None
        self._next_realization = 0
        self._stack = []
        self._paused = 0
        self._in_noise_root = 0
        self._cholesky_attempts = 0
        self.quantities = set(COUNTERS)

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        self.quantities.update((f"{name}.calls", f"{name}.s", f"{name}.self_s"))

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [self.realization, len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()

        return wrapper

    def callback(self, name, fn):
        aggregates, stack = self.aggregates, self._stack
        self.quantities.update((f"{name}.calls", f"{name}.s"))

        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
            agg = aggregates.get((stack[-1], name))
            if agg is None:
                aggregates[(stack[-1], name)] = [1, elapsed]
            else:
                agg[0] += 1
                agg[1] += elapsed
            return out

        return wrapper

    def count(self, name, value=1.0):
        if not self._paused:
            self.counters[(self.realization, name)] += value

    def realization_span(self, fn):
        inner = self.span("bench.run_one", fn)

        def wrapper(*args, **kwargs):
            self.realization = self._next_realization
            self._next_realization += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.realization = None

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, kkbench, patches: Patches) -> None:
        """Wrap the public functions of each module wherever they are looked up.

        ``bench.run_one`` is left to the caller, who wraps it with
        :meth:`realization_span` beneath its own timing wrapper.
        """
        akkf, baselines, bench, cli, kernels, models = (
            kkbench.akkf, kkbench.baselines, kkbench.bench, kkbench.cli, kkbench.kernels, kkbench.models,
        )
        span = self.span

        for owner in (akkf, baselines):
            patches.set(owner, "gram", span("kernels.gram", owner.gram))
            patches.set(owner, "resolve_bandwidth", span("kernels.resolve_bandwidth", owner.resolve_bandwidth))
            patches.set(owner, "ridge_solve", self._ridge_solve(owner.ridge_solve))
            patches.set(owner, "project_moments", span("kernels.readout", owner.project_moments))
            patches.set(owner, "gain_update", span("akkf.gain_update", owner.gain_update))
        patches.set(akkf, "extract_moments_poly", span("kernels.readout", akkf.extract_moments_poly))
        for owner in (kernels, baselines, models):
            patches.set(owner, "psd_repair", self._psd_repair(owner.psd_repair))
        patches.set(kernels, "cho_factor", self._cho_factor(kernels.cho_factor))
        patches.set(kernels, "cho_solve", self._cho_solve(kernels.cho_solve))
        patches.set(kernels.GaussianBelief, "sample", span("kernels.sample", kernels.GaussianBelief.sample))

        for stage in ("init", "predict", "update", "estimate", "propose"):
            patches.set(akkf, stage, span(f"akkf.{stage}", getattr(akkf, stage)))
        patches.set(baselines, "systematic_resample", self._resample(baselines.systematic_resample))

        patches.set(models, "_ct_noise_root", self._noise_root(models._ct_noise_root))
        patches.set(models, "_eigen_root", self._eigen_root(models._eigen_root))

        patches.set(bench, "build_model", self._build_model(bench.build_model))
        patches.set(bench, "simulate", span("models.simulate", bench.simulate))
        patches.set(bench, "filter_sequence", span("akkf.filter_sequence", bench.filter_sequence))
        for name in ("pf_init", "pf_step", "gpf_step", "ukf_step"):
            patches.set(bench, name, span(f"baselines.{name}", getattr(bench, name)))
        patches.set(bench, "run_filter", span("bench.run_filter", bench.run_filter))
        patches.set(cli, "build_parser", span("cli.build_parser", cli.build_parser))
        patches.set(cli, "_cmd_run", span("cli._cmd_run", cli._cmd_run))
        patches.set(cli, "run_mc", span("bench.run_mc", cli.run_mc))
        patches.set(cli, "write_run_csv", span("bench.write_run_csv", cli.write_run_csv))

    def _build_model(self, fn):
        # Building the model is set-up: its one PSD repair of the bot-cv/bot-ct
        # prior covariance is not filtering work, and counting it would show
        # the kernels layer as used by the particle filter.
        def wrapper(*args, **kwargs):
            self._paused += 1
            try:
                model = fn(*args, **kwargs)
            finally:
                self._paused -= 1
            return dataclasses.replace(
                model,
                process=self.callback("models.process", model.process),
                measure=self.callback("models.measure", model.measure),
                measurement_log_likelihood=self.callback("models.loglik", model.measurement_log_likelihood),
            )

        return wrapper

    def _ridge_solve(self, fn):
        inner = self.span("kernels.ridge_solve", fn)

        def wrapper(*args, **kwargs):
            before = self._cholesky_attempts
            out = inner(*args, **kwargs)
            if self._cholesky_attempts - before == 1:
                self.count("kernels.ridge_solve.first_try")
            return out

        return wrapper

    def _cho_factor(self, fn):
        def wrapper(a, *args, **kwargs):
            self._cholesky_attempts += 1
            self.count("kernels.cholesky.calls")
            self.count("kernels.cholesky.computed_gflop", a.shape[0] ** 3 / 3.0 / 1e9)
            return fn(a, *args, **kwargs)

        return wrapper

    def _cho_solve(self, fn):
        def wrapper(c_and_lower, b, *args, **kwargs):
            m = c_and_lower[0].shape[0]
            rhs = b.shape[1] if np.ndim(b) > 1 else 1
            self.count("kernels.cholesky.computed_gflop", 2.0 * m * m * rhs / 1e9)
            return fn(c_and_lower, b, *args, **kwargs)

        return wrapper

    def _psd_repair(self, fn):
        inner = self.span("kernels.psd_repair", fn)

        def wrapper(C):
            out = inner(C)
            sym = np.atleast_2d(np.asarray(C, dtype=float))
            # psd_repair returns the symmetrized input unchanged unless it
            # clipped a negative eigenvalue.
            if not np.array_equal(out, (sym + sym.T) / 2.0):
                self.count("kernels.psd_repair.clipped")
            return out

        return wrapper

    def _resample(self, fn):
        inner = self.span("baselines.resample", fn)

        def wrapper(weights, rng):
            indices = inner(weights, rng)
            self.count("baselines.resample.distinct", np.unique(indices).size)
            self.count("baselines.resample.drawn", indices.size)
            return indices

        return wrapper

    def _noise_root(self, fn):
        def wrapper(omega):
            self.count("models.ct_noise_root.calls")
            self._in_noise_root += 1
            try:
                return fn(omega)
            finally:
                self._in_noise_root -= 1

        return wrapper

    def _eigen_root(self, fn):
        def wrapper(cov):
            if self._in_noise_root:
                self.count("models.ct_noise_root.fallbacks")
            return fn(cov)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_calls(self) -> dict:
        """Records per layer: spans, callback calls and counter events, from
        wrappers on lookups inside kkbench only."""
        calls = defaultdict(int)
        for span in self.spans:
            if span[3] not in ENTRY_SPANS:
                calls[layer_of(span[3])] += 1
        for (_, name), (n, _) in self.aggregates.items():
            calls[layer_of(name)] += n
        for (_, name), value in self.counters.items():
            if value:
                calls[layer_of(name)] += 1
        return dict(calls)

    def _foreign_seconds(self) -> dict:
        """{span id: time spent in other layers beneath it}.

        A descendant counts where the path from the span first leaves the
        span's layer, so ``akkf.update`` keeps ``akkf.gain_update`` but not the
        kernels work inside it.
        """
        foreign = defaultdict(float)
        spans = self.spans
        for (sid, name), (_, secs) in self.aggregates.items():
            if layer_of(name) != layer_of(spans[sid][3]):
                foreign[sid] += secs
        for _, sid, parent, name, start, end in reversed(spans):  # children before parents
            if parent is not None:
                same = layer_of(name) == layer_of(spans[parent][3])
                foreign[parent] += foreign[sid] if same else end - start
        return foreign

    def per_realization(self) -> dict:
        """{realization: {quantity: value}} with totals and self times per name."""
        out = defaultdict(lambda: defaultdict(float))
        foreign = self._foreign_seconds()
        rid_of = {}
        for rid, sid, _, name, start, end in self.spans:
            rid_of[sid] = rid
            if rid is not None:
                row = out[rid]
                row[f"{name}.calls"] += 1
                row[f"{name}.s"] += end - start
                row[f"{name}.self_s"] += end - start - foreign[sid]
        for (sid, name), (n, secs) in self.aggregates.items():
            if rid_of[sid] is not None:
                out[rid_of[sid]][f"{name}.calls"] += n
                out[rid_of[sid]][f"{name}.s"] += secs
        for (rid, name), value in self.counters.items():
            if rid is not None:
                out[rid][name] += value
        return out

    def per_pass(self) -> list[dict]:
        """Spans outside realizations, grouped under each ``cli.main`` span."""
        rows = []
        foreign = self._foreign_seconds()
        for rid, sid, _, name, start, end in self.spans:
            if rid is not None:
                continue
            if name == "cli.main":
                rows.append({"cli.main.s": end - start, "cli.main.self_s": end - start - foreign[sid]})
            elif rows:
                rows[-1][f"{name}.s"] = end - start
        return rows

    def write(self, path, header: dict) -> None:
        """Spans, aggregates and counters as JSON lines, after a header record."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rid, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"span": name, "realization": rid, "id": sid, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for (sid, name), (n, secs) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": sid, "calls": n, "s": secs}) + "\n")
            for (rid, name), value in self.counters.items():
                fh.write(json.dumps({"counter": name, "realization": rid, "value": value}) + "\n")


def _median_of(rows, key):
    return statistics.median(row.get(key, 0.0) for row in rows)


# Ratios are pooled over every traced realization: (numerator, denominator).
RATIOS = {
    "models.ct_noise_root.fallback_ratio": ("models.ct_noise_root.fallbacks", "models.ct_noise_root.calls"),
    "kernels.ridge_solve.first_try_ratio": ("kernels.ridge_solve.first_try", "kernels.ridge_solve.calls"),
    "kernels.psd_repair.clipped_ratio": ("kernels.psd_repair.clipped", "kernels.psd_repair.calls"),
    "baselines.resample.unique_frac": ("baselines.resample.distinct", "baselines.resample.drawn"),
}


def layer_metrics(tracer: Tracer, names) -> dict:
    """{name: (value, how it was taken)} for each per-layer metric in ``names``.

    A name is a ratio of :data:`RATIOS`, one of the derived ``bench``/``cli``
    quantities below, or a per-realization quantity the tracer records
    (``<span>.calls``, ``<span>.s``, ``<span>.self_s`` or a counter), taken
    as the median over traced realizations.
    """
    rows = list(tracer.per_realization().values())
    passes = tracer.per_pass()
    totals = defaultdict(float)
    for row in rows:
        for key, value in row.items():
            totals[key] += value
    per_realization = f"per realization, median of {len(rows)}"
    per_pass = f"per cli.main call, median of {len(passes)}"
    derived = {
        "bench.overhead_s": lambda: (statistics.median(
            row["bench.run_one.s"] - row.get("models.simulate.s", 0.0) - row.get("bench.run_filter.s", 0.0)
            for row in rows
        ), f"run_one - simulate - run_filter, {per_realization}"),
        "bench.write_run_csv.s": lambda: (_median_of(passes, "bench.write_run_csv.s"), per_pass),
        "cli.main.self_s": lambda: (_median_of(passes, "cli.main.self_s"),
                                    f"main - run_mc - write_run_csv, {per_pass}"),
    }
    m = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            m[name] = (totals[num] / totals[den] if totals[den] else 0.0, f"{totals[num]:.0f}/{totals[den]:.0f} pooled")
        elif name in derived:
            m[name] = derived[name]()
        elif name in tracer.quantities:
            m[name] = (_median_of(rows, name), per_realization)
    return m
