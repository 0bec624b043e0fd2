"""Monte Carlo benchmark harness: metrics, experiment runner, CSV output.

A benchmark run simulates one trajectory per realization, filters it with
the configured estimator, and records a scalar tracking metric plus the
filter's wall-clock time.  Realization r always consumes the rng stream
derived from (seed, r), so results are independent of execution order and
of how many realizations run alongside.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import akkf
from .akkf import AkkfConfig, FilterDivergedError
from .baselines import (
    DegenerateWeightsError,
    gaussian_init,
    gpf_step,
    pf_init,
    pf_step,
    ukf_step,
)
from .kernels import KERNEL_KINDS, KernelSpec, SingularMatrixError
from .models import MODEL_BUILDERS, SimulationDivergedError, build_model, simulate

SCENARIOS = tuple(MODEL_BUILDERS)
FILTERS = (*(f"akkf-{kind}" for kind in KERNEL_KINDS), "pf", "gpf", "ukf")

RUN_HEADER = ["scenario", "filter", "particles", "realization", "metric", "runtime_s", "diverged"]
SUMMARY_HEADER = [
    "scenario",
    "filter",
    "particles",
    "metric_mean",
    "metric_std",
    "diverged_count",
    "runtime_mean_s",
    "metric_se",
]


# Per-scenario kernel constants.  Observation bandwidths are fixed on each
# scenario's observation scale (bearings span about +-pi, ungm observations
# span tens); a per-step median bandwidth shrinks whenever the observation
# particles bunch up and locks the filter into overconfidence.
_STATE_C = {"ungm": 1.0, "bot-cv": 0.5, "bot-ct": 0.5}
_OBS_SIGMA = {"ungm": 7.0, "bot-cv": 1.0, "bot-ct": 1.0}


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark cell: scenario, filter, sizes, seeds, ridge settings.

    An AKKF cell builds its ``akkf_config`` here, so that AkkfConfig's rules
    reject it before any realization runs; the baselines ignore lam and kappa.
    """

    scenario: str
    filter: str
    M: int
    realizations: int
    seed: int
    lam: float = AkkfConfig.lambda_tilde
    kappa: float = AkkfConfig.kappa
    akkf_config: AkkfConfig | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        if self.M < 1:
            raise ValueError(f"{self.filter} needs at least 1 particle")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.filter.startswith("akkf"):
            spec = KernelSpec(self.filter.split("-", 1)[1], c=_STATE_C[self.scenario])
            akkf_config = AkkfConfig(spec, _OBS_SIGMA[self.scenario], self.M, self.lam, self.kappa)
            object.__setattr__(self, "akkf_config", akkf_config)


@dataclass
class RunRecord:
    """Outcome of one realization."""

    realization: int
    metric: float
    runtime_s: float
    diverged: bool


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate over realizations; metric moments skip diverged runs.

    ``metric_se`` is the Monte Carlo standard error of ``metric_mean``,
    std/sqrt(n) over the n kept runs.
    """

    metric_mean: float
    metric_std: float
    diverged_count: int
    runtime_mean_s: float
    metric_se: float


def mse(truth: np.ndarray, est: np.ndarray) -> float:
    """Mean squared error over a scalar state sequence."""
    truth = np.asarray(truth, dtype=float).ravel()
    est = np.asarray(est, dtype=float).ravel()
    if truth.shape != est.shape:
        raise ValueError("sequences must have equal length")
    return float(np.mean((truth - est) ** 2))


def lmse(truth: np.ndarray, est: np.ndarray) -> float:
    """Natural log of the mean Euclidean position error.

    Inputs are 2 x N position sequences.  A zero mean error returns the
    -inf sentinel, which `run_one` records as a divergence.
    """
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    est = np.atleast_2d(np.asarray(est, dtype=float))
    if truth.shape != est.shape:
        raise ValueError("sequences must have equal shape")
    errors = np.sqrt(((truth - est) ** 2).sum(axis=0))
    with np.errstate(divide="ignore"):
        return float(np.log(errors.mean()))


def run_filter(cfg: ScenarioConfig, model, observations: np.ndarray, rng) -> np.ndarray:
    """Run the configured filter over an observation matrix; returns the d_x x N belief means.

    Every filter is an init and a ``step(state, n, y_n, model, rng)`` that returns
    ``(state, belief)``; this loop owns the 1-based step index n.  Each filter's
    step is looked up by name here, so a wrapper set on the name takes effect.
    """
    if cfg.filter.startswith("akkf"):
        state, step = akkf.init(model, cfg.akkf_config, rng), akkf.step
    elif cfg.filter == "pf":
        state, step = pf_init(model, cfg.M, rng), pf_step
    else:  # gpf or ukf; ScenarioConfig admits no other name
        state = gaussian_init(model)
        step = partial(gpf_step, M=cfg.M) if cfg.filter == "gpf" else ukf_step
    estimates = np.empty((model.state_dim, observations.shape[1]))
    for n, y_n in enumerate(observations.T, start=1):
        state, belief = step(state, n, y_n, model, rng)
        estimates[:, n - 1] = belief.mean
    return estimates


# Not called: perfbench's tracer wraps this name, so it stays defined.
filter_sequence = run_filter


def scenario_metric(scenario: str, truth_states: np.ndarray, estimates: np.ndarray) -> float:
    """MSE on the scalar state for ungm, position LMSE for the BOT scenarios."""
    if scenario == "ungm":
        return mse(truth_states[0], estimates[0])
    return lmse(truth_states[[0, 2]], estimates[[0, 2]])


def realization_rng(seed: int, r: int) -> np.random.Generator:
    """The rng stream owned by realization r under a base seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def run_one(cfg: ScenarioConfig, r: int) -> RunRecord:
    """Simulate and filter realization r; divergence is recorded, not raised.

    The recorded runtime covers the filter only, not the simulation.
    """
    rng = realization_rng(cfg.seed, r)
    model = build_model(cfg.scenario)
    try:
        trajectory = simulate(model, model.default_horizon, rng)
    except SimulationDivergedError:
        return RunRecord(r, float("nan"), 0.0, True)
    start = time.perf_counter()
    try:
        estimates = run_filter(cfg, model, trajectory.observations, rng)
        runtime = time.perf_counter() - start
        metric = scenario_metric(cfg.scenario, trajectory.states, estimates)
    except (FilterDivergedError, DegenerateWeightsError, SingularMatrixError):
        return RunRecord(r, float("nan"), time.perf_counter() - start, True)
    diverged = not (np.isfinite(metric) and np.isfinite(estimates).all())
    return RunRecord(r, metric, runtime, diverged)


def summarize(records: list[RunRecord]) -> MetricsSummary:
    """Metric mean/std/SE over non-diverged runs; runtime mean over all runs."""
    metrics = [rec.metric for rec in records if not rec.diverged]
    if metrics:
        mean = float(np.mean(metrics))
        std = float(np.std(metrics, ddof=1)) if len(metrics) > 1 else 0.0
        se = std / len(metrics) ** 0.5
    else:
        mean = std = se = float("nan")
    runtime = float(np.mean([rec.runtime_s for rec in records]))
    diverged = sum(rec.diverged for rec in records)
    return MetricsSummary(mean, std, diverged, runtime, se)


def run_mc(cfg: ScenarioConfig, workers: int = 1) -> tuple[list[RunRecord], MetricsSummary]:
    """Run all realizations of one config, optionally across processes.

    Aggregation is ordered by realization index, so the output does not
    depend on the worker count or completion order.
    """
    indices = range(cfg.realizations)
    if workers <= 1:
        records = [run_one(cfg, r) for r in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(partial(run_one, cfg), indices))
    return records, summarize(records)


def sweep(
    base: ScenarioConfig,
    particle_grid: list[int],
    filters: list[str],
    workers: int = 1,
) -> list[tuple[ScenarioConfig, MetricsSummary]]:
    """Cross-product of filters and particle counts, one summary per cell.

    Rows come back ordered by (filter, M) ascending, one per distinct cell:
    a filter or count listed twice runs once.  Every cell reuses the base
    seed, so each row matches an individually executed run_mc.  All cells
    are validated before the first one runs.
    """
    if not particle_grid or not filters:
        raise ValueError("particle grid and filter list must be nonempty")
    cells = [
        replace(base, filter=name, M=m)
        for name in sorted(set(filters))
        for m in sorted(set(particle_grid))
    ]
    return [(cfg, run_mc(cfg, workers=workers)[1]) for cfg in cells]


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_run_csv(path, cfg: ScenarioConfig, records: list[RunRecord]) -> None:
    """Per-realization rows under the fixed header."""
    _write_csv(
        path,
        RUN_HEADER,
        (
            [cfg.scenario, cfg.filter, cfg.M, rec.realization, repr(rec.metric),
             repr(rec.runtime_s), int(rec.diverged)]
            for rec in records
        ),
    )


def read_run_csv(path) -> list[RunRecord]:
    """Read rows written by write_run_csv.

    A missing ``RUN_HEADER`` column, a row cut short or a field that does not
    parse raises ``ValueError``; a bad row's message names its file and line.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for column in RUN_HEADER:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path} is not a run CSV: no {column!r} column")
        for row in reader:
            try:
                records.append(RunRecord(int(row["realization"]), float(row["metric"]),
                                         float(row["runtime_s"]), bool(int(row["diverged"]))))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return records


def write_summary_csv(path, rows: list[tuple[ScenarioConfig, MetricsSummary]]) -> None:
    """One row per (filter, particle count) cell under the fixed header."""
    _write_csv(
        path,
        SUMMARY_HEADER,
        (
            [cfg.scenario, cfg.filter, cfg.M, repr(summary.metric_mean), repr(summary.metric_std),
             summary.diverged_count, repr(summary.runtime_mean_s), repr(summary.metric_se)]
            for cfg, summary in rows
        ),
    )
