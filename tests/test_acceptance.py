"""End-to-end acceptance suite.

Each test prints exactly one "criterion N: PASS/FAIL" line with the
measured quantities. Statistical checks run at seed 42 with 200
realizations and assert orderings or intervals rather than point values;
the filter settings used here are the benchmark-tuned ones. Wall-clock
budgets are asserted where stated.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kkbench.bench import ScenarioConfig, run_mc

pytestmark = pytest.mark.acceptance

SEED = 42
REALIZATIONS = 200


def _cell(scenario, filt, M, lam=1e-3, kappa=1e-3, realizations=REALIZATIONS):
    cfg = ScenarioConfig(
        scenario, filt, M, realizations, SEED, lam=lam, kappa=kappa
    )
    return run_mc(cfg)


def _line(name, ok, detail):
    text = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    return text


def test_criterion_1_unit_and_property_suite():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", "not slow and not acceptance"],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 120.0
    text = _line(
        "criterion 1",
        ok,
        f"unit/property suite rc={proc.returncode}, {elapsed:.1f}s (budget 120s)",
    )
    assert proc.returncode == 0, text + "\n" + proc.stdout[-2000:]
    assert elapsed < 120.0, text


def test_criterion_2_growth_model_small_ensemble_ordering():
    start = time.perf_counter()
    _, akkf = _cell("ungm", "akkf-quadratic", 20, lam=3.0, kappa=3e-2)
    _, pf = _cell("ungm", "pf", 20)
    _, gpf = _cell("ungm", "gpf", 20)
    elapsed = time.perf_counter() - start
    a, p, g = akkf.metric_mean, pf.metric_mean, gpf.metric_mean
    ok = p >= 1.1 * a and g >= 1.1 * a and elapsed < 180.0
    text = _line(
        "criterion 2",
        ok,
        f"ungm M=20 MSE akkf={a:.3f}±{akkf.metric_se:.3f} pf={p:.3f}±{pf.metric_se:.3f} "
        f"gpf={g:.3f}±{gpf.metric_se:.3f} "
        f"(need pf,gpf >= 1.1*akkf={1.1 * a:.3f}), {elapsed:.1f}s (budget 180s)",
    )
    assert p >= 1.1 * a, text
    assert g >= 1.1 * a, text
    assert elapsed < 180.0, text


def test_criterion_3_bearings_cv_benchmark_approach():
    start = time.perf_counter()
    _, akkf20 = _cell("bot-cv", "akkf-quartic", 20, lam=1e-3, kappa=1e-2)
    _, akkf50 = _cell("bot-cv", "akkf-quartic", 50, lam=1e-3, kappa=1e-3)
    _, pf5000 = _cell("bot-cv", "pf", 5000)
    _, gpf50 = _cell("bot-cv", "gpf", 50)
    elapsed = time.perf_counter() - start
    bound20 = pf5000.metric_mean + 0.4
    bound50 = gpf50.metric_mean - 0.5
    ok = (
        akkf20.metric_mean <= bound20
        and akkf50.metric_mean <= bound50
        and elapsed < 600.0
    )
    text = _line(
        "criterion 3",
        ok,
        f"bot-cv LMSE akkf@20={akkf20.metric_mean:.4f}±{akkf20.metric_se:.4f} "
        f"vs pf@5000+0.4={bound20:.4f}±{pf5000.metric_se:.4f}; "
        f"akkf@50={akkf50.metric_mean:.4f}±{akkf50.metric_se:.4f} "
        f"vs gpf@50-0.5={bound50:.4f}±{gpf50.metric_se:.4f}, "
        f"{elapsed:.1f}s (budget 600s)",
    )
    assert akkf20.metric_mean <= bound20, text
    assert akkf50.metric_mean <= bound50, text
    assert elapsed < 600.0, text


def test_criterion_4_ridge_insensitivity():
    start = time.perf_counter()
    means, ses = [], []
    for ridge in (1e-4, 1e-3, 1e-2):
        _, summary = _cell("bot-cv", "akkf-quartic", 50, lam=ridge, kappa=ridge)
        means.append(summary.metric_mean)
        ses.append(summary.metric_se)
    elapsed = time.perf_counter() - start
    spread = max(means) - min(means)
    ok = spread <= 0.5 and elapsed < 300.0
    lmse = "/".join(f"{mean:.4f}±{se:.4f}" for mean, se in zip(means, ses))
    text = _line(
        "criterion 4",
        ok,
        f"bot-cv akkf-quartic M=50 LMSE over ridge 1e-4/1e-3/1e-2 = {lmse}, "
        f"spread={spread:.4f} (<=0.5), {elapsed:.1f}s (budget 300s)",
    )
    assert spread <= 0.5, text
    assert elapsed < 300.0, text


def test_criterion_5_coordinated_turn_robustness():
    start = time.perf_counter()

    def divergences(records):
        # non-finite run or mean position error above one
        return sum(bool(rec.diverged or rec.metric > 0.0) for rec in records)

    akkf_records, akkf = _cell("bot-ct", "akkf-gaussian", 100, lam=1e-3, kappa=1e-2)
    pf_records, _ = _cell("bot-ct", "pf", 100)
    gpf_records, gpf = _cell("bot-ct", "gpf", 100)
    elapsed = time.perf_counter() - start
    d_akkf = divergences(akkf_records)
    d_pf = divergences(pf_records)
    d_gpf = divergences(gpf_records)
    ok = (
        d_akkf <= d_pf
        and d_akkf <= d_gpf
        and akkf.metric_mean < gpf.metric_mean
        and elapsed < 480.0
    )
    text = _line(
        "criterion 5",
        ok,
        f"bot-ct M=100 divergences akkf={d_akkf} pf={d_pf} gpf={d_gpf}; "
        f"LMSE akkf={akkf.metric_mean:.4f}±{akkf.metric_se:.4f} "
        f"gpf={gpf.metric_mean:.4f}±{gpf.metric_se:.4f}, "
        f"{elapsed:.1f}s (budget 480s)",
    )
    assert d_akkf <= d_pf, text
    assert d_akkf <= d_gpf, text
    assert akkf.metric_mean < gpf.metric_mean, text
    assert elapsed < 480.0, text


def test_criterion_6_runtime_scaling():
    grid = (10, 50, 200)

    def slope(filt):
        medians = []
        for m in grid:
            records, _ = _cell("bot-ct", filt, m, realizations=20)
            medians.append(np.median([rec.runtime_s for rec in records]))
        return float(np.polyfit(np.log(grid), np.log(medians), 1)[0])

    pf_slope = slope("pf")
    akkf_slope = slope("akkf-quartic")
    ok = 0.8 <= pf_slope <= 1.3 and akkf_slope > pf_slope
    text = _line(
        "criterion 6",
        ok,
        f"bot-ct log-log runtime slopes over M={grid}: pf={pf_slope:.3f} "
        f"(in [0.8, 1.3]), akkf-quartic={akkf_slope:.3f} (> pf)",
    )
    assert 0.8 <= pf_slope <= 1.3, text
    assert akkf_slope > pf_slope, text
