"""Tests for the Monte Carlo benchmark harness and its CLI."""

import csv
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kkbench.akkf import FilterDivergedError
from kkbench.bench import (
    FILTERS,
    SCENARIOS,
    MetricsSummary,
    RunRecord,
    ScenarioConfig,
    lmse,
    mse,
    read_run_csv,
    realization_rng,
    run_filter,
    run_mc,
    run_one,
    scenario_metric,
    summarize,
    sweep,
    write_run_csv,
    write_summary_csv,
)
from kkbench.cli import main
from kkbench.models import build_model, simulate

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment of a child Python that imports kkbench from this checkout's ``src``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


class TestMetrics:
    def test_mse_basic(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert mse([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mse([1.0, 2.0], [1.0])

    def test_lmse_basic(self):
        truth = np.zeros((2, 3))
        est = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        # per-step errors are 5, 0, 0, so the mean error is 5/3
        assert lmse(truth, est) == pytest.approx(np.log(5.0 / 3.0))

    def test_lmse_perfect_match_is_minus_inf(self):
        truth = np.ones((2, 4))
        assert lmse(truth, truth.copy()) == float("-inf")

    def test_lmse_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lmse(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_scenario_metric_routing(self):
        truth = np.arange(8.0).reshape(4, 2)
        est = truth + 1.0
        assert scenario_metric("ungm", truth[:1], est[:1]) == pytest.approx(1.0)
        expected = lmse(truth[[0, 2]], est[[0, 2]])
        assert scenario_metric("bot-cv", truth, est) == pytest.approx(expected)
        assert scenario_metric("bot-ct", truth, est) == pytest.approx(expected)


class TestScenarioConfig:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            ScenarioConfig("nope", "pf", 10, 1, 0)

    def test_rejects_unknown_filter(self):
        with pytest.raises(ValueError, match="filter"):
            ScenarioConfig("ungm", "ekf", 10, 1, 0)

    def test_akkf_needs_two_particles(self):
        with pytest.raises(ValueError, match="particles"):
            ScenarioConfig("ungm", "akkf-quadratic", 1, 1, 0)
        ScenarioConfig("ungm", "pf", 1, 1, 0)

    @pytest.mark.parametrize(
        "ridge", [{"kappa": 0.0}, {"lam": -1.0}, {"lam": float("inf")}, {"kappa": float("inf")}]
    )
    def test_akkf_ridge_settings_checked_up_front(self, ridge):
        # the cell builds its AkkfConfig, whose rules reject it; the
        # baselines ignore both ridge settings
        with pytest.raises(ValueError, match="kappa|lambda_tilde"):
            ScenarioConfig("bot-cv", "akkf-quartic", 20, 3, 1, **ridge)
        assert ScenarioConfig("bot-cv", "pf", 20, 3, 1, **ridge).akkf_config is None

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="realizations"):
            ScenarioConfig("ungm", "pf", 10, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig("ungm", "pf", 10, 1, -1)

    def test_known_names_exposed(self):
        assert "ungm" in SCENARIOS
        assert "akkf-quartic" in FILTERS


class TestRealizationStreams:
    def test_streams_differ_across_realizations(self):
        a = realization_rng(42, 0).standard_normal(4)
        b = realization_rng(42, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_streams_reproducible(self):
        a = realization_rng(7, 3).standard_normal(4)
        b = realization_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_metrics_independent_of_realization_count(self):
        # each realization owns a spawned stream, so adding realizations
        # must not change the earlier ones
        base = dict(scenario="ungm", filter="pf", M=50, seed=11)
        records3, _ = run_mc(ScenarioConfig(realizations=3, **base))
        records5, _ = run_mc(ScenarioConfig(realizations=5, **base))
        for r3, r5 in zip(records3, records5):
            assert r3.metric == r5.metric


class TestRunOne:
    def test_record_fields(self):
        cfg = ScenarioConfig("ungm", "pf", 30, 1, 5)
        rec = run_one(cfg, 0)
        assert rec.realization == 0
        assert not rec.diverged
        assert np.isfinite(rec.metric)
        assert rec.runtime_s > 0.0

    def test_filter_divergence_recorded_not_raised(self, monkeypatch):
        import kkbench.bench as bench_mod

        def explode(cfg, model, observations, rng):
            raise FilterDivergedError(3, "state")

        monkeypatch.setattr(bench_mod, "run_filter", explode)
        rec = run_one(ScenarioConfig("ungm", "pf", 10, 1, 0), 0)
        assert rec.diverged
        assert np.isnan(rec.metric)

    @pytest.mark.parametrize("metric", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_metric_marks_divergence(self, monkeypatch, metric):
        # -inf is lmse's exact-match sentinel; kept, it would make a mean -inf
        import kkbench.bench as bench_mod

        monkeypatch.setattr(bench_mod, "scenario_metric", lambda scenario, truth, est: metric)
        rec = run_one(ScenarioConfig("ungm", "pf", 10, 1, 0), 0)
        assert rec.diverged

    @pytest.mark.parametrize(
        "filt, callback", [("ukf", "process"), ("ukf", "measure"), ("gpf", "process"), ("pf", "process")]
    )
    def test_nonfinite_callback_recorded_as_divergence(self, monkeypatch, filt, callback):
        # the simulation calls the model on one column, the filters on their
        # ensembles or sigma points, so only the filter sees the inf
        import kkbench.bench as bench_mod

        def poisoned(name):
            model = build_model(name)
            real = getattr(model, callback)

            def blow(X, *args):
                out = real(X, *args)
                return out if X.shape[1] == 1 else np.full_like(out, np.inf)

            return dataclasses.replace(model, **{callback: blow})

        monkeypatch.setattr(bench_mod, "build_model", poisoned)
        rec = run_one(ScenarioConfig("bot-cv", filt, 10, 1, 0), 0)
        assert rec.diverged
        assert np.isnan(rec.metric)

    @pytest.mark.parametrize(
        "scenario, filt, poisoned",
        [("bot-cv", "akkf-quartic", "w"), ("bot-ct", "akkf-gaussian", "S")],
    )
    def test_nonfinite_belief_recorded_as_divergence(self, monkeypatch, tmp_path, scenario, filt, poisoned):
        import kkbench.akkf as akkf_mod

        real_gain_update = akkf_mod.gain_update

        def nan_gain_update(*args):
            w, S = real_gain_update(*args)
            if poisoned == "w":
                w = w.copy()
                w[0] = np.nan
            else:
                S = S.copy()
                S[0, 0] = np.nan
            return w, S

        monkeypatch.setattr(akkf_mod, "gain_update", nan_gain_update)
        cfg = ScenarioConfig(scenario, filt, 5, 1, 0)
        rec = run_one(cfg, 0)
        assert rec.diverged
        rc = main(
            [
                "run",
                "--scenario", scenario,
                "--filter", filt,
                "--particles", "5",
                "--realizations", "1",
                "--seed", "0",
                "--out", str(tmp_path / "run.csv"),
            ]
        )
        assert rc == 3

    def test_overflowing_feature_gram_recorded_as_divergence(self, monkeypatch, tmp_path):
        # realization 3's filter prior spreads ungm's states to +-1e80, so
        # the quartic features of init's draws overflow: the proposal feature
        # Gram holds infs, which ridge_solve reports as a singular system,
        # so the run records a divergence and carries on.  The truth's own
        # prior draw stays at x_0
        import kkbench.bench as bench_mod

        def overflowing_ungm(name):
            model = build_model(name)

            def sample_prior(rng, count):
                if count > 1 and rng.bit_generator.seed_seq.spawn_key == (3,):
                    return np.linspace(-1e80, 1e80, count)[None, :]
                return model.sample_prior(rng, count)

            return dataclasses.replace(model, sample_prior=sample_prior)

        monkeypatch.setattr(bench_mod, "build_model", overflowing_ungm)
        cfg = ScenarioConfig("ungm", "akkf-quartic", 20, 4, 42)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_one(cfg, 3).diverged
        out = tmp_path / "run.csv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["run", "--scenario", "ungm", "--filter", "akkf-quartic", "--particles", "20",
                       "--realizations", "4", "--seed", "42", "--out", str(out)])
        assert rc == 0
        assert [rec.diverged for rec in read_run_csv(out)] == [False, False, False, True]


class TestFilterContract:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("filt", FILTERS)
    def test_step_advances_n_and_returns_a_finite_mean(self, monkeypatch, filt, scenario):
        # every step run_filter calls: (state, n, y_n, model, rng) -> (state, belief),
        # with n = 1, 2, 3 from the loop; each process call made during step n reads n
        import kkbench.akkf as akkf_mod
        import kkbench.bench as bench_mod

        steps, process_ns = [], []

        def checked(step):
            def wrapper(state, n, y_n, model, rng, **bound):
                process_ns.append([])
                state, belief = step(state, n, y_n, model, rng, **bound)
                steps.append((n, belief.mean))
                return state, belief

            return wrapper

        for owner, name in [(akkf_mod, "step"), (bench_mod, "pf_step"), (bench_mod, "gpf_step"),
                            (bench_mod, "ukf_step")]:
            monkeypatch.setattr(owner, name, checked(getattr(owner, name)))
        model = build_model(scenario)
        rng = realization_rng(0, 0)
        observations = simulate(model, 3, rng).observations

        real_process = model.process

        def spy_process(X, noise, n):
            process_ns[-1].append(n)
            return real_process(X, noise, n)

        model = dataclasses.replace(model, process=spy_process)
        estimates = run_filter(ScenarioConfig(scenario, filt, 10, 1, 0), model, observations, rng)
        assert [n for n, _ in steps] == [1, 2, 3]
        assert [set(ns) for ns in process_ns] == [{1}, {2}, {3}]
        for n, mean in steps:
            assert mean.shape == (model.state_dim,)
            assert np.isfinite(mean).all()
            assert np.array_equal(estimates[:, n - 1], mean)


class TestSummarize:
    def test_moments_over_clean_runs(self):
        records = [
            RunRecord(0, 2.0, 0.1, False),
            RunRecord(1, 4.0, 0.3, False),
        ]
        summary = summarize(records)
        assert summary.metric_mean == pytest.approx(3.0)
        assert summary.metric_std == pytest.approx(np.std([2.0, 4.0], ddof=1))
        assert summary.runtime_mean_s == pytest.approx(0.2)
        assert summary.diverged_count == 0

    def test_diverged_runs_excluded_from_metric(self):
        records = [
            RunRecord(0, 2.0, 0.1, False),
            RunRecord(1, float("nan"), 0.3, True),
        ]
        summary = summarize(records)
        assert summary.metric_mean == pytest.approx(2.0)
        assert summary.metric_std == 0.0
        assert summary.diverged_count == 1
        # runtime averages over every run, diverged or not
        assert summary.runtime_mean_s == pytest.approx(0.2)

    def test_all_diverged_gives_nan(self):
        records = [RunRecord(0, float("nan"), 0.1, True)]
        summary = summarize(records)
        assert np.isnan(summary.metric_mean)
        assert np.isnan(summary.metric_std)
        assert summary.diverged_count == 1

    def test_single_run_std_zero(self):
        summary = summarize([RunRecord(0, 1.5, 0.1, False)])
        assert summary.metric_std == 0.0

    def test_standard_error_over_kept_runs(self):
        records = [
            RunRecord(0, 1.0, 0.1, False),
            RunRecord(1, 2.0, 0.1, False),
            RunRecord(2, float("nan"), 0.1, True),
            RunRecord(3, 6.0, 0.1, False),
        ]
        summary = summarize(records)
        assert summary.metric_se == pytest.approx(np.std([1.0, 2.0, 6.0], ddof=1) / np.sqrt(3))
        assert summary.metric_se == pytest.approx(summary.metric_std / np.sqrt(3))
        assert summarize(records[:1]).metric_se == 0.0
        assert np.isnan(summarize(records[2:3]).metric_se)


class TestRunMc:
    def test_worker_count_does_not_change_results(self):
        cfg = ScenarioConfig("ungm", "pf", 40, 4, 13)
        records1, summary1 = run_mc(cfg, workers=1)
        records2, summary2 = run_mc(cfg, workers=2)
        assert [r.metric for r in records1] == [r.metric for r in records2]
        assert summary1.metric_mean == summary2.metric_mean

    def test_summary_matches_records(self):
        cfg = ScenarioConfig("ungm", "gpf", 30, 3, 21)
        records, summary = run_mc(cfg)
        clean = [r.metric for r in records if not r.diverged]
        assert summary.metric_mean == pytest.approx(np.mean(clean))

    def test_only_gaussian_state_kernels_load_scipy_spatial(self):
        # pairwise distances come from scipy.spatial, loaded at the first
        # Gaussian Gram; a fresh process shows which cells reach one
        code = (
            "import sys\n"
            "import kkbench.cli\n"
            "from kkbench.bench import ScenarioConfig, run_mc\n"
            "for name, m in (('pf', 50), ('gpf', 20), ('ukf', 1), ('akkf-quartic', 20)):\n"
            "    run_mc(ScenarioConfig('bot-cv', name, m, 1, 42))\n"
            "    assert 'scipy.spatial' not in sys.modules, name\n"
            "run_mc(ScenarioConfig('bot-ct', 'akkf-gaussian', 10, 1, 42))\n"
            "assert 'scipy.spatial' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()


class TestSweep:
    def test_rows_ordered_and_match_individual_runs(self):
        base = ScenarioConfig("ungm", "pf", 10, 2, 31)
        rows = sweep(base, [20, 10], ["ukf", "pf"])
        labels = [(cfg.filter, cfg.M) for cfg, _ in rows]
        assert labels == [("pf", 10), ("pf", 20), ("ukf", 10), ("ukf", 20)]
        cfg0 = ScenarioConfig("ungm", "pf", 10, 2, 31)
        _, expected = run_mc(cfg0)
        assert rows[0][1].metric_mean == pytest.approx(expected.metric_mean)

    def test_repeated_filters_and_counts_run_once(self, monkeypatch):
        import kkbench.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "run_mc", lambda cfg, workers=1: (calls.append(cfg), cfg.M))
        base = ScenarioConfig("ungm", "pf", 10, 1, 0)
        rows = sweep(base, [20, 10, 20], ["pf", "pf"])
        assert [(cfg.filter, cfg.M) for cfg in calls] == [("pf", 10), ("pf", 20)]
        assert [(cfg.M, summary) for cfg, summary in rows] == [(10, 10), (20, 20)]

    def test_empty_grid_rejected(self):
        base = ScenarioConfig("ungm", "pf", 10, 1, 0)
        with pytest.raises(ValueError, match="nonempty"):
            sweep(base, [], ["pf"])
        with pytest.raises(ValueError, match="nonempty"):
            sweep(base, [10], [])

    def test_every_cell_validated_before_any_runs(self, monkeypatch):
        import kkbench.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "run_mc", lambda cfg, workers=1: calls.append(cfg))
        base = ScenarioConfig("ungm", "pf", 10, 1, 0)
        with pytest.raises(ValueError, match="zz"):
            sweep(base, [10], ["pf", "zz"])
        assert calls == []


class TestCsvRoundtrip:
    def test_run_csv(self, tmp_path):
        cfg = ScenarioConfig("ungm", "pf", 25, 3, 17)
        records, _ = run_mc(cfg)
        path = tmp_path / "run.csv"
        write_run_csv(path, cfg, records)
        loaded = read_run_csv(path)
        assert len(loaded) == 3
        for rec, back in zip(records, loaded):
            assert back.realization == rec.realization
            assert back.metric == rec.metric
            assert back.runtime_s == rec.runtime_s
            assert back.diverged == rec.diverged

    def test_run_csv_nan_metric(self, tmp_path):
        cfg = ScenarioConfig("ungm", "pf", 5, 1, 0)
        records = [RunRecord(0, float("nan"), 0.25, True)]
        path = tmp_path / "run.csv"
        write_run_csv(path, cfg, records)
        loaded = read_run_csv(path)
        assert np.isnan(loaded[0].metric)
        assert loaded[0].diverged

    def test_summary_csv(self, tmp_path):
        cfg = ScenarioConfig("bot-cv", "ukf", 1, 2, 9)
        summary = MetricsSummary(1.25, 0.5, 1, 0.125, 0.25)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [(cfg, summary)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "bot-cv"
        assert rows[0]["filter"] == "ukf"
        assert int(rows[0]["particles"]) == 1
        assert float(rows[0]["metric_mean"]) == 1.25
        assert float(rows[0]["metric_std"]) == 0.5
        assert int(rows[0]["diverged_count"]) == 1
        assert float(rows[0]["runtime_mean_s"]) == 0.125
        assert float(rows[0]["metric_se"]) == 0.25
        assert list(rows[0])[-1] == "metric_se"


class TestCli:
    def test_run_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "run",
                "--scenario", "ungm",
                "--filter", "pf",
                "--particles", "30",
                "--realizations", "2",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(read_run_csv(out)) == 2
        assert "metric mean" in capsys.readouterr().out

    def test_run_line_prints_standard_error(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "ungm", "--filter", "pf", "--particles", "20",
                   "--realizations", "3", "--seed", "0", "--out", str(tmp_path / "run.csv")])
        summary = summarize(read_run_csv(tmp_path / "run.csv"))
        assert rc == 0
        assert f"se {summary.metric_se:.3g} " in capsys.readouterr().out

    def test_sweep_command_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        rc = main(
            [
                "sweep",
                "--scenario", "ungm",
                "--filters", "pf,ukf",
                "--particles", "10,20",
                "--realizations", "2",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4
        for row, line in zip(rows, printed):
            assert f"{row['filter']} M={row['particles']}:" in line
            assert f"se {float(row['metric_se']):.3g} " in line
            assert line.endswith(f" runtime {float(row['runtime_mean_s']):.4g} s")

    @pytest.mark.parametrize("option", ["--filters", "--particles"])
    def test_sweep_empty_list_exits_2(self, tmp_path, capsys, option):
        args = {"--filters": "pf", "--particles": "10", option: ""}
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--scenario", "ungm",
                    "--filters", args["--filters"],
                    "--particles", args["--particles"],
                    "--realizations", "1",
                    "--seed", "0",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2_before_running(self, tmp_path, capsys, monkeypatch,
                                                      workers):
        import kkbench.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_mc", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "ungm", "--filter", "pf", "--particles", "10",
                  "--realizations", "1", "--seed", "0", "--workers", workers,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert calls == []
        assert "argument --workers" in capsys.readouterr().err

    def test_sweep_kappa_zero_exits_2_before_any_realization(self, tmp_path, capsys, monkeypatch):
        import kkbench.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "simulate", lambda *args: calls.append(args))
        rc = main(["sweep", "--scenario", "bot-cv", "--filters", "pf,akkf-quartic", "--particles", "20",
                   "--realizations", "3", "--seed", "1", "--kappa", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err == "kkbench: kappa must be positive\n"
        rc = main(["run", "--scenario", "bot-cv", "--filter", "akkf-quartic", "--particles", "20",
                   "--realizations", "2", "--seed", "0", "--lambda", "inf", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err == "kkbench: lambda_tilde must be finite\n"

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--scenario", "nope",
                "--filter", "pf",
                "--particles", "10",
                "--realizations", "1",
                "--seed", "0",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "scenario" in capsys.readouterr().err

    def test_all_diverged_exits_3(self, tmp_path, monkeypatch):
        import kkbench.cli as cli_mod

        def fake_run_mc(cfg, workers=1):
            records = [RunRecord(0, float("nan"), 0.0, True)]
            return records, MetricsSummary(float("nan"), float("nan"), 1, 0.0, float("nan"))

        monkeypatch.setattr(cli_mod, "run_mc", fake_run_mc)
        rc = main(
            [
                "run",
                "--scenario", "ungm",
                "--filter", "pf",
                "--particles", "10",
                "--realizations", "1",
                "--seed", "0",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_in_missing_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch,
                                                              command):
        import kkbench.bench as bench_mod
        import kkbench.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_mc", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(bench_mod, "run_mc", lambda *args, **kwargs: calls.append(args))
        cell = {"run": ["--filter", "pf", "--particles", "10"],
                "sweep": ["--filters", "pf", "--particles", "10"]}[command]
        argv = [command, "--scenario", "ungm", *cell, "--realizations", "1", "--seed", "0", "--out"]
        rc = main([*argv, str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("kkbench: ")
        assert not (tmp_path / "missing").exists()
        # an --out that names an existing directory fails as early
        assert main([*argv, str(tmp_path)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"kkbench: --out {str(tmp_path)!r} is a directory\n"


def write_records(path, metrics, diverged=None, runtime_s=0.1):
    """A run CSV with the given metrics for realizations 0..n-1."""
    diverged = diverged or [False] * len(metrics)
    records = [RunRecord(r, m, runtime_s, d) for r, (m, d) in enumerate(zip(metrics, diverged))]
    write_run_csv(path, ScenarioConfig("ungm", "pf", 10, len(records), 0), records)
    return path


class TestCompare:
    def test_identical_ignores_runtime(self, tmp_path, capsys):
        metrics, diverged = [1.0, 2.5, float("nan")], [False, False, True]
        a = write_records(tmp_path / "a.csv", metrics, diverged, runtime_s=0.1)
        b = write_records(tmp_path / "b.csv", metrics, diverged, runtime_s=0.3)
        assert main(["compare", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "identical: 3 realizations"
        assert lines[1].startswith("A: diverged 1/3 sha256 ")
        assert lines[2].startswith("B: diverged 1/3 sha256 ")
        assert lines[1].split()[-1] == lines[2].split()[-1]

    def test_shifted_reports_paired_difference(self, tmp_path, capsys):
        # realization 2 diverged on one side only, so the pair is left out
        a = write_records(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        b = write_records(tmp_path / "b.csv", [1.5, 2.25, float("nan"), 4.75],
                          [False, False, True, False])
        assert main(["compare", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        diffs = np.array([0.5, 0.25, 0.75])
        se = diffs.std(ddof=1) / np.sqrt(3)
        assert lines[0] == f"B - A: mean 0.5 se {se:.3g} over 3 realizations converged in both"
        assert lines[1].startswith("A: diverged 0/4 ")
        assert lines[2].startswith("B: diverged 1/4 ")
        assert lines[1].split()[-1] != lines[2].split()[-1]

    def test_different_realization_sets_exit_2(self, tmp_path, capsys):
        a = write_records(tmp_path / "a.csv", [1.0, 2.0, 3.0])
        b = write_records(tmp_path / "b.csv", [1.0, 2.0])
        assert main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "different realization sets" in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        a = write_records(tmp_path / "a.csv", [1.0])
        assert main(["compare", str(a), str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err.startswith("kkbench: cannot read ")

    def test_summary_csv_exits_2(self, tmp_path, capsys):
        # a sweep summary has no per-realization rows
        a = write_records(tmp_path / "a.csv", [1.0])
        summary = tmp_path / "summary.csv"
        cfg = ScenarioConfig("ungm", "pf", 10, 1, 0)
        write_summary_csv(summary, [(cfg, MetricsSummary(1.0, 0.0, 0, 0.1, 0.0))])
        assert main(["compare", str(a), str(summary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kkbench: ")
        assert str(summary) in err
        assert "'realization'" in err

    @pytest.mark.parametrize(
        "row, problem",
        [("ungm,pf,10,1,2.5", "''"), ("ungm,pf,10,1,abc,0.1,0", "'abc'")],
        ids=["cut-short", "non-numeric"],
    )
    def test_bad_row_exits_2_naming_file_and_line(self, tmp_path, capsys, row, problem):
        # the header is line 1 and realization 0 line 2, so the bad row is line 3
        a = write_records(tmp_path / "a.csv", [1.0, 2.0])
        b = write_records(tmp_path / "b.csv", [1.0])
        with open(b, "a") as fh:
            fh.write(row + "\n")
        assert main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"kkbench: {b} line 3: ")
        assert problem in captured.err

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        # the read end of the pipe is closed before the child starts, so its
        # first write to stdout fails
        a = write_records(tmp_path / "a.csv", [1.0, 2.0])
        code = "import sys; from kkbench.cli import main; sys.exit(main(sys.argv[1:]))"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-c", code, "compare", str(a), str(a)],
                                  stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr.decode()
        assert proc.stderr == b""


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestTraceHooks:
    def test_package_binds_only_its_modules(self):
        # perfbench imports kkbench.cli and hands the package to the tracer,
        # which reads the six modules off it; a fresh process shows what that
        # import binds and loads
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "import kkbench.cli\n"
            "for name in ('akkf', 'baselines', 'bench', 'cli', 'kernels', 'models'):\n"
            "    module = getattr(kkbench, name)\n"
            "    assert Path(module.__file__).resolve().parent == Path(sys.argv[1]), name\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            "try:\n"
            "    from kkbench import run_mc\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('the package root binds run_mc')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src" / "kkbench")],
                              capture_output=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_tracer_installs_and_restores_every_patch(self):
        # perfbench's tracer wraps kkbench functions by module attribute; a
        # renamed lookup would make its install step raise
        import kkbench.cli

        tracing = load_tracing()
        originals = []

        class RecordingPatches(tracing.Patches):
            def set(self, owner, name, value):
                originals.append((owner, name, getattr(owner, name)))
                super().set(owner, name, value)

        patches = RecordingPatches()
        try:
            tracing.Tracer().install(kkbench, patches)
            assert all(getattr(owner, name) is not fn for owner, name, fn in originals)
        finally:
            patches.restore()
        assert originals
        for owner, name, original in originals:
            assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"

    def test_run_filter_steps_through_the_traced_names(self):
        # the tracer wraps the step names on bench and the stages on akkf;
        # run_filter must look them up at each call for the spans to fire
        import kkbench.cli

        tracing = load_tracing()
        spans, layers = {}, {}
        for filt in ("pf", "gpf", "ukf", "akkf-quartic", "akkf-gaussian"):
            tracer, patches = tracing.Tracer(), tracing.Patches()
            try:
                tracer.install(kkbench, patches)
                kkbench.bench.run_one(ScenarioConfig("bot-cv", filt, 10, 1, 0), 0)
            finally:
                patches.restore()
            spans[filt] = {span[3] for span in tracer.spans}
            layers[filt] = set(tracer.layer_calls())
        assert "baselines.pf_step" in spans["pf"]
        assert "baselines.gpf_step" in spans["gpf"]
        assert "baselines.ukf_step" in spans["ukf"]
        assert "akkf.predict" in spans["akkf-quartic"]
        # the polynomial readout is traced through akkf.extract_moments_poly,
        # the Gaussian one through akkf.project_moments
        assert "kernels.readout" in spans["akkf-quartic"]
        assert "kernels.readout" in spans["akkf-gaussian"]
        assert layers["pf"].isdisjoint({"akkf", "kernels"}), layers["pf"]

    def test_ct_noise_root_counters(self):
        # the tracer counts bot-ct noise roots on models._ct_noise_root and
        # their eigen fallbacks on models._eigen_root; the printed noise form
        # is indefinite at rate 0, so only those columns fall back
        import kkbench.cli
        from kkbench.models import ct_noise_cov

        assert np.linalg.eigvalsh(ct_noise_cov(0.0))[0] < 0.0 < np.linalg.eigvalsh(ct_noise_cov(0.5))[0]
        rates = np.array([0.0, 0.5, 0.5, 0.0, 0.5])
        X = np.zeros((5, rates.size))
        X[4] = rates
        model = build_model("bot-ct")
        tracing = load_tracing()
        tracer, patches = tracing.Tracer(), tracing.Patches()
        try:
            tracer.install(kkbench, patches)
            model.process(X, np.zeros_like(X), 1)
        finally:
            patches.restore()
        assert tracer.counters[(None, "models.ct_noise_root.calls")] == rates.size
        assert tracer.counters[(None, "models.ct_noise_root.fallbacks")] == np.sum(rates == 0.0)


@pytest.mark.slow
class TestGoldenBenchmark:
    def test_ungm_bootstrap_reference_cell(self):
        # frozen regression for the full harness path; the value tracks the
        # production rng layout, so any change to stream handling shows up
        cfg = ScenarioConfig("ungm", "pf", 500, 50, 42)
        _, summary = run_mc(cfg)
        assert summary.diverged_count == 0
        assert summary.metric_mean == pytest.approx(10.777078056126221, rel=1e-9)
