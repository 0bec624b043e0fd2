"""Benchmark models: growth model, bearings-only setups, simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm

from kkbench.akkf import AkkfConfig, init
from kkbench.baselines import pf_init
from kkbench.kernels import KernelSpec, psd_repair
from kkbench.models import (
    BOT_MEASUREMENT_STD,
    BOT_PRIOR_COV_RAW,
    BOT_PRIOR_MEAN,
    CV_F,
    SimulationDivergedError,
    StateSpaceModel,
    Trajectory,
    bearing,
    bot_ct,
    bot_cv,
    build_model,
    ct_noise_cov,
    ct_transition,
    simulate,
    ungm,
    wrap_angle,
)


def col(*values):
    """One state or noise vector as a d x 1 batch."""
    return np.array(values, dtype=float)[:, None]


class TestUngm:
    def test_process_zero_state(self):
        model = ungm()
        got = model.process(col(0.0), col(0.0), 1)[:, 0]
        assert_allclose(got, [8.0], rtol=1e-15)

    def test_process_unit_state(self):
        model = ungm()
        got = model.process(col(1.0), col(0.0), 1)[:, 0]
        assert_allclose(got, [0.5 + 12.5 + 8.0], rtol=1e-15)

    def test_measure(self):
        model = ungm()
        assert_allclose(model.measure(col(20.0), col(0.0))[:, 0], [20.0], rtol=1e-15)

    def test_time_index_is_one_based(self):
        # cos(1.2 (n-1)) must be cos 0 at the first step
        model = ungm()
        first = model.process(col(0.0), col(0.0), 1)[0, 0]
        second = model.process(col(0.0), col(0.0), 2)[0, 0]
        assert first == 8.0
        assert_allclose(second, 8.0 * math.cos(1.2), rtol=1e-15)

    def test_prior_deterministic(self):
        model = ungm()
        rng = np.random.default_rng(0)
        assert_array_equal(model.sample_prior(rng, 1)[:, 0], [0.1])
        assert_array_equal(model.prior_mean, [0.1])
        assert_array_equal(model.prior_cov, [[0.0]])

    def test_default_horizon(self):
        assert ungm().default_horizon == 100

    def test_log_likelihood_matches_normal(self):
        model = ungm()
        y, x = np.array([3.0]), col(4.0)
        expected = norm.logpdf(y[0] - x[0, 0] ** 2 / 20.0)
        assert_allclose(model.measurement_log_likelihood(y, x), [expected], rtol=1e-12)


class TestBearing:
    def test_quadrants(self):
        assert_allclose(bearing(1.0, 1.0), math.pi / 4.0, rtol=1e-15)
        assert_allclose(bearing(-1.0, 0.0), math.pi, rtol=1e-15)
        assert_allclose(bearing(0.0, -2.0), -math.pi / 2.0, rtol=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            bearing(0.0, 0.0)

    def test_batch_with_one_origin_column_rejected(self):
        xi = np.array([1.0, 0.0, -2.0])
        eta = np.array([0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            bearing(xi, eta)
        with pytest.raises(ValueError):
            bot_cv().measure(np.vstack([xi, np.zeros(3), eta, np.zeros(3)]), np.zeros((1, 3)))

    def test_elementwise_over_arrays(self):
        xi = np.array([1.0, -1.0, 0.0])
        eta = np.array([1.0, 0.0, -2.0])
        assert_allclose(bearing(xi, eta), [math.pi / 4.0, math.pi, -math.pi / 2.0], rtol=1e-15)

    def test_one_zero_coordinate_is_not_the_origin(self):
        # the origin check needs both coordinates of one column at zero
        xi = np.array([0.0, 1.0, -0.0, 2.0])
        eta = np.array([1.0, 0.0, -2.0, 3.0])
        assert_array_equal(bearing(xi, eta), np.arctan2(eta, xi))
        assert_array_equal(bearing(eta, xi), np.arctan2(xi, eta))
        with pytest.raises(ValueError):
            bearing(np.array([1.0, -0.0]), np.array([0.0, 0.0]))


class TestLogLikelihood:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["ungm", "bot-cv", "bot-ct"]),
        m=st.integers(1, 300),
        y=st.floats(-7.0, 7.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_gaussian_expression_bit_for_bit(self, name, m, y, seed):
        # -c*delta*delta + norm over the (wrapped) residual, formed as written
        model = build_model(name)
        std = 1.0 if name == "ungm" else BOT_MEASUREMENT_STD
        rng = np.random.default_rng(seed)
        X = model.sample_prior(rng, m)
        X = X + rng.standard_normal(X.shape)
        delta = y - model.measure(X, np.zeros((1, m)))[0]
        if model.wrap_residual is not None:
            delta = wrap_angle(delta)
        norm = -math.log(std) - 0.5 * math.log(2.0 * math.pi)
        expected = -(0.5 / (std * std)) * delta * delta + norm
        assert_array_equal(model.measurement_log_likelihood(np.array([y]), X), expected)


class TestWrapAngle:
    def test_wraps_into_half_open_interval(self):
        assert_allclose(wrap_angle(math.pi + 0.1), -math.pi + 0.1, rtol=1e-12)
        assert_allclose(wrap_angle(-math.pi - 0.1), math.pi - 0.1, rtol=1e-12)
        assert wrap_angle(math.pi) == math.pi

    def test_vectorized(self):
        deltas = np.array([0.0, 2.0 * math.pi, -2.0 * math.pi])
        assert_allclose(wrap_angle(deltas), [0.0, 0.0, 0.0], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e300, max_value=1e300)
            | st.sampled_from(
                [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
                 math.inf, -math.inf, math.nan]
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_the_mod_form_bit_for_bit(self, values):
        def mod_form(x):
            return math.pi - np.mod(math.pi - np.asarray(x), 2 * math.pi)

        with np.errstate(invalid="ignore"):
            for x in (values[0], np.array(values)):
                got, want = wrap_angle(x), mod_form(x)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBotCv:
    def test_process_velocity_shift(self):
        model = bot_cv()
        got = model.process(col(0.0, 1.0, 0.0, 0.0), np.zeros((2, 1)), 1)[:, 0]
        assert_array_equal(got, [1.0, 1.0, 0.0, 0.0])

    def test_process_noise_columns(self):
        model = bot_cv()
        got = model.process(np.zeros((4, 1)), col(2.0, 4.0), 1)[:, 0]
        assert_allclose(got, [1.0, 2.0, 2.0, 4.0], rtol=1e-15)

    def test_prior_mean_and_dims(self):
        model = bot_cv()
        assert_array_equal(model.prior_mean, [-0.05, 0.001, 0.7, -0.05])
        assert model.state_dim == 4
        assert model.obs_dim == 1
        assert model.default_horizon == 30

    def test_prior_cov_is_symmetrized_repair(self):
        # the printed variances; the printed (3,4) entry exceeds
        # sqrt(0.1 * 0.01) and cannot belong to a covariance, so it is dropped
        model = bot_cv()
        assert_array_equal(model.prior_cov, model.prior_cov.T)
        assert np.linalg.eigvalsh(model.prior_cov)[0] >= -1e-15 * np.trace(model.prior_cov)
        assert_array_equal(np.diag(model.prior_cov), [0.1, 0.005, 0.1, 0.01])
        assert_array_equal(model.prior_cov - np.diag(np.diag(model.prior_cov)), np.zeros((4, 4)))

    def test_prior_samples_match_prior_cov(self):
        # simulation draws from sample_prior, the Gaussian filters start from prior_cov
        model = bot_cv()
        rng = np.random.default_rng(5)
        draws = model.sample_prior(rng, 20000).T
        assert_allclose(draws.mean(axis=0), BOT_PRIOR_MEAN, atol=0.01)
        assert_allclose(np.cov(draws.T), model.prior_cov, rtol=0.05, atol=3e-3)

    def test_zero_noise_increments_equal_velocity(self):
        model = bot_cv()
        # dyadic values keep the check exact in floating point
        x = col(1.0, -0.25, 2.0, 0.75)
        new = model.process(x, np.zeros((2, 1)), 1)
        assert new[0, 0] - x[0, 0] == x[1, 0]
        assert new[2, 0] - x[2, 0] == x[3, 0]

    def test_measure_is_noisy_bearing(self):
        model = bot_cv()
        x = col(1.0, 0.0, 1.0, 0.0)
        assert_allclose(model.measure(x, col(0.05))[:, 0], [math.pi / 4.0 + 0.05], rtol=1e-12)

    def test_log_likelihood_wraps_2pi(self):
        model = bot_cv()
        x = col(1.0, 0.0, 1.0, 0.0)
        y = math.pi / 4.0 + 0.01
        base = model.measurement_log_likelihood(np.array([y]), x)
        shifted = model.measurement_log_likelihood(np.array([y + 2.0 * math.pi]), x)
        assert_allclose(shifted, base, rtol=1e-12)

    def test_log_likelihood_matches_normal_density(self):
        model = bot_cv()
        x = col(1.0, 0.0, 1.0, 0.0)
        y = math.pi / 4.0 + 0.002
        expected = norm.logpdf(0.002, scale=5e-3)
        assert_allclose(model.measurement_log_likelihood(np.array([y]), x), [expected], rtol=1e-10)


class TestCtTransition:
    def test_zero_rate_is_cv(self):
        assert_allclose(ct_transition(0.0), CV_F, rtol=1e-15)

    def test_taylor_form_below_threshold(self):
        assert_array_equal(ct_transition(5e-7), CV_F)
        assert_array_equal(ct_transition(-5e-7), CV_F)

    def test_continuity_across_taylor_switch(self):
        below = ct_transition(9.9e-7)
        above = ct_transition(1.1e-6)
        assert_allclose(below, above, rtol=0.0, atol=1.2e-6)

    def test_quarter_turn(self):
        got = ct_transition(math.pi / 2.0) @ np.array([0.0, 1.0, 0.0, 0.0])
        assert_allclose(got, [2.0 / math.pi, 0.0, 2.0 / math.pi, 1.0], rtol=1e-14, atol=1e-15)

    def test_rotation_preserves_speed(self):
        F = ct_transition(0.37)
        x = np.array([0.0, 1.3, 0.0, -0.4])
        new = F @ x
        assert_allclose(np.hypot(new[1], new[3]), np.hypot(x[1], x[3]), rtol=1e-12)


class TestCtNoiseCov:
    def test_zero_rate_limits(self):
        C = ct_noise_cov(0.0)
        assert_allclose(C[0, 0], 2.0 / 6.0, rtol=1e-15)
        assert_allclose(C[0, 1], 0.5, rtol=1e-15)
        assert_allclose(C[1, 1], 1.0, rtol=1e-15)
        assert_allclose(C[0, 3], 0.0, atol=1e-15)

    def test_continuity_across_taylor_switch(self):
        # the (1 - cos)/omega^2 entry loses ~4 digits to cancellation just
        # above the switch, so the tolerance is coarse
        below = ct_noise_cov(9.9e-7)
        above = ct_noise_cov(1.1e-6)
        assert_allclose(below, above, rtol=0.0, atol=1e-3)

    def test_symmetric(self):
        for omega in (0.0, 0.01, 0.5, -1.2):
            C = ct_noise_cov(omega)
            assert_array_equal(C, C.T)


class TestBotCt:
    def test_dims_and_prior(self):
        model = bot_ct()
        assert model.state_dim == 5
        assert_array_equal(model.prior_mean[:4], BOT_PRIOR_MEAN)
        assert_allclose(model.prior_mean[4], math.pi / 12.0, rtol=1e-15)
        assert model.prior_cov[4, 4] > 0.0
        # the raw matrix is asymmetric as printed: (3,4) entry 1, (4,3) entry 0
        assert BOT_PRIOR_COV_RAW[2, 3] == 1.0
        assert BOT_PRIOR_COV_RAW[3, 2] == 0.0
        # bot-ct keeps the PSD repair of the printed matrix
        assert_array_equal(model.prior_cov[:4, :4], psd_repair(BOT_PRIOR_COV_RAW))

    def test_turn_rate_random_walk(self):
        model = bot_ct()
        x = col(1.0, 0.1, 1.0, 0.1, 0.2)
        out = model.process(x, np.zeros((5, 1)), 3)[:, 0]
        assert_allclose(out[4], 0.2, rtol=1e-15)

    def test_turn_rate_collapse_at_switch(self):
        model = bot_ct()
        x = col(1.0, 0.1, 1.0, 0.1, 0.3)
        out = model.process(x, np.zeros((5, 1)), 15)[:, 0]
        assert_allclose(out[4], 0.1, rtol=1e-15)

    def test_zero_noise_uses_transition(self):
        model = bot_ct()
        x = col(1.0, 0.1, 1.0, 0.1, 0.25)
        out = model.process(x, np.zeros((5, 1)), 2)[:, 0]
        assert_allclose(out[:4], ct_transition(0.25) @ x[:4, 0], rtol=1e-14)

    def test_prior_rate_uniform(self):
        model = bot_ct()
        rng = np.random.default_rng(2)
        draws = model.sample_prior(rng, 2000)[4]
        assert draws.min() >= 0.0
        assert draws.max() <= math.pi / 6.0
        assert_allclose(draws.mean(), math.pi / 12.0, atol=0.02)


class TestBuildModel:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_model("ungm2")


class TestBatchedCallbacks:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["ungm", "bot-cv", "bot-ct"]),
        m=st.integers(1, 40),
        step=st.sampled_from(["first", "switch", "last"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_column_by_column(self, name, m, step, seed):
        # every callback maps a d x M batch exactly as it maps each d x 1
        # slice, including bot-ct's turn-rate collapse at horizon // 2
        model = build_model(name)
        horizon = model.default_horizon
        n = {"first": 1, "switch": horizon // 2, "last": horizon}[step]
        rng = np.random.default_rng(seed)
        X = model.sample_prior(rng, m)
        X = X + rng.standard_normal(X.shape)
        N = model.sample_process_noise(rng, m)
        V = model.sample_measurement_noise(rng, m)
        y = rng.uniform(-3.0, 3.0, model.obs_dim)

        moved = model.process(X, N, n)
        observed = model.measure(X, V)
        log_lik = model.measurement_log_likelihood(y, X)
        assert moved.shape == (model.state_dim, m)
        assert observed.shape == (model.obs_dim, m)
        assert log_lik.shape == (m,)
        for i in range(m):
            one = slice(i, i + 1)
            assert_array_equal(moved[:, one], model.process(X[:, one], N[:, one], n))
            assert_array_equal(observed[:, one], model.measure(X[:, one], V[:, one]))
            assert_array_equal(log_lik[one], model.measurement_log_likelihood(y, X[:, one]))


    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["ungm", "bot-cv", "bot-ct"]),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prior_batch_reads_the_stream_as_single_draws(self, name, count, seed):
        # one batched prior draw consumes the generator exactly as count
        # single draws do, so the batch changes no realization
        model = build_model(name)
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = model.sample_prior(rng, count)
        singles = np.column_stack([model.sample_prior(rng2, 1) for _ in range(count)])
        assert batch.shape == (model.state_dim, count)
        assert_array_equal(batch, singles)
        assert rng.random() == rng2.random()

    @pytest.mark.parametrize("filter_init", ["pf", "akkf"])
    def test_init_draws_the_prior_once(self, filter_init):
        calls = []
        base = bot_cv()

        def sample_prior(rng, count):
            calls.append(count)
            return base.sample_prior(rng, count)

        model = dataclasses.replace(base, sample_prior=sample_prior)
        rng = np.random.default_rng(0)
        if filter_init == "pf":
            pf_init(model, 30, rng)
        else:
            init(model, AkkfConfig(KernelSpec("quadratic"), obs_sigma=1.0, M=30), rng)
        assert calls == [30]


def toy_model(blowup_at=None):
    def process(x, noise, n):
        if blowup_at is not None and n >= blowup_at:
            return np.full_like(x, np.inf)
        return x + 1.0 + noise

    return StateSpaceModel(
        state_dim=1,
        obs_dim=1,
        process_noise_dim=1,
        process=process,
        measure=lambda x, v: 2.0 * x + v,
        sample_process_noise=lambda rng, count: np.zeros((1, count)),
        sample_measurement_noise=lambda rng, count: np.zeros((1, count)),
        measurement_log_likelihood=lambda y, x: -0.5 * (y[0] - 2.0 * x[0]) ** 2,
        sample_prior=lambda rng, count: np.zeros((1, count)),
        prior_mean=np.zeros(1),
        prior_cov=np.zeros((1, 1)),
        process_noise_cov=lambda x: np.zeros((1, 1)),
        measurement_noise_cov=np.zeros((1, 1)),
        default_horizon=5,
    )


class TestSimulate:
    def test_single_step_deterministic(self):
        traj = simulate(toy_model(), 1, np.random.default_rng(0))
        assert_array_equal(traj.states, [[1.0]])
        assert_array_equal(traj.observations, [[2.0]])

    def test_same_seed_identical(self):
        model = bot_cv()
        a = simulate(model, 10, np.random.default_rng(42))
        b = simulate(model, 10, np.random.default_rng(42))
        assert_array_equal(a.states, b.states)
        assert_array_equal(a.observations, b.observations)

    def test_ungm_matches_scripted_recursion(self):
        model = ungm()
        seed = 7
        traj = simulate(model, 50, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        x = 0.1
        for n in range(1, 51):
            u = rng.standard_normal((1,))[0]
            x = 0.5 * x + 25.0 * x / (1.0 + x * x) + 8.0 * math.cos(1.2 * (n - 1)) + u
            v = rng.standard_normal((1,))[0]
            y = x * x / 20.0 + v
            assert_allclose(traj.states[0, n - 1], x, rtol=1e-14)
            assert_allclose(traj.observations[0, n - 1], y, rtol=1e-14)

    def test_divergence_raises_with_index(self):
        with pytest.raises(SimulationDivergedError) as info:
            simulate(toy_model(blowup_at=3), 5, np.random.default_rng(0))
        assert info.value.time_index == 3

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            simulate(toy_model(), 0, np.random.default_rng(0))


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((2, 3)), np.zeros((1, 4)))
