"""Tests for the particle and unscented baselines.

A scalar linear-Gaussian system with a closed-form Kalman recursion serves
as the main oracle; the Monte Carlo filters must land near it and the
unscented filter must match it to solver precision.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from oracles import clipped_covs, linear_model

from kkbench.baselines import (
    DegenerateWeightsError,
    _normalize_log_weights,
    _sigma_points,
    _sigma_weights,
    gaussian_init,
    gpf_step,
    pf_init,
    pf_step,
    systematic_resample,
    ukf_step,
)
from kkbench.kernels import Ensemble, GaussianBelief, psd_repair
from kkbench.models import (
    BOT_MEASUREMENT_STD,
    _measurement_law,
    bearing,
    bot_cv,
    build_model,
    wrap_angle,
)


def kalman_scalar(a, q, r, m0, p0, ys):
    """Closed-form scalar Kalman recursion; returns posterior means."""
    means = []
    m, p = m0, p0
    for y in ys:
        m_pred = a * m
        p_pred = a * a * p + q
        gain = p_pred / (p_pred + r)
        m = m_pred + gain * (y - m_pred)
        p = p_pred * (1.0 - gain)
        means.append(m)
    return np.array(means)


YS = np.array([1.2, 0.8, 1.5, 1.0, 1.1])
KF_MEANS = kalman_scalar(0.9, 0.25, 0.25, 1.0, 1.0, YS)


class TestSystematicResample:
    def test_point_mass_selects_one_index(self):
        weights = np.array([0.0, 0.0, 1.0, 0.0])
        indices = systematic_resample(weights, np.random.default_rng(0))
        assert np.array_equal(indices, np.full(4, 2))

    def test_counts_bracket_expected_copies(self):
        rng = np.random.default_rng(1)
        weights = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
        m = weights.size
        for _ in range(50):
            indices = systematic_resample(weights, rng)
            counts = np.bincount(indices, minlength=m)
            expected = m * weights
            assert (counts >= np.floor(expected)).all()
            assert (counts <= np.ceil(expected)).all()

    def test_unbiased_over_many_draws(self):
        rng = np.random.default_rng(2)
        weights = np.array([0.5, 0.3, 0.2])
        m = weights.size
        draws = 10000
        totals = np.zeros(m)
        for _ in range(draws):
            totals += np.bincount(systematic_resample(weights, rng), minlength=m)
        rates = totals / (draws * m)
        # systematic sampling has at most 1/m variance per draw
        assert_allclose(rates, weights, atol=3.0 / (m * np.sqrt(draws)))

    def test_uniform_weights_keep_all_indices(self):
        weights = np.full(6, 1.0 / 6.0)
        indices = systematic_resample(weights, np.random.default_rng(3))
        assert np.array_equal(np.sort(indices), np.arange(6))

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 6000),
        shape=st.sampled_from(["uniform draws", "zero runs", "point mass", "1e-300 range"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_searchsorted_bit_for_bit(self, m, shape, seed):
        # the merge must pick searchsorted's side="left" index for every
        # position, from the same single uniform of the rng stream
        draw = np.random.default_rng(seed)
        weights = draw.random(m)
        if shape == "zero runs":
            for start in draw.integers(0, m, size=1 + m // 50):
                weights[start : start + draw.integers(1, 200)] = 0.0
            weights[draw.integers(0, m)] = 1.0  # at least one weight stays positive
        elif shape == "point mass":
            weights = np.zeros(m)
            weights[draw.integers(0, m)] = 1.0
        elif shape == "1e-300 range":
            weights = 10.0 ** draw.uniform(-300.0, 0.0, m)
        weights /= weights.sum()

        rng, replay = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        indices = systematic_resample(weights, rng)
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        expected = np.searchsorted(cumulative, (replay.random() + np.arange(m)) / m)
        assert indices.dtype == np.intp
        assert np.array_equal(indices, expected)
        assert np.all(np.diff(indices) >= 0)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_exact_ties_go_to_the_particle_whose_weight_they_reach(self):
        # dyadic weights and offsets make positions equal cumulative weights
        # exactly; side="left" sends each such position to that particle
        class ScriptedUniforms:
            def __init__(self, *values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        rng = ScriptedUniforms(0.0, 0.5)
        # positions 0, 1/4, 1/2, 3/4 against cumulative 1/4, 1/2, 3/4, 1
        assert systematic_resample(np.full(4, 0.25), rng).tolist() == [0, 0, 1, 2]
        # positions 1/8, 3/8, 5/8, 7/8 against cumulative 1/8, 3/8, 5/8, 1
        weights = np.array([0.125, 0.25, 0.25, 0.375])
        assert systematic_resample(weights, rng).tolist() == [0, 1, 2, 3]


class TestNormalizeLogWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.floats(-1e6, 1e3) | st.just(-math.inf),
        )
    )
    def test_equals_the_shifted_exp_over_its_sum_bit_for_bit(self, log_w):
        assume(np.isfinite(log_w).any())
        shifted = np.exp(log_w - np.max(log_w))
        expected = shifted / shifted.sum()
        weights = _normalize_log_weights(log_w)
        # the weights are formed in the argument's own storage
        assert weights is log_w
        assert np.array_equal(weights, expected)


class TestPf:
    def test_init_uniform(self):
        model = linear_model()
        state = pf_init(model, 8, np.random.default_rng(0))
        assert isinstance(state, Ensemble)
        assert state.count == 8

    def test_tracks_kalman_oracle(self):
        model = linear_model()
        rng = np.random.default_rng(4)
        state = pf_init(model, 20000, rng)
        means = []
        for n, y in enumerate(YS, start=1):
            state, belief = pf_step(state, n, np.array([y]), model, rng)
            means.append(belief.mean[0])
        assert_allclose(means, KF_MEANS, atol=0.05)

    def test_constant_likelihood_gives_unweighted_mean(self):
        model = linear_model(a=1.0, log_likelihood=lambda y, x: np.zeros(x.shape[1]))
        zero_noise = dataclasses.replace(model, sample_process_noise=lambda rng, count: np.zeros((1, count)))
        rng = np.random.default_rng(5)
        state = pf_init(zero_noise, 10, rng)
        before = state.particles.copy()
        _, belief = pf_step(state, 1, np.array([0.0]), zero_noise, rng)
        assert_allclose(belief.mean, before.mean(axis=1), rtol=1e-12)

    def test_single_particle(self):
        model = linear_model()
        rng = np.random.default_rng(6)
        state = pf_init(model, 1, rng)
        state, belief = pf_step(state, 1, np.array([1.0]), model, rng)
        assert belief.mean.shape == (1,)
        assert state.count == 1

    def test_vanished_likelihoods_raise(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], -np.inf))
        rng = np.random.default_rng(7)
        state = pf_init(model, 5, rng)
        with pytest.raises(DegenerateWeightsError):
            pf_step(state, 1, np.array([0.0]), model, rng)

    def test_resampling_resets_weights(self):
        model = linear_model()
        rng = np.random.default_rng(8)
        state = pf_init(model, 12, rng)
        state, _ = pf_step(state, 1, np.array([1.0]), model, rng)
        assert state.count == 12

    def test_bearing_step_replays_the_mod_wrap_and_fancy_gather(self):
        # y near -pi, so most bearing residuals lie outside (-pi, pi] and wrap
        model, y, m = bot_cv(), np.array([-3.0]), 64
        state = pf_init(model, m, np.random.default_rng(9))
        got, got_belief = pf_step(state, 1, y, model, np.random.default_rng(10))

        def mod_wrap(delta):
            return math.pi - np.mod(math.pi - delta, 2 * math.pi)

        law = _measurement_law(lambda X: bearing(X[0], X[2]), BOT_MEASUREMENT_STD, mod_wrap)
        rng = np.random.default_rng(10)
        columns = model.process(state.particles, model.sample_process_noise(rng, m), 1)
        assert np.sum(np.abs(y[0] - bearing(columns[0], columns[2])) > math.pi) > m // 2
        weights = _normalize_log_weights(
            law["measurement_log_likelihood"](y, columns) + np.log(1.0 / m)
        )
        indices = systematic_resample(weights, rng)
        assert np.array_equal(got_belief.mean, columns @ weights)
        assert np.array_equal(got.particles, columns[:, indices])


class TestInputsUnchanged:
    @pytest.mark.parametrize("name", ["ungm", "bot-cv", "bot-ct"])
    @pytest.mark.parametrize("filt", ["pf", "gpf", "ukf"])
    def test_step_leaves_the_callers_arrays_alone(self, name, filt):
        # the steps overwrite only arrays they made: the likelihood the
        # model returns, never the state or the observation passed in
        model = build_model(name)
        rng = np.random.default_rng(15)
        if filt == "pf":
            state = pf_init(model, 40, rng)
            held = [state.particles]
        else:
            state = GaussianBelief(model.prior_mean + 0.1, model.prior_cov + 0.01 * np.eye(model.state_dim))
            held = [state.mean, state.cov]
        observations = np.array([[-3.0, 0.4]])
        held.append(observations)
        before = [a.copy() for a in held]
        step = {"pf": pf_step, "gpf": lambda *a: gpf_step(*a, 40), "ukf": ukf_step}[filt]
        # one observation whose bearing residuals wrap, one whose do not
        for n, y_n in enumerate(observations.T, start=1):
            step(state, n, y_n, model, rng)
        for a, b in zip(held, before):
            assert np.array_equal(a, b)


class TestGpf:
    def test_tracks_kalman_oracle(self):
        model = linear_model()
        rng = np.random.default_rng(9)
        state = gaussian_init(model)
        means = []
        for n, y in enumerate(YS, start=1):
            state, belief = gpf_step(state, n, np.array([y]), model, rng, 20000)
            means.append(belief.mean[0])
        assert_allclose(means, KF_MEANS, atol=0.05)

    def test_point_mass_stays_put(self):
        model = linear_model(a=1.0, log_likelihood=lambda y, x: np.zeros(x.shape[1]))
        frozen = dataclasses.replace(model, sample_process_noise=lambda rng, count: np.zeros((1, count)))
        state = GaussianBelief(np.array([0.7]), np.zeros((1, 1)))
        _, out = gpf_step(state, 1, np.array([0.0]), frozen, np.random.default_rng(10), 50)
        assert_allclose(out.mean, [0.7], rtol=1e-12)
        assert_allclose(out.cov, [[0.0]], atol=1e-15)

    def test_constant_likelihood_matches_sample_moments(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], 3.5))
        rng_run = np.random.default_rng(11)
        rng_oracle = np.random.default_rng(11)
        belief = GaussianBelief(np.array([0.0]), np.eye(1))
        _, out = gpf_step(belief, 1, np.array([0.0]), model, rng_run, 200)
        draws = belief.sample(rng_oracle, 200)
        noise = model.sample_process_noise(rng_oracle, 200)
        columns = 0.9 * draws + noise
        assert_allclose(out.mean, columns.mean(axis=1), rtol=1e-10)
        assert_allclose(out.cov, np.cov(columns, bias=True).reshape(1, 1), rtol=1e-8)

    def test_vanished_likelihoods_raise(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], -np.inf))
        state = GaussianBelief(np.array([0.0]), np.eye(1))
        with pytest.raises(DegenerateWeightsError):
            gpf_step(state, 1, np.array([0.0]), model, np.random.default_rng(12), 20)


class TestUkf:
    def test_sigma_points_standard_normal(self):
        alpha, kappa = 1e-3, 0.0
        belief = GaussianBelief(np.zeros(1), np.eye(1))
        points, lam = _sigma_points(belief, alpha, kappa)
        assert lam == pytest.approx(alpha * alpha - 1.0)
        spread = np.sqrt(1.0 + lam)
        assert_allclose(points, [[0.0, spread, -spread]], atol=1e-15)

    def test_sigma_points_continuous_on_clipped_covariance(self):
        # a 1e-15 shift of a singular covariance moves the points by rounding
        for C in clipped_covs(np.random.default_rng(12)):
            points = [
                _sigma_points(GaussianBelief(np.ones(4), cov), 0.5, 0.0)[0]
                for cov in (C, C + 1e-15 * np.eye(4))
            ]
            assert_allclose(points[0], points[1], rtol=0.0, atol=1e-6)

    def test_sigma_points_reproduce_repaired_covariance(self):
        # on an indefinite input the points carry the PSD repair's spread
        alpha, kappa = 0.5, 0.0
        Q = np.linalg.qr(np.random.default_rng(14).standard_normal((4, 4)))[0]
        C = Q @ np.diag([-1e-3, 0.0, 9.4e-3, 0.15]) @ Q.T
        mean = np.array([1.0, -2.0, 0.5, 3.0])
        points, lam = _sigma_points(GaussianBelief(mean, C), alpha, kappa)
        w_mean, _ = _sigma_weights(4, lam, alpha, 2.0)
        centered = points - mean[:, None]
        assert_allclose(points[:, 0], mean)
        assert_allclose((centered * w_mean) @ centered.T, psd_repair(C), atol=1e-14)

    def test_sigma_weights_sum_to_one(self):
        alpha, beta, kappa = 0.5, 2.0, 1.0
        d = 3
        lam = alpha * alpha * (d + kappa) - d
        w_mean, w_cov = _sigma_weights(d, lam, alpha, beta)
        assert w_mean.sum() == pytest.approx(1.0)
        assert w_cov[0] == pytest.approx(w_mean[0] + 1.0 - alpha * alpha + beta)
        assert_allclose(w_cov[1:], w_mean[1:])

    def test_linear_model_matches_kalman_exactly(self):
        # the unscented transform is exact for linear dynamics, so five
        # steps must reproduce the closed-form recursion to solver precision
        model = linear_model()
        state = gaussian_init(model)
        means = []
        for n, y in enumerate(YS, start=1):
            state, belief = ukf_step(state, n, np.array([y]), model, None)
            means.append(belief.mean[0])
        assert_allclose(means, KF_MEANS, rtol=1e-8)

    def test_posterior_covariance_matches_kalman(self):
        model = linear_model()
        _, belief = ukf_step(gaussian_init(model), 1, np.array([1.2]), model, None)
        p_pred = 0.81 * 1.0 + 0.25
        p_post = p_pred * (1.0 - p_pred / (p_pred + 0.25))
        assert belief.cov[0, 0] == pytest.approx(p_post, rel=1e-8)

    def test_step_reads_no_random_numbers(self):
        # the rng is in the signature only so that every filter steps alike
        model, rng = linear_model(), np.random.default_rng(3)
        before = rng.bit_generator.state
        state, belief = ukf_step(gaussian_init(model), 1, np.array([1.2]), model, rng)
        assert state is belief
        assert rng.bit_generator.state == before

    def test_wrapped_innovation_pulls_the_short_way(self):
        # an observation one full turn up minus a small angle must correct
        # the mean downward once residual wrapping is active
        model = linear_model(a=1.0, wrap_residual=wrap_angle)
        state = GaussianBelief(np.zeros(1), 0.01 * np.eye(1))
        y = np.array([2.0 * np.pi - 0.1])
        _, out = ukf_step(state, 1, y, model, None)
        assert out.mean[0] < 0.0

    def test_warns_exactly_when_repair_clips(self):
        # a measurement noise variance R in (-P, 0) over-contracts the
        # update: P - P^2 / (P + R) < 0, which the repair clips to zero
        model = dataclasses.replace(linear_model(), measurement_noise_cov=np.array([[-0.2]]))
        with pytest.warns(UserWarning, match="non-PSD covariance"):
            _, out = ukf_step(gaussian_init(model), 1, np.array([1.2]), model, None)
        assert out.cov[0, 0] == 0.0
        # the linear-Gaussian update stays PSD and passes unrepaired
        model = linear_model()
        state = gaussian_init(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, y in enumerate(YS, start=1):
                state, _ = ukf_step(state, n, np.array([y]), model, None)

