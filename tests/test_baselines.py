"""Tests for the particle, unscented, and kernel-recursion baselines.

A scalar linear-Gaussian system with a closed-form Kalman recursion serves
as the main oracle; the Monte Carlo filters must land near it and the
unscented filter must match it to solver precision.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kkbench import (
    DegenerateWeightsError,
    Ensemble,
    GaussianBelief,
    KernelSpec,
    UkfState,
    gain_update,
    gpf_step,
    gram,
    kkr_fit,
    kkr_step,
    pf_init,
    pf_step,
    project_moments,
    systematic_resample,
    ukf_step,
)
from kkbench.baselines import _sigma_points, _sigma_weights
from kkbench.kernels import psd_repair
from kkbench.models import StateSpaceModel, wrap_angle


def clipped_covs(rng, count=200):
    """Covariances as the PSD repair leaves them: two zero eigenvalues."""
    for _ in range(count):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        yield psd_repair(Q @ np.diag([-1e-3, 0.0, 9.4e-3, 0.15]) @ Q.T)


def linear_model(
    a: float = 0.9,
    noise_std: float = 0.5,
    prior_mean: float = 1.0,
    prior_std: float = 1.0,
    log_likelihood=None,
    wrap_residual=None,
) -> StateSpaceModel:
    """Scalar system x' = a x + u, y = x + v with equal noise scales."""

    var = noise_std * noise_std

    def process(x, noise, n):
        return a * x + noise

    def measure(x, noise):
        return x + noise

    def sample_noise(rng, count):
        return noise_std * rng.standard_normal((1, count))

    def default_log_likelihood(y, x):
        delta = (y[0] - x[0]) / noise_std
        return -0.5 * delta * delta - 0.5 * np.log(2.0 * np.pi) - np.log(noise_std)

    return StateSpaceModel(
        name="linear",
        state_dim=1,
        obs_dim=1,
        process_noise_dim=1,
        measurement_noise_dim=1,
        process=process,
        measure=measure,
        sample_process_noise=sample_noise,
        sample_measurement_noise=sample_noise,
        measurement_log_likelihood=log_likelihood or default_log_likelihood,
        sample_prior=lambda rng, count: prior_mean + prior_std * rng.standard_normal((1, count)),
        prior_mean=np.array([prior_mean]),
        prior_cov=np.array([[prior_std * prior_std]]),
        process_noise_cov=lambda x, n: var * np.eye(1),
        measurement_noise_cov=var * np.eye(1),
        default_horizon=5,
        wrap_residual=wrap_residual,
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


class TestPf:
    def test_init_uniform(self):
        model = linear_model()
        state = pf_init(model, 8, np.random.default_rng(0))
        assert state.particles.count == 8
        assert_allclose(state.weights, np.full(8, 1.0 / 8.0))
        assert state.n == 0

    def test_tracks_kalman_oracle(self):
        model = linear_model()
        rng = np.random.default_rng(4)
        state = pf_init(model, 20000, rng)
        means = []
        for y in YS:
            state, estimate = pf_step(state, np.array([y]), model, rng)
            means.append(estimate[0])
        assert_allclose(means, KF_MEANS, atol=0.05)

    def test_constant_likelihood_gives_unweighted_mean(self):
        model = linear_model(a=1.0, log_likelihood=lambda y, x: np.zeros(x.shape[1]))
        zero_noise = StateSpaceModel(
            **{
                **{f: getattr(model, f) for f in model.__dataclass_fields__},
                "sample_process_noise": lambda rng, count: np.zeros((1, count)),
            }
        )
        rng = np.random.default_rng(5)
        state = pf_init(zero_noise, 10, rng)
        before = state.particles.particles.copy()
        _, estimate = pf_step(state, np.array([0.0]), zero_noise, rng)
        assert_allclose(estimate, before.mean(axis=1), rtol=1e-12)

    def test_single_particle(self):
        model = linear_model()
        rng = np.random.default_rng(6)
        state = pf_init(model, 1, rng)
        state, estimate = pf_step(state, np.array([1.0]), model, rng)
        assert estimate.shape == (1,)
        assert state.weights[0] == 1.0

    def test_vanished_likelihoods_raise(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], -np.inf))
        rng = np.random.default_rng(7)
        state = pf_init(model, 5, rng)
        with pytest.raises(DegenerateWeightsError):
            pf_step(state, np.array([0.0]), model, rng)

    def test_resampling_resets_weights(self):
        model = linear_model()
        rng = np.random.default_rng(8)
        state = pf_init(model, 12, rng)
        state, _ = pf_step(state, np.array([1.0]), model, rng)
        assert_allclose(state.weights, np.full(12, 1.0 / 12.0))
        assert state.n == 1


class TestGpf:
    def test_tracks_kalman_oracle(self):
        model = linear_model()
        rng = np.random.default_rng(9)
        belief = GaussianBelief(model.prior_mean, model.prior_cov)
        means = []
        for n, y in enumerate(YS, start=1):
            belief = gpf_step(belief, np.array([y]), model, 20000, rng, n)
            means.append(belief.mean[0])
        assert_allclose(means, KF_MEANS, atol=0.05)

    def test_point_mass_stays_put(self):
        model = linear_model(a=1.0, log_likelihood=lambda y, x: np.zeros(x.shape[1]))
        frozen = StateSpaceModel(
            **{
                **{f: getattr(model, f) for f in model.__dataclass_fields__},
                "sample_process_noise": lambda rng, count: np.zeros((1, count)),
            }
        )
        belief = GaussianBelief(np.array([0.7]), np.zeros((1, 1)))
        out = gpf_step(belief, np.array([0.0]), frozen, 50, np.random.default_rng(10), 1)
        assert_allclose(out.mean, [0.7], rtol=1e-12)
        assert_allclose(out.cov, [[0.0]], atol=1e-15)

    def test_constant_likelihood_matches_sample_moments(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], 3.5))
        rng_run = np.random.default_rng(11)
        rng_oracle = np.random.default_rng(11)
        belief = GaussianBelief(np.array([0.0]), np.eye(1))
        out = gpf_step(belief, np.array([0.0]), model, 200, rng_run, 1)
        draws = belief.sample(rng_oracle, 200)
        noise = model.sample_process_noise(rng_oracle, 200)
        columns = 0.9 * draws + noise
        assert_allclose(out.mean, columns.mean(axis=1), rtol=1e-10)
        assert_allclose(out.cov, np.cov(columns, bias=True).reshape(1, 1), rtol=1e-8)

    def test_vanished_likelihoods_raise(self):
        model = linear_model(log_likelihood=lambda y, x: np.full(x.shape[1], -np.inf))
        belief = GaussianBelief(np.array([0.0]), np.eye(1))
        with pytest.raises(DegenerateWeightsError):
            gpf_step(belief, np.array([0.0]), model, 20, np.random.default_rng(12), 1)


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
        state = UkfState(GaussianBelief(model.prior_mean, model.prior_cov))
        means = []
        for y in YS:
            state = ukf_step(state, np.array([y]), model)
            means.append(state.belief.mean[0])
        assert_allclose(means, KF_MEANS, rtol=1e-8)

    def test_posterior_covariance_matches_kalman(self):
        model = linear_model()
        state = UkfState(GaussianBelief(model.prior_mean, model.prior_cov))
        state = ukf_step(state, np.array([1.2]), model)
        p_pred = 0.81 * 1.0 + 0.25
        p_post = p_pred * (1.0 - p_pred / (p_pred + 0.25))
        assert state.belief.cov[0, 0] == pytest.approx(p_post, rel=1e-8)

    def test_wrapped_innovation_pulls_the_short_way(self):
        # an observation one full turn up minus a small angle must correct
        # the mean downward once residual wrapping is active
        model = linear_model(a=1.0, wrap_residual=wrap_angle)
        state = UkfState(GaussianBelief(np.zeros(1), 0.01 * np.eye(1)))
        y = np.array([2.0 * np.pi - 0.1])
        out = ukf_step(state, y, model)
        assert out.belief.mean[0] < 0.0

    def test_time_index_advances(self):
        model = linear_model()
        state = UkfState(GaussianBelief(model.prior_mean, model.prior_cov))
        state = ukf_step(state, np.array([1.0]), model)
        assert state.n == 1


class TestKkrFit:
    def test_zero_ridge_gives_interpolating_operator(self):
        rng = np.random.default_rng(13)
        pred = rng.standard_normal((2, 5))
        succ = rng.standard_normal((2, 5))
        obs = rng.standard_normal((1, 5))
        fitted = kkr_fit((pred, succ, obs), lambda_pred=0.0)
        # with no ridge the smoother is the identity and V vanishes
        assert_allclose(fitted.V, np.zeros((5, 5)), atol=1e-10)

    def test_single_pair_scalar_formulas(self):
        # one training triple: T = k/(k+lambda) and V = lambda^2/(k+lambda)^2
        spec = KernelSpec("gaussian", sigma=1.0)
        fitted = kkr_fit(
            (np.array([[0.5]]), np.array([[0.5]]), np.array([[1.0]])),
            lambda_pred=0.25,
            state_kernel=spec,
            obs_kernel=spec,
        )
        assert fitted.T[0, 0] == pytest.approx(1.0 / 1.25, rel=1e-10)
        assert fitted.V[0, 0] == pytest.approx((0.25 / 1.25) ** 2, rel=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        pred = rng.standard_normal((2, 4))
        succ = rng.standard_normal((2, 4))
        obs = rng.standard_normal((1, 4))
        spec_x = KernelSpec("gaussian", sigma=1.3)
        spec_y = KernelSpec("gaussian", sigma=0.9)
        lam = 0.05
        fitted = kkr_fit((pred, succ, obs), lam, state_kernel=spec_x, obs_kernel=spec_y)
        K_pp = gram(spec_x, Ensemble(pred), Ensemble(pred))
        K_px = gram(spec_x, Ensemble(pred), Ensemble(succ))
        inv = np.linalg.inv(K_pp + lam * np.eye(4))
        T = inv @ K_px
        R = inv @ K_pp - np.eye(4)
        assert_allclose(fitted.T, T, rtol=1e-9, atol=1e-12)
        assert_allclose(fitted.V, R @ R.T / 4.0, rtol=1e-9, atol=1e-12)
        assert_allclose(fitted.G_yy, gram(spec_y, Ensemble(obs), Ensemble(obs)))

    def test_v_is_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        pred = rng.standard_normal((3, 6))
        fitted = kkr_fit(
            (pred, rng.standard_normal((3, 6)), rng.standard_normal((2, 6))),
            lambda_pred=0.1,
        )
        assert np.linalg.eigvalsh(fitted.V).min() >= -1e-12

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError, match="particle count"):
            kkr_fit(
                (np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 3))),
                lambda_pred=0.1,
            )

    def test_default_kernels_are_median_resolved(self):
        rng = np.random.default_rng(16)
        fitted = kkr_fit(
            (rng.standard_normal((2, 5)), rng.standard_normal((2, 5)), rng.standard_normal((1, 5))),
            lambda_pred=0.1,
        )
        assert fitted.obs_kernel.kind == "gaussian"
        assert fitted.obs_kernel.sigma is not None and fitted.obs_kernel.sigma > 0

    @pytest.mark.parametrize("kappa", [0.0, -1e-3])
    def test_kappa_must_be_positive(self, kappa):
        # the gain update divides by kappa; reject it at fit time rather
        # than at the first kkr_step
        with pytest.raises(ValueError, match="kappa"):
            kkr_fit((np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3))), lambda_pred=0.1, kappa=kappa)


class TestKkrStep:
    @staticmethod
    def fitted_model():
        rng = np.random.default_rng(17)
        pred = rng.standard_normal((2, 3))
        succ = rng.standard_normal((2, 3))
        obs = rng.standard_normal((1, 3))
        return kkr_fit(
            (pred, succ, obs),
            lambda_pred=0.05,
            state_kernel=KernelSpec("gaussian", sigma=1.1),
            obs_kernel=KernelSpec("gaussian", sigma=0.8),
            kappa=0.02,
        )

    def test_matches_dense_oracle(self):
        fitted = self.fitted_model()
        w = np.array([0.5, 0.3, 0.2])
        S = np.eye(3) / 3.0
        y = np.array([0.4])
        w_plus, S_plus, belief = kkr_step(fitted, w, S, y)

        w_minus = fitted.T @ w
        S_minus = fitted.T @ S @ fitted.T.T + fitted.V
        S_minus = (S_minus + S_minus.T) / 2.0
        g = gram(fitted.obs_kernel, fitted.observations, Ensemble(y.reshape(-1, 1)))[:, 0]
        Q = S_minus @ np.linalg.inv(fitted.G_yy @ S_minus + fitted.kappa * np.eye(3))
        w_exp = w_minus + Q @ (g - fitted.G_yy @ w_minus)
        S_exp = S_minus - Q @ fitted.G_yy @ S_minus
        assert_allclose(w_plus, w_exp, rtol=1e-9, atol=1e-12)
        assert_allclose(S_plus, (S_exp + S_exp.T) / 2.0, rtol=1e-9, atol=1e-12)
        oracle = project_moments(fitted.states, w_plus, S_plus)
        assert_allclose(belief.mean, oracle.mean)
        assert_allclose(belief.cov, oracle.cov)

    def test_shares_gain_update(self):
        fitted = self.fitted_model()
        w = np.array([0.2, 0.3, 0.5])
        S = np.diag([0.1, 0.2, 0.3])
        y = np.array([-0.6])
        w_plus, S_plus, _ = kkr_step(fitted, w, S, y)

        w_minus = fitted.T @ w
        S_minus = fitted.T @ S @ fitted.T.T + fitted.V
        S_minus = (S_minus + S_minus.T) / 2.0
        g = gram(fitted.obs_kernel, fitted.observations, Ensemble(y.reshape(-1, 1)))[:, 0]
        w_ref, S_ref = gain_update(w_minus, S_minus, fitted.G_yy, g, fitted.kappa)
        assert np.array_equal(w_plus, w_ref)
        assert np.array_equal(S_plus, S_ref)

    def test_zero_innovation_keeps_predicted_weights(self):
        fitted = self.fitted_model()
        w = np.array([0.4, 0.4, 0.2])
        S = np.eye(3) / 3.0
        w_minus = fitted.T @ w
        # choose the kernel vector already explained by the prediction:
        # solve g = G w_minus by evaluating at a synthetic target
        g = fitted.G_yy @ w_minus
        S_minus = fitted.T @ S @ fitted.T.T + fitted.V
        S_minus = (S_minus + S_minus.T) / 2.0
        w_plus, _ = gain_update(w_minus, S_minus, fitted.G_yy, g, fitted.kappa)
        assert np.array_equal(w_plus, w_minus)
