"""Tests for the kernel Kalman filter cycle.

The dense oracles here recompute each stage with plain inverse-based
linear algebra and explicit Gram assembly, then compare against the
solver-based implementation.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import distance

from kkbench import akkf, kernels
from kkbench.akkf import (
    AkkfConfig,
    FilterDivergedError,
    _rebasis,
    estimate,
    gain_update,
    init,
    predict,
    propose,
    step,
    update,
)
from kkbench.kernels import (
    Ensemble,
    GaussianBelief,
    KernelSpec,
    SingularMatrixError,
    gram,
    low_rank_factor,
    project_moments,
    resolve_bandwidth,
    weighted_moments,
)
from kkbench.models import StateSpaceModel, build_model, simulate


def belief_means(model, cfg, observations, rng):
    """The harness's loop (`bench.run_filter`) over the AKKF: init, then one step per column."""
    state = init(model, cfg, rng)
    means = np.empty((model.state_dim, observations.shape[1]))
    for n, y_n in enumerate(observations.T, start=1):
        state, belief = step(state, n, y_n, model, rng)
        means[:, n - 1] = belief.mean
    return means


def identity_model(noise_std: float = 0.05) -> StateSpaceModel:
    """Scalar random walk observed directly, for tracking sanity checks."""

    var = noise_std * noise_std

    def process(x, noise, n):
        return x + noise

    def measure(x, noise):
        return x + noise

    def sample_noise(rng, count):
        return noise_std * rng.standard_normal((1, count))

    def log_likelihood(y, x):
        delta = (y[0] - x[0]) / noise_std
        return -0.5 * delta * delta - 0.5 * np.log(2.0 * np.pi) - np.log(noise_std)

    return StateSpaceModel(
        state_dim=1,
        obs_dim=1,
        process_noise_dim=1,
        process=process,
        measure=measure,
        sample_process_noise=sample_noise,
        sample_measurement_noise=sample_noise,
        measurement_log_likelihood=log_likelihood,
        sample_prior=lambda rng, count: rng.standard_normal((1, count)),
        prior_mean=np.zeros(1),
        prior_cov=np.eye(1),
        process_noise_cov=lambda x: var * np.eye(1),
        measurement_noise_cov=var * np.eye(1),
        default_horizon=10,
    )


def dense_view(S):
    """The symmetrized M x M array of a weight covariance, dense or an akkf.FactoredCov."""
    if not isinstance(S, akkf.FactoredCov):
        return np.asarray(S)
    P = S.features
    out = P.T @ S.core @ P + S.scale * np.eye(P.shape[1])
    for D in S.downdates:
        out -= D @ D.T
    return (out + out.T) / 2.0


def spy_cholesky(monkeypatch):
    """Record each call of the lookups perfbench's tracer counts: kernels.cho_factor and cho_solve."""
    calls = []
    real_factor, real_solve = kernels.cho_factor, kernels.cho_solve

    def factor(a, *args, **kwargs):
        calls.append(("cho_factor", a.shape))
        return real_factor(a, *args, **kwargs)

    def solve(*args, **kwargs):
        calls.append(("cho_solve",))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(kernels, "cho_factor", factor)
    monkeypatch.setattr(kernels, "cho_solve", solve)
    return calls


class TestAkkfConfig:
    def test_defaults(self):
        cfg = AkkfConfig(KernelSpec("quadratic"), obs_sigma=1.0)
        assert cfg.M == 50
        assert cfg.lambda_tilde == 1e-3
        assert cfg.kappa == 1e-3

    def test_obs_sigma_required_and_positive(self):
        with pytest.raises(TypeError, match="obs_sigma"):
            AkkfConfig(KernelSpec("quadratic"))
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="obs_sigma"):
                AkkfConfig(KernelSpec("quadratic"), obs_sigma=sigma)

    def test_m_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="M"):
            AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=1)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError, match="lambda_tilde"):
            AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, lambda_tilde=0.0)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, kappa=-1.0)


class TestGainUpdate:
    # gain_update takes the factor F of G = F F^T: a random G = A A^T / m
    # comes in as F = A / sqrt(m), and the oracles keep the dense G

    def test_matches_inverse_oracle(self):
        rng = np.random.default_rng(0)
        m = 6
        A = rng.standard_normal((m, m))
        G = A @ A.T / m
        B = rng.standard_normal((m, m))
        S = B @ B.T / m
        w = rng.standard_normal(m)
        g = rng.standard_normal(m)
        kappa = 0.37
        Q = S @ np.linalg.inv(G @ S + kappa * np.eye(m))
        w_exp = w + Q @ (g - G @ w)
        S_exp = S - Q @ G @ S
        S_exp = (S_exp + S_exp.T) / 2.0
        w_plus, S_plus = gain_update(w, S, A / np.sqrt(m), g, kappa)
        assert_allclose(w_plus, w_exp, rtol=1e-10)
        assert_allclose(S_plus, S_exp, rtol=1e-10, atol=1e-12)

    def test_zero_innovation_keeps_weights(self):
        rng = np.random.default_rng(1)
        m = 5
        F = rng.standard_normal((m, m)) / np.sqrt(m)
        S = np.eye(m) / m
        w = rng.standard_normal(m)
        w_plus, _ = gain_update(w, S, F, F @ (F.T @ w), 1e-3)
        # the innovation through the factored Gram is exactly zero, so no
        # correction is added
        assert np.array_equal(w_plus, w)

    def test_huge_kappa_freezes_weights(self):
        rng = np.random.default_rng(2)
        m = 5
        F = rng.standard_normal((m, m)) / np.sqrt(m)
        S = np.eye(m) / m
        w = rng.standard_normal(m)
        g = rng.standard_normal(m)
        w_plus, S_plus = gain_update(w, S, F, g, 1e12)
        assert_allclose(w_plus, w, atol=1e-6)
        assert_allclose(S_plus, S, atol=1e-6)

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(3)
        m = 7
        F = rng.standard_normal((m, m)) / np.sqrt(m)
        B = rng.standard_normal((m, m))
        S = B @ B.T / m
        _, S_plus = gain_update(rng.standard_normal(m), S, F, rng.standard_normal(m), 0.1)
        assert np.array_equal(S_plus, S_plus.T)

    def test_singular_system_raises(self):
        # a zero Gram has the rank-0 factor
        m = 4
        with pytest.raises(SingularMatrixError, match="gain"):
            gain_update(np.zeros(m), np.eye(m), np.zeros((m, 0)), np.zeros(m), 0.0)

    def test_rank_zero_factor_adds_the_scaled_innovation(self, capfd):
        # G = 0: no r x r system is factored, and w moves by S g / kappa
        rng = np.random.default_rng(4)
        m = 5
        B = rng.standard_normal((m, m))
        S = B @ B.T / m
        w, g = rng.standard_normal(m), rng.standard_normal(m)
        w_plus, S_plus = gain_update(w, S, np.zeros((m, 0)), g, 0.3)
        assert_allclose(w_plus, w + S @ g / 0.3, rtol=1e-14)
        assert np.array_equal(S_plus, S)
        assert capfd.readouterr() == ("", "")

    def test_nonfinite_weight_covariance_raises(self):
        m = 4
        S = np.eye(m)
        S[1, 2] = S[2, 1] = np.nan
        F = np.random.default_rng(5).standard_normal((m, 2))
        with pytest.raises(SingularMatrixError, match="gain system"):
            gain_update(np.zeros(m), S, F, np.ones(m), 1e-2)

    def test_singular_at_kappa_escalates_jitter(self):
        # F = I and S = diag(1, 1, -kappa) make W = kappa I + S singular at
        # kappa; the gain takes the escalated shift s and matches the dense
        # formula Q = S (G S + s I)^-1 there
        kappa = 1e-2
        S = np.diag([1.0, 1.0, -kappa])
        rng = np.random.default_rng(6)
        w, g = rng.standard_normal(3), rng.standard_normal(3)
        with pytest.warns(RuntimeWarning, match="gain system: jitter escalated") as caught:
            w_plus, S_plus = gain_update(w, S, np.eye(3), g, kappa)
        assert len(caught) == 1
        shift = kappa + 1e-10 * float(np.trace(S)) / 3
        assert f"shift of {shift:.6g}" in str(caught[0].message)
        Q = S @ np.linalg.inv(S + shift * np.eye(3))
        assert_allclose(w_plus, w + Q @ (g - w), rtol=1e-6)
        assert_allclose(S_plus, S - Q @ S, rtol=1e-6)

    @given(
        m=st.integers(min_value=2, max_value=8),
        kappa=st.floats(min_value=1e-3, max_value=10.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_property(self, m, kappa, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, m))
        G = A @ A.T / m
        B = rng.standard_normal((m, m))
        S = B @ B.T / m
        w = rng.standard_normal(m)
        g = rng.standard_normal(m)
        Q = S @ np.linalg.inv(G @ S + kappa * np.eye(m))
        w_exp = w + Q @ (g - G @ w)
        S_exp = S - Q @ G @ S
        w_plus, S_plus = gain_update(w, S, A / np.sqrt(m), g, kappa)
        assert_allclose(w_plus, w_exp, rtol=1e-8, atol=1e-10)
        assert_allclose(S_plus, (S_exp + S_exp.T) / 2.0, rtol=1e-8, atol=1e-10)


class TestFactoredCov:
    def test_two_downdates_match_the_dense_view(self):
        # the filter rebases S after its one gain update a step, so only a
        # second gain_update before a change of basis multiplies through a
        # downdate; the oracle runs both updates on the dense view
        rng = np.random.default_rng(41)
        m, r, kappa = 8, 3, 0.1
        core = rng.standard_normal((r, r))
        S = akkf.FactoredCov(rng.standard_normal((r, m)) / np.sqrt(m), core @ core.T, 1.0 / m)
        S_dense = dense_view(S)
        w = w_dense = np.full(m, 1.0 / m)
        for _ in range(2):
            F = rng.standard_normal((m, 2)) / np.sqrt(m)
            g = rng.standard_normal(m)
            w, S = gain_update(w, S, F, g, kappa)
            w_dense, S_dense = gain_update(w_dense, S_dense, F, g, kappa)
        assert len(S.downdates) == 2
        assert_close_normwise(w, w_dense, 1e-10)
        assert_close_normwise(dense_view(S), S_dense, 1e-10)
        X = rng.standard_normal((m, 4))
        B = rng.standard_normal((5, m))
        assert_close_normwise(S @ X, dense_view(S) @ X, 1e-12)
        assert_close_normwise(S.sandwich(B), B @ dense_view(S) @ B.T, 1e-12)


class TestInit:
    def test_uniform_weights_and_identity_basis(self):
        cfg = AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=6)
        model = identity_model()
        state = init(model, cfg, np.random.default_rng(0))
        assert state.particles.count == 6
        assert_allclose(state.w, np.full(6, 1.0 / 6.0))
        V = _rebasis(cfg, state.particles, state.particles).spread(0.0)
        assert_allclose(state.S, np.eye(6) / 6.0 + V)
        assert [f.name for f in dataclasses.fields(state)] == ["config", "particles", "w", "S"]

    def test_one_gram_and_one_factor(self, monkeypatch):
        # the prior draws are their own basis, so init needs the self-Gram
        # alone and one Cholesky factor, whose inverse gives the residual
        # by products with no solve; on a Gaussian kernel the median
        # bandwidth takes one pairwise-distance pass and the self-Gram
        # another, and no cross-Gram is built
        grams, passes = [], []
        real_gram = akkf.gram
        real_pdist, real_cdist = distance.pdist, distance.cdist

        def counting_gram(spec, A, B):
            grams.append((A.count, B.count))
            return real_gram(spec, A, B)

        def counting_pdist(X, *args):
            passes.append(("pdist", len(X)))
            return real_pdist(X, *args)

        def counting_cdist(X, Y, *args):
            passes.append(("cdist", len(X)))
            return real_cdist(X, Y, *args)

        monkeypatch.setattr(akkf, "gram", counting_gram)
        monkeypatch.setattr(distance, "pdist", counting_pdist)
        monkeypatch.setattr(distance, "cdist", counting_cdist)
        linalg = spy_cholesky(monkeypatch)
        cfg = AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=7)
        init(identity_model(), cfg, np.random.default_rng(0))
        assert grams == [(7, 7)]
        assert passes == [("pdist", 7), ("cdist", 7)]
        assert linalg == [("cho_factor", (7, 7))]

    def test_deterministic_prior_gives_equal_particles(self):
        model = build_model("ungm")
        cfg = AkkfConfig(KernelSpec("quadratic"), obs_sigma=1.0, M=4)
        state = init(model, cfg, np.random.default_rng(0))
        assert_allclose(state.particles.particles, np.full((1, 4), 0.1))


class TestPredict:
    def test_matches_dense_oracle(self):
        model = identity_model()
        cfg = AkkfConfig(KernelSpec("gaussian", sigma=1.5), obs_sigma=1.0, M=5, lambda_tilde=1e-2)
        rng = np.random.default_rng(4)
        state = init(model, cfg, rng)
        proposals = state.particles.particles.copy()
        S_tilde = state.S.copy()
        w_tilde = state.w.copy()

        rng_run = np.random.default_rng(10)
        rng_oracle = np.random.default_rng(10)
        predict(state, 1, model, rng_run)

        noise = model.sample_process_noise(rng_oracle, 5)
        expected_particles = proposals + noise
        K = gram(KernelSpec("gaussian", sigma=1.5), Ensemble(proposals), Ensemble(proposals))
        lam = cfg.lambda_tilde * float(np.mean(np.diag(K)))
        T = np.linalg.inv(K + lam * np.eye(5)) @ K
        R = T - np.eye(5)
        assert_allclose(state.particles.particles, expected_particles, rtol=1e-12)
        assert np.array_equal(state.w, w_tilde)
        assert np.array_equal(state.S, S_tilde)
        assert_allclose(S_tilde, np.eye(5) / 5.0 + R @ R.T / 5.0, rtol=1e-8, atol=1e-12)

    def test_tiny_ridge_adds_no_spread(self):
        # T approaches the identity as the ridge vanishes, so the propagation
        # residual V that init adds goes to zero and the S that predict
        # carries is the uniform I/M.
        model = identity_model()
        cfg = AkkfConfig(KernelSpec("gaussian", sigma=1.0), obs_sigma=1.0, M=6, lambda_tilde=1e-13)
        rng = np.random.default_rng(5)
        state = init(model, cfg, rng)
        assert_allclose(state.S, np.eye(6) / 6.0, atol=1e-8)

    def test_nonfinite_particle_raises(self):
        model = identity_model()
        blow = StateSpaceModel(
            **{
                **{f: getattr(model, f) for f in model.__dataclass_fields__},
                "process": lambda x, noise, n: x * np.inf,
            }
        )
        cfg = AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=4)
        rng = np.random.default_rng(6)
        state = init(blow, cfg, rng)
        with pytest.raises(FilterDivergedError) as err:
            predict(state, 3, blow, rng)
        assert err.value.time_index == 3


class TestUpdate:
    def test_matches_dense_oracle(self):
        model = identity_model()
        cfg = AkkfConfig(
            KernelSpec("gaussian", sigma=1.0),
            obs_sigma=0.8,
            M=5,
            kappa=2e-2,
        )
        rng = np.random.default_rng(7)
        state = init(model, cfg, rng)
        predict(state, 1, model, rng)
        w_minus = state.w.copy()
        S_minus = state.S.copy()
        particles = state.particles.particles.copy()

        rng_run = np.random.default_rng(20)
        rng_oracle = np.random.default_rng(20)
        y = np.array([0.3])
        update(state, 1, y, model, rng_run)

        noise = model.sample_measurement_noise(rng_oracle, 5)
        obs = particles + noise
        spec = KernelSpec("gaussian", sigma=0.8)
        G = gram(spec, Ensemble(obs), Ensemble(obs))
        g = gram(spec, Ensemble(obs), Ensemble(y.reshape(-1, 1)))[:, 0]
        Q = S_minus @ np.linalg.inv(G @ S_minus + cfg.kappa * np.eye(5))
        w_exp = w_minus + Q @ (g - G @ w_minus)
        S_exp = S_minus - Q @ G @ S_minus
        assert_allclose(state.w, w_exp, rtol=1e-9, atol=1e-12)
        assert_allclose(state.S, (S_exp + S_exp.T) / 2.0, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("y", [[np.nan], [np.inf], [0.3, 0.1]])
    def test_rejects_a_nonfinite_or_misshaped_observation(self, y):
        model = identity_model()
        rng = np.random.default_rng(7)
        state = init(model, AkkfConfig(KernelSpec("quadratic"), obs_sigma=0.8, M=5), rng)
        with pytest.raises(ValueError, match="finite|state dimension"):
            update(state, 1, np.array(y), model, rng)


class TestEstimate:
    def test_polynomial_kernel_reads_feature_moments(self):
        cfg = AkkfConfig(KernelSpec("quadratic", c=1.0), obs_sigma=1.0, M=3)
        model = identity_model()
        state = init(model, cfg, np.random.default_rng(9))
        state.w = np.array([0.5, 0.3, 0.2])
        belief = estimate(state, 1)
        oracle = weighted_moments(state.particles.particles, state.w)
        assert_allclose(belief.mean, oracle.mean)
        assert_allclose(belief.cov, oracle.cov)

    def test_gaussian_kernel_projects_weight_moments(self):
        cfg = AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=3)
        model = identity_model()
        state = init(model, cfg, np.random.default_rng(10))
        state.w = np.array([0.6, 0.3, 0.1])
        state.S = np.diag([0.02, 0.01, 0.03])
        belief = estimate(state, 1)
        oracle = project_moments(state.particles, state.w, state.S)
        assert_allclose(belief.mean, oracle.mean)
        assert_allclose(belief.cov, oracle.cov)

    @pytest.mark.parametrize(
        "kind, poisoned", [("quartic", "w"), ("gaussian", "w"), ("gaussian", "S")]
    )
    def test_nonfinite_moments_diverge(self, kind, poisoned):
        cfg = AkkfConfig(KernelSpec(kind), obs_sigma=1.0, M=3)
        state = init(identity_model(), cfg, np.random.default_rng(10))
        if poisoned == "w":
            state.w = np.array([0.6, np.nan, 0.1])
        else:
            state.S = np.full((3, 3), np.nan)
        with pytest.raises(FilterDivergedError, match="belief moments") as err:
            estimate(state, 4)
        assert err.value.time_index == 4


class TestPropose:
    def test_matches_dense_oracle(self, monkeypatch):
        model = identity_model()
        cfg = AkkfConfig(KernelSpec("gaussian", sigma=1.2), obs_sigma=1.0, M=4, lambda_tilde=5e-3)
        rng = np.random.default_rng(11)
        state = init(model, cfg, rng)
        state.w = np.array([0.4, 0.3, 0.2, 0.1])
        w_plus = state.w.copy()
        S_plus = state.S.copy()
        particles = state.particles
        preset = np.array([[0.5, -0.2, 1.1, 0.7]])
        monkeypatch.setattr(GaussianBelief, "sample", lambda self, rng, count: preset)
        propose(state, estimate(state, 1), rng)

        spec = KernelSpec("gaussian", sigma=1.2)
        K_pp = gram(spec, Ensemble(preset), Ensemble(preset))
        K_px = gram(spec, Ensemble(preset), particles)
        lam = cfg.lambda_tilde * float(np.mean(np.diag(K_pp)))
        inv = np.linalg.inv(K_pp + lam * np.eye(4))
        Gamma = inv @ K_px
        R = inv @ K_pp - np.eye(4)
        S_exp = Gamma @ S_plus @ Gamma.T
        assert np.array_equal(state.particles.particles, preset)
        assert_allclose(state.w, Gamma @ w_plus, rtol=1e-9, atol=1e-12)
        assert_allclose(state.S, (S_exp + S_exp.T) / 2.0 + R @ R.T / 4.0, rtol=1e-9, atol=1e-12)

    def test_identity_rebasis_preserves_moments(self, monkeypatch):
        # when the proposal basis equals the current basis and the ridge is
        # tiny, the change of basis is the identity map
        model = identity_model()
        cfg = AkkfConfig(KernelSpec("gaussian", sigma=1.0), obs_sigma=1.0, M=5, lambda_tilde=1e-12)
        rng = np.random.default_rng(12)
        state = init(model, cfg, rng)
        state.w = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
        w_before = state.w.copy()
        S_before = state.S.copy()
        monkeypatch.setattr(
            GaussianBelief, "sample", lambda self, rng, count: state.particles.particles
        )
        mean_before = state.particles.particles @ state.w
        propose(state, estimate(state, 1), rng)
        assert_allclose(state.S, S_before, atol=1e-6)
        assert_allclose(state.w, w_before, atol=1e-6)
        assert_allclose(state.particles.particles @ state.w, mean_before, atol=1e-6)


class TestStep:
    def test_filter_sequence_deterministic(self):
        model = build_model("ungm")
        cfg = AkkfConfig(
            KernelSpec("quadratic", c=1.0),
            obs_sigma=6.0,
            M=10,
            lambda_tilde=1e-2,
            kappa=1e-2,
        )
        rng = np.random.default_rng(13)
        traj = simulate(model, 20, rng)
        est1 = belief_means(model, cfg, traj.observations, np.random.default_rng(99))
        est2 = belief_means(model, cfg, traj.observations, np.random.default_rng(99))
        assert np.array_equal(est1, est2)

    def test_covariances_stay_symmetric(self):
        # checks the stored S, not a symmetrized view of it.  ungm quadratic
        # at M=8 (r = 3) keeps S factored: the core is symmetrized exactly,
        # and each downdate D enters as D D^T, symmetric by construction.
        # The Gaussian kernel keeps S dense: the gain subtracts D D^T, formed
        # exactly symmetric, and the change of basis symmetrizes.
        def assert_symmetric(S):
            if not isinstance(S, akkf.FactoredCov):
                assert np.array_equal(S, S.T)
                return
            assert np.array_equal(S.core, S.core.T)

        model = build_model("ungm")
        for kind in ("quadratic", "gaussian"):
            cfg = AkkfConfig(
                KernelSpec(kind, c=1.0), obs_sigma=6.0, M=8, lambda_tilde=1e-2, kappa=1e-2
            )
            rng = np.random.default_rng(14)
            traj = simulate(model, 15, rng)
            state = init(model, cfg, rng)
            assert isinstance(state.S, akkf.FactoredCov) == (kind == "quadratic")
            assert_symmetric(state.S)
            for n, y_n in enumerate(traj.observations.T, start=1):
                predict(state, n, model, rng)
                assert_symmetric(state.S)
                update(state, n, y_n, model, rng)
                assert_symmetric(state.S)
                propose(state, estimate(state, n), rng)
                assert_symmetric(state.S)

    def test_update_contracts_weight_covariance_trace(self):
        # conditioning on an observation should not inflate the weight
        # spread; checked as a regression on a canned run
        model = build_model("ungm")
        cfg = AkkfConfig(
            KernelSpec("quadratic", c=1.0),
            obs_sigma=6.0,
            M=10,
            lambda_tilde=1e-2,
            kappa=1e-2,
        )
        rng = np.random.default_rng(11)
        traj = simulate(model, 30, rng)
        state = init(model, cfg, rng)
        for n, y_n in enumerate(traj.observations.T, start=1):
            predict(state, n, model, rng)
            trace_minus = np.trace(dense_view(state.S))
            update(state, n, y_n, model, rng)
            assert np.trace(dense_view(state.S)) <= trace_minus + 1e-8 * abs(trace_minus)
            propose(state, estimate(state, n), rng)

    def test_weights_can_go_negative(self):
        # kernel weight vectors are not probability weights; a canned
        # bearings run drives some components below zero
        model = build_model("bot-cv")
        cfg = AkkfConfig(
            KernelSpec("quartic", c=0.5),
            obs_sigma=1.0,
            M=8,
            lambda_tilde=1e-3,
            kappa=1e-3,
        )
        rng = np.random.default_rng(3)
        traj = simulate(model, 10, rng)
        state = init(model, cfg, rng)
        min_weight = np.inf
        for n, y_n in enumerate(traj.observations.T, start=1):
            predict(state, n, model, rng)
            update(state, n, y_n, model, rng)
            min_weight = min(min_weight, state.w.min())
            propose(state, estimate(state, n), rng)
        assert min_weight < 0.0

    def test_tracks_identity_model(self):
        model = identity_model()
        cfg = AkkfConfig(KernelSpec("gaussian"), obs_sigma=1.0, M=50)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            traj = simulate(model, 10, rng)
            est = belief_means(model, cfg, traj.observations, rng)
            err = np.abs(est[0] - traj.states[0])
            # noise std is 0.05; after burn-in the filter stays within 4 sigma
            assert err[4:].max() < 0.2

    def test_golden_single_step(self):
        # frozen regression: one cycle on the growth model, seed 7
        model = build_model("ungm")
        cfg = AkkfConfig(
            KernelSpec("quadratic", c=1.0),
            obs_sigma=2.0,
            M=5,
            lambda_tilde=1e-2,
            kappa=1e-2,
        )
        rng = np.random.default_rng(7)
        state = init(model, cfg, rng)
        predict(state, 1, model, rng)
        predicted = state.particles.particles.copy()
        update(state, 1, np.array([1.5]), model, rng)
        w_plus = state.w.copy()
        S_plus = state.S.copy()
        belief = estimate(state, 1)
        propose(state, belief, rng)
        assert_allclose(
            predicted[0],
            [
                10.526477678109957,
                10.823993062260945,
                10.251109669390257,
                9.6346556859952,
                10.070576739580751,
            ],
            rtol=1e-12,
        )
        assert_allclose(
            w_plus,
            [
                -0.4620679811982626,
                0.0846931608684845,
                -0.00251614111737924,
                0.8392432993155203,
                -0.27855780046989254,
            ],
            rtol=1e-10,
        )
        assert_allclose(belief.mean, [1.3075591769134414], rtol=1e-10)
        assert_allclose(belief.cov, [[6.401920084787043]], rtol=1e-10)
        assert np.trace(S_plus) == pytest.approx(0.7901256560882788, rel=1e-10)

    def test_step_returns_post_update_belief(self):
        model = build_model("ungm")
        cfg = AkkfConfig(KernelSpec("quadratic", c=1.0), obs_sigma=1.0, M=6)
        y = np.array([0.5])
        rng = np.random.default_rng(15)
        state = init(model, cfg, rng)
        state, belief = step(state, 1, y, model, rng)
        twin_rng = np.random.default_rng(15)
        twin = init(model, cfg, twin_rng)
        predict(twin, 1, model, twin_rng)
        update(twin, 1, y, model, twin_rng)
        oracle = estimate(twin, 1)
        assert_allclose(belief.mean, oracle.mean)
        assert_allclose(belief.cov, oracle.cov)

    def test_filter_sequence_shape(self):
        model = build_model("bot-cv")
        cfg = AkkfConfig(
            KernelSpec("quartic", c=0.5),
            obs_sigma=1.0,
            M=6,
        )
        rng = np.random.default_rng(16)
        traj = simulate(model, 12, rng)
        est = belief_means(model, cfg, traj.observations, rng)
        assert est.shape == (4, 12)
        assert np.isfinite(est).all()


class TestMultistepOracle:
    def replay(self, model, cfg, ys, after_stage=lambda state: None, lock_step=False):
        # replay the full cycle with a parallel generator and inverse-based
        # solves; covers the carry-over of weights and bases across steps.
        # after_stage sees the state after init, update and propose.  With
        # lock_step the oracle goes on from the run's proposals instead of
        # its own, so every step compares the weight algebra on the same
        # particles: at M=200 rounding differences in w reach the samples
        # through the PSD-repaired readout and its eigen root, and since each
        # step's samples are the next step's particles, they compound past
        # the replay's tolerances within three steps.
        spec_x, spec_y = cfg.state_kernel, KernelSpec("gaussian", sigma=cfg.obs_sigma)
        rng_run = np.random.default_rng(21)
        state = init(model, cfg, np.random.default_rng(77))
        after_stage(state)
        rng_oracle = np.random.default_rng(21)
        m = cfg.M

        def residual_cov(basis):
            K = gram(spec_x, Ensemble(basis), Ensemble(basis))
            lam = cfg.lambda_tilde * float(np.mean(np.diag(K)))
            R = np.linalg.inv(K + lam * np.eye(m)) @ K - np.eye(m)
            return R @ R.T / m

        prop = state.particles.particles.copy()
        w_t = state.w.copy()
        S_t = np.eye(m) / m + residual_cov(prop)

        for n in range(ys.shape[1]):
            predict(state, n + 1, model, rng_run)
            update(state, n + 1, ys[:, n], model, rng_run)
            after_stage(state)
            run_cur = state.particles.particles.copy()
            run_w_plus = state.w.copy()
            run_S_plus = dense_view(state.S)
            propose(state, estimate(state, n + 1), rng_run)
            after_stage(state)

            noise = model.sample_process_noise(rng_oracle, m)
            cur = model.process(prop, noise, n + 1)
            w_minus = w_t
            S_minus = S_t

            v = model.sample_measurement_noise(rng_oracle, m)
            obs = model.measure(cur, v)
            G = gram(spec_y, Ensemble(obs), Ensemble(obs))
            g = gram(spec_y, Ensemble(obs), Ensemble(ys[:, n].reshape(-1, 1)))[:, 0]
            Q = S_minus @ np.linalg.inv(G @ S_minus + cfg.kappa * np.eye(m))
            w_plus = w_minus + Q @ (g - G @ w_minus)
            S_plus = S_minus - Q @ G @ S_minus
            S_plus = (S_plus + S_plus.T) / 2.0

            belief = weighted_moments(cur, w_plus)
            prop = belief.sample(rng_oracle, m)
            if lock_step:
                prop = state.particles.particles.copy()
            K_pp = gram(spec_x, Ensemble(prop), Ensemble(prop))
            K_px = gram(spec_x, Ensemble(prop), Ensemble(cur))
            lam = cfg.lambda_tilde * float(np.mean(np.diag(K_pp)))
            Gamma = np.linalg.inv(K_pp + lam * np.eye(m)) @ K_px
            w_t = Gamma @ w_plus
            S_t = Gamma @ S_plus @ Gamma.T
            S_t = (S_t + S_t.T) / 2.0 + residual_cov(prop)

            assert_allclose(run_cur, cur, rtol=1e-10)
            assert_allclose(run_w_plus, w_plus, rtol=1e-7, atol=1e-10)
            assert_allclose(run_S_plus, S_plus, rtol=1e-7, atol=1e-10)
            assert_allclose(state.particles.particles, prop, rtol=1e-7, atol=1e-10)
            assert_allclose(state.w, w_t, rtol=1e-6, atol=1e-9)
            assert_allclose(dense_view(state.S), S_t, rtol=1e-6, atol=1e-9)

    def test_three_steps_match_dense_replay(self):
        spec_x = KernelSpec("quadratic", c=1.0)
        cfg = AkkfConfig(spec_x, obs_sigma=2.0, M=6, lambda_tilde=1e-2, kappa=1e-2)
        self.replay(build_model("ungm"), cfg, np.array([[1.0, 4.0, 0.2]]))

    def test_factored_weight_covariance_matches_dense_replay(self):
        # the benchmark cell's kernels at M=200: r = 70 state features, so
        # S stays a FactoredCov, and the observation Gram has rank far
        # below M, so none of its arrays is M x M
        model = build_model("bot-cv")
        cfg = AkkfConfig(
            KernelSpec("quartic", c=0.5),
            obs_sigma=1.0,
            M=200,
        )
        ys = simulate(model, 3, np.random.default_rng(5)).observations

        def no_m_by_m_array(state):
            assert isinstance(state.S, akkf.FactoredCov)
            assert state.S.features.shape == (70, 200)
            held = [state.S.features, state.S.core, *state.S.downdates]
            assert all(a.shape != (200, 200) for a in held)

        self.replay(model, cfg, ys, no_m_by_m_array, lock_step=True)


def assert_close_normwise(actual, expected, rtol):
    """|actual - expected| <= rtol * max|expected|, entry by entry."""
    assert_allclose(actual, expected, rtol=0, atol=rtol * np.abs(expected).max())


def prior_draws(scenario, m, rng, spread=1.0):
    """m prior draws of a scenario, pulled towards the prior mean by ``spread``."""
    model = build_model(scenario)
    draws = model.sample_prior(rng, m)
    mean = model.prior_mean[:, None]
    return Ensemble(mean + spread * (draws - mean))


def dense_rebasis(cfg, proposals, particles):
    """Gamma and V from the proposal self-Gram by a dense LU solve."""
    K = gram(cfg.state_kernel, proposals, proposals)
    K_px = gram(cfg.state_kernel, proposals, particles)
    m = proposals.count
    X = np.linalg.solve(K + cfg.lambda_tilde * float(np.mean(np.diag(K))) * np.eye(m), np.hstack([K_px, K]))
    R = X[:, -m:] - np.eye(m)
    return X[:, :-m], R @ R.T / m


class TestLowRankRebasis:
    @pytest.mark.parametrize("spread", [1.0, 0.1, 0.01])
    def test_matches_dense_solve(self, spread):
        # bot-cv's quartic kernel has C(4+4, 4) = 70 features, so the
        # M=200 benchmark cell solves in feature space
        rng = np.random.default_rng(31)
        cfg = AkkfConfig(KernelSpec("quartic", c=0.5), obs_sigma=1.0, M=200)
        particles = prior_draws("bot-cv", 200, rng, spread)
        proposals = prior_draws("bot-cv", 200, rng, spread)
        # on a factored basis the filter's S is always a FactoredCov
        B = rng.standard_normal((200, 200))
        S = akkf.FactoredCov(B.T / 200, np.eye(200), 1.0 / 200)
        S_dense = dense_view(S)
        w = rng.standard_normal(200) / 200

        basis = _rebasis(cfg, proposals, particles)
        Gamma, V = dense_rebasis(cfg, proposals, particles)
        assert basis.features.shape == (70, 200)
        Gamma_low = basis.features.T @ basis.core
        assert_close_normwise(Gamma_low, Gamma, 1e-9)
        assert_close_normwise(dense_view(basis.spread(0.0)), V, 1e-9)
        assert_close_normwise(Gamma_low @ S_dense @ Gamma_low.T, Gamma @ S_dense @ Gamma.T, 1e-9)
        w_plus, S_plus = basis.carry(w, S)
        S_plus = dense_view(S_plus)
        S_exp = Gamma @ S_dense @ Gamma.T
        assert_close_normwise(w_plus, Gamma @ w, 1e-9)
        assert_close_normwise(S_plus, (S_exp + S_exp.T) / 2.0 + V, 1e-9)
        assert np.array_equal(S_plus, S_plus.T)

        # init's basis is its own particle set
        _, V_self = dense_rebasis(cfg, proposals, proposals)
        assert_close_normwise(dense_view(_rebasis(cfg, proposals, proposals).spread(0.0)), V_self, 1e-9)

    def test_goes_through_kernels_ridge_solve_and_cho_factor(self, monkeypatch):
        # the r x r factor is the one factorization of the basis, on the
        # lookups perfbench's tracer counts, and no solve follows it; no
        # M x M Gram is built
        grams = []
        real_gram = akkf.gram

        def counting_gram(spec, A, B):
            grams.append((A.count, B.count))
            return real_gram(spec, A, B)

        linalg = spy_cholesky(monkeypatch)
        monkeypatch.setattr(akkf, "gram", counting_gram)
        assert akkf.ridge_solve is kernels.ridge_solve
        rng = np.random.default_rng(32)
        cfg = AkkfConfig(KernelSpec("quartic", c=0.5), obs_sigma=1.0, M=200)
        _rebasis(cfg, prior_draws("bot-cv", 200, rng), prior_draws("bot-cv", 200, rng))
        assert linalg == [("cho_factor", (70, 70))]
        assert grams == []

    def test_bot_ct_quartic_stays_dense(self, monkeypatch):
        # d = 5 gives r = C(9, 4) = 126 > M/2 at M=200: one M x M factor
        # and products with its inverse, no solve
        grams = []
        real_gram = akkf.gram

        def counting_gram(spec, A, B):
            grams.append((A.count, B.count))
            return real_gram(spec, A, B)

        monkeypatch.setattr(akkf, "gram", counting_gram)
        linalg = spy_cholesky(monkeypatch)
        rng = np.random.default_rng(33)
        cfg = AkkfConfig(KernelSpec("quartic", c=0.5), obs_sigma=1.0, M=200)
        basis = _rebasis(cfg, prior_draws("bot-ct", 200, rng), prior_draws("bot-ct", 200, rng))
        assert basis.features is None
        assert grams == [(200, 200), (200, 200)]
        assert linalg == [("cho_factor", (200, 200))]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_ridge_system_raises_before_factoring(self, monkeypatch, bad):
        linalg = spy_cholesky(monkeypatch)
        K = np.eye(4)
        K[2, 1] = bad
        with pytest.raises(SingularMatrixError, match="proposal feature gram: ridge system is not finite"):
            kernels.ridge_solve(K, 1e-3, name="proposal feature gram")
        assert linalg == []

    def test_overflowing_features_raise_singular_matrix_error(self, monkeypatch):
        # quartic features of states near 1e80 overflow, so the feature Gram
        # holds infs; the filter sees a singular system, not a bad argument
        linalg = spy_cholesky(monkeypatch)
        cfg = AkkfConfig(KernelSpec("quartic"), obs_sigma=1.0, M=40)
        E = Ensemble(np.linspace(-1e80, 1e80, 40)[None, :])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularMatrixError, match="proposal feature gram"):
                _rebasis(cfg, E, E)
        assert linalg == []

    @pytest.mark.parametrize("m, factored", [(5, False), (6, True)])
    def test_rank_rule_boundary(self, m, factored):
        # ungm's quadratic kernel has r = 3 features: M=5 (the golden cell)
        # keeps the dense solve, M=6 is the first to satisfy 2r <= M
        cfg = AkkfConfig(KernelSpec("quadratic", c=1.0), obs_sigma=1.0, M=m, lambda_tilde=1e-2)
        rng = np.random.default_rng(34)
        E = Ensemble(rng.standard_normal((1, m)) * 10.0)
        basis = _rebasis(cfg, E, E)
        assert (basis.features is not None) == factored
        _, V = dense_rebasis(cfg, E, E)
        assert_close_normwise(dense_view(basis.spread(0.0)), V, 1e-9)


# (scenario, M, bandwidth, whether the observation Gram's rank r has 2r <= M)
GAIN_CASES = [
    pytest.param("bot-cv", 100, 1.0, True, id="100"),
    pytest.param("bot-cv", 200, 1.0, True, id="200"),
    *(
        pytest.param(scenario, m, None, False, id=f"{scenario}-{m}")
        for scenario in ("bot-cv", "bot-ct")
        for m in (6, 10, 20)
    ),
]


class TestLowRankGain:
    @pytest.mark.parametrize("scenario, m, sigma, low_rank", GAIN_CASES)
    @pytest.mark.parametrize("kappa", [1e-4, 1e-3, 1e-2])
    def test_matches_dense_q_formula(self, scenario, m, sigma, low_rank, kappa):
        # bearings on prior draws.  At M=100 and 200 the Gaussian
        # observation Gram has numerical rank well below M/2; the small
        # ensembles, on the median-heuristic bandwidth the filter resolves,
        # are at or near full rank, and Woodbury's r x r system serves both.
        # The gain takes the on-demand factor, the oracle the exact Gram
        rng = np.random.default_rng(int(m / kappa))
        model = build_model(scenario)
        states = prior_draws(scenario, m, rng).particles
        obs = Ensemble(model.measure(states, model.sample_measurement_noise(rng, m)))
        spec = resolve_bandwidth(KernelSpec("gaussian", sigma=sigma), obs)
        G = gram(spec, obs, obs)
        g = gram(spec, obs, Ensemble(model.measure(states[:, :1], np.zeros((1, 1)))))[:, 0]
        B = rng.standard_normal((m, m))
        S = np.eye(m) / m + B @ B.T / m**2
        w = rng.standard_normal(m) / m
        F = low_rank_factor(spec, obs)
        assert (2 * F.shape[1] <= m) == low_rank

        Q = S @ np.linalg.inv(G @ S + kappa * np.eye(m))
        w_exp = w + Q @ (g - G @ w)
        S_exp = S - Q @ G @ S
        w_plus, S_plus = gain_update(w, S, F, g, kappa)
        assert_close_normwise(w_plus, w_exp, 1e-9)
        assert_close_normwise(S_plus, (S_exp + S_exp.T) / 2.0, 1e-9)
        assert np.array_equal(S_plus, S_plus.T)

    def test_singular_low_rank_system_raises(self):
        # rank 1 of M=4 without kappa: kappa I + F F^T S is singular
        m = 4
        with pytest.raises(SingularMatrixError, match="gain system"):
            gain_update(np.zeros(m), np.eye(m), np.ones((m, 1)), np.ones(m), 0.0)

    def test_full_rank_without_kappa_raises(self):
        # the Woodbury form divides by kappa, so kappa = 0 is rejected at
        # every rank, not only where kappa I + F F^T S is singular
        m = 4
        with pytest.raises(SingularMatrixError, match="gain system"):
            gain_update(np.zeros(m), np.eye(m), np.eye(m), np.ones(m), 0.0)


class TestFactoredStepMemory:
    def test_step_peaks_below_one_m_by_m_array(self):
        # bot-cv quartic at M=800 runs the factored basis, and the gain takes
        # the observation Gram's factor, built one column per pivot: a step's
        # traced peak stays below one M x M float64 array (5,000 KiB)
        m = 800
        model = build_model("bot-cv")
        rng = np.random.default_rng(5)
        ys = simulate(model, 2, rng).observations
        state = init(model, AkkfConfig(KernelSpec("quartic", c=0.5), obs_sigma=1.0, M=m), rng)
        state, _ = step(state, 1, ys[:, 0], model, rng)
        tracemalloc.start()
        try:
            step(state, 2, ys[:, 1], model, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(state.S, akkf.FactoredCov)
        assert peak < m * m * 8
