"""Kernel plumbing: evaluation, Gram assembly, low-rank factors, ridge solves, moment readout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from kkbench import (
    Ensemble,
    GaussianBelief,
    KernelSpec,
    SingularMatrixError,
    build_model,
    extract_moments_poly,
    gram,
    project_moments,
    psd_repair,
    resolve_bandwidth,
    ridge_solve,
)
from kkbench.kernels import RANK_RTOL, feature_dim, feature_map, low_rank_factor

ALL_KINDS = ("quadratic", "quartic", "gaussian")


def clipped_readout_covs(rng, count=200):
    """Readout covariances as the PSD repair leaves them: two zero eigenvalues."""
    for _ in range(count):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        yield psd_repair(Q @ np.diag([-1e-3, 0.0, 9.4e-3, 0.15]) @ Q.T)


def random_ensemble(rng, d, m, scale=1.0):
    return Ensemble(scale * rng.standard_normal((d, m)))


def make_spec(kind):
    if kind == "gaussian":
        return KernelSpec(kind, sigma=1.3)
    return KernelSpec(kind, c=0.7)


def kernel_eval(spec, x, x2):
    """Scalar oracle for one Gram entry: k(x, x2) for a single pair of vectors."""
    if spec.kind == "quadratic":
        return float((x @ x2 + spec.c) ** 2)
    if spec.kind == "quartic":
        return float((x @ x2 + spec.c) ** 4)
    diff = x - x2
    return float(np.exp(-(diff @ diff) / spec.sigma**2))


def gram_entry(spec, x, x2):
    """k(x, x2) through ``gram`` on two one-particle ensembles."""
    A, B = (Ensemble(np.reshape(v, (-1, 1))) for v in (x, x2))
    return gram(spec, A, B)[0, 0]


class TestKernelSpec:
    def test_unknown_kind_rejected(self):
        for kind in ("cubic", "linear"):
            with pytest.raises(ValueError):
                KernelSpec(kind)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("quadratic", c=-1.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=0.0)

    def test_resolved_flag(self):
        assert not KernelSpec("gaussian").resolved
        assert KernelSpec("gaussian", sigma=2.0).resolved
        assert KernelSpec("quadratic").resolved


class TestKernelEval:
    def test_gaussian_zero_distance_is_one(self):
        x = np.array([0.3, -1.2])
        for sigma in (0.1, 1.0, 57.0):
            assert gram_entry(KernelSpec("gaussian", sigma=sigma), x, x) == 1.0

    def test_quadratic_orthogonal_vectors(self):
        spec = KernelSpec("quadratic", c=1.0)
        assert gram_entry(spec, [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_quartic_c0(self):
        spec = KernelSpec("quartic", c=0.0)
        assert gram_entry(spec, [1.0, 1.0], [1.0, 1.0]) == 16.0

    def test_gaussian_matches_formula(self):
        # exp(-||x - x'||^2 / sigma^2), no factor of 2 in the denominator
        spec = KernelSpec("gaussian", sigma=2.0)
        got = gram_entry(spec, [0.0], [1.0])
        assert_allclose(got, np.exp(-1.0 / 4.0), rtol=1e-15)


class TestGram:
    def test_gaussian_self_diagonal_ones(self):
        rng = np.random.default_rng(0)
        E = random_ensemble(rng, 3, 6)
        K = gram(KernelSpec("gaussian", sigma=0.8), E, E)
        assert_allclose(np.diag(K), np.ones(6), rtol=1e-14)

    def test_quadratic_scalar_example(self):
        E = Ensemble(np.array([[1.0, 2.0]]))
        K = gram(KernelSpec("quadratic", c=1.0), E, E)
        assert_array_equal(K, np.array([[4.0, 9.0], [9.0, 25.0]]))

    def test_entries_match_kernel_eval(self):
        # matrix-product and single-pair evaluation orders differ in the last
        # ulp, so equality holds to rounding only
        rng = np.random.default_rng(1)
        A = random_ensemble(rng, 2, 4)
        B = random_ensemble(rng, 2, 3)
        for kind in ALL_KINDS:
            spec = make_spec(kind)
            K = gram(spec, A, B)
            for i in range(4):
                for j in range(3):
                    assert_allclose(
                        K[i, j],
                        kernel_eval(spec, A.particles[:, i], B.particles[:, j]),
                        rtol=1e-12,
                    )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            gram(KernelSpec("quadratic"), random_ensemble(rng, 2, 3), random_ensemble(rng, 3, 3))

    def test_unresolved_bandwidth(self):
        E = Ensemble(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            gram(KernelSpec("gaussian"), E, E)

    def test_shapes_recorded(self):
        rng = np.random.default_rng(3)
        K = gram(KernelSpec("quadratic"), random_ensemble(rng, 2, 5), random_ensemble(rng, 2, 3))
        assert K.shape == (5, 3)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 4),
    m=st.integers(1, 8),
)
def test_self_gram_symmetric_and_psd(kind, seed, d, m):
    rng = np.random.default_rng(seed)
    E = random_ensemble(rng, d, m, scale=3.0)
    K = gram(make_spec(kind), E, E)
    bound = 1e-12 * (1.0 + np.abs(K).max())
    assert np.abs(K - K.T).max() <= bound
    eigenvalues = np.linalg.eigvalsh(K)
    assert eigenvalues[0] >= -1e-10 * np.trace(K)


def bearing_ensemble(rng, m):
    """m bearings (1 x m) of bot-cv prior draws, as the AKKF's observation particles."""
    model = build_model("bot-cv")
    states = model.sample_prior(rng, m)
    return Ensemble(model.measure(states, model.sample_measurement_noise(rng, m)))


class TestGaussianSelfGram:
    # a Gaussian self-Gram is exactly symmetric without a symmetrizing pass:
    # (a - b)^2 and (b - a)^2 are equal bit for bit
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("sigma", [None, 0.05, 1.0])
    def test_bearings_exactly_symmetric(self, seed, sigma):
        E = bearing_ensemble(np.random.default_rng(seed), 200)
        spec = resolve_bandwidth(KernelSpec("gaussian", sigma=sigma), E)
        K = gram(spec, E, E)
        assert np.array_equal(K, K.T)
        twin = Ensemble(E.particles.copy())
        assert twin is not E
        assert np.array_equal(gram(spec, E, twin), K)


class TestResolveBandwidth:
    def test_single_pair(self):
        E = Ensemble(np.array([[0.0, 2.0]]))
        assert resolve_bandwidth(KernelSpec("gaussian"), E).sigma == 2.0

    def test_three_points(self):
        # pairwise distances {1, 2, 3}, median 2
        E = Ensemble(np.array([[0.0, 1.0, 3.0]]))
        assert resolve_bandwidth(KernelSpec("gaussian"), E).sigma == 2.0

    def test_degenerate_fallback(self):
        E = Ensemble(np.array([[5.0, 5.0, 5.0]]))
        assert resolve_bandwidth(KernelSpec("gaussian"), E).sigma == 1.0

    def test_single_particle_error(self):
        with pytest.raises(ValueError):
            resolve_bandwidth(KernelSpec("gaussian"), Ensemble(np.array([[1.0]])))

    def test_fixed_sigma_passes_through(self):
        spec = KernelSpec("gaussian", sigma=6.0)
        E = Ensemble(np.array([[0.0, 2.0]]))
        assert resolve_bandwidth(spec, E) is spec

    def test_non_gaussian_passes_through(self):
        spec = KernelSpec("quartic", c=0.5)
        E = Ensemble(np.array([[0.0, 2.0]]))
        assert resolve_bandwidth(spec, E) is spec


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("quadratic", "quartic")),
    d=st.integers(1, 5),
    c=st.sampled_from((0.0, 0.5, 1.0)),
    m=st.integers(1, 12),
    scale=st.sampled_from((0.1, 1.0, 10.0)),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_map_reproduces_gram(kind, d, c, m, scale, seed):
    # Phi^T Phi against gram entry by entry, relative to the Cauchy-Schwarz
    # scale sqrt(K_ii K_jj) that bounds each entry
    rng = np.random.default_rng(seed)
    spec = KernelSpec(kind, c=c)
    A, B = random_ensemble(rng, d, m, scale), random_ensemble(rng, d, m + 1, scale)
    phi_a, phi_b = feature_map(spec, A), feature_map(spec, B)
    p = {"quadratic": 2, "quartic": 4}[kind]
    assert phi_a.shape == (math.comb(d + p, p), m) == (feature_dim(spec, d), m)
    for X, Y, phi_x, phi_y in ((A, A, phi_a, phi_a), (A, B, phi_a, phi_b)):
        K = gram(spec, X, Y)
        bound = np.sqrt(np.outer((phi_x**2).sum(axis=0), (phi_y**2).sum(axis=0)))
        assert (np.abs(phi_x.T @ phi_y - K) <= 1e-12 * bound).all()


class TestFeatureMap:
    def test_scalar_quadratic_features(self):
        # (x x' + c)^2 = x^2 x'^2 + 2c x x' + c^2: features x^2, sqrt(2c) x, c
        E = Ensemble(np.array([[2.0, -1.0]]))
        phi = feature_map(KernelSpec("quadratic", c=0.5), E)
        assert_allclose(phi, [[4.0, 1.0], [2.0, -1.0], [0.5, 0.5]], rtol=1e-15)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            feature_map(KernelSpec("gaussian", sigma=1.0), Ensemble(np.zeros((1, 2))))


class TestLowRankFactor:
    def test_exact_rank_recovered(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((40, 6))
        K = B @ B.T
        F = low_rank_factor(K)
        assert F.shape == (40, 6)
        assert_allclose(F @ F.T, K, rtol=0, atol=1e-12 * np.abs(K).max())

    def test_full_rank_and_zero(self):
        assert low_rank_factor(np.eye(5)).shape == (5, 5)
        assert low_rank_factor(np.zeros((4, 4))).shape == (4, 0)

    def test_gaussian_gram_remainder_below_tolerance(self):
        # the dropped remainder K - F F^T is PSD, so its entries are bounded
        # by its largest diagonal, which the stopping rule caps
        rng = np.random.default_rng(1)
        E = Ensemble(rng.uniform(-np.pi, np.pi, (1, 200)))
        K = gram(KernelSpec("gaussian", sigma=1.0), E, E)
        F = low_rank_factor(K)
        assert F.shape[1] <= 100
        assert np.abs(K - F @ F.T).max() <= RANK_RTOL


class TestRidgeSolve:
    def test_identity_no_ridge(self):
        b = np.array([[1.0], [2.0], [3.0]])
        assert_allclose(ridge_solve(np.eye(3), 0.0, b), b, rtol=1e-14)

    def test_identity_unit_ridge(self):
        b = np.array([[1.0], [2.0], [3.0]])
        assert_allclose(ridge_solve(np.eye(3), 1.0, b), b / 2.0, rtol=1e-14)

    def test_two_by_two_closed_form(self):
        K = np.array([[2.0, 1.0], [1.0, 2.0]])
        got = ridge_solve(K, 0.5, np.eye(2))
        assert_allclose(got, np.linalg.inv(K + 0.5 * np.eye(2)), rtol=1e-13)

    def test_singular_after_escalation(self):
        with pytest.raises(SingularMatrixError, match="proposal"):
            ridge_solve(np.zeros((3, 3)), 0.0, np.eye(3), name="proposal self-gram")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), -1.0, np.eye(2))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ridge_solve(np.ones((2, 3)), 0.0, np.eye(2))
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), 0.0, np.eye(3))

    def test_half_solve_is_lower_cholesky_inverse(self):
        K = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = np.linalg.cholesky(K + 1.0 * np.eye(2))
        B = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
        assert_allclose(ridge_solve(K, 1.0, B, half=True), np.linalg.solve(L, B), rtol=1e-14)

    def test_half_solve_escalates_jitter(self):
        # a rank-one K with no ridge fails the first factorization; the
        # half solve retries with the same jitter as the full solve
        K = np.ones((3, 3))
        W = ridge_solve(K, 0.0, np.eye(3), half=True)
        X = ridge_solve(K, 0.0, np.eye(3))
        assert_allclose(W.T @ W, X, rtol=1e-6)
        with pytest.raises(SingularMatrixError, match="proposal"):
            ridge_solve(np.zeros((3, 3)), 0.0, np.eye(3), name="proposal feature gram", half=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), lam=st.floats(1e-6, 10.0))
def test_half_solve_products_match_full_solve(seed, m, lam):
    # (L^-1 B_1)^T (L^-1 B_2) = B_1^T (K + lam I)^-1 B_2
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    K = A @ A.T
    B1, B2 = rng.standard_normal((m, 3)), rng.standard_normal((m, 2))
    W = ridge_solve(K, lam, np.hstack([B1, B2]), half=True)
    expected = B1.T @ ridge_solve(K, lam, B2)
    scale = np.linalg.norm(B1) * np.linalg.norm(B2) / lam
    assert np.abs(W[:, :3].T @ W[:, 3:] - expected).max() <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), lam=st.floats(0.0, 10.0))
def test_ridge_solve_residual(seed, m, lam):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    K = A @ A.T + 1e-6 * np.eye(m)
    B = rng.standard_normal((m, 3))
    X = ridge_solve(K, lam, B)
    residual = np.linalg.norm((K + lam * np.eye(m)) @ X - B)
    assert residual <= 1e-8 * (np.linalg.norm(K) + lam) * (1.0 + np.linalg.norm(X))


class TestPsdRepair:
    def test_clamps_negative_eigenvalues(self):
        C = np.diag([1.0, -2.0])
        repaired = psd_repair(C)
        assert_allclose(repaired, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_input_only_symmetrized(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        C = A @ A.T
        assert_allclose(psd_repair(C), (C + C.T) / 2.0, rtol=1e-14)

    def test_asymmetric_input(self):
        C = np.array([[0.1, 0.0], [1.0, 0.01]])
        repaired = psd_repair(C)
        assert_array_equal(repaired, repaired.T)
        assert np.linalg.eigvalsh(repaired)[0] >= -1e-15 * np.trace(repaired)


def poly_feature_moments(E, w):
    # explicit monomial features [vec(x x^T); x; 1]: form Phi w and read the
    # degree-1 and degree-2 slots back out
    d, m = E.particles.shape
    features = np.empty((d * d + d + 1, m))
    for i in range(m):
        x = E.particles[:, i]
        features[: d * d, i] = np.outer(x, x).ravel()
        features[d * d : d * d + d, i] = x
        features[-1, i] = 1.0
    embedded = features @ np.asarray(w, dtype=float)
    mean = embedded[d * d : d * d + d]
    raw = embedded[: d * d].reshape(d, d)
    return mean, raw


class TestExtractMomentsPoly:
    def test_symmetric_pair(self):
        E = Ensemble(np.array([[-1.0, 1.0]]))
        belief = extract_moments_poly(KernelSpec("quadratic"), E, np.array([0.5, 0.5]))
        assert_allclose(belief.mean, [0.0], atol=1e-15)
        assert_allclose(belief.cov, [[1.0]], rtol=1e-15)

    def test_one_hot_is_point_mass(self):
        rng = np.random.default_rng(5)
        E = random_ensemble(rng, 3, 4)
        w = np.zeros(4)
        w[2] = 1.0
        belief = extract_moments_poly(KernelSpec("quartic"), E, w)
        assert_allclose(belief.mean, E.particles[:, 2], rtol=1e-15)
        assert_allclose(belief.cov, np.zeros((3, 3)), atol=1e-12)

    def test_explicit_feature_oracle_2d(self):
        E = Ensemble(np.array([[1.0, -0.5, 2.0], [0.0, 1.5, -1.0]]))
        w = np.array([0.7, 0.5, -0.2])
        belief = extract_moments_poly(KernelSpec("quadratic"), E, w)
        mean, raw = poly_feature_moments(E, w)
        assert_allclose(belief.mean, mean, rtol=1e-10)
        assert_allclose(belief.cov, psd_repair(raw - np.outer(mean, mean)), rtol=1e-10)

    def test_gaussian_kind_rejected(self):
        E = Ensemble(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            extract_moments_poly(KernelSpec("gaussian", sigma=1.0), E, np.array([0.5, 0.5]))

    def test_weight_length_mismatch(self):
        E = Ensemble(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            extract_moments_poly(KernelSpec("quadratic"), E, np.array([1.0]))

    def test_nonfinite_weights(self):
        E = Ensemble(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            extract_moments_poly(KernelSpec("quadratic"), E, np.array([np.inf, 0.0]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    m=st.integers(1, 10),
    kind=st.sampled_from(["quadratic", "quartic"]),
)
def test_extract_moments_matches_feature_oracle(seed, d, m, kind):
    rng = np.random.default_rng(seed)
    E = random_ensemble(rng, d, m)
    w = rng.standard_normal(m)
    belief = extract_moments_poly(KernelSpec(kind), E, w)
    mean, raw = poly_feature_moments(E, w)
    scale = 1.0 + np.abs(mean).max()
    assert_allclose(belief.mean, mean, rtol=1e-10, atol=1e-10 * scale)
    expected_cov = psd_repair(raw - np.outer(mean, mean))
    assert_allclose(belief.cov, expected_cov, rtol=1e-10, atol=1e-10 * (1.0 + np.abs(expected_cov).max()))


class TestProjectMoments:
    def test_uniform_zero_s(self):
        rng = np.random.default_rng(6)
        E = random_ensemble(rng, 2, 5)
        belief = project_moments(E, np.full(5, 0.2), np.zeros((5, 5)))
        assert_allclose(belief.mean, E.particles.mean(axis=1), rtol=1e-14)
        assert_allclose(belief.cov, np.zeros((2, 2)), atol=1e-15)

    def test_single_particle_scalar_expansion(self):
        E = Ensemble(np.array([[2.0], [-1.0]]))
        belief = project_moments(E, np.array([1.0]), np.array([[0.3]]))
        assert_allclose(belief.mean, [2.0, -1.0], rtol=1e-15)
        assert_allclose(belief.cov, 0.3 * np.outer([2.0, -1.0], [2.0, -1.0]), rtol=1e-14)

    def test_dense_oracle(self):
        rng = np.random.default_rng(7)
        E = random_ensemble(rng, 2, 3)
        w = rng.standard_normal(3)
        S = rng.standard_normal((3, 3))
        belief = project_moments(E, w, S)
        X = E.particles
        assert_allclose(belief.mean, X @ w, rtol=1e-14)
        assert_allclose(belief.cov, psd_repair(X @ S @ X.T), rtol=1e-12)

    def test_uniform_weights_centering_s(self):
        # S = (1/M)I - (1/M^2) 1 1^T projects to the divisor-M sample covariance
        rng = np.random.default_rng(8)
        E = random_ensemble(rng, 3, 7)
        m = 7
        S = np.eye(m) / m - np.ones((m, m)) / m**2
        belief = project_moments(E, np.full(m, 1.0 / m), S)
        X = E.particles
        sample_cov = np.cov(X, bias=True)
        assert_allclose(belief.mean, X.mean(axis=1), rtol=1e-12)
        assert_allclose(belief.cov, sample_cov, rtol=1e-10, atol=1e-12)

    def test_shape_errors(self):
        E = Ensemble(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            project_moments(E, np.array([1.0]), np.eye(2))
        with pytest.raises(ValueError):
            project_moments(E, np.array([0.5, 0.5]), np.eye(3))


class TestEnsemble:
    def test_row_vector_promoted(self):
        E = Ensemble(np.array([1.0, 2.0, 3.0]))
        assert E.dim == 1
        assert E.count == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[1.0, np.nan]]))


class TestGaussianBelief:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), np.eye(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.array([np.nan]), np.eye(1))

    def test_sample_moments(self):
        rng = np.random.default_rng(9)
        belief = GaussianBelief(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        draws = belief.sample(rng, 200_000)
        assert_allclose(draws.mean(axis=1), belief.mean, atol=0.02)
        assert_allclose(np.cov(draws), belief.cov, atol=0.03)

    def test_singular_covariance_sampling(self):
        # rank-1 covariance: null direction stays deterministic
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        belief = GaussianBelief(np.zeros(2), np.outer(v, v))
        draws = belief.sample(np.random.default_rng(10), 50)
        spread = draws[0] - draws[1]
        assert_allclose(spread, np.zeros(50), atol=1e-12)

    def test_sample_continuous_on_clipped_covariance(self):
        # a clipped readout covariance is singular, so a 1e-15 shift must
        # move the draws by rounding only, whichever root a factorization
        # would have taken
        for C in clipped_readout_covs(np.random.default_rng(12)):
            draws = [
                GaussianBelief(np.zeros(4), cov).sample(np.random.default_rng(13), 50)
                for cov in (C, C + 1e-15 * np.eye(4))
            ]
            assert_allclose(draws[0], draws[1], rtol=0.0, atol=1e-6)
