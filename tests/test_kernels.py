"""Kernel plumbing: evaluation, Gram assembly, low-rank factors, ridge solves, moment readout."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg.lapack import dtrtri

from kkbench.kernels import (
    RANK_RTOL,
    Ensemble,
    GaussianBelief,
    KernelSpec,
    SingularMatrixError,
    feature_dim,
    feature_map,
    gaussian_column,
    gram,
    low_rank_factor,
    project_moments,
    psd_repair,
    resolve_bandwidth,
    ridge_solve,
    weighted_moments,
)
from kkbench.models import build_model

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
    assert np.array_equal(K, K.T)
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


def vstack_feature_map(spec, E):
    """Reference feature map: z = [x; sqrt(c)] by vstack, read through an r x p index table."""
    p = {"quadratic": 2, "quartic": 4}[spec.kind]
    index = np.array(list(itertools.combinations_with_replacement(range(E.dim + 1), p)))
    coef = [math.factorial(p) / math.prod(map(math.factorial, Counter(row).values())) for row in index.tolist()]
    z = np.vstack([E.particles, np.full((1, E.count), math.sqrt(spec.c))])
    phi = np.sqrt(np.array(coef))[:, None] * z[index[:, 0]]
    for k in range(1, p):
        phi *= z[index[:, k]]
    return phi


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("quadratic", "quartic")),
    d=st.sampled_from((1, 4, 5)),
    c=st.sampled_from((0.0, 0.5, 1.0, 3.0)),
    m=st.integers(1, 60),
    scale=st.sampled_from((1e-3, 1.0, 10.0, 1e3)),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_map_bit_identical_to_vstack_form(kind, d, c, m, scale, seed):
    E = random_ensemble(np.random.default_rng(seed), d, m, scale)
    spec = KernelSpec(kind, c=c)
    assert np.array_equal(feature_map(spec, E), vstack_feature_map(spec, E))


class TestFeatureMap:
    def test_scalar_quadratic_features(self):
        # (x x' + c)^2 = x^2 x'^2 + 2c x x' + c^2: features x^2, sqrt(2c) x, c
        E = Ensemble(np.array([[2.0, -1.0]]))
        phi = feature_map(KernelSpec("quadratic", c=0.5), E)
        assert_allclose(phi, [[4.0, 1.0], [2.0, -1.0], [0.5, 0.5]], rtol=1e-15)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            feature_map(KernelSpec("gaussian", sigma=1.0), Ensemble(np.zeros((1, 2))))


class TestGaussianColumn:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 300),
        d=st.sampled_from((1, 2, 5)),
        sigma=st.floats(0.1, 10.0),
        spread=st.floats(1e-3, 100.0),
        on_particle=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(m=234, d=1, sigma=0.1015625, spread=85.0, on_particle=False, seed=281)
    @example(m=234, d=1, sigma=0.1015625, spread=85.0, on_particle=True, seed=281)
    def test_equals_gram_column_bit_for_bit(self, m, d, sigma, spread, on_particle, seed):
        # y either a fresh point or one of the particles, whose entry is 1
        rng = np.random.default_rng(seed)
        E = Ensemble(spread * rng.standard_normal((d, m)))
        y = E.particles[:, m // 2].copy() if on_particle else spread * rng.standard_normal(d)
        spec = KernelSpec("gaussian", sigma=sigma)
        column = gaussian_column(spec, E, y)
        assert np.array_equal(column, gram(spec, E, Ensemble(y[:, None]))[:, 0])
        if on_particle:
            assert column[m // 2] == 1.0

    def test_writes_into_out(self):
        E = Ensemble(np.array([[0.0, 1.0, 3.0]]))
        out = np.full(3, np.nan)
        column = gaussian_column(KernelSpec("gaussian", sigma=2.0), E, np.array([1.0]), out=out)
        assert column is out
        assert_array_equal(out, np.exp(np.array([1.0, 0.0, 4.0]) / -4.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state dimension"):
            gaussian_column(KernelSpec("gaussian", sigma=1.0), Ensemble(np.zeros((2, 3))), np.zeros(1))


class TestLowRankFactor:
    # pivoted Cholesky of a Gaussian self-Gram, one kernel column per pivot

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 300),
        d=st.sampled_from((1, 2, 5)),
        sigma=st.floats(0.1, 10.0),
        spread=st.floats(1e-3, 100.0),
        coincident=st.integers(0, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    # spread/sigma near 840: a factor that scaled the particles by 1/sigma
    # before differencing left this remainder at 1.16e-13
    @example(m=234, d=1, sigma=0.1015625, spread=85.0, coincident=0, seed=281)
    def test_gaussian_gram_remainder_below_tolerance(self, m, d, sigma, spread, coincident, seed):
        # the dropped remainder K - F F^T is PSD, so its entries are bounded
        # by its largest diagonal, which the stopping rule caps; the first
        # `coincident` particles share one position
        rng = np.random.default_rng(seed)
        X = spread * rng.standard_normal((d, m))
        X[:, :coincident] = X[:, :1]
        E = Ensemble(X)
        spec = KernelSpec("gaussian", sigma=sigma)
        F = low_rank_factor(spec, E)
        assert F.shape[0] == m and F.shape[1] <= m
        assert np.abs(gram(spec, E, E) - F @ F.T).max() <= RANK_RTOL

    def test_coincident_particles_give_rank_one(self):
        E = Ensemble(np.tile([[0.3], [-1.2]], 7))
        assert_array_equal(low_rank_factor(KernelSpec("gaussian", sigma=1.0), E), np.ones((7, 1)))

    def test_single_particle(self):
        E = Ensemble(np.array([[2.0]]))
        assert_array_equal(low_rank_factor(KernelSpec("gaussian", sigma=1.0), E), [[1.0]])

    def test_never_more_columns_than_particles(self):
        # particles 100 bandwidths apart: the Gram is the identity, and the
        # factor stops at full rank
        E = Ensemble(100.0 * np.arange(6.0)[None, :])
        assert_array_equal(low_rank_factor(KernelSpec("gaussian", sigma=1.0), E), np.eye(6))

    def test_first_column_is_gram_column(self):
        # the first pivot is particle 0, with nothing taken yet: the factor's
        # first column is gram's column 0, bit for bit
        rng = np.random.default_rng(1)
        for d in (1, 2, 5):
            for sigma, scale in ((1.7, 1.0), (0.1015625, 85.0), (7.0, 20.0)):
                E = random_ensemble(rng, d, 40, scale)
                spec = KernelSpec("gaussian", sigma=sigma)
                assert np.array_equal(low_rank_factor(spec, E)[:, 0], gram(spec, E, E)[:, 0])

    @pytest.mark.parametrize("spec", [KernelSpec("quartic"), KernelSpec("gaussian")])
    def test_needs_resolved_gaussian(self, spec):
        with pytest.raises(ValueError, match="resolved gaussian"):
            low_rank_factor(spec, Ensemble(np.zeros((1, 3))))


def assert_whitens(Q, K, shift, tol):
    """Q is lower triangular and Q (K + shift I) Q^T = I."""
    assert_array_equal(Q, np.tril(Q))
    whitened = Q @ (K + shift * np.eye(len(K))) @ Q.T
    assert np.abs(whitened - np.eye(len(K))).max() <= tol


def wrapper_inverse_factor(K, shift):
    """L^-1 of K + shift*I through scipy's cho_factor wrapper, np.eye and np.tril."""
    L = scipy.linalg.cho_factor(K + shift * np.eye(len(K)), lower=True)[0]
    return np.tril(dtrtri(L, lower=1)[0])


def assert_matches_wrapper_path(K, lam):
    """ridge_solve returns the wrapper path's Q and shift bit for bit, or fails where it fails."""
    m = len(K)
    jitter = 1e-10 * float(np.trace(K)) / m
    shifts = [lam] + [lam + jitter * 10.0**k for k in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            Q, shift = ridge_solve(K, lam)
        except SingularMatrixError:
            Q = shift = None
    for s in shifts:
        try:
            expected = wrapper_inverse_factor(K, s)
        except np.linalg.LinAlgError:
            continue
        assert shift == s
        assert np.array_equal(Q, expected)
        assert not np.triu(Q, 1).any()
        # the filter's products with Q too: BLAS sums them in another order
        # for a Q in another memory layout
        assert np.array_equal(Q @ K, expected @ K)
        return shift
    assert shift is None
    return None


class TestRidgeSolve:
    def test_identity_no_ridge(self):
        Q, shift = ridge_solve(np.eye(3), 0.0)
        assert shift == 0.0
        assert_allclose(Q, np.eye(3), rtol=1e-14)

    def test_identity_unit_ridge(self):
        Q, shift = ridge_solve(np.eye(3), 1.0)
        assert shift == 1.0
        assert_allclose(Q, np.eye(3) / math.sqrt(2.0), rtol=1e-14)

    def test_half_solve_is_lower_cholesky_inverse(self):
        # the product Q B is the half solve L^-1 B of the lower Cholesky factor
        K = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = np.linalg.cholesky(K + 1.0 * np.eye(2))
        B = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
        Q, shift = ridge_solve(K, 1.0)
        assert shift == 1.0
        assert_allclose(Q @ B, np.linalg.solve(L, B), rtol=1e-14)

    def test_two_by_two_closed_form(self):
        # Q is the inverse of the lower Cholesky factor, and Q^T Q the
        # inverse of the ridge system
        K = np.array([[2.0, 1.0], [1.0, 2.0]])
        Q, shift = ridge_solve(K, 0.5)
        assert shift == 0.5
        L = np.linalg.cholesky(K + 0.5 * np.eye(2))
        assert_allclose(Q, np.linalg.inv(L), rtol=1e-14, atol=1e-15)
        assert_allclose(Q.T @ Q, np.linalg.inv(K + 0.5 * np.eye(2)), rtol=1e-13)

    def test_singular_after_escalation(self):
        # the zero matrix's jitter 1e-10 * trace / M is zero, so every retry fails
        with pytest.raises(SingularMatrixError, match="proposal self-gram"):
            ridge_solve(np.zeros((3, 3)), 0.0, name="proposal self-gram")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), -1.0)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ridge_solve(np.ones((2, 3)), 0.0)
        with pytest.raises(ValueError):
            ridge_solve(np.ones(3), 0.0)

    def test_jitter_escalation_warns(self):
        # a rank-one K with no ridge fails the first factorization; the
        # retry's shift is returned, named in the warning, and whitened by Q
        K = np.ones((3, 3))
        with pytest.warns(RuntimeWarning, match="proposal feature gram.*shift") as caught:
            Q, shift = ridge_solve(K, 0.0, name="proposal feature gram")
        assert len(caught) == 1
        assert shift > 0.0
        assert f"{shift:.6g}" in str(caught[0].message)
        assert_whitens(Q, K, shift, 1e-6)

    def test_escalation_warning_names_the_jitter(self):
        # with lam > 0 the shift at .6g reads as lam; the jitter shows the escalation
        K = np.diag([1.0, 1.0, -1e-3])
        with pytest.warns(RuntimeWarning, match="gain system") as caught:
            Q, shift = ridge_solve(K, 1e-3, name="gain system")
        jitter = 1e-10 * float(np.trace(K)) / 3
        assert shift == 1e-3 + jitter
        message = str(caught[0].message)
        assert f"shift of {shift:.6g}" in message
        assert f"(jitter {jitter:.3g})" in message and jitter > 0.0
        assert_whitens(Q, K, shift, 1e-6)

    def test_empty_system_calls_no_lapack(self, capfd):
        # LAPACK's dtrtri prints an illegal-value message on an empty factor
        Q, shift = ridge_solve(np.zeros((0, 0)), 1e-3)
        assert Q.shape == (0, 0) and shift == 1e-3
        assert capfd.readouterr() == ("", "")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 120),
        rank=st.integers(1, 120),
        scale=st.floats(1e-3, 1e3),
        lam=st.one_of(st.just(0.0), st.floats(1e-12, 1e-1)),
    )
    def test_lapack_path_matches_wrapper_path(self, seed, m, rank, scale, lam):
        # PSD K of rank min(rank, m); a rank-deficient K with no ridge escalates jitter
        A = np.random.default_rng(seed).standard_normal((m, min(rank, m)))
        assert_matches_wrapper_path(scale * (A @ A.T), lam)

    def test_lapack_path_matches_wrapper_path_after_escalation(self):
        A = np.random.default_rng(5).standard_normal((30, 4))
        shift = assert_matches_wrapper_path(A @ A.T, 0.0)
        assert shift is not None and shift > 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), lam=st.floats(1e-6, 10.0))
def test_inverse_factor_products_match_solve(seed, m, lam):
    # (Q B_1)^T (Q B_2) = B_1^T (K + lam I)^-1 B_2
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    K = A @ A.T
    B1, B2 = rng.standard_normal((m, 3)), rng.standard_normal((m, 2))
    Q, shift = ridge_solve(K, lam)
    assert shift == lam
    expected = B1.T @ np.linalg.solve(K + lam * np.eye(m), B2)
    scale = np.linalg.norm(B1) * np.linalg.norm(B2) / lam
    assert np.abs((Q @ B1).T @ (Q @ B2) - expected).max() <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), lam=st.floats(0.0, 10.0))
def test_ridge_solve_residual(seed, m, lam):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    K = A @ A.T + 1e-6 * np.eye(m)
    Q, shift = ridge_solve(K, lam)
    assert shift == lam
    cond = np.linalg.cond(K + lam * np.eye(m))
    assert_whitens(Q, K, shift, 1e-12 * cond)


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


def poly_feature_moments(X, w):
    # explicit monomial features [vec(x x^T); x; 1]: form Phi w and read the
    # degree-1 and degree-2 slots back out
    d, m = X.shape
    features = np.empty((d * d + d + 1, m))
    for i in range(m):
        x = X[:, i]
        features[: d * d, i] = np.outer(x, x).ravel()
        features[d * d : d * d + d, i] = x
        features[-1, i] = 1.0
    embedded = features @ np.asarray(w, dtype=float)
    mean = embedded[d * d : d * d + d]
    raw = embedded[: d * d].reshape(d, d)
    return mean, raw


class TestExtractMomentsPoly:
    """The one weighted-moment readout, which the polynomial AKKF calls as `akkf.extract_moments_poly`."""

    def test_symmetric_pair(self):
        belief = weighted_moments(np.array([[-1.0, 1.0]]), np.array([0.5, 0.5]))
        assert_allclose(belief.mean, [0.0], atol=1e-15)
        assert_allclose(belief.cov, [[1.0]], rtol=1e-15)

    def test_one_hot_is_point_mass(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 4))
        w = np.zeros(4)
        w[2] = 1.0
        belief = weighted_moments(X, w)
        assert_allclose(belief.mean, X[:, 2], rtol=1e-15)
        assert_allclose(belief.cov, np.zeros((3, 3)), atol=1e-12)

    def test_explicit_feature_oracle_2d(self):
        X = np.array([[1.0, -0.5, 2.0], [0.0, 1.5, -1.0]])
        w = np.array([0.7, 0.5, -0.2])
        belief = weighted_moments(X, w)
        mean, raw = poly_feature_moments(X, w)
        assert_allclose(belief.mean, mean, rtol=1e-10)
        assert_allclose(belief.cov, psd_repair(raw - np.outer(mean, mean)), rtol=1e-10)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_moments(np.array([[1.0, 2.0]]), np.array([1.0]))

    def test_nonfinite_weights(self):
        with pytest.raises(ValueError):
            weighted_moments(np.array([[1.0, 2.0]]), np.array([np.inf, 0.0]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    m=st.integers(1, 10),
)
def test_extract_moments_matches_feature_oracle(seed, d, m):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, m))
    w = rng.standard_normal(m)
    belief = weighted_moments(X, w)
    mean, raw = poly_feature_moments(X, w)
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
