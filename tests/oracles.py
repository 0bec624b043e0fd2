"""Dense references and test doubles shared by the test modules.

Pytest collects nothing here; test modules import it by name.  The dense
references recompute an AKKF stage with plain M x M linear algebra: the
gain by an explicit inverse, the change of basis by one LU solve of the
ridged proposal self-Gram against [K_px, K].  The solve, not the inverse:
at M=200 and two BLAS threads the inverse form lands outside
``TestLowRankRebasis``'s 1e-9 normwise tolerance on one entry.
"""

import numpy as np
from numpy.testing import assert_allclose

from kkbench import akkf
from kkbench.kernels import gram, psd_repair
from kkbench.models import StateSpaceModel


def dense_gain(w, S, G, g, kappa):
    """w + Q (g - G w) and the symmetrized S - Q G S, with Q = S (G S + kappa I)^-1."""
    GS = G @ S
    Q = S @ np.linalg.inv(GS + kappa * np.eye(len(w)))
    S_plus = S - Q @ GS
    return w + Q @ (g - G @ w), (S_plus + S_plus.T) / 2.0


def dense_rebasis(cfg, proposals, particles):
    """Gamma and V from the proposal self-Gram by a dense LU solve."""
    K = gram(cfg.state_kernel, proposals, proposals)
    K_px = gram(cfg.state_kernel, proposals, particles)
    m = proposals.count
    X = np.linalg.solve(K + cfg.lambda_tilde * float(np.mean(np.diag(K))) * np.eye(m), np.hstack([K_px, K]))
    R = X[:, -m:] - np.eye(m)
    return X[:, :-m], R @ R.T / m


def dense_view(S):
    """The symmetrized M x M array of a weight covariance, dense or an akkf.FactoredCov."""
    if not isinstance(S, akkf.FactoredCov):
        return np.asarray(S)
    P = S.features
    out = P.T @ S.core @ P + S.scale * np.eye(P.shape[1])
    for D in S.downdates:
        out -= D @ D.T
    return (out + out.T) / 2.0


def assert_close_normwise(actual, expected, rtol):
    """|actual - expected| <= rtol * max|expected|, entry by entry."""
    assert_allclose(actual, expected, rtol=0, atol=rtol * np.abs(expected).max())


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
        process_noise_dim=1,
        process=process,
        measure=measure,
        sample_process_noise=sample_noise,
        sample_measurement_noise=sample_noise,
        measurement_log_likelihood=log_likelihood or default_log_likelihood,
        sample_prior=lambda rng, count: prior_mean + prior_std * rng.standard_normal((1, count)),
        prior_mean=np.array([prior_mean]),
        prior_cov=np.array([[prior_std * prior_std]]),
        process_noise_cov=lambda x: var * np.eye(1),
        measurement_noise_cov=var * np.eye(1),
        default_horizon=5,
        wrap_residual=wrap_residual,
    )


def clipped_covs(rng, count=200):
    """Covariances as the PSD repair leaves them: two zero eigenvalues."""
    for _ in range(count):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        yield psd_repair(Q @ np.diag([-1e-3, 0.0, 9.4e-3, 0.15]) @ Q.T)
