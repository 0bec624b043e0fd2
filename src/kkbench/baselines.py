"""Reference filters: the bootstrap PF, the Gaussian PF and the UKF."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .akkf import FilterDivergedError
from .kernels import Ensemble, GaussianBelief, psd_repair, psd_root, weighted_moments
from .models import StateSpaceModel

# Not called here: perfbench's tracer patches these five names on this
# module as well as on `akkf`, so they stay importable from it.
from .akkf import gain_update
from .kernels import gram, project_moments, resolve_bandwidth, ridge_solve


class DegenerateWeightsError(RuntimeError):
    """Every particle received zero likelihood."""


@dataclass(frozen=True)
class ParticleBelief:
    """The PF's belief at one step: the weighted mean of its particles before resampling."""

    mean: np.ndarray


# Unscented transform scaling: spread alpha, prior-knowledge beta (2 is
# optimal for Gaussians), secondary scaling kappa.
UKF_ALPHA = 1e-3
UKF_BETA = 2.0
UKF_KAPPA = 0.0


def pf_init(model: StateSpaceModel, M: int, rng: np.random.Generator) -> Ensemble:
    """The PF's state before step 1: M prior particles."""
    return Ensemble(model.sample_prior(rng, M))


def gaussian_init(model: StateSpaceModel) -> GaussianBelief:
    """The GPF's and the UKF's state before step 1: the prior."""
    return GaussianBelief(model.prior_mean, model.prior_cov)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling; returns the selected particle indices.

    Position j goes to the first particle whose cumulative weight reaches
    it, as ``np.searchsorted(..., side="left")`` sends it, found in O(M) by
    one stable merge of the two sorted runs: position j lands at j plus
    the count of cumulative weights below it, and on a tie the position,
    merged first, sorts before the weight.
    """
    m = weights.size
    positions = (rng.random() + np.arange(m)) / m
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    order = np.argsort(np.concatenate([positions, cumulative]), kind="stable")
    return np.flatnonzero(order < m) - np.arange(m)


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """Weights proportional to exp(log_w), summing to one, shifted by the peak.

    Overwrites ``log_w`` with the weights and returns it.
    """
    peak = np.max(log_w)
    if not np.isfinite(peak):
        raise DegenerateWeightsError("all particle likelihoods vanished")
    log_w -= peak
    weights = np.exp(log_w, out=log_w)
    weights /= weights.sum()
    return weights


def pf_step(
    particles: Ensemble, n: int, y_n, model: StateSpaceModel, rng: np.random.Generator
) -> tuple[Ensemble, ParticleBelief]:
    """Bootstrap step n (1-based): propagate, likelihood-weight, resample.

    The state is the particle ensemble, uniformly weighted because
    resampling runs every step.  The belief is the weighted mean before
    resampling.
    """
    m = particles.count
    noise = model.sample_process_noise(rng, m)
    columns = model.process(particles.particles, noise, n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "particle")
    log_lik = model.measurement_log_likelihood(np.asarray(y_n, dtype=float).ravel(), columns)
    # log(1/m), the uniform weight, cancels in the normalization but sets its rounding
    log_lik += np.log(1.0 / m)
    weights = _normalize_log_weights(log_lik)
    indices = systematic_resample(weights, rng)
    return Ensemble(np.take(columns, indices, axis=1)), ParticleBelief(columns @ weights)


def gpf_step(
    belief: GaussianBelief, n: int, y_n, model: StateSpaceModel, rng: np.random.Generator, M: int
) -> tuple[GaussianBelief, GaussianBelief]:
    """Gaussian particle filter step n (1-based); the state is the belief.

    Draws M particles from the belief, propagates them with process noise,
    weights by the observation likelihood, and moment-matches a new
    Gaussian, returned as both the next state and the belief; no
    resampling is involved.
    """
    draws = belief.sample(rng, M)
    columns = model.process(draws, model.sample_process_noise(rng, M), n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "particle")
    log_lik = model.measurement_log_likelihood(np.asarray(y_n, dtype=float).ravel(), columns)
    posterior = weighted_moments(columns, _normalize_log_weights(log_lik))
    return posterior, posterior


def _sigma_points(belief: GaussianBelief, alpha: float, kappa: float):
    d = belief.dim
    lam = alpha * alpha * (d + kappa) - d
    scale = d + lam
    root = psd_root(scale * belief.cov)
    points = np.empty((d, 2 * d + 1))
    points[:, 0] = belief.mean
    points[:, 1 : d + 1] = belief.mean[:, None] + root
    points[:, d + 1 :] = belief.mean[:, None] - root
    return points, lam


def _sigma_weights(d: int, lam: float, alpha: float, beta: float):
    w_mean = np.full(2 * d + 1, 1.0 / (2.0 * (d + lam)))
    w_cov = w_mean.copy()
    w_mean[0] = lam / (d + lam)
    w_cov[0] = w_mean[0] + 1.0 - alpha * alpha + beta
    return w_mean, w_cov


def ukf_step(
    belief: GaussianBelief, n: int, y_n, model: StateSpaceModel, rng: np.random.Generator
) -> tuple[GaussianBelief, GaussianBelief]:
    """Additive-noise unscented step n (1-based) with 2d+1 sigma points; ``rng`` goes unused.

    The state is the belief, and the posterior is returned as both the next
    state and the belief.

    Observation residuals pass through the model's wrap function when one is
    defined, so bearing innovations stay in (-pi, pi].  A non-finite
    propagated or measured sigma point raises :class:`FilterDivergedError`.
    A posterior covariance that comes out indefinite is PSD-repaired, with a
    warning.
    """
    d = model.state_dim
    wrap = model.wrap_residual or (lambda r: r)
    zero_u = np.zeros((model.process_noise_dim, 2 * d + 1))
    zero_v = np.zeros((model.obs_dim, 2 * d + 1))

    points, lam = _sigma_points(belief, UKF_ALPHA, UKF_KAPPA)
    w_mean, w_cov = _sigma_weights(d, lam, UKF_ALPHA, UKF_BETA)
    propagated = model.process(points, zero_u, n)
    if not np.isfinite(propagated).all():
        raise FilterDivergedError(n, "sigma point")
    mean_pred = propagated @ w_mean
    centered = propagated - mean_pred[:, None]
    cov_pred = (centered * w_cov) @ centered.T + model.process_noise_cov(belief.mean)
    predicted = GaussianBelief(mean_pred, psd_repair(cov_pred))

    points2, _ = _sigma_points(predicted, UKF_ALPHA, UKF_KAPPA)
    obs = model.measure(points2, zero_v)
    if not np.isfinite(obs).all():
        raise FilterDivergedError(n, "sigma point")
    y_mean = obs @ w_mean
    dy = wrap(obs - y_mean[:, None])
    dx = points2 - predicted.mean[:, None]
    innovation_cov = (dy * w_cov) @ dy.T + model.measurement_noise_cov
    cross_cov = (dx * w_cov) @ dy.T
    gain = np.linalg.solve(innovation_cov.T, cross_cov.T).T
    residual = wrap(np.asarray(y_n, dtype=float).ravel() - y_mean)
    mean_new = predicted.mean + gain @ residual
    cov_new = predicted.cov - gain @ innovation_cov @ gain.T
    cov_repaired = psd_repair(cov_new)
    if not np.array_equal(cov_repaired, (cov_new + cov_new.T) / 2.0):
        warnings.warn("unscented update produced a non-PSD covariance; repairing")
    posterior = GaussianBelief(mean_new, cov_repaired)
    return posterior, posterior
