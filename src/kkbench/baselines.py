"""Reference filters: bootstrap PF, Gaussian PF, UKF, and the kernel
Kalman rule recursion over a fixed training basis.

The kernel recursion (`kkr_fit`/`kkr_step`) learns its transition operator
from recorded (predecessor, state, observation) triples and then filters
with the same gain update the adaptive filter uses; the other three are
classical Monte Carlo and sigma-point baselines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .akkf import FilterDivergedError, gain_update
from .kernels import (
    Ensemble,
    GaussianBelief,
    KernelSpec,
    gram,
    project_moments,
    psd_repair,
    psd_root,
    resolve_bandwidth,
    ridge_solve,
)
from .models import StateSpaceModel


class DegenerateWeightsError(RuntimeError):
    """Every particle received zero likelihood."""


@dataclass
class PfState:
    """Bootstrap particle filter state: particles with normalized weights."""

    particles: Ensemble
    weights: np.ndarray
    n: int = 0


# Unscented transform scaling: spread alpha, prior-knowledge beta (2 is
# optimal for Gaussians), secondary scaling kappa.
UKF_ALPHA = 1e-3
UKF_BETA = 2.0
UKF_KAPPA = 0.0


@dataclass
class UkfState:
    """Unscented filter state: a Gaussian belief and the step count."""

    belief: GaussianBelief
    n: int = 0


@dataclass(frozen=True)
class KkrModel:
    """Fitted kernel recursion: training ensembles and learned operators."""

    states: Ensemble
    observations: Ensemble
    T: np.ndarray
    V: np.ndarray
    G_yy: np.ndarray
    obs_kernel: KernelSpec
    kappa: float


def pf_init(model: StateSpaceModel, M: int, rng: np.random.Generator) -> PfState:
    """Draw M prior particles with uniform weights."""
    return PfState(Ensemble(model.sample_prior(rng, M)), np.full(M, 1.0 / M))


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling; returns the selected particle indices."""
    m = weights.size
    positions = (rng.random() + np.arange(m)) / m
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """Weights proportional to exp(log_w), summing to one, shifted by the peak."""
    peak = np.max(log_w)
    if not np.isfinite(peak):
        raise DegenerateWeightsError("all particle likelihoods vanished")
    shifted = np.exp(log_w - peak)
    return shifted / shifted.sum()


def pf_step(
    state: PfState, y_n, model: StateSpaceModel, rng: np.random.Generator
) -> tuple[PfState, np.ndarray]:
    """Bootstrap step: propagate, likelihood-weight, estimate, resample.

    The estimate is the weighted mean before resampling; resampling runs
    every step and resets the weights to uniform.
    """
    m = state.particles.count
    n = state.n + 1
    noise = model.sample_process_noise(rng, m)
    columns = model.process(state.particles.particles, noise, n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "particle")
    log_lik = model.measurement_log_likelihood(np.asarray(y_n, dtype=float).ravel(), columns)
    with np.errstate(divide="ignore"):
        log_w = np.log(state.weights) + log_lik
    weights = _normalize_log_weights(log_w)
    estimate = columns @ weights
    indices = systematic_resample(weights, rng)
    resampled = PfState(Ensemble(columns[:, indices]), np.full(m, 1.0 / m), n)
    return resampled, estimate


def gpf_step(
    belief: GaussianBelief,
    y_n,
    model: StateSpaceModel,
    M: int,
    rng: np.random.Generator,
    n: int,
) -> GaussianBelief:
    """Gaussian particle filter step.

    Draws M particles from the belief, propagates them with process noise,
    weights by the observation likelihood, and moment-matches a new
    Gaussian; no resampling is involved.  ``n`` is the 1-based index of the
    step being produced.
    """
    draws = belief.sample(rng, M)
    columns = model.process(draws, model.sample_process_noise(rng, M), n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "particle")
    log_lik = model.measurement_log_likelihood(np.asarray(y_n, dtype=float).ravel(), columns)
    weights = _normalize_log_weights(log_lik)
    mean = columns @ weights
    raw = (columns * weights) @ columns.T
    return GaussianBelief(mean, psd_repair(raw - np.outer(mean, mean)))


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


def ukf_step(state: UkfState, y_n, model: StateSpaceModel) -> UkfState:
    """Additive-noise unscented update with 2d+1 sigma points.

    Observation residuals pass through the model's wrap function when one
    is defined, so bearing innovations stay in (-pi, pi].
    """
    d = model.state_dim
    n = state.n + 1
    zero_u = np.zeros((model.process_noise_dim, 2 * d + 1))
    zero_v = np.zeros((model.measurement_noise_dim, 2 * d + 1))

    points, lam = _sigma_points(state.belief, UKF_ALPHA, UKF_KAPPA)
    w_mean, w_cov = _sigma_weights(d, lam, UKF_ALPHA, UKF_BETA)
    propagated = model.process(points, zero_u, n)
    mean_pred = propagated @ w_mean
    centered = propagated - mean_pred[:, None]
    cov_pred = (centered * w_cov) @ centered.T + model.process_noise_cov(state.belief.mean, n)
    predicted = GaussianBelief(mean_pred, psd_repair(cov_pred))

    points2, _ = _sigma_points(predicted, UKF_ALPHA, UKF_KAPPA)
    obs = model.measure(points2, zero_v)
    y_mean = obs @ w_mean
    dy = obs - y_mean[:, None]
    if model.wrap_residual is not None:
        dy = model.wrap_residual(dy)
    dx = points2 - predicted.mean[:, None]
    innovation_cov = (dy * w_cov) @ dy.T + model.measurement_noise_cov
    cross_cov = (dx * w_cov) @ dy.T
    gain = np.linalg.solve(innovation_cov.T, cross_cov.T).T
    residual = np.asarray(y_n, dtype=float).ravel() - y_mean
    if model.wrap_residual is not None:
        residual = model.wrap_residual(residual)
    mean_new = predicted.mean + gain @ residual
    cov_new = predicted.cov - gain @ innovation_cov @ gain.T
    eigenvalues = np.linalg.eigvalsh((cov_new + cov_new.T) / 2.0)
    if eigenvalues[0] < 0.0:
        warnings.warn("unscented update produced a non-PSD covariance; repairing")
        cov_new = psd_repair(cov_new)
    else:
        cov_new = (cov_new + cov_new.T) / 2.0
    return UkfState(GaussianBelief(mean_new, cov_new), n)


def kkr_fit(
    triples: tuple,
    lambda_pred: float,
    state_kernel: KernelSpec | None = None,
    obs_kernel: KernelSpec | None = None,
    kappa: float = 1e-3,
) -> KkrModel:
    """Learn the kernel transition operator from training triples.

    ``triples`` holds (predecessor states, successor states, observations)
    with matching particle counts.  T solves the ridge system between the
    predecessor self-Gram and the predecessor-to-successor cross-Gram; V is
    the finite-sample transition residual on the same basis.  Kernels
    default to Gaussians with median-heuristic bandwidths resolved on the
    training data.  ``kappa``, the gain regularizer of every later
    :func:`kkr_step`, must be positive.
    """
    predecessors, states, observations = (
        e if isinstance(e, Ensemble) else Ensemble(e)
        for e in triples
    )
    if not (predecessors.count == states.count == observations.count):
        raise ValueError("training ensembles must share the particle count")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    state_kernel = resolve_bandwidth(state_kernel or KernelSpec("gaussian"), predecessors)
    obs_kernel = resolve_bandwidth(obs_kernel or KernelSpec("gaussian"), observations)
    K_pp = gram(state_kernel, predecessors, predecessors)
    K_px = gram(state_kernel, predecessors, states)
    X = ridge_solve(K_pp, lambda_pred, np.hstack([K_px, K_pp]), name="predecessor self-gram")
    T = X[:, : states.count]
    residual = X[:, states.count :] - np.eye(predecessors.count)
    V = (residual @ residual.T) / predecessors.count
    G = gram(obs_kernel, observations, observations)
    return KkrModel(
        states=states,
        observations=observations,
        T=T,
        V=V,
        G_yy=G,
        obs_kernel=obs_kernel,
        kappa=kappa,
    )


def kkr_step(
    model: KkrModel, w: np.ndarray, S: np.ndarray, y_n
) -> tuple[np.ndarray, np.ndarray, GaussianBelief]:
    """One kernel-recursion cycle over the fixed training basis.

    Predicts w and S through the learned transition, runs the shared gain
    update against the new observation, and projects the weights onto the
    training states for the data-space belief.
    """
    w_minus = model.T @ w
    S_minus = model.T @ S @ model.T.T + model.V
    S_minus = (S_minus + S_minus.T) / 2.0
    target = Ensemble(np.atleast_1d(np.asarray(y_n, dtype=float)).reshape(-1, 1))
    g_vec = gram(model.obs_kernel, model.observations, target)[:, 0]
    w_plus, S_plus = gain_update(w_minus, S_minus, model.G_yy, g_vec, model.kappa)
    belief = project_moments(model.states, w_plus, S_plus)
    return w_plus, S_plus, belief
