"""Kernel evaluation, Gram matrices, ridge solves, and moment readout.

State beliefs in this package are carried as weight vectors (and weight
covariances) over particle ensembles.  This module supplies the kernel
plumbing those representations rest on: Gram matrix assembly, exact
low-rank factors of Gram matrices (the explicit polynomial feature map and
a pivoted Cholesky factor), ridge regularized linear solves with jitter
escalation, and the extraction of data-space means and covariances from
weighted ensembles.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpstrf, dtrtri
from scipy.spatial.distance import cdist, pdist

POLY_DEGREE = {"quadratic": 2, "quartic": 4}
POLY_KINDS = tuple(POLY_DEGREE)
KERNEL_KINDS = (*POLY_KINDS, "gaussian")
# Pivoted Cholesky stops once every remaining Schur-complement diagonal is
# at most this fraction of the mean diagonal.  The dropped remainder
# K - F F^T is PSD, so none of its entries exceeds that bound either: a few
# hundred ulps of the kernel scale, far below the ridge and gain
# regularizers (1e-4 and up), yet above the rounding noise that would
# otherwise keep the factor growing to full rank.
RANK_RTOL = 1e-13


class SingularMatrixError(np.linalg.LinAlgError):
    """Ridge system stayed singular after jitter escalation."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    Parameters
    ----------
    kind : str
        One of ``quadratic``, ``quartic``, ``gaussian``.
    c : float
        Offset of the polynomial kernels (x.x' + c)^p, ignored otherwise.
    sigma : float or None
        Gaussian bandwidth.  None marks a bandwidth still to be resolved
        against a concrete ensemble; see :func:`resolve_bandwidth`.
    """

    kind: str
    c: float = 1.0
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.c >= 0:
            raise ValueError("polynomial offset c must be nonnegative")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("bandwidth sigma must be positive")

    @property
    def resolved(self) -> bool:
        """Whether the spec is ready for evaluation."""
        return self.kind != "gaussian" or self.sigma is not None


@dataclass(frozen=True)
class Ensemble:
    """Particle set stored column-wise: ``particles[:, i]`` is particle i."""

    particles: np.ndarray

    def __post_init__(self) -> None:
        p = np.atleast_2d(np.asarray(self.particles, dtype=float))
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("particles must form a d x M matrix with d, M >= 1")
        if not np.isfinite(p).all():
            raise ValueError("particles must be finite")
        object.__setattr__(self, "particles", p)

    @property
    def dim(self) -> int:
        return self.particles.shape[0]

    @property
    def count(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian summary of a state belief in data space."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be d x d for a d-dimensional mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("belief moments must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` samples as columns of a d x count matrix.

        The draws go through the eigen root :func:`psd_root` of the
        covariance, whatever its rank: a singular covariance leaves its null
        directions deterministic, and a covariance within rounding of
        another one gives draws within rounding of that one's.
        """
        z = rng.standard_normal((self.dim, count))
        return self.mean[:, None] + psd_root(self.cov) @ z


def resolve_bandwidth(spec: KernelSpec, ensemble: Ensemble) -> KernelSpec:
    """Fix a Gaussian bandwidth by the median heuristic on an ensemble.

    The bandwidth becomes the median Euclidean distance over distinct
    particle pairs; a zero median (coincident particles) falls back to
    sigma = 1.  Non-Gaussian specs and specs whose bandwidth is already
    fixed pass through unchanged.
    """
    if spec.kind != "gaussian" or spec.sigma is not None:
        return spec
    if ensemble.count < 2:
        raise ValueError("median heuristic needs at least two particles")
    med = float(np.median(pdist(ensemble.particles.T)))
    return replace(spec, sigma=med if med > 0 else 1.0)


def gram(spec: KernelSpec, A: Ensemble, B: Ensemble) -> np.ndarray:
    """Assemble the Gram matrix K[i, j] = k(a_i, b_j) over the particles of A and B.

    A polynomial Gram of an ensemble against itself (``A is B``) is
    symmetrized exactly.  A Gaussian one needs no pass: (a - b)^2 and
    (b - a)^2 are equal bit for bit, so its squared distances, and their
    exponentials, already are.
    """
    if not spec.resolved:
        raise ValueError("gaussian bandwidth is unresolved")
    if A.dim != B.dim:
        raise ValueError("ensembles must share the state dimension")
    if spec.kind == "gaussian":
        sq = cdist(A.particles.T, B.particles.T, "sqeuclidean")
        return np.exp(-sq / spec.sigma**2)
    values = (A.particles.T @ B.particles + spec.c) ** POLY_DEGREE[spec.kind]
    if A is B:
        values = (values + values.T) / 2.0
    return values


def feature_dim(spec: KernelSpec, dim: int) -> int:
    """Rows of the polynomial feature map on dim-dimensional states: C(dim+p, p)."""
    return math.comb(dim + POLY_DEGREE[spec.kind], dim)


@lru_cache(maxsize=None)
def _monomials(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    # the degree-p monomials in dim+1 variables, each as p variable indices,
    # with the square roots of their multinomial coefficients p!/prod(k_i!)
    index = np.array(list(itertools.combinations_with_replacement(range(dim + 1), degree)))
    coef = [
        math.factorial(degree) / math.prod(map(math.factorial, Counter(row).values()))
        for row in index.tolist()
    ]
    root = np.sqrt(np.array(coef))
    index.flags.writeable = root.flags.writeable = False
    return index, root


def feature_map(spec: KernelSpec, E: Ensemble) -> np.ndarray:
    """Explicit feature map Phi (r x M) of a polynomial kernel, Phi^T Phi = K.

    (x.x' + c)^p = (z.z')^p over the augmented z = [x; sqrt(c)], and the
    multinomial expansion of (z.z')^p makes each degree-p monomial z^a,
    scaled by the square root of its multinomial coefficient, one feature.
    That gives r = C(d+p, p) rows (:func:`feature_dim`); the table of
    monomials is built once per (d, p).
    """
    if spec.kind not in POLY_KINDS:
        raise ValueError("feature map applies to quadratic and quartic kernels")
    index, root = _monomials(E.dim, POLY_DEGREE[spec.kind])
    z = np.vstack([E.particles, np.full((1, E.count), math.sqrt(spec.c))])
    phi = root[:, None] * z[index[:, 0]]
    for k in range(1, index.shape[1]):
        phi *= z[index[:, k]]
    return phi


def low_rank_factor(K: np.ndarray) -> np.ndarray:
    """Factor F (M x r) of a PSD matrix, K = F F^T up to the rank tolerance.

    LAPACK's pivoted Cholesky (``dpstrf``) takes the largest remaining
    diagonal as the next pivot and stops once it is at most
    :data:`RANK_RTOL` times the mean diagonal, so r is the numerical rank
    and the cost is O(M r^2) when r is small.  A zero matrix has rank 0.
    """
    K = np.asarray(K, dtype=float)
    tol = RANK_RTOL * float(np.mean(np.diag(K)))
    c, piv, rank, _ = dpstrf(K, tol=tol, lower=1)
    F = np.empty((K.shape[0], rank))
    F[piv - 1] = np.tril(c[:, :rank])
    return F


def ridge_solve(
    K: np.ndarray, lam: float, B: np.ndarray, name: str = "gram matrix", half: bool = False
) -> np.ndarray:
    """Solve (K + lam*I) X = B through a Cholesky factorization L L^T = K + lam*I.

    With ``half``, return L^-1 B instead, so that for any two blocks
    (L^-1 B_1)^T (L^-1 B_2) = B_1^T (K + lam*I)^-1 B_2.  It is formed
    through the triangular inverse of L and one product: with one BLAS
    thread, that costs a fraction of a triangular solve of many
    right-hand-side columns.

    A failed factorization is retried with a jitter of 1e-10*trace(K)/M
    added to lam, escalated tenfold up to three times, before raising
    :class:`SingularMatrixError`.
    """
    values = np.asarray(K, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("K must be square")
    if not lam >= 0:
        raise ValueError("ridge parameter must be nonnegative")
    B = np.asarray(B, dtype=float)
    if B.shape[0] != values.shape[0]:
        raise ValueError("B must have as many rows as K")
    m = values.shape[0]
    eye = np.eye(m)
    jitter = 1e-10 * float(np.trace(values)) / m
    for attempt in range(4):
        shift = lam if attempt == 0 else lam + jitter * 10.0 ** (attempt - 1)
        try:
            factor = cho_factor(values + shift * eye, lower=True)
            if half:
                return np.tril(dtrtri(factor[0], lower=1)[0]) @ B
            return cho_solve(factor, B)
        except np.linalg.LinAlgError:
            continue
    raise SingularMatrixError(f"{name}: ridge system singular after jitter escalation")


def psd_repair(C: np.ndarray) -> np.ndarray:
    """Project a nearly-symmetric matrix onto the PSD cone.

    Symmetrizes, clamps negative eigenvalues at zero, reassembles.  Weight
    vectors carry no sign constraint, so extracted covariances can come out
    indefinite; sampling requires PSD.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    sym = (C + C.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= 0.0:
        return sym
    repaired = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return (repaired + repaired.T) / 2.0


def psd_root(C: np.ndarray) -> np.ndarray:
    """Eigen root R of a nearly-symmetric matrix: R R^T = psd_repair(C) to rounding.

    Defined on every input, it moves with C by rounding only; a Cholesky
    root with an eigen fallback jumps where rounding flips the branch.
    """
    vals, vecs = np.linalg.eigh((C + C.T) / 2.0)
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def extract_moments_poly(spec: KernelSpec, E: Ensemble, w: np.ndarray) -> GaussianBelief:
    """Read mean and covariance off a polynomial-kernel weighted ensemble.

    The weighted ensemble carries the moments directly: mean = sum_i w_i x_i
    and raw second moment sum_i w_i x_i x_i^T, read out without normalizing
    the weights.  The covariance is the PSD repair of the raw second moment
    minus the outer product of the mean.  Quartic ensembles use the same
    degree-two readout; higher-degree features are ignored.
    """
    if spec.kind not in POLY_KINDS:
        raise ValueError("moment readout applies to quadratic and quartic kernels")
    w = np.asarray(w, dtype=float).ravel()
    if w.size != E.count:
        raise ValueError("weights must match the particle count")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    P = E.particles
    mean = P @ w
    raw = (P * w) @ P.T
    return GaussianBelief(mean, psd_repair(raw - np.outer(mean, mean)))


def project_moments(E: Ensemble, w: np.ndarray, S: np.ndarray) -> GaussianBelief:
    """Project weight-space moments into data space.

    mean = X w and cov = PSD-repair(X S X^T) over the particle matrix X.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.size != E.count:
        raise ValueError("weights must match the particle count")
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape != (E.count, E.count):
        raise ValueError("S must be M x M for an M-particle ensemble")
    P = E.particles
    return GaussianBelief(P @ w, psd_repair(P @ S @ P.T))
