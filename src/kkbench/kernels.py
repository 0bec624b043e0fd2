"""Kernel evaluation, Gram matrices, ridge solves, and moment readout.

State beliefs in this package are carried as weight vectors (and weight
covariances) over particle ensembles.  This module supplies the kernel
plumbing those representations rest on: Gram matrix assembly, exact
low-rank factors of Gram matrices (the explicit polynomial feature map and
a pivoted Cholesky factor that evaluates a Gaussian Gram column by column),
the inverse Cholesky factor of a ridge regularized Gram, factored and
inverted by LAPACK in one copy of the Gram, whose jitter escalation warns
and which reports a non-finite Gram as a singular system, and the
Gaussian readout of a weighted ensemble: :func:`weighted_moments`, the
one weighted-moment readout the GPF and the polynomial AKKF share, and
:func:`project_moments`, which projects a weight covariance through the
particles.

Pairwise distances come from ``scipy.spatial.distance``: ``pdist`` for the
median bandwidth and ``cdist`` for a Gaussian Gram.  Those two functions
import it when first called, so a process loads it (0.08-0.13 s and 9 MB
on a 2-vCPU Xeon VM) at its first Gaussian Gram or bandwidth, and a PF,
GPF, UKF or polynomial-AKKF process never does.  A single Gaussian kernel
column, as the pivoted factor and the AKKF's observation kernel vector
take one, needs no distance pass: :func:`gaussian_column` forms it with
``cdist``'s arithmetic.  Likewise :func:`cho_factor` and
:func:`ridge_solve` import their LAPACK routines from
``scipy.linalg.lapack`` when called, so ``scipy.linalg`` (0.15-0.25 s on
that VM) loads at an AKKF process's first ridge solve and a PF, GPF or
UKF process loads no scipy module.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

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
    """A ridge or gain system stayed singular after jitter escalation, or holds an inf or a nan."""


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
    from scipy.spatial.distance import pdist

    med = float(np.median(pdist(ensemble.particles.T)))
    return replace(spec, sigma=med if med > 0 else 1.0)


def gram(spec: KernelSpec, A: Ensemble, B: Ensemble) -> np.ndarray:
    """Assemble the Gram matrix K[i, j] = k(a_i, b_j) over the particles of A and B.

    A Gram of an ensemble against itself is exactly symmetric with no
    symmetrizing pass: (a - b)^2 and (b - a)^2 are equal bit for bit, and
    numpy forms a polynomial Gram's X^T X through BLAS syrk, which writes one
    triangle and mirrors it.
    """
    if not spec.resolved:
        raise ValueError("gaussian bandwidth is unresolved")
    if A.dim != B.dim:
        raise ValueError("ensembles must share the state dimension")
    if spec.kind == "gaussian":
        from scipy.spatial.distance import cdist

        sq = cdist(A.particles.T, B.particles.T, "sqeuclidean")
        return np.exp(-sq / spec.sigma**2)
    return (A.particles.T @ B.particles + spec.c) ** POLY_DEGREE[spec.kind]


def gaussian_column(
    spec: KernelSpec, E: Ensemble, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Column k(x_i, y) of a resolved Gaussian kernel over E's particles x_i.

    Equals ``gram(spec, E, Ensemble(y))[:, 0]`` bit for bit with no
    pairwise-distance pass: the squared differences are summed over the
    state dimension in ``cdist``'s order, divided by -sigma^2 and
    exponentiated, into ``out`` when it is given.
    """
    if y.shape != (E.dim,):
        raise ValueError("ensembles must share the state dimension")
    diff = E.particles - y[:, None]
    diff *= diff
    return np.exp(diff.sum(axis=0) / -(spec.sigma**2), out=out)


def feature_dim(spec: KernelSpec, dim: int) -> int:
    """Rows of the polynomial feature map on dim-dimensional states: C(dim+p, p)."""
    return math.comb(dim + POLY_DEGREE[spec.kind], dim)


@lru_cache(maxsize=None)
def _monomials(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    # the degree-p monomials in dim+1 variables as a p x r table of variable
    # indices, one contiguous row per factor, with the square roots of their
    # multinomial coefficients p!/prod(k_i!)
    combos = list(itertools.combinations_with_replacement(range(dim + 1), degree))
    coef = [
        math.factorial(degree) / math.prod(map(math.factorial, Counter(row).values()))
        for row in combos
    ]
    index = np.array(combos).T.copy()
    root = np.sqrt(np.array(coef))
    index.flags.writeable = root.flags.writeable = False
    return index, root


def feature_map(spec: KernelSpec, E: Ensemble) -> np.ndarray:
    """Explicit feature map Phi (r x M) of a polynomial kernel, Phi^T Phi = K.

    (x.x' + c)^p = (z.z')^p over the augmented z = [x; sqrt(c)], and the
    multinomial expansion of (z.z')^p makes each degree-p monomial z^a,
    scaled by the square root of its multinomial coefficient, one feature.
    That gives r = C(d+p, p) rows (:func:`feature_dim`); the table of
    monomials is built once per (d, p).  Each factor's r rows of z are
    gathered into one reused buffer and multiplied in place, in the order
    root * z_a * z_b * ...; ``mode="clip"`` only spares ``np.take`` a
    buffered copy of ``out``, as every index is in range.
    """
    if spec.kind not in POLY_KINDS:
        raise ValueError("feature map applies to quadratic and quartic kernels")
    index, root = _monomials(E.dim, POLY_DEGREE[spec.kind])
    z = np.empty((E.dim + 1, E.count))
    z[:-1] = E.particles
    z[-1] = math.sqrt(spec.c)
    phi = np.take(z, index[0], axis=0, mode="clip")
    phi *= root[:, None]
    rows = np.empty_like(phi)
    for row in index[1:]:
        phi *= np.take(z, row, axis=0, out=rows, mode="clip")
    return phi


def low_rank_factor(spec: KernelSpec, E: Ensemble) -> np.ndarray:
    """Pivoted Cholesky factor F (M x r) of E's Gaussian self-Gram K, never formed.

    Each pivot evaluates one column of K by :func:`gaussian_column`, gram's
    column bit for bit.  So r pivots cost r M kernel values instead of
    M^2, and F's storage grows with r.  As in LAPACK's ``dpstrf``, the
    pivot is the largest remaining diagonal, the first on a tie, and r stops
    growing once none exceeds :data:`RANK_RTOL` times the mean diagonal (1
    for a Gaussian), so K = F F^T up to that tolerance.
    """
    if spec.kind != "gaussian" or not spec.resolved:
        raise ValueError("the on-demand factor needs a resolved gaussian kernel")
    X = E.particles
    m = E.count
    F = np.empty((min(m, 16), m))
    # as in dpstrf, the remaining diagonal is 1 minus the squares taken so
    # far; a pivot's own row has none left
    taken = np.zeros(m)
    rank = 0
    while rank < m:
        j = int(taken.argmin())
        pivot = 1.0 - taken[j]
        if pivot <= RANK_RTOL:
            break
        if rank == len(F):
            F = np.concatenate([F, np.empty((min(m, 2 * rank) - rank, m))])
        col = gaussian_column(spec, E, X[:, j], out=F[rank])
        col -= F[:rank, j] @ F[:rank]
        col *= 1.0 / math.sqrt(pivot)
        taken += col * col
        taken[j] = 1.0
        rank += 1
    return F[:rank].T


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a by LAPACK ``dpotrf``, zero above the diagonal.

    dpotrf reads a's lower triangle and, when a is Fortran-ordered, writes
    the factor in a's place.  A matrix that is not positive definite raises
    :class:`numpy.linalg.LinAlgError`.
    """
    from scipy.linalg.lapack import dpotrf

    factor, info = dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf failed with info {info}")
    return factor


def cho_solve(c_and_lower, b, **kwargs):
    """Not called: perfbench's tracer wraps this name.  Runs scipy's ``cho_solve``."""
    from scipy.linalg import cho_solve

    return cho_solve(c_and_lower, b, **kwargs)


def ridge_solve(K: np.ndarray, lam: float, name: str = "gram matrix") -> tuple[np.ndarray, float]:
    """Inverse Cholesky factor Q = L^-1 of the ridge system L L^T = K + shift*I.

    Returns ``(Q, shift)``: Q is lower triangular with Q (K + shift*I) Q^T
    = I, so (K + shift*I)^-1 = Q^T Q and every solve is a product with Q,
    which with one BLAS thread costs less than a triangular solve of as
    many right-hand sides.  ``shift`` is lam, or, when that factorization
    fails, lam plus a jitter of 1e-10*trace(K)/M, escalated tenfold up to
    three times; then a :class:`RuntimeWarning` names the system, the shift
    and the jitter.  A system that stays singular, or that holds an inf or
    a nan, raises :class:`SingularMatrixError`.  An empty K returns lam.

    Each attempt factors one Fortran-ordered copy of K + shift*I by
    :func:`cho_factor` and inverts the factor in place with LAPACK
    ``dtrtri``.  Q comes back C-ordered, as BLAS sums a product Q @ F in
    another order for a Fortran-ordered Q.
    """
    values = np.asarray(K, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("K must be square")
    if not lam >= 0:
        raise ValueError("ridge parameter must be nonnegative")
    m = values.shape[0]
    if m == 0:
        return np.empty((0, 0)), lam
    shift = lam
    for escalation in range(4):
        a = np.array(values, order="F")
        a.T.flat[:: m + 1] += shift  # the diagonal, through the C-contiguous transpose
        if not np.isfinite(a).all():
            raise SingularMatrixError(f"{name}: ridge system is not finite")
        try:
            factor = cho_factor(a)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * float(np.trace(values)) / m * 10.0**escalation
            shift = lam + jitter
            continue
        if escalation:
            message = f"{name}: jitter escalated the ridge {lam:.6g} to a shift of {shift:.6g}"
            warnings.warn(f"{message} (jitter {jitter:.3g})", RuntimeWarning, stacklevel=2)
        from scipy.linalg.lapack import dtrtri

        return np.ascontiguousarray(dtrtri(factor, lower=1, overwrite_c=1)[0]), shift
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


def weighted_moments(X: np.ndarray, w: np.ndarray) -> GaussianBelief:
    """Gaussian belief of the weighted particles X (d x M).

    mean = X w, and the covariance is the PSD repair of the raw second
    moment X diag(w) X^T = sum_i w_i x_i x_i^T minus the outer product of
    the mean; the weights are read as they are, not normalized.  The GPF
    moment-matches its likelihood weights this way, and the polynomial
    AKKF reads its belief out of its kernel weights, ignoring a quartic
    embedding's higher moments.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.size != X.shape[1]:
        raise ValueError("weights must match the particle count")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    mean = X @ w
    raw = (X * w) @ X.T
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
