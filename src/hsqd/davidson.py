"""Lowest eigenpair of a sparse Hermitian subspace Hamiltonian.

Matrices up to ``DENSE_FALLBACK_DIM`` go to dense ``eigh``, which is asked
for the lowest eigenpair only (``subset_by_index``).  That bound is the
measured crossover (``scripts/eigen_crossover.py``, 2 vCPUs; product
subspaces of the 8-site U+V chain, dense / Lanczos time):

    d          96    160    224    256    320    416    512
    rotated  0.37   0.81   1.07   1.91   2.06   3.72   3.79
    site     0.29   0.64   1.42   1.36   2.64   3.78   5.05

Larger ones go to a Lanczos solve (Lanczos, J. Res. NBS 45, 255 (1950)):
the three-term recurrence on H with no reorthogonalization, which the
extreme eigenpair does not need (Cullum & Willoughby, Lanczos Algorithms for
Large Symmetric Eigenvalue Computations, 1985), started from the unit vector
at the smallest diagonal element so that reruns are deterministic.

- Every ``LANCZOS_CHECK`` steps, and when the basis is full, the lowest Ritz
  pair (θ, y) of the tridiagonal T is computed, by LAPACK's bisection and
  inverse iteration (``dstebz``, ``dstein``).  The solve stops when its
  Ritz estimate |β_j y_j| is at most machine epsilon times the scale of T
  (its largest absolute row sum over the whole solve), the machine-precision
  rule of ARPACK at ``tol=0``.
- The basis holds at most ``LANCZOS_BASIS`` vectors.  When it is full, the
  solve restarts explicitly from the lowest Ritz vector; ``max_iter`` counts
  these bases.
- The first step of a basis takes a second Gram-Schmidt pass against the
  start, the one local correction: after a restart, the residual of the
  Ritz vector is small beside the rounding error of H x - α x.
- When the Krylov space is invariant (β_j = 0 to machine precision), the
  solve goes on from a fixed-seed vector orthogonalized against the basis, as
  ARPACK does, and β_j is 0 in T, so T splits into exact blocks.
- The solve holds the basis and a few work vectors of length d
  (``eigensolve_bytes``), and no copy of H.

The energy is the Rayleigh quotient of the returned unit vector, and either
way the reported residual is the true |Hv - Ev| of that vector.  (The
module keeps its historical name: callers and the benchmark tracer bind
``hsqd.davidson.lowest_eigenpair``.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dstebz, dstein

from .errors import ValidationError

DENSE_FALLBACK_DIM = 224
DEFAULT_TOL = 1e-9
LANCZOS_BASIS = 60
LANCZOS_CHECK = 5
# Lanczos bases of at most LANCZOS_BASIS steps (3,840 matvecs) before a
# solve is reported unconverged
DEFAULT_MAX_ITER = 64
# the vectors of length d that a Lanczos solve holds besides its basis: the
# start or Ritz vector, H v and the H v it replaces, and temporaries (traced
# peaks of 63.5-64.7 vectors in all at d = 600-1,225)
_WORK_VECTORS = 6
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair of a projected Hamiltonian."""

    energy: float
    ci_vector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    variance: float | None = None

    def with_variance(self, variance: float | None) -> "GroundStateResult":
        return replace(self, variance=variance)


def lowest_eigenpair(matrix) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian matrix (dense array or scipy sparse);
    dense ``eigh`` up to ``DENSE_FALLBACK_DIM``, Lanczos above.  A converged
    Lanczos result has an absolute residual of at most ``DEFAULT_TOL``."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValidationError("matrix must be square")
    if n == 0:
        raise ValidationError("empty matrix")
    if n <= DENSE_FALLBACK_DIM:
        return _dense_lowest(matrix)
    return _lanczos_lowest(matrix, DEFAULT_TOL)


def eigensolve_bytes(d: int, is_complex: bool) -> int:
    """Bytes that ``lowest_eigenpair`` allocates for a d x d matrix, beyond
    the matrix: a dense copy and ``eigh``'s work (2 d^2 values) on the dense
    path, the basis and the work vectors on the Lanczos path."""
    item = 16 if is_complex else 8
    if d <= DENSE_FALLBACK_DIM:
        return 2 * d * d * item
    return (LANCZOS_BASIS + _WORK_VECTORS) * d * item


def _dense_lowest(matrix) -> GroundStateResult:
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, 0])
    energy, vec = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(matrix @ vec - energy * vec))
    return GroundStateResult(energy, vec, resid, 1, True)


def _lanczos_lowest(matrix, tol: float, max_iter: int = DEFAULT_MAX_ITER) -> GroundStateResult:
    """Restarted Lanczos run to machine precision; ``iterations`` counts its
    matvecs.  Without convergence after ``max_iter`` bases, the last
    restart's Ritz vector is returned with ``converged=False``."""
    n = matrix.shape[0]
    diag = matrix.diagonal() if sp.issparse(matrix) else np.diag(matrix)
    x = np.zeros(n, dtype=np.result_type(matrix.dtype, float))
    x[int(np.argmin(diag.real))] = 1.0
    del diag
    size = min(LANCZOS_BASIS, n)
    basis = np.empty((size, n), dtype=x.dtype)
    alpha, beta = np.zeros(size), np.zeros(size)
    rng = np.random.default_rng(0)
    # the vector updates stay in NumPy: SciPy's BLAS (axpy) keeps a second
    # thread pool, and interleaving it with NumPy's made a 15,876-determinant
    # solve twice as slow on 2 vCPUs
    matvecs, done, scale = 0, False, 0.0
    for _ in range(max_iter):
        basis[0] = x
        for j in range(size):
            k = j + 1
            w = matrix @ basis[j]
            matvecs += 1
            if j:
                w -= beta[j - 1] * basis[j - 1]
            alpha[j] = np.vdot(basis[j], w).real
            w -= alpha[j] * basis[j]
            if j == 0:
                # after a restart the residual of x is small beside the
                # rounding error of H x - α x, which lies along x
                w -= np.vdot(basis[0], w) * basis[0]
            beta[j] = np.linalg.norm(w)
            scale = max(scale, abs(alpha[j]) + beta[j] + (beta[j - 1] if j else 0.0))
            if beta[j] <= _EPS * scale:
                # the basis spans an invariant space: T splits here
                beta[j] = 0.0
                if k < size:
                    w = _orthogonal_draw(rng, basis[:k])
                    if w is not None:
                        basis[k] = w
                        continue
                    done = True  # the basis spans the whole space
            elif k < size and k % LANCZOS_CHECK:
                np.divide(w, beta[j], out=basis[k])
                continue
            # the lowest Ritz vector, in the basis
            y = _lowest_ritz_vector(alpha[:k], beta[:j])
            done = done or abs(beta[j] * y[-1]) <= _EPS * scale
            if done or k == size:
                break
            np.divide(w, beta[j], out=basis[k])
        x = y @ basis[:k]
        x /= np.linalg.norm(x)
        if done:
            break
    del basis, w
    hx = matrix @ x
    energy = float(np.vdot(x, hx).real)
    resid = float(np.linalg.norm(hx - energy * x))
    return GroundStateResult(energy, x, resid, matvecs, done and resid <= tol)


def _lowest_ritz_vector(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The lowest eigenvector of the symmetric tridiagonal (d, e) by the LAPACK
    calls of ``scipy.linalg.eigh_tridiagonal(select="i")``: bisection
    (``dstebz``, default tolerance), then inverse iteration (``dstein``)."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(d) == 1:
        return np.ones(1)
    m, w, block, split, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed (LAPACK info={info})")
    z, info = dstein(d, e, w[:m], block, split)
    if info:
        raise np.linalg.LinAlgError(f"dstein failed (LAPACK info={info})")
    return z[:, 0]


def _orthogonal_draw(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray | None:
    """A unit vector from ``rng`` orthogonalized (twice) against the rows of
    ``basis``; None when nothing of it is left, because they span the space."""
    w = rng.standard_normal(basis.shape[1]).astype(basis.dtype, copy=False)
    start = np.linalg.norm(w)
    for _ in range(2):
        w -= (basis @ w.conj()).conj() @ basis
    norm = np.linalg.norm(w)
    return w / norm if norm > np.sqrt(_EPS) * start else None
