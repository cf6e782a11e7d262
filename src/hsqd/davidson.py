"""Lowest eigenpair of a sparse Hermitian subspace Hamiltonian.

Matrices up to ``DENSE_FALLBACK_DIM`` go to dense ``eigh``.  Larger ones go
to ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``,
Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998) on H shifted
below its Gershgorin bound, started from the unit vector at the smallest
diagonal element so that reruns are deterministic; the energy is the
Rayleigh quotient of the unshifted H.  Either way the reported residual is
the true |Hv - Ev| of the returned vector.  (The module keeps its historical
name: callers and the benchmark tracer bind ``hsqd.davidson.lowest_eigenpair``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ValidationError

DENSE_FALLBACK_DIM = 512
DEFAULT_TOL = 1e-9
# ARPACK ``maxiter``: implicit restarts, each of at most ~20 matvecs
DEFAULT_MAX_ITER = 200


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
        return GroundStateResult(
            self.energy, self.ci_vector, self.residual_norm,
            self.iterations, self.converged, variance,
        )


def lowest_eigenpair(matrix, tol: float = DEFAULT_TOL) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian matrix (dense array or scipy sparse);
    dense ``eigh`` up to ``DENSE_FALLBACK_DIM``, Lanczos above.  ``tol``
    bounds the absolute residual of a converged result."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValidationError("matrix must be square")
    if n == 0:
        raise ValidationError("empty matrix")
    if n <= DENSE_FALLBACK_DIM:
        return _dense_lowest(matrix)
    return _lanczos_lowest(matrix, tol)


def _residual(matrix, energy: float, vec: np.ndarray) -> float:
    return float(np.linalg.norm(matrix @ vec - energy * vec))


def _dense_lowest(matrix) -> GroundStateResult:
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    vals, vecs = scipy.linalg.eigh(dense)
    energy, vec = float(vals[0]), vecs[:, 0]
    return GroundStateResult(energy, vec, _residual(matrix, energy, vec), 1, True)


def _lanczos_lowest(matrix, tol: float, max_iter: int = DEFAULT_MAX_ITER) -> GroundStateResult:
    """ARPACK run to machine precision; ``iterations`` counts its matvecs.
    Without convergence, the best Ritz pair ARPACK reports (or the start
    vector) is returned with ``converged=False``."""
    # loaded here: the import costs about 0.45 s, which runs whose every
    # subspace fits the dense path should not pay
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = matrix.shape[0]
    diag = matrix.diagonal() if sp.issparse(matrix) else np.diag(matrix)
    start = np.zeros(n, dtype=matrix.dtype)
    start[int(np.argmin(diag.real))] = 1.0
    # ARPACK builds its Krylov space from H v0, which has no component in
    # the null space of H, so a ground state at exactly zero energy would be
    # missed; below Gershgorin's bound, H - shift is definite
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    shift = float(np.min(diag.real - radius)) - 1.0
    matvecs = 0

    def apply(x):
        nonlocal matvecs
        matvecs += 1
        return matrix @ x - shift * x

    op = LinearOperator((n, n), matvec=apply, dtype=matrix.dtype)
    try:
        vals, vecs = eigsh(op, k=1, which="SA", v0=start, tol=0, maxiter=max_iter)
        done = True
    except ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        done = False
    # the Rayleigh quotient of H itself, unshifted (ARPACK's vectors are unit)
    vec = vecs[:, 0] if len(vals) else start
    energy = float(np.real(np.vdot(vec, matrix @ vec)))
    resid = _residual(matrix, energy, vec)
    return GroundStateResult(energy, vec, resid, matvecs, done and resid <= tol)
