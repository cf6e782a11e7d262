"""Lowest-eigenpair solvers for sparse Hermitian subspace Hamiltonians.

Small problems go straight to a dense eigensolver; larger ones use a
Davidson iteration with a diagonal preconditioner and hard restarts once the
search space exceeds ``max_subspace`` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ValidationError

DENSE_FALLBACK_DIM = 512
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
MAX_SUBSPACE = 32


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


def _dense_lowest(matrix) -> tuple[float, np.ndarray]:
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    vals, vecs = scipy.linalg.eigh(dense)
    return float(vals[0]), vecs[:, 0]


def lowest_eigenpair(
    matrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    method: str = "auto",
) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian matrix (dense array or scipy sparse).

    ``method`` is "auto" (dense below the fallback threshold, Davidson
    otherwise), "dense", or "davidson".
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValidationError("matrix must be square")
    if n == 0:
        raise ValidationError("empty matrix")
    if method not in ("auto", "dense", "davidson"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "dense" or (method == "auto" and n <= DENSE_FALLBACK_DIM):
        energy, vec = _dense_lowest(matrix)
        resid = np.linalg.norm(matrix @ vec - energy * vec)
        return GroundStateResult(energy, vec, float(resid), 1, True)
    return _davidson(matrix, tol=tol, max_iter=max_iter)


def _davidson(matrix, tol: float, max_iter: int):
    n = matrix.shape[0]
    diag = matrix.diagonal() if sp.issparse(matrix) else np.diag(matrix).copy()
    dtype = complex if np.iscomplexobj(diag) or (sp.issparse(matrix) and np.iscomplexobj(matrix.data)) else float
    v0 = np.zeros(n, dtype=dtype)
    v0[int(np.argmin(diag.real))] = 1.0

    basis = [v0]
    sigma = [matrix @ v0]
    theta = float(np.real(np.vdot(v0, sigma[0])))
    best_vec = v0
    resid_norm = np.inf

    for it in range(1, max_iter + 1):
        k = len(basis)
        vmat = np.column_stack(basis)
        smat = np.column_stack(sigma)
        rayleigh = vmat.conj().T @ smat
        rayleigh = (rayleigh + rayleigh.conj().T) / 2
        vals, vecs = scipy.linalg.eigh(rayleigh)
        theta = float(vals[0])
        y = vecs[:, 0]
        best_vec = vmat @ y
        residual = smat @ y - theta * best_vec
        resid_norm = float(np.linalg.norm(residual))
        if resid_norm <= tol:
            return GroundStateResult(theta, best_vec, resid_norm, it, True)

        denom = diag.real - theta
        denom = np.where(np.abs(denom) < 1e-8, np.copysign(1e-8, denom + 1e-300), denom)
        t = residual / denom

        if k >= MAX_SUBSPACE:
            basis = [best_vec]
            sigma = [matrix @ best_vec]
            vmat = np.column_stack(basis)

        # orthogonalize twice against the current space
        for _ in range(2):
            t = t - np.column_stack(basis) @ (np.column_stack(basis).conj().T @ t)
        norm = np.linalg.norm(t)
        if norm < 1e-12:
            rng = np.random.default_rng(it)
            t = rng.standard_normal(n).astype(dtype)
            for _ in range(2):
                t = t - np.column_stack(basis) @ (np.column_stack(basis).conj().T @ t)
            norm = np.linalg.norm(t)
        t = t / norm
        basis.append(t)
        sigma.append(matrix @ t)

    return GroundStateResult(theta, best_vec, resid_norm, max_iter, False)
