"""Mean-field reference, MP2 amplitudes, and ansatz parameter initialization.

The self-consistent field is a plain closed-shell Roothaan iteration with
density damping.  Open-shell sectors do not get their own SCF; they reuse
closed-shell orbitals and fill by aufbau, which keeps the reference cheap
and reproducible.  MP2 doubles amplitudes seed the cluster-Jastrow
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, ValidationError
from .model import ElectronicIntegrals, SectorSpec, rotate_basis
from .strings import product_hamiltonian

SCF_DENSITY_TOL = 1e-8
SCF_MAX_ITER = 500
# smallest HOMO-LUMO gap and MP2 denominator that mp2_doubles accepts
MP2_GAP_TOL = 1e-8


@dataclass(frozen=True)
class MeanFieldSolution:
    """Converged (or best-effort) closed-shell mean field."""

    orbital_coefficients: np.ndarray
    orbital_energies: np.ndarray
    hf_energy: float
    converged: bool
    iterations: int
    # the integrals in these orbitals, which hf_energy was taken from
    mo_ints: ElectronicIntegrals = field(repr=False, compare=False)
    energy_history: tuple[float, ...] = field(default=(), repr=False)

    @staticmethod
    def reference_for(spec: SectorSpec) -> tuple[int, int]:
        """The (alpha, beta) words of a sector's aufbau determinant in these orbitals."""
        return (1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1


def _pair_matrices(ints: ElectronicIntegrals) -> tuple[np.ndarray, ...]:
    """The M^4 contractions' integrals as contiguous (M^2, M^2) matrices over
    orbital pairs, built once per SCF: J_pq = sum_rs g_dir[p,q,r,s] P_sr with
    g_dir = g_ss + g_os laid out [sr, pq], K_ps = sum_qr g_ss[p,q,r,s] P_qr
    laid out [qr, ps], and the direct and exchange energies' g_dir [qp, rs]
    and g_ss [sp, qr].  A density flattened to a row times one of them is the
    matmul, on the same operand layouts, that ``np.einsum`` makes for these
    contractions on its planned path, so the bits are einsum's."""
    m = ints.n_orbitals
    gss = ints.two_body_same_spin
    g_dir = gss + ints.two_body_opposite_spin
    return tuple(np.ascontiguousarray(g.transpose(axes)).reshape(m * m, m * m)
                 for g, axes in ((g_dir, (3, 2, 0, 1)), (gss, (1, 2, 0, 3)),
                                 (g_dir, (1, 0, 2, 3)), (gss, (3, 0, 1, 2))))


def _fock(ints: ElectronicIntegrals, p: np.ndarray, pair_g: tuple) -> np.ndarray:
    m, row = ints.n_orbitals, p.reshape(1, -1)
    j, k = ((row @ g).reshape(m, m) for g in pair_g[:2])
    return ints.one_body + j - k


def _electronic_energy(ints: ElectronicIntegrals, p: np.ndarray, pair_g: tuple) -> float:
    row = p.reshape(1, -1)
    e1 = 2.0 * np.einsum("pq,qp->", ints.one_body, p)
    # sum_rs (P g_dir)_rs P_sr and sum_qr (P g_ss)_qr P_qr, each one dot product
    e_dir = ((row @ pair_g[2]) @ p.T.reshape(-1, 1)).reshape(())
    e_x = ((row @ pair_g[3]) @ p.reshape(-1, 1)).reshape(())
    return float(np.real(e1 + e_dir - e_x)) + ints.core_energy


def solve_mean_field(ints: ElectronicIntegrals, spec: SectorSpec) -> MeanFieldSolution:
    """Fixed-point Roothaan SCF with density damping.

    Each step mixes the old and the aufbau density with the factor that
    exactly minimizes the (quadratic) energy along the segment.  Open-shell
    sectors are served by running the closed-shell iteration on the paired
    part of the sector and filling the resulting orbitals by aufbau, so
    ``hf_energy`` is always the energy of the returned reference determinant
    in the returned orbital basis.
    """
    m = ints.n_orbitals
    n_pairs = min(spec.n_alpha, spec.n_beta)

    evals, c = scipy.linalg.eigh(ints.one_body)
    history: list[float] = []
    converged = False
    p = c[:, :n_pairs] @ c[:, :n_pairs].conj().T if n_pairs else np.zeros((m, m))
    pair_g = _pair_matrices(ints)
    e0 = _electronic_energy(ints, p, pair_g)  # E(p), carried over from each accepted step
    stalls = 0
    a_prev = 1.0
    for iterations in range(1, SCF_MAX_ITER + 1):
        f = _fock(ints, p, pair_g)
        evals, c = scipy.linalg.eigh(f)
        p_new = c[:, :n_pairs] @ c[:, :n_pairs].conj().T if n_pairs else np.zeros((m, m))
        step = p_new - p
        if np.abs(step).max() < SCF_DENSITY_TOL:
            converged = True
            history.append(_electronic_energy(ints, p_new, pair_g))
            p = p_new
            break
        # E((1-a) p + a p_new) is quadratic in a; minimize it exactly
        e1 = _electronic_energy(ints, p_new, pair_g)
        em = _electronic_energy(ints, p + 0.5 * step, pair_g)
        curv = 2.0 * (e0 + e1 - 2.0 * em)
        slope = 4.0 * em - 3.0 * e0 - e1
        noise = 1e-11 * max(1.0, abs(e0))
        if max(abs(slope), abs(curv)) < noise:
            a = a_prev  # fit is below roundoff; keep the working factor
        elif curv > noise:
            a = float(np.clip(-slope / (2.0 * curv), 0.0, 1.0))
        else:
            a = 1.0 if e1 <= e0 else 0.0
        if a == 0.0:
            stalls += 1
            if stalls >= 3:
                break  # aufbau degeneracy: no descent direction left
            continue
        stalls = 0
        a_prev = a
        p = p + a * step
        e0 = _electronic_energy(ints, p, pair_g)
        if not np.isfinite(e0):
            raise ConvergenceError("SCF diverged (energy is not finite)")
        history.append(e0)
    # final canonical orbitals for the converged density
    f = _fock(ints, p, pair_g)
    evals, c = scipy.linalg.eigh(f)

    mo_ints = rotate_basis(ints, c)
    # the engine's H over the 1 x 1 product space of the reference
    alpha, beta = (np.array([w], dtype=np.int64) for w in MeanFieldSolution.reference_for(spec))
    hf_energy = float(np.real(product_hamiltonian(mo_ints, alpha, beta)[0, 0]))
    return MeanFieldSolution(c, evals, hf_energy, converged, iterations, mo_ints, tuple(history))


def mp2_doubles(mf: MeanFieldSolution, mo_ints: ElectronicIntegrals,
                spec: SectorSpec) -> tuple[np.ndarray, float]:
    """Closed-shell MP2 doubles amplitudes and correlation energy.

    ``mo_ints`` must already be expressed in the mean-field orbital basis.
    The returned tensor is indexed [i, j, a, b] with i, j occupied and a, b
    virtual (offsets relative to the occupied block), and holds the
    opposite-spin amplitude (pair i-up, j-down).
    """
    if spec.n_alpha != spec.n_beta:
        raise ValidationError("MP2 requires a closed-shell sector")
    if mo_ints.is_complex:
        raise ValidationError("MP2 amplitude initialization supports real integrals only")
    m = mo_ints.n_orbitals
    nocc = spec.n_alpha
    nvirt = m - nocc
    eps = np.real(mf.orbital_energies)
    if nocc and nvirt and eps[nocc] - eps[nocc - 1] <= MP2_GAP_TOL:
        raise ValidationError("degenerate HOMO-LUMO gap; MP2 denominators are singular")
    t2 = np.zeros((nocc, nocc, nvirt, nvirt))
    if nocc == 0 or nvirt == 0:
        return t2, 0.0
    gss = mo_ints.two_body_same_spin
    gos = mo_ints.two_body_opposite_spin
    occ = np.arange(nocc)
    virt = np.arange(nocc, m)
    # chemists' (ia|jb) blocks
    g_os_iajb = gos[np.ix_(virt, occ, virt, occ)].transpose(1, 3, 0, 2)
    g_ss_iajb = gss[np.ix_(virt, occ, virt, occ)].transpose(1, 3, 0, 2)
    denom = (
        eps[occ][:, None, None, None]
        + eps[occ][None, :, None, None]
        - eps[virt][None, None, :, None]
        - eps[virt][None, None, None, :]
    )
    if np.abs(denom).min() <= MP2_GAP_TOL:
        raise ValidationError("degenerate MP2 denominator")
    t2 = g_os_iajb / denom
    t_ss = (g_ss_iajb - g_ss_iajb.swapaxes(2, 3)) / denom
    e_os = float(np.sum(t2 * g_os_iajb))
    e_ss = float(np.sum(t_ss * g_ss_iajb))
    return t2, e_os + e_ss


def real_matrix(value, name: str, m: int | None = None) -> np.ndarray:
    """``value`` as a finite real square matrix, of order ``m`` when given."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or (m is not None and len(arr) != m):
        want = "square" if m is None else f"{m}x{m}"
        raise ValidationError(f"{name} must be a {want} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class LucjLayer:
    """One orbital rotation plus density-density couplings.

    ``rotation`` is the real orthogonal matrix W whose columns are the
    layer's orbitals; the layer applies W^T, then exp(iJ), then W.
    """

    rotation: np.ndarray
    j_same: np.ndarray
    j_opposite: np.ndarray

    def __post_init__(self):
        q = real_matrix(self.rotation, "orbital rotation")
        if np.abs(q.T @ q - np.eye(len(q))).max(initial=0.0) > 1e-10:
            raise ValidationError("orbital rotation must be orthogonal")
        js = real_matrix(self.j_same, "j_same", len(q))
        jo = real_matrix(self.j_opposite, "j_opposite", len(q))
        for name, j in (("j_same", js), ("j_opposite", jo)):
            if np.abs(j - j.T).max(initial=0.0) > 1e-12:
                raise ValidationError(f"{name} must be symmetric")
        for name, val in (("rotation", q), ("j_same", js), ("j_opposite", jo)):
            object.__setattr__(self, name, val)
            val.setflags(write=False)


@dataclass(frozen=True)
class LucjParameters:
    """Layered cluster-Jastrow parameters with a connectivity mask."""

    n_orbitals: int
    layers: tuple[LucjLayer, ...]
    mask_same: np.ndarray | None = None
    mask_opposite: np.ndarray | None = None

    def __post_init__(self):
        for layer in self.layers:
            if layer.rotation.shape != (self.n_orbitals,) * 2:
                raise ValidationError("layer dimension mismatch")
            for mask, j in ((self.mask_same, layer.j_same), (self.mask_opposite, layer.j_opposite)):
                if mask is not None and np.abs(j[~mask.astype(bool)]).max(initial=0.0) > 0.0:
                    raise ValidationError("masked coupling entries must be exactly zero")


def default_masks(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All-to-all same-spin couplings; index-adjacent opposite-spin couplings."""
    mask_same = np.ones((m, m), dtype=bool)
    idx = np.arange(m)
    mask_opposite = np.abs(idx[:, None] - idx[None, :]) <= 1
    return mask_same, mask_opposite


def check_layers(layers: int) -> None:
    """``lucj_from_t2`` builds one or more layers."""
    if layers < 1:
        raise ValidationError(f"layers must be at least 1, got {layers}")


def lucj_from_t2(
    t2: np.ndarray,
    n_orbitals: int,
    n_occ: int,
    layers: int = 1,
) -> LucjParameters:
    """Seed cluster-Jastrow layers from doubles amplitudes.

    The amplitude tensor is reshaped to a symmetric matrix over
    (occupied, virtual) index pairs and eigendecomposed; each retained
    eigenpair yields one layer whose orbital rotation diagonalizes the
    corresponding one-body generator and whose couplings are the outer
    product of its eigenvalues, scaled by the amplitude eigenvalue and
    truncated to the connectivity masks of ``default_masks``.
    """
    if np.iscomplexobj(t2):
        raise ValidationError("amplitude tensor must be real")
    nocc, nocc2, nvirt, nvirt2 = t2.shape
    if nocc != nocc2 or nvirt != nvirt2 or nocc != n_occ or nocc + nvirt != n_orbitals:
        raise ValidationError(
            f"amplitude tensor shape {t2.shape} inconsistent with "
            f"{n_orbitals} orbitals and {n_occ} occupied"
        )
    check_layers(layers)
    m = n_orbitals
    mask_same, mask_opposite = default_masks(m)

    pair_dim = nocc * nvirt
    built: list[LucjLayer] = []
    if pair_dim == 0:
        eigvals = np.zeros(0)
        eigvecs = np.zeros((0, 0))
    else:
        mat = t2.transpose(0, 2, 1, 3).reshape(pair_dim, pair_dim)
        mat = (mat + mat.T) / 2
        eigvals, eigvecs = scipy.linalg.eigh(mat)
        order = np.argsort(-np.abs(eigvals))
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    for mu in range(layers):
        if mu >= len(eigvals) or abs(eigvals[mu]) == 0.0:
            built.append(LucjLayer(np.eye(m), np.zeros((m, m)), np.zeros((m, m))))
            continue
        lam = eigvals[mu]
        gen = np.zeros((m, m))
        gen[:nocc, nocc:] = eigvecs[:, mu].reshape(nocc, nvirt)
        gen = gen + gen.T
        diag, w = scipy.linalg.eigh(gen)
        j = lam * np.outer(diag, diag)
        built.append(
            LucjLayer(
                rotation=w,
                j_same=(j * mask_same + (j * mask_same).T) / 2,
                j_opposite=(j * mask_opposite + (j * mask_opposite).T) / 2,
            )
        )
    return LucjParameters(m, tuple(built), mask_same, mask_opposite)
