"""Mean-field reference, MP2 amplitudes, and ansatz parameter initialization.

The self-consistent field is a plain closed-shell Roothaan iteration with
density damping.  Open-shell sectors do not get their own SCF; they reuse
closed-shell orbitals and fill by aufbau, which keeps the reference cheap
and reproducible.  MP2 doubles stand in for externally computed coupled-
cluster amplitudes; either source can seed the cluster-Jastrow parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .determinants import Determinant, diagonal_energy
from .errors import ConvergenceError, ValidationError
from .model import ElectronicIntegrals, SectorSpec, rotate_basis

SCF_DENSITY_TOL = 1e-8
SCF_MAX_ITER = 500


@dataclass(frozen=True)
class MeanFieldSolution:
    """Converged (or best-effort) closed-shell mean field."""

    orbital_coefficients: np.ndarray
    orbital_energies: np.ndarray
    hf_energy: float
    reference_determinant: Determinant
    converged: bool
    iterations: int
    energy_history: tuple[float, ...] = field(default=(), repr=False)

    def reference_for(self, spec: SectorSpec) -> Determinant:
        """Aufbau determinant of an arbitrary sector in these orbitals."""
        return Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)


def _fock(ints: ElectronicIntegrals, p: np.ndarray) -> np.ndarray:
    g_dir = ints.two_body_same_spin + ints.two_body_opposite_spin
    j = np.einsum("pqrs,sr->pq", g_dir, p, optimize=True)
    k = np.einsum("pqrs,qr->ps", ints.two_body_same_spin, p, optimize=True)
    return ints.one_body + j - k


def _electronic_energy(ints: ElectronicIntegrals, p: np.ndarray) -> float:
    h = ints.one_body
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    e1 = 2.0 * np.einsum("pq,qp->", h, p)
    e_dir = np.einsum("pqrs,qp,sr->", gss + gos, p, p, optimize=True)
    e_x = np.einsum("pqrs,sp,qr->", gss, p, p, optimize=True)
    return float(np.real(e1 + e_dir - e_x)) + ints.core_energy


def solve_mean_field(
    ints: ElectronicIntegrals,
    spec: SectorSpec,
    damping: float | None = None,
    density_tol: float = SCF_DENSITY_TOL,
    max_iter: int = SCF_MAX_ITER,
) -> MeanFieldSolution:
    """Fixed-point Roothaan SCF with density damping.

    By default each step mixes the old and the aufbau density with the
    factor that exactly minimizes the (quadratic) energy along the segment;
    passing ``damping`` forces a fixed mixing factor instead.  Open-shell
    sectors are served by running the closed-shell iteration on the paired
    part of the sector and filling the resulting orbitals by aufbau, so
    ``hf_energy`` is always the energy of the returned reference determinant
    in the returned orbital basis.
    """
    m = ints.n_orbitals
    if damping is not None and not 0.0 <= damping < 1.0:
        raise ValidationError("damping must lie in [0, 1)")
    n_pairs = min(spec.n_alpha, spec.n_beta)

    evals, c = scipy.linalg.eigh(ints.one_body)
    history: list[float] = []
    converged = False
    iterations = 0
    p = c[:, :n_pairs] @ c[:, :n_pairs].conj().T if n_pairs else np.zeros((m, m))
    if ints.density_density and np.abs(ints.two_body_same_spin).max(initial=0.0) == 0.0 \
            and np.abs(ints.two_body_opposite_spin).max(initial=0.0) == 0.0:
        converged = True  # non-interacting: core guess is exact
    stalls = 0
    a_prev = 1.0
    for it in range(1, max_iter + 1):
        if converged:
            break
        iterations = it
        f = _fock(ints, p)
        evals, c = scipy.linalg.eigh(f)
        p_new = c[:, :n_pairs] @ c[:, :n_pairs].conj().T if n_pairs else np.zeros((m, m))
        step = p_new - p
        delta = np.abs(step).max()
        if delta < density_tol:
            converged = True
            history.append(_electronic_energy(ints, p_new))
            p = p_new
            break
        if damping is None:
            # E((1-a) p + a p_new) is quadratic in a; minimize it exactly
            e0 = _electronic_energy(ints, p)
            e1 = _electronic_energy(ints, p_new)
            em = _electronic_energy(ints, p + 0.5 * step)
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
        else:
            a = 1.0 - damping
        p = p + a * step
        e = _electronic_energy(ints, p)
        if not np.isfinite(e):
            raise ConvergenceError("SCF diverged (energy is not finite)")
        history.append(e)
    # final canonical orbitals for the converged density
    f = _fock(ints, p)
    evals, c = scipy.linalg.eigh(f)

    ref = Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
    mo_ints = rotate_basis(ints, c)
    hf_energy = diagonal_energy(ref, mo_ints)
    return MeanFieldSolution(
        orbital_coefficients=c,
        orbital_energies=evals,
        hf_energy=hf_energy,
        reference_determinant=ref,
        converged=converged,
        iterations=iterations,
        energy_history=tuple(history),
    )


def mp2_doubles(mf: MeanFieldSolution, mo_ints: ElectronicIntegrals,
                spec: SectorSpec, gap_tol: float = 1e-8) -> tuple[np.ndarray, float]:
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
    if nocc and nvirt and eps[nocc] - eps[nocc - 1] <= gap_tol:
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
    if np.abs(denom).min() <= gap_tol:
        raise ValidationError("degenerate MP2 denominator")
    t2 = g_os_iajb / denom
    t_ss = (g_ss_iajb - g_ss_iajb.swapaxes(2, 3)) / denom
    e_os = float(np.sum(t2 * g_os_iajb))
    e_ss = float(np.sum(t_ss * g_ss_iajb))
    return t2, e_os + e_ss


@dataclass(frozen=True)
class LucjLayer:
    """One orbital-rotation generator plus density-density couplings."""

    kgen: np.ndarray
    j_same: np.ndarray
    j_opposite: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kgen, dtype=float)
        js = np.asarray(self.j_same, dtype=float)
        jo = np.asarray(self.j_opposite, dtype=float)
        if np.abs(k + k.T).max(initial=0.0) > 1e-12:
            raise ValidationError("orbital-rotation generator must be antisymmetric")
        for name, j in (("j_same", js), ("j_opposite", jo)):
            if np.abs(j - j.T).max(initial=0.0) > 1e-12:
                raise ValidationError(f"{name} must be symmetric")
        for name, val in (("kgen", k), ("j_same", js), ("j_opposite", jo)):
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
            if layer.kgen.shape != (self.n_orbitals,) * 2:
                raise ValidationError("layer dimension mismatch")
            for mask, j in ((self.mask_same, layer.j_same), (self.mask_opposite, layer.j_opposite)):
                if mask is not None and np.abs(j[~mask.astype(bool)]).max(initial=0.0) > 0.0:
                    raise ValidationError("masked coupling entries must be exactly zero")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def default_masks(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All-to-all same-spin couplings; index-adjacent opposite-spin couplings."""
    mask_same = np.ones((m, m), dtype=bool)
    idx = np.arange(m)
    mask_opposite = np.abs(idx[:, None] - idx[None, :]) <= 1
    return mask_same, mask_opposite


def lucj_from_t2(
    t2: np.ndarray,
    n_orbitals: int,
    n_occ: int,
    layers: int = 1,
    mask_same: np.ndarray | None = None,
    mask_opposite: np.ndarray | None = None,
) -> LucjParameters:
    """Seed cluster-Jastrow layers from doubles amplitudes.

    The amplitude tensor is reshaped to a symmetric matrix over
    (occupied, virtual) index pairs and eigendecomposed; each retained
    eigenpair yields one layer whose orbital rotation diagonalizes the
    corresponding one-body generator and whose couplings are the outer
    product of its eigenvalues, scaled by the amplitude eigenvalue and
    truncated to the connectivity mask.
    """
    if np.iscomplexobj(t2):
        raise ValidationError("amplitude tensor must be real")
    nocc, nocc2, nvirt, nvirt2 = t2.shape
    if nocc != nocc2 or nvirt != nvirt2 or nocc != n_occ or nocc + nvirt != n_orbitals:
        raise ValidationError(
            f"amplitude tensor shape {t2.shape} inconsistent with "
            f"{n_orbitals} orbitals and {n_occ} occupied"
        )
    if layers < 1:
        raise ValidationError("at least one layer required")
    m = n_orbitals
    if mask_same is None or mask_opposite is None:
        ms_default, mo_default = default_masks(m)
        mask_same = ms_default if mask_same is None else np.asarray(mask_same, dtype=bool)
        mask_opposite = mo_default if mask_opposite is None else np.asarray(mask_opposite, dtype=bool)

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
            k = np.zeros((m, m))
            j = np.zeros((m, m))
            built.append(LucjLayer(k, j * mask_same, j * mask_opposite))
            continue
        lam = eigvals[mu]
        gen = np.zeros((m, m))
        gen[:nocc, nocc:] = eigvecs[:, mu].reshape(nocc, nvirt)
        gen = gen + gen.T
        diag, w = scipy.linalg.eigh(gen)
        if np.linalg.det(w) < 0:
            w = w.copy()
            w[:, 0] = -w[:, 0]
        k = np.real(scipy.linalg.logm(w))
        k = (k - k.T) / 2
        j = lam * np.outer(diag, diag)
        built.append(
            LucjLayer(
                kgen=k,
                j_same=(j * mask_same + (j * mask_same).T) / 2,
                j_opposite=(j * mask_opposite + (j * mask_opposite).T) / 2,
            )
        )
    return LucjParameters(m, tuple(built), mask_same, mask_opposite)


def load_amplitudes(path) -> tuple[np.ndarray, int, int]:
    """Read a doubles-amplitude JSON file; returns (t2, n_orbitals, n_occ)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    for key in ("n_orbitals", "n_occ", "t2"):
        if key not in raw:
            raise ValidationError(f"{path}: missing key {key!r}")
    m = int(raw["n_orbitals"])
    nocc = int(raw["n_occ"])
    t2 = np.asarray(raw["t2"], dtype=float)
    if not np.all(np.isfinite(t2)):
        raise ValidationError(f"{path}: non-finite amplitude")
    nvirt = m - nocc
    if t2.shape != (nocc, nocc, nvirt, nvirt):
        raise ValidationError(
            f"{path}: amplitude shape {t2.shape} does not match "
            f"(n_occ, n_occ, n_virt, n_virt) = {(nocc, nocc, nvirt, nvirt)}"
        )
    return t2, m, nocc


def save_amplitudes(t2: np.ndarray, n_orbitals: int, n_occ: int, path) -> None:
    doc = {"n_orbitals": n_orbitals, "n_occ": n_occ, "t2": np.asarray(t2).tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
