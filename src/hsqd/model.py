"""Lattice and electronic Hamiltonian containers, their mapping, and file I/O.

The lattice Hamiltonian is an extended Hubbard model over M localized
orbitals ("sites"),

    H = sum_{pq,s} t_pq a+_ps a_qs
      + sum_p U_p n_pu n_pd
      + sum_{p!=q, s,t} V_pq n_ps n_qt ,

with Hermitian hopping t, on-site repulsion U, and a symmetric inter-site
coupling V whose double sum runs over ordered site pairs and all four spin
combinations.  The electronic form used by CI solvers is

    H = sum_{pq,s} h_pq c+_ps c_qs
      + 1/2 sum_{pqrs,st} g_pqrs,st c+_ps c+_rt c_st c_qs
      + core ,

with the two-body tensor stored as a same-spin and an opposite-spin channel
in chemists' index order (pq|rs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

HARTREE_TO_EV = 27.211386245988

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10


def _as_matrix(data, name: str, m: int, path: str | None = None) -> np.ndarray:
    arr = np.asarray(data)
    where = f" in {path}" if path else ""
    if arr.shape != (m, m):
        raise ValidationError(f"{name}{where}: expected shape {(m, m)}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Extended Hubbard Hamiltonian at a single labeled k-point."""

    n_orbitals: int
    hopping: np.ndarray
    u_intra: np.ndarray
    v_inter: np.ndarray
    kpoint_label: str = "Gamma"
    unit: str = "eV"
    orbital_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        m = self.n_orbitals
        hopping = np.array(self.hopping)
        if np.iscomplexobj(hopping) and np.abs(hopping.imag).max(initial=0.0) == 0.0:
            hopping = hopping.real
        u = np.array(self.u_intra, dtype=float)
        v = np.array(self.v_inter, dtype=float)
        if hopping.shape != (m, m):
            raise ValidationError(f"hopping: expected shape {(m, m)}, got {hopping.shape}")
        if u.shape != (m,):
            raise ValidationError(f"u_intra: expected length {m}, got {u.shape}")
        if v.shape != (m, m):
            raise ValidationError(f"v_inter: expected shape {(m, m)}, got {v.shape}")
        # NaN fails every tolerance comparison below, so reject it up front
        for name, arr in (("hopping", hopping), ("u_intra", u), ("v_inter", v)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
        if np.abs(hopping - hopping.conj().T).max(initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("non-Hermitian hopping matrix")
        if np.abs(v - v.T).max(initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("v_inter must be symmetric")
        if np.abs(np.diag(v)).max(initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("v_inter must have zero diagonal")
        if self.unit not in ("eV", "hartree"):
            raise ValidationError(f"unknown energy unit {self.unit!r}")
        if self.orbital_labels is not None and len(self.orbital_labels) != m:
            raise ValidationError("orbital_labels length mismatch")
        for name, val in (("hopping", hopping), ("u_intra", u), ("v_inter", v)):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    def to_ev(self) -> "LatticeHamiltonian":
        """Return an equivalent Hamiltonian expressed in eV."""
        if self.unit == "eV":
            return self
        f = HARTREE_TO_EV
        return LatticeHamiltonian(
            n_orbitals=self.n_orbitals,
            hopping=self.hopping * f,
            u_intra=self.u_intra * f,
            v_inter=self.v_inter * f,
            kpoint_label=self.kpoint_label,
            unit="eV",
            orbital_labels=self.orbital_labels,
        )


@dataclass(frozen=True)
class ElectronicIntegrals:
    """One- and two-body integrals of a general electronic Hamiltonian.

    ``two_body_same_spin[p, q, r, s]`` multiplies c+_ps c+_rs c_ss c_qs and
    ``two_body_opposite_spin[p, q, r, s]`` multiplies c+_ps c+_rt c_st c_qs
    for s != t, both under the global 1/2 prefactor.  ``density_density``
    marks tensors that vanish unless p == q and r == s, which unlocks the
    single-hop fast paths in the determinant machinery.
    """

    n_orbitals: int
    one_body: np.ndarray
    two_body_same_spin: np.ndarray
    two_body_opposite_spin: np.ndarray
    core_energy: float = 0.0
    density_density: bool = False

    def __post_init__(self):
        m = self.n_orbitals
        h = np.array(self.one_body)
        gss = np.array(self.two_body_same_spin)
        gos = np.array(self.two_body_opposite_spin)
        if h.shape != (m, m):
            raise ValidationError(f"one_body: expected shape {(m, m)}, got {h.shape}")
        for name, g in (("two_body_same_spin", gss), ("two_body_opposite_spin", gos)):
            if g.shape != (m, m, m, m):
                raise ValidationError(f"{name}: expected shape {(m,) * 4}, got {g.shape}")
        # NaN fails every tolerance comparison below, so reject it up front
        for name, arr in (
            ("one_body", h),
            ("two_body_same_spin", gss),
            ("two_body_opposite_spin", gos),
            ("core_energy", np.asarray(self.core_energy)),
        ):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
        if np.abs(h - h.conj().T).max(initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("one_body must be Hermitian")
        for name, g in (("two_body_same_spin", gss), ("two_body_opposite_spin", gos)):
            # operator Hermiticity: g_pqrs = conj(g_qpsr)
            if np.abs(g - g.transpose(1, 0, 3, 2).conj()).max(initial=0.0) > 1e-10:
                raise ValidationError(f"{name} violates two-body Hermiticity g_pqrs = g_qpsr*")
            # pair-swap redundancy of the operator form: g_pqrs ~ g_rspq
            if np.abs(g - g.transpose(2, 3, 0, 1)).max(initial=0.0) > 1e-10:
                raise ValidationError(f"{name} violates pair-swap symmetry g_pqrs = g_rspq")
        if self.density_density:
            for name, g in (("two_body_same_spin", gss), ("two_body_opposite_spin", gos)):
                off = g.copy()
                for p in range(m):
                    for r in range(m):
                        off[p, p, r, r] = 0.0
                if np.abs(off).max(initial=0.0) > 0.0:
                    raise ValidationError(f"density_density set but {name} has non-diagonal entries")
        for name, val in (
            ("one_body", h),
            ("two_body_same_spin", gss),
            ("two_body_opposite_spin", gos),
        ):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    @property
    def is_complex(self) -> bool:
        return any(
            np.iscomplexobj(a)
            for a in (self.one_body, self.two_body_same_spin, self.two_body_opposite_spin)
        )

    @cached_property
    def diag_coulomb_same(self) -> np.ndarray:
        """Density-density couplings g[p, p, q, q] of the same-spin channel."""
        return np.ascontiguousarray(np.einsum("ppqq->pq", self.two_body_same_spin))

    @cached_property
    def diag_coulomb_opposite(self) -> np.ndarray:
        return np.ascontiguousarray(np.einsum("ppqq->pq", self.two_body_opposite_spin))

    @cached_property
    def diag_exchange_same(self) -> np.ndarray:
        """Same-spin exchange couplings g[p, q, q, p]."""
        return np.ascontiguousarray(np.einsum("pqqp->pq", self.two_body_same_spin))


@dataclass(frozen=True)
class SectorSpec:
    """A fixed (n_alpha, n_beta) particle-number sector over M orbitals."""

    n_orbitals: int
    n_alpha: int
    n_beta: int

    def __post_init__(self):
        m = self.n_orbitals
        if not (0 <= self.n_alpha <= m and 0 <= self.n_beta <= m):
            raise ValidationError(
                f"electron counts ({self.n_alpha}, {self.n_beta}) outside [0, {m}]"
            )

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta

    def dimension(self) -> int:
        from math import comb

        return comb(self.n_orbitals, self.n_alpha) * comb(self.n_orbitals, self.n_beta)


def map_to_electronic(lat: LatticeHamiltonian, literal_2u: bool = False) -> ElectronicIntegrals:
    """Express the lattice Hamiltonian as electronic integrals.

    The stored coefficients are chosen so that the reconstructed operator
    (two-body under the 1/2 prefactor) reproduces the lattice Hamiltonian
    exactly: t maps onto the one-body tensor, the inter-site coupling enters
    both spin channels as g_ppqq = 2 V_pq, and the on-site repulsion enters
    only the opposite-spin channel as g_pppp = U_p.  With ``literal_2u`` the
    on-site coefficient is doubled to 2 U_p, a published-table compatibility
    convention that doubles the on-site energy of the reconstructed operator.
    """
    lat = lat.to_ev()
    m = lat.n_orbitals
    dtype = complex if np.iscomplexobj(lat.hopping) else float
    gss = np.zeros((m, m, m, m))
    gos = np.zeros((m, m, m, m))
    u_coeff = 2.0 * lat.u_intra if literal_2u else lat.u_intra
    for p in range(m):
        gos[p, p, p, p] = u_coeff[p]
        for q in range(m):
            if p != q:
                gss[p, p, q, q] = 2.0 * lat.v_inter[p, q]
                gos[p, p, q, q] = 2.0 * lat.v_inter[p, q]
    return ElectronicIntegrals(
        n_orbitals=m,
        one_body=lat.hopping.astype(dtype),
        two_body_same_spin=gss,
        two_body_opposite_spin=gos,
        core_energy=0.0,
        density_density=True,
    )


def _is_permutation(c: np.ndarray, tol: float = 1e-12) -> bool:
    mags = np.abs(c)
    return bool(
        np.all(np.isclose(mags[mags > tol], 1.0, atol=tol))
        and np.all((mags > 1.0 - tol).sum(axis=0) == 1)
        and np.all((mags > 1.0 - tol).sum(axis=1) == 1)
    )


def rotate_basis(ints: ElectronicIntegrals, c: np.ndarray) -> ElectronicIntegrals:
    """Transform integrals into the orbital basis given by the columns of c."""
    m = ints.n_orbitals
    c = np.asarray(c)
    if c.shape != (m, m):
        raise ValidationError(f"rotation matrix: expected shape {(m, m)}, got {c.shape}")
    if np.abs(c.conj().T @ c - np.eye(m)).max() > UNITARITY_TOL:
        raise ValidationError("rotation matrix is not unitary")
    h = c.conj().T @ ints.one_body @ c
    # creation indices (p, r) pick up the conjugate
    gss = np.einsum("pi,qj,rk,sl,pqrs->ijkl", c.conj(), c, c.conj(), c, ints.two_body_same_spin, optimize=True)
    gos = np.einsum("pi,qj,rk,sl,pqrs->ijkl", c.conj(), c, c.conj(), c, ints.two_body_opposite_spin, optimize=True)
    if not np.iscomplexobj(c) and not ints.is_complex:
        h, gss, gos = h.real, gss.real, gos.real
    elif np.abs(h.imag).max(initial=0.0) == 0.0 and np.abs(gss.imag).max(initial=0.0) == 0.0 and np.abs(gos.imag).max(initial=0.0) == 0.0:
        h, gss, gos = h.real, gss.real, gos.real
    return ElectronicIntegrals(
        n_orbitals=m,
        one_body=h,
        two_body_same_spin=gss,
        two_body_opposite_spin=gos,
        core_energy=ints.core_energy,
        density_density=ints.density_density and _is_permutation(c),
    )


# ---------------------------------------------------------------------------
# Lattice JSON interchange


def _matrix_to_json(mat: np.ndarray):
    if np.iscomplexobj(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat]


def _matrix_from_json(data, m: int, path: str) -> np.ndarray:
    if len(data) != m or any(len(row) != m for row in data):
        raise ValidationError(f"hopping in {path}: expected {m}x{m} entries")
    def entry(x):
        if isinstance(x, (list, tuple)):
            if len(x) != 2:
                raise ValidationError(f"hopping in {path}: complex entries must be [re, im]")
            return complex(x[0], x[1])
        return float(x)
    mat = np.array([[entry(x) for x in row] for row in data])
    if np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) == 0.0:
        mat = mat.real
    return mat


def load_lattice(path) -> LatticeHamiltonian:
    """Read a lattice Hamiltonian from its JSON interchange file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    for key in ("n_orbitals", "hopping", "u", "v"):
        if key not in raw:
            raise ValidationError(f"{path}: missing required key {key!r}")
    m = int(raw["n_orbitals"])
    labels = raw.get("labels")
    try:
        return LatticeHamiltonian(
            n_orbitals=m,
            hopping=_matrix_from_json(raw["hopping"], m, str(path)),
            u_intra=np.asarray(raw["u"], dtype=float),
            v_inter=np.asarray(raw["v"], dtype=float),
            kpoint_label=raw.get("kpoint", "Gamma"),
            unit=raw.get("unit", "eV"),
            orbital_labels=tuple(labels) if labels is not None else None,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_lattice(lat: LatticeHamiltonian, path) -> None:
    doc = {
        "n_orbitals": lat.n_orbitals,
        "unit": lat.unit,
        "kpoint": lat.kpoint_label,
        "hopping": _matrix_to_json(lat.hopping),
        "u": [float(x) for x in lat.u_intra],
        "v": _matrix_to_json(lat.v_inter),
    }
    if lat.orbital_labels is not None:
        doc["labels"] = list(lat.orbital_labels)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def lattice_from_electronic(ints: ElectronicIntegrals, tol: float = 1e-10) -> LatticeHamiltonian:
    """Invert the mapping for density-density integrals (t, U, V recovery)."""
    m = ints.n_orbitals
    if not ints.density_density:
        gss, gos = ints.two_body_same_spin, ints.two_body_opposite_spin
        for name, g in (("same-spin", gss), ("opposite-spin", gos)):
            off = g.copy()
            for p in range(m):
                for r in range(m):
                    off[p, p, r, r] = 0.0
            if np.abs(off).max(initial=0.0) > tol:
                raise ValidationError(
                    f"integrals are not density-density ({name} channel); cannot recover a lattice form"
                )
    d_os = ints.diag_coulomb_opposite
    d_ss = ints.diag_coulomb_same
    u = np.real(np.diag(d_os)).copy()
    v = np.real(d_os).copy()
    np.fill_diagonal(v, 0.0)
    v_ss = np.real(d_ss).copy()
    np.fill_diagonal(v_ss, 0.0)
    if np.abs(v_ss - v).max(initial=0.0) > tol:
        raise ValidationError("channel mismatch: inter-site couplings differ between spin channels")
    return LatticeHamiltonian(
        n_orbitals=m,
        hopping=ints.one_body,
        u_intra=u,
        v_inter=v / 2.0,
        unit="eV",
    )
