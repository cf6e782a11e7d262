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
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError, check_cap

HARTREE_TO_EV = 27.211386245988

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
# largest coupling lattice_from_electronic tolerates outside the lattice form
LATTICE_TOL = 1e-10
LATTICE_REQUIRED = ("n_orbitals", "hopping", "u", "v")
LATTICE_KEYS = LATTICE_REQUIRED + ("kpoint", "unit", "labels")
MAX_ORBITALS = 63  # the bits of an int64 string word below its sign bit


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
        return replace(self, hopping=self.hopping * f, u_intra=self.u_intra * f,
                       v_inter=self.v_inter * f, unit="eV")


def integrals_bytes(m: int) -> int:
    """Estimated peak allocation of M-orbital integrals built from input:
    six two-body tensors of 8 M^4 bytes (the two built, the copies that
    ``ElectronicIntegrals`` keeps, and two temporaries of its symmetry
    checks), eight M x M arrays, and 64 KiB for the parsed input."""
    return 8 * (6 * m**4 + 8 * m**2) + 2**16


@dataclass(frozen=True)
class ElectronicIntegrals:
    """One- and two-body integrals of a general electronic Hamiltonian.

    ``two_body_same_spin[p, q, r, s]`` multiplies c+_ps c+_rs c_ss c_qs and
    ``two_body_opposite_spin[p, q, r, s]`` multiplies c+_ps c+_rt c_st c_qs
    for s != t, both under the global 1/2 prefactor.
    """

    n_orbitals: int
    one_body: np.ndarray
    two_body_same_spin: np.ndarray
    two_body_opposite_spin: np.ndarray
    core_energy: float = 0.0

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
        for name, val in (
            ("one_body", h),
            ("two_body_same_spin", gss),
            ("two_body_opposite_spin", gos),
        ):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(a) for a in (self.one_body, self.two_body_same_spin,
                                                self.two_body_opposite_spin))

    @cached_property
    def one_spin_memo(self) -> dict:
        """Each string word's one-spin entries under these integrals, filled
        by ``hsqd.strings`` as strings are requested; it lives and dies with
        the integrals, whose arrays are read-only."""
        return {}


@dataclass(frozen=True)
class SectorSpec:
    """A fixed (n_alpha, n_beta) particle-number sector over M orbitals."""

    n_orbitals: int
    n_alpha: int
    n_beta: int

    def __post_init__(self):
        m = self.n_orbitals
        if m > MAX_ORBITALS:
            raise ValidationError(f"{m} orbitals: a sector holds at most {MAX_ORBITALS}")
        if not (0 <= self.n_alpha <= m and 0 <= self.n_beta <= m):
            raise ValidationError(
                f"electron counts ({self.n_alpha}, {self.n_beta}) outside [0, {m}]"
            )

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta

    def holds(self, words, channel: str) -> np.ndarray:
        """Whether each of ``words`` is an M-orbital string of the "alpha" or "beta" channel."""
        words = np.asarray(words, dtype=np.int64)
        n_occ = self.n_alpha if channel == "alpha" else self.n_beta
        return ((words >> self.n_orbitals) == 0) & (np.bitwise_count(words) == n_occ)

    def check_reference(self, reference) -> tuple[int, int]:
        """``reference``'s (alpha, beta) words as Python ints, if a determinant of the sector."""
        alpha, beta = map(int, reference)
        if not (self.holds(alpha, "alpha") and self.holds(beta, "beta")):
            raise ValidationError("reference determinant outside the sector")
        return alpha, beta

    def dimension(self) -> int:
        return math.comb(self.n_orbitals, self.n_alpha) * math.comb(self.n_orbitals, self.n_beta)


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
    check_cap(f"the integrals of {m} orbitals", integrals_bytes(m))
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
    return ElectronicIntegrals(m, lat.hopping.astype(dtype), gss, gos, 0.0)


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
    if all(np.abs(x.imag).max(initial=0.0) == 0.0 for x in (h, gss, gos)):
        h, gss, gos = h.real, gss.real, gos.real
    return ElectronicIntegrals(m, h, gss, gos, ints.core_energy)


# ---------------------------------------------------------------------------
# Lattice JSON interchange


def _matrix_to_json(mat: np.ndarray):
    if np.iscomplexobj(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat]


def read_text(path) -> str:
    """The text of the input file ``path``, which must be UTF-8; a
    ``ValidationError`` naming the file when it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {path}: {exc}") from exc


# Readers of one parsed value of key ``key`` in input file ``path``: each
# returns the value as its type or raises a ValidationError naming both.
def _string(path, key: str, value) -> str:
    """``value``, which must be a string."""
    if not isinstance(value, str):
        raise ValidationError(f"{path}: {key} must be a string, got {value!r}")
    return value


def _boolean(path, key: str, value) -> bool:
    """``value``, which must be a boolean."""
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: {key} must be true or false, got {value!r}")
    return value


def _real(path, key: str, value) -> float:
    """``value`` as a float, which may be infinite or NaN; ints pass, bools do not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{path}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _number(path, key: str, value) -> float:
    """``value`` as a finite float; ints pass, bools do not."""
    number = _real(path, key, value)
    if not math.isfinite(number):
        raise ValidationError(f"{path}: {key} must be finite, got {value!r}")
    return number


def _integer(path, key: str, value) -> int:
    """``value`` as an int; integral floats such as 2.5e6 pass."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{path}: {key} must be an integer, got {value!r}")
    return value


def _nested(path, key: str, value, shape: tuple[int, ...], entry=_real) -> list:
    """``value`` as lists nested to ``shape``, each entry (``v[0][1]``) read by ``entry``."""
    if not shape:
        return entry(path, key, value)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValidationError(f"{path}: {key} must be a list of {shape[0]} entries, got {value!r}")
    return [_nested(path, f"{key}[{i}]", x, shape[1:], entry) for i, x in enumerate(value)]


def _hopping_entry(path, key: str, value) -> float | complex:
    """A hopping entry: a number, or a complex number as its ``[re, im]`` pair."""
    if isinstance(value, list):
        return complex(*_nested(path, key, value, (2,)))
    return _real(path, key, value)


def load_lattice(path) -> LatticeHamiltonian:
    """Read a lattice Hamiltonian from its JSON interchange file."""
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {raw!r}")
    for key in LATTICE_REQUIRED:
        if key not in raw:
            raise ValidationError(f"{path}: missing required key {key!r}")
    if unknown := sorted(set(raw) - set(LATTICE_KEYS)):
        raise ValidationError(f"{path}: unknown lattice key(s) {', '.join(unknown)}")
    m = _integer(path, "n_orbitals", raw["n_orbitals"])
    labels = raw.get("labels")
    values = dict(
        n_orbitals=m,
        hopping=_nested(path, "hopping", raw["hopping"], (m, m), _hopping_entry),
        u_intra=_nested(path, "u", raw["u"], (m,)),
        v_inter=_nested(path, "v", raw["v"], (m, m)),
        kpoint_label=_string(path, "kpoint", raw.get("kpoint", "Gamma")),
        unit=_string(path, "unit", raw.get("unit", "eV")),
        orbital_labels=None if labels is None else tuple(_nested(path, "labels", labels, (m,), _string)),
    )
    try:
        return LatticeHamiltonian(**values)
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


def lattice_from_electronic(ints: ElectronicIntegrals) -> LatticeHamiltonian:
    """Invert the mapping for density-density integrals (t, U, V recovery)."""
    m = ints.n_orbitals
    gss, gos = ints.two_body_same_spin, ints.two_body_opposite_spin
    for name, g in (("same-spin", gss), ("opposite-spin", gos)):
        off = g.copy()
        for p in range(m):
            for r in range(m):
                off[p, p, r, r] = 0.0
        if np.abs(off).max(initial=0.0) > LATTICE_TOL:
            raise ValidationError(
                f"integrals are not density-density ({name} channel); cannot recover a lattice form"
            )
    # the density-density couplings g[p, p, q, q] of each channel
    d_os, d_ss = (np.einsum("ppqq->pq", g) for g in (gos, gss))
    u = np.real(np.diag(d_os)).copy()
    v = np.real(d_os).copy()
    np.fill_diagonal(v, 0.0)
    v_ss = np.real(d_ss).copy()
    np.fill_diagonal(v_ss, 0.0)
    if np.abs(v_ss - v).max(initial=0.0) > LATTICE_TOL:
        raise ValidationError("channel mismatch: inter-site couplings differ between spin channels")
    return LatticeHamiltonian(
        n_orbitals=m,
        hopping=ints.one_body,
        u_intra=u,
        v_inter=v / 2.0,
        unit="eV",
    )
