"""Occupation-bitstring determinants and Slater-Condon matrix elements.

A determinant stores one occupation word per spin channel; bit i of a word
marks orbital i as occupied.  The canonical ordering of a sector is
beta-major: determinants sort by (beta, alpha) as integers.  Alpha orbitals
sit below beta orbitals in the underlying fermionic ordering, so hopping
signs are computed entirely within one spin word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapExceededError, ValidationError
from .model import ElectronicIntegrals, SectorSpec

SECTOR_CAP = 10**7


@dataclass(frozen=True, order=False)
class Determinant:
    """One electronic configuration as a pair of occupation words."""

    alpha: int
    beta: int

    def sort_key(self) -> tuple[int, int]:
        return (self.beta, self.alpha)

    def occupied(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _bits(self.alpha), _bits(self.beta)

    def to_string(self, n_orbitals: int) -> str:
        """Bitstring rendering: beta word then alpha word, orbital M-1 leftmost."""
        return f"{self.beta:0{n_orbitals}b}{self.alpha:0{n_orbitals}b}"


def _bits(word: int) -> tuple[int, ...]:
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return tuple(out)


def _single_sign(word: int, hole: int, particle: int) -> int:
    """Parity of moving one electron hole -> particle within one spin word."""
    lo, hi = (hole, particle) if hole < particle else (particle, hole)
    mask = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if bin(word & mask).count("1") % 2 else 1


def half_strings(n_orbitals: int, n_occ: int) -> list[int]:
    """All n_occ-bit words over n_orbitals orbitals, ascending as integers."""
    return sorted(sum(1 << i for i in combo) for combo in combinations(range(n_orbitals), n_occ))


def enumerate_sector(spec: SectorSpec) -> list[Determinant]:
    """All determinants of a sector in canonical (beta-major) order."""
    dim = spec.dimension()
    if dim > SECTOR_CAP:
        raise CapExceededError(f"sector dimension {dim} exceeds cap {SECTOR_CAP}")
    alphas = half_strings(spec.n_orbitals, spec.n_alpha)
    betas = half_strings(spec.n_orbitals, spec.n_beta)
    return [Determinant(a, b) for b in betas for a in alphas]


def excitation_rank(d1: Determinant, d2: Determinant) -> int:
    """Total excitation rank between two determinants."""
    return (
        bin(d1.alpha ^ d2.alpha).count("1") + bin(d1.beta ^ d2.beta).count("1")
    ) // 2


def diagonal_energy(det: Determinant, ints: ElectronicIntegrals) -> float:
    """Expectation value of the Hamiltonian on a single determinant."""
    occ_a, occ_b = det.occupied()
    h = ints.one_body
    val = ints.core_energy
    if occ_a:
        val = val + h[occ_a, occ_a].sum()
    if occ_b:
        val = val + h[occ_b, occ_b].sum()
    d_ss = ints.diag_coulomb_same
    x_ss = ints.diag_exchange_same
    d_os = ints.diag_coulomb_opposite
    a = np.array(occ_a, dtype=int)
    b = np.array(occ_b, dtype=int)
    if a.size:
        val = val + 0.5 * (d_ss[np.ix_(a, a)].sum() - x_ss[np.ix_(a, a)].sum())
    if b.size:
        val = val + 0.5 * (d_ss[np.ix_(b, b)].sum() - x_ss[np.ix_(b, b)].sum())
    if a.size and b.size:
        val = val + d_os[np.ix_(a, b)].sum()
    # exactly real for Hermitian integrals
    return float(np.real(val))


def _single_element(hole: int, part: int, same_occ: tuple[int, ...], other_occ: tuple[int, ...],
                    ints: ElectronicIntegrals, sign: int):
    h = ints.one_body
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    val = h[part, hole]
    for j in same_occ:
        if j == hole:
            continue
        val = val + gss[part, hole, j, j] - gss[part, j, j, hole]
    for j in other_occ:
        val = val + gos[part, hole, j, j]
    return sign * val


def matrix_element(d1: Determinant, d2: Determinant, ints: ElectronicIntegrals):
    """Slater-Condon matrix element <d1|H|d2>."""
    diff_a = d1.alpha ^ d2.alpha
    diff_b = d1.beta ^ d2.beta
    na = bin(diff_a).count("1")
    nb = bin(diff_b).count("1")
    rank = (na + nb) // 2
    if rank == 0:
        return diagonal_energy(d1, ints)
    if rank > 2:
        return 0.0
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    if rank == 1:
        if na == 2:
            hole = _bits(diff_a & d2.alpha)[0]
            part = _bits(diff_a & d1.alpha)[0]
            sign = _single_sign(d2.alpha, hole, part)
            return _single_element(hole, part, _bits(d2.alpha), _bits(d2.beta), ints, sign)
        hole = _bits(diff_b & d2.beta)[0]
        part = _bits(diff_b & d1.beta)[0]
        sign = _single_sign(d2.beta, hole, part)
        return _single_element(hole, part, _bits(d2.beta), _bits(d2.alpha), ints, sign)
    # rank 2
    if na == 4:  # same-spin alpha double
        holes = _bits(diff_a & d2.alpha)
        parts = _bits(diff_a & d1.alpha)
        return _same_spin_double(d2.alpha, holes, parts, gss)
    if nb == 4:  # same-spin beta double
        holes = _bits(diff_b & d2.beta)
        parts = _bits(diff_b & d1.beta)
        return _same_spin_double(d2.beta, holes, parts, gss)
    # mixed alpha-beta double
    hole_a = _bits(diff_a & d2.alpha)[0]
    part_a = _bits(diff_a & d1.alpha)[0]
    hole_b = _bits(diff_b & d2.beta)[0]
    part_b = _bits(diff_b & d1.beta)[0]
    sign = _single_sign(d2.alpha, hole_a, part_a) * _single_sign(d2.beta, hole_b, part_b)
    return sign * gos[part_a, hole_a, part_b, hole_b]


def _same_spin_double(word: int, holes: tuple[int, ...], parts: tuple[int, ...], gss: np.ndarray):
    h1, h2 = holes
    p1, p2 = parts
    sign = _single_sign(word, h1, p1)
    word1 = word ^ (1 << h1) | (1 << p1)
    sign *= _single_sign(word1, h2, p2)
    return sign * (gss[p1, h1, p2, h2] - gss[p2, h1, p1, h2])


def _word_singles(word: int, n_orbitals: int):
    occ = _bits(word)
    for i in occ:
        for a in range(n_orbitals):
            if not (word >> a) & 1:
                yield word ^ (1 << i) | (1 << a)


def generate_excitations(
    det: Determinant, n_orbitals: int, levels: set[int]
) -> list[Determinant]:
    """Distinct spin-preserving excitations of a determinant.

    Level 1 produces all single excitations in either spin channel; level 2
    adds same-spin and mixed alpha-beta doubles.  Particle numbers per spin
    are preserved throughout.
    """
    if not levels or not levels <= {1, 2}:
        raise ValidationError("levels must be a nonempty subset of {1, 2}")
    alpha_singles = sorted(set(_word_singles(det.alpha, n_orbitals)))
    beta_singles = sorted(set(_word_singles(det.beta, n_orbitals)))
    out: dict[tuple[int, int], Determinant] = {}

    def add(a: int, b: int):
        key = (b, a)
        if key not in out:
            out[key] = Determinant(a, b)

    if 1 in levels:
        for a in alpha_singles:
            add(a, det.beta)
        for b in beta_singles:
            add(det.alpha, b)
    if 2 in levels:
        for a in sorted(set(_word_doubles(det.alpha, n_orbitals))):
            add(a, det.beta)
        for b in sorted(set(_word_doubles(det.beta, n_orbitals))):
            add(det.alpha, b)
        for a in alpha_singles:
            for b in beta_singles:
                add(a, b)
    out.pop((det.beta, det.alpha), None)
    return [out[k] for k in sorted(out)]


def _word_doubles(word: int, n_orbitals: int):
    occ = _bits(word)
    virt = [a for a in range(n_orbitals) if not (word >> a) & 1]
    for i, j in combinations(occ, 2):
        for a, b in combinations(virt, 2):
            yield word ^ (1 << i) ^ (1 << j) | (1 << a) | (1 << b)
