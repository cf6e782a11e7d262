"""Occupation-bitstring determinants and per-determinant Hamiltonian access.

A determinant stores one occupation word per spin channel; bit i of a word
marks orbital i as occupied.  The canonical ordering of a sector is
beta-major: determinants sort by (beta, alpha) as integers.  Alpha orbitals
sit below beta orbitals in the underlying fermionic ordering, so hopping
signs are computed entirely within one spin word.

``matrix_element``, ``diagonal_energy`` and ``generate_excitations`` read the
string engine (``hsqd.strings``) that every solver uses.  A call builds one H
column or one set of excited strings, about a millisecond: enough to inspect
an element, too slow to assemble a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .model import ElectronicIntegrals
from .strings import excited_strings, hamiltonian_columns


@dataclass(frozen=True, order=False)
class Determinant:
    """One electronic configuration as a pair of occupation words."""

    alpha: int
    beta: int


@cache
def half_strings(n_orbitals: int, n_occ: int) -> np.ndarray:
    """All n_occ-bit words over n_orbitals orbitals, ascending, as a read-only
    int64 array: the one enumeration of a spin channel, made once per
    (n_orbitals, n_occ) and shared by every caller.  A sector's canonical
    order is its beta strings times its alpha strings, beta-major."""
    words = np.array(sorted(sum(1 << i for i in combo)
                            for combo in combinations(range(n_orbitals), n_occ)), dtype=np.int64)
    words.setflags(write=False)
    return words


def excitation_rank(d1: Determinant, d2: Determinant) -> int:
    """Total excitation rank between two determinants."""
    return (
        bin(d1.alpha ^ d2.alpha).count("1") + bin(d1.beta ^ d2.beta).count("1")
    ) // 2


def matrix_element(d1: Determinant, d2: Determinant, ints: ElectronicIntegrals):
    """<d1|H|d2>: the row of ``d1`` in the H column of ``d2``
    (``strings.hamiltonian_columns``); 0.0 when ``d1`` is not coupled to
    ``d2`` or lies in another sector."""
    words_a, words_b, column = hamiltonian_columns(
        ints, np.array([d2.alpha], dtype=np.int64), np.array([d2.beta], dtype=np.int64))
    hit = np.flatnonzero((words_a == d1.alpha) & (words_b == d1.beta))
    return column[hit[0], 0] if hit.size else 0.0


def diagonal_energy(det: Determinant, ints: ElectronicIntegrals) -> float:
    """Expectation value of the Hamiltonian on a single determinant: the real
    part of its diagonal element, which is real for Hermitian integrals."""
    return float(np.real(matrix_element(det, det, ints)))


def check_levels(levels: set[int]) -> None:
    """Excitation levels must be a nonempty subset of {1, 2}."""
    if not levels or not levels <= {1, 2}:
        raise ValidationError("levels must be a nonempty subset of {1, 2}")


def generate_excitations(
    det: Determinant, n_orbitals: int, levels: set[int]
) -> list[Determinant]:
    """Distinct spin-preserving excitations of a determinant, in canonical
    (beta, alpha) order.

    Level 1 produces all single excitations in either spin channel; level 2
    adds same-spin and mixed alpha-beta doubles.  Particle numbers per spin
    are preserved throughout.
    """
    check_levels(levels)
    alpha = np.array([det.alpha], dtype=np.int64)
    beta = np.array([det.beta], dtype=np.int64)
    single_a = excited_strings(alpha, n_orbitals, True, False)
    single_b = excited_strings(beta, n_orbitals, True, False)
    pairs = []  # (alpha words, beta words) of each kind of excitation
    if 1 in levels:
        pairs += [(single_a, beta), (alpha, single_b)]
    if 2 in levels:
        pairs += [(excited_strings(alpha, n_orbitals, False, True), beta),
                  (alpha, excited_strings(beta, n_orbitals, False, True)),
                  (np.tile(single_a, len(single_b)), np.repeat(single_b, len(single_a)))]
    words = np.concatenate([np.stack(np.broadcast_arrays(b, a), axis=1) for a, b in pairs])
    return [Determinant(a, b) for b, a in np.unique(words, axis=0).tolist()]
