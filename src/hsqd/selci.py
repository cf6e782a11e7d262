"""Classical CI oracles: full CI and an importance-selected CI benchmark.

The selected solver grows a variational determinant set from the reference:
at each epsilon stage every determinant connected to the current set with
first-order importance |H_ai c_i| >= epsilon joins, and the stage iterates
until the set stops growing.  Energies are variational throughout; no
perturbative correction is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .davidson import GroundStateResult, eigensolve_bytes, lowest_eigenpair
from .determinants import half_strings
from .errors import ValidationError, check_cap
from .model import ElectronicIntegrals, SectorSpec
from .reference import MeanFieldSolution
from .strings import columns_bytes, hamiltonian_columns
from .subspace import SubspaceBasis, relative_variance, solve_subspace


@dataclass(frozen=True)
class SelectionSchedule:
    """Strictly descending importance cutoffs with a hard size cap."""

    epsilons: tuple[float, ...] = ()
    max_determinants: int = 10**6

    def __post_init__(self):
        if not self.epsilons or not all(0 < e < math.inf for e in self.epsilons):
            raise ValidationError("provide one or more positive finite epsilons")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValidationError("epsilons must be strictly descending")
        if self.max_determinants < 1:
            raise ValidationError("max_determinants must be at least 1")


@dataclass(frozen=True, eq=False)
class SelectedCiStage:
    """One stage of the selected-CI iteration; its words are in join (CI vector) order."""

    cutoff: float
    size: int
    fraction: float
    result: GroundStateResult
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)


def fci_ground(spec: SectorSpec, ints: ElectronicIntegrals) -> GroundStateResult:
    """Lowest eigenpair over the complete sector basis (``solve_subspace``,
    whose variance there is the exact one from the residual)."""
    check_cap("full CI over the sector", spec.dimension(), "determinants")
    strings = (half_strings(spec.n_orbitals, n) for n in (spec.n_alpha, spec.n_beta))
    return solve_subspace(SubspaceBasis(spec, *strings), ints)


def _intern(table, keys: np.ndarray):
    """Numbers of ``keys`` under ``table``, a pair (ascending keys, their
    numbers); keys not yet in it get the next free numbers, in ascending
    order.  Returns the grown table, the numbers, and where in ``keys`` each
    new key first occurs, in number order."""
    known, numbers = table
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    at = np.searchsorted(known, uniq)
    hit = np.zeros(len(uniq), dtype=bool)
    inside = np.flatnonzero(at < len(known))
    hit[inside] = known[at[inside]] == uniq[inside]
    out = np.empty(len(uniq), dtype=np.int64)
    out[hit] = numbers[at[hit]]
    new = np.flatnonzero(~hit)
    out[new] = np.arange(len(numbers), len(numbers) + len(new))
    table = (np.insert(known, at[new], uniq[new]), np.insert(numbers, at[new], out[new]))
    return table, out[inverse], first[new]


class _ColumnStore:
    """H[:, S] of a growing determinant set S, kept across selection rounds.

    H[:, S] is one CSC triple (``indptr``, ``rows``, ``values``), columns in
    S order.  The determinants that join get their columns from
    ``hamiltonian_columns`` in chunks, each appended to it and never rebuilt:
    a column already holds every determinant its own couples to, so a later
    pick only moves one of its rows from outside S to inside.  A row is a
    determinant, keyed by its words: each channel numbers its words in the
    order they are met, and the key is (beta number) << 32 | (alpha number),
    whatever M is (a channel would need 2^32 distinct words, 32 GiB of them,
    to overflow it).  Rows and positions in S are int32: the memory cap keeps
    them below 10^8.  Only the store sizes chunks under the cap, from two
    ``columns_bytes`` calls made here."""

    def __init__(self, ints: ElectronicIntegrals, spec: SectorSpec):
        self.ints = ints
        fixed = columns_bytes(0, spec, ints)
        # columns_bytes is affine: a call's fixed bytes and those of each column
        self._column_bytes = fixed, columns_bytes(1, spec, ints) - fixed
        empty = np.empty(0, dtype=np.int64)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.int32)
        self.values = np.empty(0, dtype=complex if ints.is_complex else float)
        self.members = empty  # row of each determinant of S, in S order
        self.row_alpha = self.row_beta = empty  # words of each row
        self.position = np.empty(0, dtype=np.int32)  # of each row in S; -1 outside
        self._alpha = self._beta = self._keys = (empty, empty)  # numbered words and keys

    def _kept_bytes(self, size: int) -> int:
        """The store's arrays three times over, plus the eigensolve of
        ``size`` members (``eigensolve_bytes``).  A round's reads of the
        store (H[S, S], the importances, the variance) allocate at most 1.7
        times its arrays, measured from M = 6 to 8 up to full coverage; the
        eigensolve's sparse H[S, S] is at most the store's size."""
        arrays = [self.indptr, self.rows, self.values, self.members, self.row_alpha,
                  self.row_beta, self.position, *self._alpha, *self._beta, *self._keys]
        return 3 * sum(a.nbytes for a in arrays) + eigensolve_bytes(size, self.ints.is_complex)

    def extend(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Append the determinants (alpha[j], beta[j]) to S in chunks, each as
        large as the kept bytes plus its ``columns_bytes`` allow under the
        memory cap; ``CapExceededError`` (``check_cap``) before a chunk is
        built when not one determinant fits."""
        size = len(self.members) + len(alpha)
        fixed, each = self._column_bytes
        start = 0
        while start < len(alpha):
            need = self._kept_bytes(size) + fixed + each
            room = 1 + check_cap(f"one more H column beside {len(self.members)} kept ones",
                                 need) // each
            self._add(alpha[start:start + room], beta[start:start + room])
            start += room

    def _add(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        row_a, row_b, cols = hamiltonian_columns(self.ints, alpha, beta)
        rows = self._rows(np.concatenate([alpha, row_a]), np.concatenate([beta, row_b]))
        first, n = len(self.members), len(alpha)
        self.position[rows[:n]] = np.arange(first, first + n)
        self.members = np.concatenate([self.members, rows[:n]])
        cols = cols.tocsc()  # a linear transpose: the build summed each column's duplicates
        self.indptr = np.concatenate([self.indptr, self.indptr[-1] + cols.indptr[1:]])
        self.rows = np.concatenate([self.rows, rows[n:][cols.indices].astype(np.int32)])
        self.values = np.concatenate([self.values, cols.data])

    def _rows(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """The row of each determinant (alpha[j], beta[j]); new ones are
        appended, outside S."""
        self._alpha, num_a, _ = _intern(self._alpha, alpha)
        self._beta, num_b, _ = _intern(self._beta, beta)
        self._keys, rows, new = _intern(self._keys, (num_b << 32) | num_a)
        self.row_alpha = np.concatenate([self.row_alpha, alpha[new]])
        self.row_beta = np.concatenate([self.row_beta, beta[new]])
        self.position = np.concatenate([self.position, np.full(len(new), -1, dtype=np.int32)])
        return rows

    def square(self) -> sp.csc_matrix:
        """H[S, S] as CSC (``lowest_eigenpair`` densifies the small ones); the
        row positions are gathered before the values, which lowers the peak."""
        d = len(self.members)
        inside = np.flatnonzero(self.position[self.rows] >= 0)
        ptr, rows = np.searchsorted(inside, self.indptr), self.position[self.rows[inside]]
        return sp.csc_matrix((self.values[inside], rows, ptr), shape=(d, d))

    def importance(self, c: np.ndarray) -> np.ndarray:
        """max_j |H_rj| |c_j| of each row r."""
        w = np.abs(self.values)
        w *= np.repeat(np.abs(c), np.diff(self.indptr))
        imp = np.zeros(len(self.position))
        np.maximum.at(imp, self.rows, w)
        return imp

    def sigma(self, c: np.ndarray) -> np.ndarray:
        """H[:, S] c over the rows: the members of S in order, then the rows
        outside."""
        shape = len(self.position), len(self.members)
        s = sp.csc_matrix((self.values, self.rows, self.indptr), shape=shape) @ c
        return np.concatenate([s[self.members], s[self.position < 0]])


def hci_ground(
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    schedule: SelectionSchedule,
    reference: tuple[int, int] | None = None,
) -> list[SelectedCiStage]:
    """Heat-bath selected CI from ``reference`` (aufbau by default), one recorded stage per cutoff.

    H[:, set] is kept across rounds (``_ColumnStore``): each round adds the
    columns of the determinants that joined and reads the rest from the
    store.  Its rows inside the set give the eigenproblem, and each
    determinant outside it joins when max_i |H_ai| |c_i| >= epsilon, most
    important first (ties in ascending (beta, alpha) order), up to
    ``max_determinants``.  The same columns give each stage's variance:
    s = H[:, set] c holds H c over every determinant the set couples to, so
    no further sigma is needed and the variance is reported whatever the
    sector size.  The kept columns plus the chunk being built stay under
    the memory cap (``errors.MEMORY_CAP``).
    """
    words = spec.check_reference(MeanFieldSolution.reference_for(spec)
                                 if reference is None else reference)
    store = _ColumnStore(ints, spec)
    store.extend(*(np.array([word], dtype=np.int64) for word in words))
    result = lowest_eigenpair(store.square())
    stages: list[SelectedCiStage] = []
    for eps in schedule.epsilons:
        while len(store.members) < schedule.max_determinants:
            imp = store.importance(result.ci_vector)
            hits = np.flatnonzero((imp >= eps) & (imp > 0) & (store.position < 0))
            # most important first, ties in ascending (beta, alpha) order
            pick = hits[np.lexsort((store.row_alpha[hits], store.row_beta[hits], -imp[hits]))]
            pick = pick[:schedule.max_determinants - len(store.members)]
            if not len(pick):
                break
            store.extend(store.row_alpha[pick], store.row_beta[pick])
            result = lowest_eigenpair(store.square())
        alpha, beta = store.row_alpha[store.members], store.row_beta[store.members]
        res = result.with_variance(relative_variance(result.ci_vector, store.sigma(result.ci_vector)))
        stages.append(SelectedCiStage(eps, len(alpha), len(alpha) / spec.dimension(), res, alpha, beta))
    return stages
