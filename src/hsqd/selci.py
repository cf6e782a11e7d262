"""Classical CI oracles: full CI and an importance-selected CI benchmark.

The selected solver grows a variational determinant set from the reference:
at each epsilon stage every determinant connected to the current set with
first-order importance |H_ai c_i| >= epsilon joins, and the stage iterates
until the set stops growing.  Energies are variational throughout; no
perturbative correction is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import strings
from .davidson import GroundStateResult, eigensolve_bytes, lowest_eigenpair
from .determinants import Determinant, half_strings
from .errors import CapExceededError, ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .strings import columns_bytes, hamiltonian_columns
from .subspace import SubspaceBasis, relative_variance, solve_subspace

FCI_CAP = 10**6


@dataclass(frozen=True)
class SelectionSchedule:
    """Strictly descending importance cutoffs with a hard size cap."""

    epsilons: tuple[float, ...] = ()
    max_determinants: int = 10**6

    def __post_init__(self):
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValidationError("provide one or more positive epsilons")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValidationError("epsilons must be strictly descending")


@dataclass(frozen=True)
class SelectedCiStage:
    """One stage of the selected-CI iteration."""

    cutoff: float
    size: int
    fraction: float
    result: GroundStateResult
    determinants: tuple[Determinant, ...] = field(repr=False, default=())


def fci_ground(spec: SectorSpec, ints: ElectronicIntegrals) -> GroundStateResult:
    """Lowest eigenpair over the complete sector basis (``solve_subspace``,
    whose variance there is the exact one from the residual)."""
    dim = spec.dimension()
    if dim > FCI_CAP:
        raise CapExceededError(f"sector dimension {dim} exceeds FCI cap {FCI_CAP}")
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

    The determinants that join get their columns from ``hamiltonian_columns``
    in chunks, each kept as one CSC block and never rebuilt: a column already
    holds every determinant its own couples to, so a later pick only moves
    one of its rows from outside S to inside.  A row is a determinant, keyed
    by its words: each channel numbers its words in the order they are met,
    and the key is (beta number) << 32 | (alpha number), whatever M is (a
    channel would need 2^32 distinct words, 32 GiB of them, to overflow it).
    Rows and positions in S are int32: the memory cap keeps them below 10^8.
    """

    def __init__(self, ints: ElectronicIntegrals, spec: SectorSpec):
        self.ints, self.spec = ints, spec
        empty = np.empty(0, dtype=np.int64)
        self.blocks = []  # (first column, indptr, rows, values) per chunk
        self.members = empty  # row of each determinant of S, in S order
        self.row_alpha = self.row_beta = empty  # words of each row
        self.position = np.empty(0, dtype=np.int32)  # of each row in S; -1 outside
        self._alpha = self._beta = self._keys = (empty, empty)  # numbered words and keys

    def _kept_bytes(self, size: int) -> int:
        """The store's arrays three times over, plus the eigensolve of
        ``size`` members (``eigensolve_bytes``).  A round's reads of the
        store (H[S, S], the importances, the variance) allocate at most 1.8
        times its arrays, measured from M = 6 to 8 up to full coverage; the
        eigensolve's sparse H[S, S] is at most the store's size."""
        arrays = [self.members, self.row_alpha, self.row_beta, self.position,
                  *self._alpha, *self._beta, *self._keys]
        arrays += [a for block in self.blocks for a in block[1:]]
        return 3 * sum(a.nbytes for a in arrays) + eigensolve_bytes(size, self.ints.is_complex)

    def extend(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Append the determinants (alpha[j], beta[j]) to S in chunks, each as
        large as the kept bytes plus its ``columns_bytes`` allow under
        ``SIGMA_BYTES_CAP``; ``CapExceededError`` before a chunk is built
        when not one determinant fits."""
        size = len(self.members) + len(alpha)
        fixed = columns_bytes(0, self.spec, self.ints)
        each = columns_bytes(1, self.spec, self.ints) - fixed  # columns_bytes is affine
        start = 0
        while start < len(alpha):
            room = (strings.SIGMA_BYTES_CAP - self._kept_bytes(size) - fixed) // each
            if room < 1:
                raise CapExceededError(f"the kept H columns of {len(self.members)} "
                                       "determinants and one more exceed the memory cap")
            self._add(alpha[start:start + room], beta[start:start + room])
            start += room

    def _add(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        out_a, out_b, cols = hamiltonian_columns(self.ints, alpha, beta)
        rows = self._rows(np.concatenate([alpha, out_a]), np.concatenate([beta, out_b]))
        first, n = len(self.members), len(alpha)
        self.position[rows[:n]] = np.arange(first, first + n)
        self.members = np.concatenate([self.members, rows[:n]])
        cols = cols.tocsc()  # a linear transpose: the build summed each column's duplicates
        self.blocks.append((first, cols.indptr, rows[cols.indices].astype(np.int32), cols.data))

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
        """H[S, S] as CSC, filled block by block (the blocks hold ascending
        columns); ``lowest_eigenpair`` densifies the small ones itself."""
        d = len(self.members)
        inside = [np.flatnonzero(self.position[rows] >= 0).astype(np.int32)
                  for _, _, rows, _ in self.blocks]
        val = np.empty(sum(map(len, inside)), dtype=self.blocks[0][3].dtype)
        row = np.empty(len(val), dtype=np.int32)
        ptr, start = [np.zeros(1, dtype=np.int64)], 0
        for (first, indptr, rows, vals), keep in zip(self.blocks, inside):
            end = start + len(keep)
            val[start:end] = vals[keep]
            row[start:end] = self.position[rows[keep]]
            ptr.append(start + np.searchsorted(keep, indptr[1:]))
            start = end
        return sp.csc_matrix((val, row, np.concatenate(ptr)), shape=(d, d))

    def importance(self, c: np.ndarray) -> np.ndarray:
        """max_j |H_rj| |c_j| of each row r."""
        imp = np.zeros(len(self.position))
        mag = np.abs(c)
        for first, indptr, rows, vals in self.blocks:
            w = np.abs(vals)
            w *= np.repeat(mag[first:first + len(indptr) - 1], np.diff(indptr))
            np.maximum.at(imp, rows, w)
        return imp

    def sigma(self, c: np.ndarray) -> np.ndarray:
        """H[:, S] c over the rows: the members of S in order, then the rows
        outside."""
        s = np.zeros(len(self.position), dtype=np.result_type(c, self.blocks[0][3]))
        for first, indptr, rows, vals in self.blocks:
            n = len(indptr) - 1
            s += sp.csc_matrix((vals, rows, indptr), shape=(len(s), n)) @ c[first:first + n]
        return np.concatenate([s[self.members], s[self.position < 0]])


def hci_ground(
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    schedule: SelectionSchedule,
    reference: Determinant | None = None,
) -> list[SelectedCiStage]:
    """Heat-bath selected CI, one recorded stage per cutoff.

    H[:, set] is kept across rounds (``_ColumnStore``): each round adds the
    columns of the determinants that joined and reads the rest from the
    store.  Its rows inside the set give the eigenproblem, and each
    determinant outside it joins when max_i |H_ai| |c_i| >= epsilon, most
    important first (ties in ascending (beta, alpha) order), up to
    ``max_determinants``.  The same columns give each stage's variance:
    s = H[:, set] c holds H c over every determinant the set couples to, so
    no further sigma is needed and the variance is reported whatever the
    sector size.  The kept columns plus the chunk being built stay under
    ``SIGMA_BYTES_CAP``.
    """
    if reference is None:
        reference = Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
    elif not (spec.holds(reference.alpha, "alpha") and spec.holds(reference.beta, "beta")):
        raise ValidationError("reference determinant outside the sector")
    store = _ColumnStore(ints, spec)
    store.extend(*(np.array([word], dtype=np.int64) for word in (reference.alpha, reference.beta)))
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
        dets = tuple(map(Determinant, store.row_alpha[store.members].tolist(),
                         store.row_beta[store.members].tolist()))
        res = result.with_variance(relative_variance(result.ci_vector, store.sigma(result.ci_vector)))
        stages.append(SelectedCiStage(eps, len(dets), len(dets) / spec.dimension(), res, dets))
    return stages
