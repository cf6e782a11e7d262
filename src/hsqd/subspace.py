"""Sample-driven configuration subspaces and their projected Hamiltonians.

A subspace is kept in product form: an ordered set of alpha half-strings
times an ordered set of beta half-strings.  Samples rank the strings by
marginal frequency; a fraction takes the shortest prefixes of the rankings
that cover it, the alpha ranking filling before the beta one grows, so sweeps
are nested and monotone by construction.  ``solve_subspace`` solves every
subspace, and takes its variance from the residual when the subspace is the
whole sector, from one sigma over the strings it reaches otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np
import scipy.sparse as sp

from . import errors
from .davidson import GroundStateResult, lowest_eigenpair
from .determinants import check_levels, half_strings
from .errors import CapExceededError, ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .statevector import SampleSet
from .strings import excited_strings, product_hamiltonian, sigma


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Product-form determinant subspace A x B.  The alpha and beta string
    words are kept ascending, as read-only int64 arrays, and determinants are
    ordered beta-major, so a vector over the subspace is the matrix C[ib, ia]."""

    spec: SectorSpec
    alpha_strings: np.ndarray
    beta_strings: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta"):
            given = np.array(getattr(self, f"{name}_strings"), dtype=np.int64)
            words = np.sort(given)
            if (words[1:] == words[:-1]).any():
                raise ValidationError(f"duplicate {name} strings")
            bad = given[~self.spec.holds(given, name)]
            if len(bad):
                raise ValidationError(f"{name} string {int(bad[0]):b} outside the sector")
            words.setflags(write=False)
            object.__setattr__(self, f"{name}_strings", words)

    @property
    def dimension(self) -> int:
        return len(self.alpha_strings) * len(self.beta_strings)

    @property
    def fraction(self) -> float:
        return self.dimension / self.spec.dimension()


def filter_samples(samples: SampleSet, spec: SectorSpec) -> SampleSet:
    """Keep only samples with the sector's per-spin particle numbers."""
    kept = {det: count for det, count in samples.counts.items()
            if det.alpha.bit_count() == spec.n_alpha and det.beta.bit_count() == spec.n_beta}
    if not kept:
        raise ValidationError("postselection discarded every sample (empty subspace)")
    total = sum(kept.values())
    return SampleSet(samples.n_orbitals, kept, total, samples.seed, samples.provenance,
                     1.0 - total / samples.shots)


def _ranked_strings(samples: SampleSet, spec: SectorSpec, channel: str) -> list[int]:
    """Observed strings by descending marginal frequency, then canonical order;
    unobserved sector strings follow in canonical order (frequency-zero ties).
    Padding is skipped for channels of more than ``errors.SECTOR_CAP`` strings."""
    freq: dict[int, int] = {}
    for det, count in samples.counts.items():
        word = det.alpha if channel == "alpha" else det.beta
        freq[word] = freq.get(word, 0) + count
    observed = sorted(freq, key=lambda w: (-freq[w], w))
    nocc = spec.n_alpha if channel == "alpha" else spec.n_beta
    if comb(spec.n_orbitals, nocc) > errors.SECTOR_CAP:
        return observed
    words = half_strings(spec.n_orbitals, nocc)
    return observed + words[~np.isin(words, observed)].tolist()


def growth_sequence(
    samples: SampleSet, spec: SectorSpec, reference: tuple[int, int] | None = None
) -> tuple[list[int], list[int]]:
    """The alpha and beta string rankings (reference words, when given,
    first) whose prefixes make every subspace of a sweep (``_covering``).

    A subspace grows from one string of each channel by the channel whose
    next string gives the smaller product, alpha on ties: (na + 1) nb
    against na (nb + 1) picks alpha whenever nb <= na, so the alpha ranking
    fills before the beta one grows.
    """
    ranked_a = _ranked_strings(samples, spec, "alpha")
    ranked_b = _ranked_strings(samples, spec, "beta")
    if reference is not None:
        ref_a, ref_b = spec.check_reference(reference)
        ranked_a = [ref_a] + [w for w in ranked_a if w != ref_a]
        ranked_b = [ref_b] + [w for w in ranked_b if w != ref_b]
    return ranked_a, ranked_b


def _covering(rankings, target: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first subspace of the growth over ``rankings`` whose product
    dimension reaches ``target``; the whole rankings when none does (a sector
    too large to pad with unobserved strings)."""
    ranked_a, ranked_b = rankings
    t = ceil(target)
    na = min(len(ranked_a), max(1, t))
    nb = min(len(ranked_b), max(1, -(-t // na)))
    return tuple(ranked_a[:na]), tuple(ranked_b[:nb])


def project_hamiltonian(basis: SubspaceBasis, ints: ElectronicIntegrals) -> sp.csr_matrix:
    """Hamiltonian projected onto the subspace, beta-major over its ascending
    strings (sparse Hermitian), by ``strings.product_hamiltonian``, which checks the memory cap."""
    return product_hamiltonian(ints, basis.alpha_strings, basis.beta_strings)


def solve_subspace(basis: SubspaceBasis, ints: ElectronicIntegrals) -> GroundStateResult:
    """Lowest eigenpair over ``basis`` with its relative variance.

    The whole sector is closed under H, so there H c = E c + r with r
    orthogonal to c and the variance is exactly (|r| / E)^2, None when E is
    zero; any other subspace takes ``energy_variance``.  ``CapExceededError``
    before anything is built when the projected Hamiltonian's build is
    estimated over the memory cap (``project_hamiltonian``).
    """
    result = lowest_eigenpair(project_hamiltonian(basis, ints))
    if basis.dimension == basis.spec.dimension():
        if abs(result.energy) < 1e-14:
            return result
        return result.with_variance((result.residual_norm / result.energy) ** 2)
    return result.with_variance(energy_variance(result, basis, ints))


def energy_variance(
    result: GroundStateResult, basis: SubspaceBasis, ints: ElectronicIntegrals
) -> float | None:
    """Relative variance (<H^2> - <H>^2) / <H>^2 of an eigenvector over ``basis``.

    H is applied once to the CI vector C[ib, ia], from the basis strings onto
    every string they reach (``strings.sigma``), so determinants outside the
    basis contribute.  None when <H> is zero, and when ``strings.sigma``
    refuses it over the memory cap before anything is allocated (by
    ``sigma_bytes``); the caller keeps its energy either way.
    """
    alpha, beta = basis.alpha_strings, basis.beta_strings
    c = result.ci_vector.reshape(len(beta), len(alpha))
    try:
        s, words_a, words_b = sigma(c, ints, alpha, beta)
    except CapExceededError:
        return None
    return relative_variance(c, s, np.ix_(np.searchsorted(words_b, beta),
                                          np.searchsorted(words_a, alpha)))


def relative_variance(c: np.ndarray, s: np.ndarray, own=None) -> float | None:
    """Relative variance (<H^2> - <H>^2) / <H>^2 of the normalized vector
    ``c`` from s = H c over every determinant that H reaches from ``c``,
    where ``s[own]`` (by default the first ``c.size``) holds c's own in its
    shape; None when <H> is zero.  It is taken as |s - <H> c|^2 / <H>^2, the
    squared residual, which cannot go negative by cancellation; the residual
    overwrites ``s``."""
    own = slice(c.size) if own is None else own
    h1 = float(np.real(np.vdot(c, s[own])))
    if abs(h1) < 1e-14:
        return None
    s[own] -= h1 * c
    return float(np.real(np.vdot(s, s))) / (h1 * h1)


def check_expansion(threshold: float, levels: set[int]) -> None:
    """``extsqd_expand`` takes a nonnegative threshold and levels that are a
    nonempty subset of {1, 2}."""
    if threshold < 0:
        raise ValidationError("threshold must be nonnegative")
    check_levels(levels)


def extsqd_expand(
    result: GroundStateResult,
    basis: SubspaceBasis,
    threshold: float,
    levels: set[int],
) -> SubspaceBasis:
    """Grow the subspace by exciting the high-weight ground-state configurations.

    Determinants with squared amplitude below ``threshold`` are dropped, the
    survivors are excited at the requested levels, and the union with the
    input strings is re-closed into product form, which makes
    re-diagonalization variationally monotone.
    """
    check_expansion(threshold, levels)
    # the CI vector is beta-major over the ascending strings
    kept = np.abs(result.ci_vector.reshape(len(basis.beta_strings), -1)) ** 2 >= threshold
    if not kept.any():
        raise ValidationError("threshold removed every configuration")
    spec = basis.spec
    # a mixed double is a single in each channel, so with levels {2} a channel
    # gains its singles when the other channel has any (0 < n < M)
    alpha = excited_strings(basis.alpha_strings[kept.any(axis=0)], spec.n_orbitals,
                            1 in levels or 0 < spec.n_beta < spec.n_orbitals, 2 in levels)
    beta = excited_strings(basis.beta_strings[kept.any(axis=1)], spec.n_orbitals,
                           1 in levels or 0 < spec.n_alpha < spec.n_orbitals, 2 in levels)
    return SubspaceBasis(spec, np.union1d(basis.alpha_strings, alpha),
                         np.union1d(basis.beta_strings, beta))


@dataclass(frozen=True)
class SweepPoint:
    fraction: float
    basis: SubspaceBasis
    result: GroundStateResult


def check_fractions(fractions) -> None:
    """``sqd_sweep`` takes one or more strictly increasing fractions in (0, 1]."""
    if not fractions:
        raise ValidationError("no fractions requested")
    if any(f <= 0.0 or f > 1.0 for f in fractions):
        raise ValidationError("fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValidationError("fractions must be strictly increasing")


def sqd_sweep(
    samples: SampleSet,
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    fractions: list[float],
    reference: tuple[int, int] | None = None,
) -> list[SweepPoint]:
    """One subspace solve per requested fraction, on nested subspaces."""
    check_fractions(fractions)
    rankings = growth_sequence(samples, spec, reference)
    points = []
    for fraction in fractions:
        basis = SubspaceBasis(spec, *_covering(rankings, fraction * spec.dimension()))
        points.append(SweepPoint(fraction, basis, solve_subspace(basis, ints)))
    return points
