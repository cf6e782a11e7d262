"""Sample-driven configuration subspaces and their projected Hamiltonians.

A subspace is kept in product form: an ordered set of alpha half-strings
times an ordered set of beta half-strings.  Samples rank the strings by
marginal frequency; a fraction takes the shortest prefixes of the rankings
that cover it, the alpha ranking filling before the beta one grows, so sweeps
are nested and monotone by construction.  ``solve_subspace`` solves every
subspace, and takes its variance from the residual when the subspace is the
whole sector, from one full-sector sigma otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np
import scipy.sparse as sp

from .davidson import GroundStateResult, lowest_eigenpair
from .determinants import SECTOR_CAP, Determinant, check_levels, half_strings
from .errors import ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .statevector import SampleSet
from .strings import (SIGMA_BYTES_CAP, _locate, excited_strings, product_hamiltonian, sigma,
                      sigma_bytes)


@dataclass(frozen=True)
class SubspaceBasis:
    """Product-form determinant subspace A x B with canonical ordering."""

    spec: SectorSpec
    alpha_strings: tuple[int, ...]
    beta_strings: tuple[int, ...]

    def __post_init__(self):
        for name, strings in (("alpha", self.alpha_strings), ("beta", self.beta_strings)):
            if len(set(strings)) != len(strings):
                raise ValidationError(f"duplicate {name} strings")
            for s in strings:
                if not self.spec.holds(s, name):
                    raise ValidationError(f"{name} string {s:b} outside the sector")

    @property
    def dimension(self) -> int:
        return len(self.alpha_strings) * len(self.beta_strings)

    @property
    def fraction(self) -> float:
        return self.dimension / self.spec.dimension()

    def determinants(self) -> list[Determinant]:
        """Product basis in canonical (beta-major, ascending string) order."""
        alphas = sorted(self.alpha_strings)
        betas = sorted(self.beta_strings)
        return [Determinant(a, b) for b in betas for a in alphas]


def filter_samples(samples: SampleSet, spec: SectorSpec) -> SampleSet:
    """Keep only samples with the sector's per-spin particle numbers."""
    kept: dict[Determinant, int] = {}
    total = 0
    for det, count in samples.counts.items():
        if (
            bin(det.alpha).count("1") == spec.n_alpha
            and bin(det.beta).count("1") == spec.n_beta
        ):
            kept[det] = count
            total += count
    if not kept:
        raise ValidationError("postselection discarded every sample (empty subspace)")
    discarded = 1.0 - total / samples.shots
    return SampleSet(
        samples.n_orbitals, kept, total, samples.seed, samples.provenance, discarded
    )


PADDING_LIMIT = 10**6


def _ranked_strings(samples: SampleSet, spec: SectorSpec, channel: str) -> list[int]:
    """Observed strings by descending marginal frequency, then canonical order;
    unobserved sector strings follow in canonical order (frequency-zero ties).
    Padding is skipped for channels too large to enumerate."""
    freq: dict[int, int] = {}
    for det, count in samples.counts.items():
        word = det.alpha if channel == "alpha" else det.beta
        freq[word] = freq.get(word, 0) + count
    observed = sorted(freq, key=lambda w: (-freq[w], w))
    nocc = spec.n_alpha if channel == "alpha" else spec.n_beta
    if comb(spec.n_orbitals, nocc) > PADDING_LIMIT:
        return observed
    rest = [w for w in half_strings(spec.n_orbitals, nocc) if w not in freq]
    return observed + rest


def growth_sequence(
    samples: SampleSet, spec: SectorSpec, reference: Determinant | None = None
) -> tuple[list[int], list[int]]:
    """The alpha and beta string rankings (reference strings, when given,
    first) whose prefixes make every subspace of a sweep (``_covering``).

    A subspace grows from one string of each channel by the channel whose
    next string gives the smaller product, alpha on ties: (na + 1) nb
    against na (nb + 1) picks alpha whenever nb <= na, so the alpha ranking
    fills before the beta one grows.
    """
    ranked_a = _ranked_strings(samples, spec, "alpha")
    ranked_b = _ranked_strings(samples, spec, "beta")
    if reference is not None:
        if not (spec.holds(reference.alpha, "alpha") and spec.holds(reference.beta, "beta")):
            raise ValidationError("reference determinant outside the sector")
        ranked_a = [reference.alpha] + [w for w in ranked_a if w != reference.alpha]
        ranked_b = [reference.beta] + [w for w in ranked_b if w != reference.beta]
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
    """Hamiltonian projected onto the subspace, in ``determinants()`` order
    (sparse Hermitian), built from the per-spin string operators."""
    return product_hamiltonian(
        ints,
        np.array(sorted(basis.alpha_strings), dtype=np.int64),
        np.array(sorted(basis.beta_strings), dtype=np.int64),
    )


def solve_subspace(basis: SubspaceBasis, ints: ElectronicIntegrals) -> GroundStateResult:
    """Lowest eigenpair over ``basis`` with its relative variance.

    The whole sector is closed under H, so there H c = E c + r with r
    orthogonal to c and the variance is exactly (|r| / E)^2, None when E is
    zero; any other subspace takes ``energy_variance``.
    """
    result = lowest_eigenpair(project_hamiltonian(basis, ints))
    if basis.dimension == basis.spec.dimension():
        if abs(result.energy) < 1e-14:
            return result
        return result.with_variance((result.residual_norm / result.energy) ** 2)
    return result.with_variance(energy_variance(result, basis.determinants(), ints))


def energy_variance(
    result: GroundStateResult, dets: list[Determinant], ints: ElectronicIntegrals
) -> float | None:
    """Relative variance (<H^2> - <H>^2) / <H>^2 of an eigenvector over ``dets``.

    ``dets`` lists the determinants of one sector in the order of the CI
    vector, in any order and not necessarily a product set.  The vector is
    embedded in the full sector and H is applied once, so contributions from
    determinants outside the list are included.  Returns None when <H> is
    zero, where the relative variance is undefined, and for sectors above
    ``SECTOR_CAP`` or whose sigma is estimated (``strings.sigma_bytes``) to
    need more than ``SIGMA_BYTES_CAP`` bytes; that is decided before
    anything is allocated, so the caller keeps its energy either way.
    """
    m = ints.n_orbitals
    spec = SectorSpec(m, bin(dets[0].alpha).count("1"), bin(dets[0].beta).count("1"))
    if spec.dimension() > SECTOR_CAP or sigma_bytes(spec, ints) > SIGMA_BYTES_CAP:
        return None
    alpha = np.array(half_strings(m, spec.n_alpha), dtype=np.int64)
    beta = np.array(half_strings(m, spec.n_beta), dtype=np.int64)
    c = np.zeros(
        (len(beta), len(alpha)),
        dtype=np.result_type(result.ci_vector, complex if ints.is_complex else float),
    )
    rows = _locate(beta, np.array([d.beta for d in dets], dtype=np.int64))
    cols = _locate(alpha, np.array([d.alpha for d in dets], dtype=np.int64))
    if (rows < 0).any() or (cols < 0).any():
        raise ValidationError("determinant outside the sector")
    c[rows, cols] = result.ci_vector
    return relative_variance(c, sigma(c, ints, alpha, beta))


def relative_variance(c: np.ndarray, s: np.ndarray) -> float | None:
    """Relative variance (<H^2> - <H>^2) / <H>^2 of the normalized vector
    ``c`` from s = H c, where ``s`` covers every determinant that H reaches
    from ``c`` and its first ``c.size`` entries (flattened) are those of
    ``c``; None when <H> is zero.  It is taken as |s - <H> c|^2 / <H>^2, the
    squared residual, which cannot go negative by cancellation."""
    c, s = c.reshape(-1), s.reshape(-1)
    h1 = float(np.real(np.vdot(c, s[:c.size])))
    if abs(h1) < 1e-14:
        return None
    r = s.copy()
    r[:c.size] -= h1 * c
    return float(np.real(np.vdot(r, r))) / (h1 * h1)


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
    alpha = excited_strings(
        np.array(sorted(basis.alpha_strings), dtype=np.int64)[kept.any(axis=0)], spec.n_orbitals,
        1 in levels or 0 < spec.n_beta < spec.n_orbitals, 2 in levels)
    beta = excited_strings(
        np.array(sorted(basis.beta_strings), dtype=np.int64)[kept.any(axis=1)], spec.n_orbitals,
        1 in levels or 0 < spec.n_alpha < spec.n_orbitals, 2 in levels)
    return SubspaceBasis(spec, tuple(np.union1d(basis.alpha_strings, alpha).tolist()),
                         tuple(np.union1d(basis.beta_strings, beta).tolist()))


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
    reference: Determinant | None = None,
) -> list[SweepPoint]:
    """One subspace solve per requested fraction, on nested subspaces."""
    check_fractions(fractions)
    rankings = growth_sequence(samples, spec, reference)
    points = []
    for fraction in fractions:
        basis = SubspaceBasis(spec, *_covering(rankings, fraction * spec.dimension()))
        points.append(SweepPoint(fraction, basis, solve_subspace(basis, ints)))
    return points
