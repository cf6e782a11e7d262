"""Sample-driven configuration subspaces and their projected Hamiltonians.

A subspace is kept in product form: an ordered set of alpha half-strings
times an ordered set of beta half-strings.  Samples rank the strings by
marginal frequency; a greedy growth sequence then realizes any requested
fraction of the sector, and nested fractions reuse prefixes of the same
sequence, which makes fraction sweeps monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from .davidson import GroundStateResult, lowest_eigenpair
from .determinants import SECTOR_CAP, Determinant, generate_excitations, half_strings
from .errors import ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .statevector import SampleSet
from .strings import SIGMA_BYTES_CAP, product_hamiltonian, sigma, sigma_bytes


@dataclass(frozen=True)
class SubspaceBasis:
    """Product-form determinant subspace A x B with canonical ordering."""

    spec: SectorSpec
    alpha_strings: tuple[int, ...]
    beta_strings: tuple[int, ...]

    def __post_init__(self):
        for name, strings, nocc in (
            ("alpha", self.alpha_strings, self.spec.n_alpha),
            ("beta", self.beta_strings, self.spec.n_beta),
        ):
            if len(set(strings)) != len(strings):
                raise ValidationError(f"duplicate {name} strings")
            for s in strings:
                if bin(s).count("1") != nocc:
                    raise ValidationError(f"{name} string {s:b} has wrong particle number")

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

    def contains(self, det: Determinant) -> bool:
        return det.alpha in set(self.alpha_strings) and det.beta in set(self.beta_strings)


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
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nested product subspaces realized by greedy frequency-ranked growth.

    Each entry is (alpha_strings, beta_strings) after one addition; the
    channel added at every step is the one whose next string yields the
    smaller product dimension (alpha on ties).  Reference strings, when
    given, are forced to the front of both rankings.
    """
    ranked_a = _ranked_strings(samples, spec, "alpha")
    ranked_b = _ranked_strings(samples, spec, "beta")
    if reference is not None:
        if bin(reference.alpha).count("1") != spec.n_alpha or \
                bin(reference.beta).count("1") != spec.n_beta:
            raise ValidationError("reference determinant outside the sector")
        ranked_a = [reference.alpha] + [w for w in ranked_a if w != reference.alpha]
        ranked_b = [reference.beta] + [w for w in ranked_b if w != reference.beta]
    seq = []
    a: list[int] = [ranked_a[0]]
    b: list[int] = [ranked_b[0]]
    ia, ib = 1, 1
    seq.append((tuple(a), tuple(b)))
    while ia < len(ranked_a) or ib < len(ranked_b):
        grow_a = (len(a) + 1) * len(b) if ia < len(ranked_a) else None
        grow_b = len(a) * (len(b) + 1) if ib < len(ranked_b) else None
        if grow_b is None or (grow_a is not None and grow_a <= grow_b):
            a.append(ranked_a[ia])
            ia += 1
        else:
            b.append(ranked_b[ib])
            ib += 1
        seq.append((tuple(a), tuple(b)))
    return seq


def build_subspace(
    samples: SampleSet,
    spec: SectorSpec,
    target_fraction: float,
    reference: Determinant | None = None,
) -> SubspaceBasis:
    """Smallest greedy product subspace covering the requested fraction."""
    if not 0.0 < target_fraction <= 1.0:
        raise ValidationError("target_fraction must lie in (0, 1]")
    if not samples.counts:
        raise ValidationError("empty sample set")
    seq = growth_sequence(samples, spec, reference)
    return SubspaceBasis(spec, *_covering(seq, target_fraction * spec.dimension()))


def _covering(seq, target: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First growth step whose product dimension reaches ``target``; the last
    step when none does (a sector too large to pad with unobserved strings)."""
    return next(((a, b) for a, b in seq if len(a) * len(b) >= target), seq[-1])


def project_hamiltonian(basis: SubspaceBasis, ints: ElectronicIntegrals) -> sp.csr_matrix:
    """Hamiltonian projected onto the subspace, in ``determinants()`` order
    (sparse Hermitian), built from the per-spin string operators."""
    return product_hamiltonian(
        ints,
        np.array(sorted(basis.alpha_strings), dtype=np.int64),
        np.array(sorted(basis.beta_strings), dtype=np.int64),
    )


def solve_subspace(
    basis: SubspaceBasis, ints: ElectronicIntegrals, tol: float = 1e-9
) -> GroundStateResult:
    return lowest_eigenpair(project_hamiltonian(basis, ints), tol=tol)


def _positions(strings: np.ndarray, words: list[int]) -> np.ndarray:
    """Positions of ``words`` in the ascending sector ``strings``."""
    words = np.asarray(words, dtype=np.int64)
    pos = np.minimum(np.searchsorted(strings, words), len(strings) - 1)
    if np.any(strings[pos] != words):
        raise ValidationError("determinant outside the sector")
    return pos


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
    c[_positions(beta, [d.beta for d in dets]),
      _positions(alpha, [d.alpha for d in dets])] = result.ci_vector
    s = sigma(c, ints, alpha, beta)
    h1 = float(np.real(np.vdot(c, s)))
    h2 = float(np.real(np.vdot(s, s)))
    if abs(h1) < 1e-14:
        return None
    return (h2 - h1 * h1) / (h1 * h1)


def extsqd_expand(
    result: GroundStateResult,
    basis: SubspaceBasis,
    threshold: float,
    levels: set[int],
    keep_original: bool = True,
) -> SubspaceBasis:
    """Grow the subspace by exciting the high-weight ground-state configurations.

    Determinants with squared amplitude below ``threshold`` are dropped, the
    survivors are excited at the requested levels, and the union is re-closed
    into product form.  With ``keep_original`` the input strings are retained,
    which makes re-diagonalization variationally monotone.
    """
    if threshold < 0:
        raise ValidationError("threshold must be nonnegative")
    if not levels or not levels <= {1, 2}:
        raise ValidationError("levels must be a nonempty subset of {1, 2}")
    dets = basis.determinants()
    weights = np.abs(result.ci_vector) ** 2
    kept = [det for det, wgt in zip(dets, weights) if wgt >= threshold]
    if not kept:
        raise ValidationError("threshold removed every configuration")
    alpha = {det.alpha for det in kept}
    beta = {det.beta for det in kept}
    m = basis.spec.n_orbitals
    for det in kept:
        for other in generate_excitations(det, m, levels):
            alpha.add(other.alpha)
            beta.add(other.beta)
    if keep_original:
        alpha.update(basis.alpha_strings)
        beta.update(basis.beta_strings)
    return SubspaceBasis(basis.spec, tuple(sorted(alpha)), tuple(sorted(beta)))


@dataclass(frozen=True)
class SweepPoint:
    fraction: float
    basis: SubspaceBasis
    result: GroundStateResult


def sqd_sweep(
    samples: SampleSet,
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    fractions: list[float],
    reference: Determinant | None = None,
    tol: float = 1e-9,
    with_variance: bool = True,
) -> list[SweepPoint]:
    """One subspace solve per requested fraction, on nested subspaces."""
    if not fractions:
        raise ValidationError("no fractions requested")
    if any(f <= 0.0 or f > 1.0 for f in fractions):
        raise ValidationError("fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValidationError("fractions must be strictly increasing")
    seq = growth_sequence(samples, spec, reference)
    points = []
    for fraction in fractions:
        basis = SubspaceBasis(spec, *_covering(seq, fraction * spec.dimension()))
        result = solve_subspace(basis, ints, tol=tol)
        if with_variance:
            result = result.with_variance(energy_variance(result, basis.determinants(), ints))
        points.append(SweepPoint(fraction, basis, result))
    return points
