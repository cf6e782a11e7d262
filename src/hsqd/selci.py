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

from .davidson import GroundStateResult, lowest_eigenpair
from .determinants import Determinant, half_strings
from .errors import CapExceededError, ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .strings import hamiltonian_columns
from .subspace import SubspaceBasis, project_hamiltonian, relative_variance

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
    """Lowest eigenpair over the complete sector basis.

    The sector is closed under H, so H c = E c + r with r orthogonal to c and
    the relative variance is exactly (|r| / E)^2; it is None when E is zero.
    """
    dim = spec.dimension()
    if dim > FCI_CAP:
        raise CapExceededError(f"sector dimension {dim} exceeds FCI cap {FCI_CAP}")
    # project_hamiltonian, the one entry point for every product space
    basis = SubspaceBasis(
        spec,
        tuple(half_strings(spec.n_orbitals, spec.n_alpha)),
        tuple(half_strings(spec.n_orbitals, spec.n_beta)),
    )
    result = lowest_eigenpair(project_hamiltonian(basis, ints))
    if abs(result.energy) < 1e-14:
        return result
    return result.with_variance((result.residual_norm / result.energy) ** 2)


def hci_ground(
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    schedule: SelectionSchedule,
    reference: Determinant | None = None,
) -> list[SelectedCiStage]:
    """Heat-bath selected CI, one recorded stage per cutoff.

    Each round takes H[:, set] from one ``hamiltonian_columns`` call: its rows
    inside the set give the eigenproblem, and each determinant outside it
    joins when max_i |H_ai| |c_i| >= epsilon, most important first (ties in
    ascending (beta, alpha) order), up to ``max_determinants``.  The same
    columns give each stage's variance: s = H[:, set] c holds H c over every
    determinant the set couples to, so no full-sector sigma is needed and
    the variance is reported whatever the sector size.
    """
    if reference is None:
        reference = Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
    elif (reference.alpha.bit_count(), reference.beta.bit_count()) != \
            (spec.n_alpha, spec.n_beta) or (reference.alpha | reference.beta) >> spec.n_orbitals:
        raise ValidationError("reference determinant outside the sector")
    alpha, beta = (np.array([word], dtype=np.int64) for word in (reference.alpha, reference.beta))
    out_a, out_b, cols = hamiltonian_columns(ints, alpha, beta)
    result = lowest_eigenpair(cols[:1])
    stages: list[SelectedCiStage] = []
    for eps in schedule.epsilons:
        while len(alpha) < schedule.max_determinants:
            coupling = abs(cols[len(alpha):])
            coupling.data *= np.abs(result.ci_vector)[coupling.indices]
            imp = coupling.max(axis=1).toarray().ravel()
            hits = np.flatnonzero((imp >= eps) & (imp > 0))
            # stable, as the rows outside the set are in (beta, alpha) order
            pick = hits[np.argsort(-imp[hits], kind="stable")]
            pick = pick[:schedule.max_determinants - len(alpha)]
            if not len(pick):
                break
            alpha = np.concatenate([alpha, out_a[pick]])
            beta = np.concatenate([beta, out_b[pick]])
            out_a, out_b, cols = hamiltonian_columns(ints, alpha, beta)
            result = lowest_eigenpair(cols[:len(alpha)])
        dets = tuple(Determinant(int(a), int(b)) for a, b in zip(alpha, beta))
        res = result.with_variance(relative_variance(result.ci_vector, cols @ result.ci_vector))
        stages.append(SelectedCiStage(eps, len(dets), len(dets) / spec.dimension(), res, dets))
    return stages
