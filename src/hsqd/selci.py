"""Classical CI oracles: full CI and an importance-selected CI benchmark.

The selected solver grows a variational determinant set from the reference:
at each epsilon stage every determinant connected to the current set with
first-order importance |H_ai c_i| >= epsilon joins, and the stage iterates
until the set stops growing.  Energies are variational throughout; no
perturbative correction is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .davidson import GroundStateResult, lowest_eigenpair
from .determinants import Determinant, enumerate_sector, generate_excitations, matrix_element
from .errors import CapExceededError, ValidationError
from .model import ElectronicIntegrals, SectorSpec
from .subspace import assemble, energy_variance

FCI_CAP = 10**6


@dataclass(frozen=True)
class SelectionSchedule:
    """Descending importance cutoffs (or size targets) with a hard cap."""

    epsilons: tuple[float, ...] = ()
    target_sizes: tuple[int, ...] = ()
    max_determinants: int = 10**6

    def __post_init__(self):
        if bool(self.epsilons) == bool(self.target_sizes):
            raise ValidationError("provide either epsilons or target sizes, not both")
        if self.epsilons:
            if any(e <= 0 for e in self.epsilons):
                raise ValidationError("epsilons must be positive")
            if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
                raise ValidationError("epsilons must be strictly descending")
        if self.target_sizes:
            if any(s < 1 for s in self.target_sizes):
                raise ValidationError("target sizes must be positive")
            if any(b <= a for a, b in zip(self.target_sizes, self.target_sizes[1:])):
                raise ValidationError("target sizes must be strictly increasing")

    @property
    def n_stages(self) -> int:
        return len(self.epsilons) or len(self.target_sizes)


@dataclass(frozen=True)
class SelectedCiStage:
    """One stage of the selected-CI iteration."""

    cutoff: float | None
    size: int
    fraction: float
    result: GroundStateResult
    determinants: tuple[Determinant, ...] = field(repr=False, default=())


def fci_ground(
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    tol: float = 1e-9,
    cap: int = FCI_CAP,
) -> GroundStateResult:
    """Lowest eigenpair over the complete sector basis.

    The sector is closed under H, so H c = E c + r with r orthogonal to c and
    the relative variance is exactly (|r| / E)^2; it is None when E is zero.
    """
    dim = spec.dimension()
    if dim > cap:
        raise CapExceededError(f"sector dimension {dim} exceeds FCI cap {cap}")
    result = lowest_eigenpair(assemble(enumerate_sector(spec, cap=cap), ints), tol=tol)
    if abs(result.energy) < 1e-14:
        return result
    return result.with_variance((result.residual_norm / result.energy) ** 2)


def hci_ground(
    spec: SectorSpec,
    ints: ElectronicIntegrals,
    schedule: SelectionSchedule,
    reference: Determinant | None = None,
    tol: float = 1e-9,
    with_variance: bool = True,
) -> list[SelectedCiStage]:
    """Importance-selected CI, one recorded stage per schedule entry."""
    if reference is None:
        reference = Determinant((1 << spec.n_alpha) - 1, (1 << spec.n_beta) - 1)
    total = spec.dimension()
    levels = {1} if ints.density_density else {1, 2}
    cap = schedule.max_determinants
    # (recorded cutoff, importance cutoff, size limit) per stage; target-size
    # mode admits any positive importance up to the requested size
    plan = [(eps, eps, cap) for eps in schedule.epsilons] or \
        [(None, 0.0, min(size, cap)) for size in schedule.target_sizes]

    current: list[Determinant] = [reference]
    current_set = {(reference.beta, reference.alpha)}
    result = lowest_eigenpair(assemble(current, ints), tol=tol)
    stages: list[SelectedCiStage] = []
    for cutoff, eps, limit in plan:
        while len(current) < limit:
            if not _select(current, current_set, result, ints, levels, eps, limit - len(current)):
                break
            result = lowest_eigenpair(assemble(current, ints), tol=tol)
        res = result
        if with_variance:
            # current is in insertion order, matching the CI vector
            res = res.with_variance(energy_variance(res, current, ints))
        stages.append(
            SelectedCiStage(cutoff, len(current), len(current) / total, res, tuple(current))
        )
    return stages


def _select(current, current_set, result, ints, levels, eps, room) -> int:
    """Add the at most ``room`` most important connected determinants whose
    importance |H_ai c_i| is positive and at least ``eps``; returns count added."""
    candidates: dict[tuple[int, int], float] = {}
    for amp, det in zip(result.ci_vector, current):
        if amp == 0.0:
            continue
        for other in generate_excitations(det, ints.n_orbitals, levels):
            key = (other.beta, other.alpha)
            if key in current_set:
                continue
            imp = abs(matrix_element(other, det, ints) * amp)
            if imp >= eps and imp > candidates.get(key, 0.0):
                candidates[key] = imp
    ordered = sorted(candidates, key=lambda k: (-candidates[k], k))[:room]
    for b, a in ordered:
        current.append(Determinant(a, b))
        current_set.add((b, a))
    return len(ordered)
