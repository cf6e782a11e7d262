"""Three-sector orchestration: ground states per electron count and the gap.

The direct gap at the tagged k-point combines ground-state energies of the
(N-1, N, N+1)-electron sectors as E[N-1] + E[N+1] - 2 E[N].  Each requested
solver runs independently in all three sectors; a failure in one sector
aborts only that solver's gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .davidson import GroundStateResult
from .errors import HsqdError, ValidationError
from .model import (
    ElectronicIntegrals,
    LatticeHamiltonian,
    SectorSpec,
    load_lattice,
    map_to_electronic,
    rotate_basis,
)
from .reference import MeanFieldSolution, check_layers, lucj_from_t2, mp2_doubles, solve_mean_field
from .selci import SelectionSchedule, fci_ground, hci_ground
from .statevector import SampleSet, build_state, check_sampling, load_samples, sample
from .subspace import (
    SweepPoint,
    check_expansion,
    check_fractions,
    extsqd_expand,
    filter_samples,
    solve_subspace,
    sqd_sweep,
)

SECTOR_LABELS = ("Ne-1", "Ne", "Ne+1")
SOLVERS = ("fci", "hci", "sqd", "extsqd")
MODES = ("TB", "U", "V", "U+V")


def compute_gap(e_minus: float, e_0: float, e_plus: float) -> float:
    """Charge gap from the three sector ground-state energies."""
    return e_minus + e_plus - 2.0 * e_0


def single_particle_gap(lat: LatticeHamiltonian, n_occ: int) -> float:
    """HOMO-LUMO splitting of the bare hopping matrix."""
    if not 1 <= n_occ < lat.n_orbitals:
        raise ValidationError(f"n_occ must lie in [1, {lat.n_orbitals - 1}]")
    eps = np.sort(scipy.linalg.eigvalsh(lat.to_ev().hopping))
    return float(eps[n_occ] - eps[n_occ - 1])


def apply_interaction_mode(lat: LatticeHamiltonian, mode: str) -> LatticeHamiltonian:
    """Zero out the couplings excluded by the interaction mode."""
    if mode not in MODES:
        raise ValidationError(f"unknown interaction mode {mode!r}; choose from {MODES}")
    u = lat.u_intra if mode in ("U", "U+V") else np.zeros_like(lat.u_intra)
    v = lat.v_inter if mode in ("V", "U+V") else np.zeros_like(lat.v_inter)
    return LatticeHamiltonian(
        n_orbitals=lat.n_orbitals,
        hopping=lat.hopping,
        u_intra=u,
        v_inter=v,
        kpoint_label=lat.kpoint_label,
        unit=lat.unit,
        orbital_labels=lat.orbital_labels,
    )


def sector_specs(n_orbitals: int, n_electrons: int, flip_spin: bool = False) -> dict[str, SectorSpec]:
    """The three symmetry sectors; the odd electron sits in the alpha channel
    (or beta with ``flip_spin``)."""
    if n_electrons % 2 != 0:
        raise ValidationError("reference electron count must be even")
    if not 2 <= n_electrons <= 2 * n_orbitals - 2:
        raise ValidationError(
            f"need 2 <= n_electrons <= {2 * n_orbitals - 2} so that all three sectors exist"
        )
    half = n_electrons // 2
    plus = (half + 1, half)
    minus = (half - 1, half)
    if flip_spin:
        plus = plus[::-1]
        minus = minus[::-1]
    return {
        "Ne-1": SectorSpec(n_orbitals, *minus),
        "Ne": SectorSpec(n_orbitals, half, half),
        "Ne+1": SectorSpec(n_orbitals, *plus),
    }


@dataclass
class WorkflowConfig:
    """Resolved configuration of one band-gap run."""

    lattice_path: str
    n_electrons: int
    mode: str = "U+V"
    solvers: tuple[str, ...] = ("fci",)
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)
    extsqd_threshold: float = 1e-4
    extsqd_levels: tuple[int, ...] = (1,)
    shots: int = 2_500_000
    seed: int = 0
    samples_files: dict[str, str] = field(default_factory=dict)
    out_dir: str | None = None
    material: str | None = None
    literal_2u: bool = False
    flip_spin: bool = False
    hci_epsilons: tuple[float, ...] = (1e-1, 1e-3, 1e-6)
    lucj_layers: int = 1
    # reference-state choice for the charged sectors: reuse the neutral-sector
    # orbitals (default) or re-solve the mean field per sector
    sector_mean_field: bool = False

    def __post_init__(self):
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise ValidationError(f"unknown solver(s) {sorted(unknown)}; choose from {SOLVERS}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown interaction mode {self.mode!r}")
        if not self.solvers:
            raise ValidationError("at least one solver required")
        for label in self.samples_files:
            if label not in SECTOR_LABELS:
                raise ValidationError(f"unknown sector label {label!r} in samples files")
        # the rules of the routines that take these settings, checked before
        # any work starts
        check_sampling(self.shots, self.seed)
        check_fractions(self.fractions)
        SelectionSchedule(epsilons=tuple(self.hci_epsilons))
        check_expansion(self.extsqd_threshold, set(self.extsqd_levels))
        check_layers(self.lucj_layers)


@dataclass
class SectorRun:
    """Everything computed for one solver in one sector."""

    solver: str
    sector: str
    energy: float | None
    points: list = field(default_factory=list)  # (fraction, d, energy, residual, variance, converged)
    iterations: list = field(default_factory=list)  # the eigensolve matvecs of each point
    error: HsqdError | None = None


@dataclass
class GapReport:
    material: str
    n_orbitals: int
    n_electrons: int
    mode: str
    unit: str
    sector_energies: dict[str, dict[str, float]]
    gaps: dict[str, float]
    gap_deltas: dict[str, float]
    single_particle_gap: float
    sector_specs: dict[str, tuple[int, int]]
    failures: dict[str, str]
    metadata: dict
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # per sampled sector: its seed or sample file, and the discarded fraction
    samples: dict[str, dict] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def round9(x):
            # + 0.0 turns a -0.0 left by round-off into 0.0
            return round(float(x), 9) + 0.0

        return {
            "material": self.material,
            "n_orbitals": self.n_orbitals,
            "n_electrons": self.n_electrons,
            "mode": self.mode,
            "unit": self.unit,
            "sectors": {
                label: {
                    "n_alpha": self.sector_specs[label][0],
                    "n_beta": self.sector_specs[label][1],
                    "energies": {s: round9(e) for s, e in self.sector_energies[label].items()},
                }
                for label in SECTOR_LABELS
            },
            "gaps": {s: round9(g) for s, g in self.gaps.items()},
            "gap_deltas": {k: round9(v) for k, v in self.gap_deltas.items()},
            "single_particle_gap": round9(self.single_particle_gap),
            "failures": self.failures,
            "metadata": self.metadata,
        }


def _simulate_sector_samples(
    mo_ints: ElectronicIntegrals,
    mf: MeanFieldSolution,
    spec: SectorSpec,
    amplitude_spec: SectorSpec,
    layers: int,
    shots: int,
    seed: int,
) -> SampleSet:
    """``shots`` samples of the LUCJ state of ``spec``, with ``layers`` layers
    seeded by the MP2 doubles of ``amplitude_spec`` in the orbitals of ``mf``."""
    t2, _ = mp2_doubles(mf, mo_ints, amplitude_spec)
    params = lucj_from_t2(t2, mo_ints.n_orbitals, amplitude_spec.n_alpha, layers=layers)
    state = build_state(params, mf.reference_for(spec), spec)
    return sample(state, shots, seed=seed)


def _record(run: SectorRun, rows: list[tuple[float, int, GroundStateResult]]) -> None:
    """The sweep rows (fraction, d, energy, residual, variance, converged) of
    ``run``, and the matvec count of each row's eigensolve (1 when dense)."""
    run.points = [(fraction, d, res.energy, res.residual_norm, res.variance, res.converged)
                  for fraction, d, res in rows]
    run.iterations = [res.iterations for _, _, res in rows]


def run_workflow(config: WorkflowConfig) -> tuple[GapReport, dict[str, list[SectorRun]]]:
    """Run every requested solver in the three symmetry sectors."""
    t_start = time.perf_counter()
    lat = load_lattice(config.lattice_path).to_ev()
    lat = apply_interaction_mode(lat, config.mode)
    # the sectors are checked before the M^4 integrals are allocated
    specs = sector_specs(lat.n_orbitals, config.n_electrons, config.flip_spin)
    ints = map_to_electronic(lat, literal_2u=config.literal_2u)
    neutral = specs["Ne"]
    # a malformed sample file fails the run here, before any solver
    loaded = {label: load_samples(path, specs[label])
              for label, path in config.samples_files.items()}

    stage_seconds: dict[str, float] = {}
    t0 = time.perf_counter()
    mf = solve_mean_field(ints, neutral)
    mo_ints = rotate_basis(ints, mf.orbital_coefficients)
    sector_mf: dict[str, MeanFieldSolution] = {}
    sector_mo: dict[str, ElectronicIntegrals] = {}
    for label in SECTOR_LABELS:
        if config.sector_mean_field and label != "Ne":
            sector_mf[label] = solve_mean_field(ints, specs[label])
            sector_mo[label] = rotate_basis(ints, sector_mf[label].orbital_coefficients)
        else:
            sector_mf[label] = mf
            sector_mo[label] = mo_ints
    stage_seconds["mean_field"] = time.perf_counter() - t0

    sector_energies: dict[str, dict[str, float]] = {lbl: {} for lbl in SECTOR_LABELS}
    runs: dict[str, list[SectorRun]] = {s: [] for s in config.solvers}
    failures: dict[str, str] = {}

    sample_cache: dict[str, SampleSet] = {}

    def sector_samples(label: str, spec: SectorSpec, seed: int) -> SampleSet:
        if label not in sample_cache:
            if label in loaded:
                raw = loaded.pop(label)
            else:
                pairs = min(spec.n_alpha, spec.n_beta) if config.sector_mean_field \
                    else neutral.n_alpha
                amp_spec = SectorSpec(spec.n_orbitals, pairs, pairs)
                raw = _simulate_sector_samples(
                    sector_mo[label], sector_mf[label], spec, amp_spec,
                    config.lucj_layers, config.shots, seed,
                )
            sample_cache[label] = filter_samples(raw, spec)
        return sample_cache[label]

    sweep_cache: dict[str, list[SweepPoint]] = {}

    def sector_sweep(label: str, spec: SectorSpec, seed: int) -> list[SweepPoint]:
        # sqd reports this sweep and extsqd expands its last point
        if label not in sweep_cache:
            sweep_cache[label] = sqd_sweep(
                sector_samples(label, spec, seed), spec, sector_mo[label],
                list(config.fractions), reference=sector_mf[label].reference_for(spec),
            )
        return sweep_cache[label]

    for solver in config.solvers:
        t0 = time.perf_counter()
        for offset, label in enumerate(SECTOR_LABELS):
            spec = specs[label]
            run = SectorRun(solver=solver, sector=label, energy=None)
            try:
                if solver == "fci":
                    _record(run, [(1.0, spec.dimension(), fci_ground(spec, ints))])
                elif solver == "hci":
                    schedule = SelectionSchedule(epsilons=tuple(config.hci_epsilons))
                    stages = hci_ground(spec, sector_mo[label], schedule,
                                        reference=sector_mf[label].reference_for(spec))
                    _record(run, [(st.fraction, st.size, st.result) for st in stages])
                else:
                    points = sector_sweep(label, spec, config.seed + offset)
                    if solver == "sqd":
                        _record(run, [(p.fraction, p.basis.dimension, p.result) for p in points])
                    else:
                        last = points[-1]
                        basis = extsqd_expand(
                            last.result, last.basis, config.extsqd_threshold,
                            set(config.extsqd_levels),
                        )
                        res = solve_subspace(basis, sector_mo[label])
                        _record(run, [(basis.fraction, basis.dimension, res)])
                run.energy = run.points[-1][2]
                sector_energies[label][solver] = run.energy
            except HsqdError as exc:
                run.error = exc
                failures[f"{solver}/{label}"] = f"{type(exc).__name__}: {exc}"
            runs[solver].append(run)
        stage_seconds[f"solver_{solver}"] = time.perf_counter() - t0

    gaps: dict[str, float] = {}
    for solver in config.solvers:
        if all(solver in sector_energies[lbl] for lbl in SECTOR_LABELS):
            gaps[solver] = compute_gap(
                sector_energies["Ne-1"][solver],
                sector_energies["Ne"][solver],
                sector_energies["Ne+1"][solver],
            )
    gap_deltas = {}
    solver_list = [s for s in config.solvers if s in gaps]
    for i, a in enumerate(solver_list):
        for b in solver_list[i + 1:]:
            gap_deltas[f"{a}-{b}"] = gaps[a] - gaps[b]

    sp_gap = single_particle_gap(lat, config.n_electrons // 2)
    stage_seconds["total"] = time.perf_counter() - t_start
    material = config.material or Path(config.lattice_path).stem
    report = GapReport(
        material=material,
        n_orbitals=lat.n_orbitals,
        n_electrons=config.n_electrons,
        mode=config.mode,
        unit="eV",
        sector_energies=sector_energies,
        gaps=gaps,
        gap_deltas=gap_deltas,
        single_particle_gap=sp_gap,
        sector_specs={lbl: (specs[lbl].n_alpha, specs[lbl].n_beta) for lbl in SECTOR_LABELS},
        failures=failures,
        metadata={
            "kpoint": lat.kpoint_label,
            "solvers": list(config.solvers),
            "fractions": list(config.fractions),
            "extsqd_threshold": config.extsqd_threshold,
            "extsqd_levels": list(config.extsqd_levels),
            "shots": config.shots,
            "seed": config.seed,
            "literal_2u": config.literal_2u,
            "flip_spin": config.flip_spin,
            "mean_field_converged": mf.converged,
            "sector_mean_field": config.sector_mean_field,
        },
        stage_seconds={k: round(v, 6) for k, v in stage_seconds.items()},
        samples={label: ({"file": config.samples_files[label]} if s.seed is None
                         else {"seed": s.seed}) | {"discarded_fraction": s.discarded_fraction}
                 for label, s in sample_cache.items()},
    )
    return report, runs
