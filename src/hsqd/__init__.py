"""Extended-Hubbard lattice ground states and band gaps from sampled subspaces."""

__version__ = "0.1.0"

from .model import (
    ElectronicIntegrals,
    LatticeHamiltonian,
    SectorSpec,
    lattice_from_electronic,
    load_lattice,
    map_to_electronic,
    rotate_basis,
    save_lattice,
)
from .determinants import (
    Determinant,
    diagonal_energy,
    generate_excitations,
    matrix_element,
)
from .fcidump import read_fcidump, write_fcidump
from .reference import (
    LucjLayer,
    LucjParameters,
    MeanFieldSolution,
    lucj_from_t2,
    mp2_doubles,
    solve_mean_field,
)
from .statevector import (
    SampleSet,
    SectorStatevector,
    apply_density_phase,
    build_state,
    load_samples,
    sample,
    save_samples,
)
from .subspace import (
    SubspaceBasis,
    energy_variance,
    extsqd_expand,
    filter_samples,
    project_hamiltonian,
    solve_subspace,
    sqd_sweep,
)
from .davidson import GroundStateResult, lowest_eigenpair
from .selci import SelectionSchedule, fci_ground, hci_ground
from .bandgap import (
    GapReport,
    WorkflowConfig,
    compute_gap,
    run_workflow,
    sector_specs,
    single_particle_gap,
)
from .errors import CapExceededError, ConvergenceError, HsqdError, ValidationError

__all__ = [name for name in dir() if not name.startswith("_")]
