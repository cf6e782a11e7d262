"""The two resource limits of ``hsqd.errors``, ``MEMORY_CAP`` and
``SECTOR_CAP``: one check, which reads them at each call, refuses every
large build before it allocates, in one message shape."""

import re
import tracemalloc

import numpy as np
import pytest

from hsqd import (
    CapExceededError,
    GroundStateResult,
    LucjLayer,
    LucjParameters,
    SectorSpec,
    SelectionSchedule,
    SubspaceBasis,
    build_state,
    energy_variance,
    fci_ground,
    hci_ground,
    map_to_electronic,
    project_hamiltonian,
    read_fcidump,
    rotate_basis,
    solve_mean_field,
    save_lattice,
    solve_subspace,
    write_fcidump,
)
from hsqd.cli import main
from hsqd import errors as errors_mod
from hsqd import strings as strings_mod
from hsqd.determinants import half_strings
from hsqd.model import integrals_bytes

from conftest import make_chain

MEMORY_REFUSAL = r"needs [\d,]+ bytes, over the memory cap of 0 bytes$"
SECTOR_REFUSAL = r"needs 4 determinants, over the sector cap of 2 determinants$"
DIMER = SectorSpec(2, 1, 1)
# one LUCJ layer that leaves the state as it is
IDENTITY = LucjParameters(2, (LucjLayer(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))),))


def _whole_sector(m):
    """The half-filled m-site U+V chain in its mean-field orbitals, and all
    strings of one channel of its sector."""
    spec = SectorSpec(m, m // 2, m // 2)
    site = map_to_electronic(make_chain(m, v=0.6))
    mo = rotate_basis(site, solve_mean_field(site, spec).orbital_coefficients)
    return mo, half_strings(m, m // 2)


def _forbid_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("string arrays built before the cap check")

    monkeypatch.setattr(strings_mod, "_one_spin_entries", refuse)
    monkeypatch.setattr(strings_mod, "excite", refuse)


@pytest.mark.parametrize("build, m, match", [
    ("product_hamiltonian", 12, "853776-determinant subspace"),
    ("project_hamiltonian", 12, "853776-determinant subspace"),
    # the whole 12-site sector's sigma is estimated at 2.6 GiB, the whole
    # 16-site one, which reaches 165.6 million determinants, at 670 GiB
    ("sigma", 16, "12870 x 12870 strings"),
])
def test_direct_call_checks_its_own_estimate(build, m, match, monkeypatch):
    """Called directly, with no caller to size it, each build refuses the
    whole half-filled sector in mean-field orbitals before it gathers a
    one-spin entry or excites a string."""
    ints, strings = _whole_sector(m)
    _forbid_allocation(monkeypatch)
    calls = {
        "product_hamiltonian": lambda: strings_mod.product_hamiltonian(ints, strings, strings),
        "project_hamiltonian": lambda: project_hamiltonian(
            SubspaceBasis(SectorSpec(m, m // 2, m // 2), strings, strings), ints),
        # a zero-strided vector: sigma reads nothing of it before the check
        "sigma": lambda: strings_mod.sigma(np.broadcast_to(0.0, (len(strings),) * 2),
                                           ints, strings, strings),
    }
    with pytest.raises(CapExceededError, match=match):
        calls[build]()


@pytest.mark.parametrize("build", ["rotation", "product", "hci store"])
def test_memory_cap_reaches_every_build(build, dimer_ints, monkeypatch):
    """Patching ``errors.MEMORY_CAP`` alone refuses the rotation's
    compounds, a product build and the HCI store's first chunk."""
    monkeypatch.setattr(errors_mod, "MEMORY_CAP", 0)
    calls = {
        "rotation": lambda: build_state(IDENTITY, (0b01, 0b01), DIMER),
        "product": lambda: solve_subspace(SubspaceBasis(DIMER, (0b01, 0b10), (0b01,)), dimer_ints),
        "hci store": lambda: hci_ground(DIMER, dimer_ints, SelectionSchedule(epsilons=(1e-3,))),
    }
    with pytest.raises(CapExceededError, match=MEMORY_REFUSAL):
        calls[build]()


def test_memory_cap_skips_the_variance(dimer_ints, monkeypatch):
    """The variance's sigma is refused under the same cap, and
    ``energy_variance`` then reports none."""
    basis = SubspaceBasis(DIMER, (0b01,), (0b01,))
    res = GroundStateResult(1.0, np.ones(1), 0.0, 1, True)
    assert energy_variance(res, basis, dimer_ints) is not None
    monkeypatch.setattr(errors_mod, "MEMORY_CAP", 0)
    assert energy_variance(res, basis, dimer_ints) is None


@pytest.mark.parametrize("build", ["fci", "state"])
def test_sector_cap_reaches_every_enumeration(build, dimer_ints, monkeypatch):
    """Patching ``errors.SECTOR_CAP`` alone refuses full CI and the sector
    statevector."""
    monkeypatch.setattr(errors_mod, "SECTOR_CAP", 2)
    calls = {
        "fci": lambda: fci_ground(DIMER, dimer_ints),
        "state": lambda: build_state(IDENTITY, (0b01, 0b01), DIMER),
    }
    with pytest.raises(CapExceededError, match=SECTOR_REFUSAL):
        calls[build]()


@pytest.mark.parametrize("m", [2, 6, 12, 20])
def test_integrals_bytes_bounds_measured_peak(m, tmp_path):
    """Both builders of integrals from input, the lattice mapping and the
    FCIDUMP reader, stay within ``integrals_bytes``."""
    lattice = make_chain(m, v=0.6)
    write_fcidump(map_to_electronic(lattice), tmp_path / "chain.fcidump")
    for build in (lambda: map_to_electronic(lattice),
                  lambda: read_fcidump(tmp_path / "chain.fcidump")):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= integrals_bytes(m)


@pytest.mark.parametrize("source", ["chain.json", "chain.fcidump"])
def test_convert_checks_the_integrals_before_building_them(source, tmp_path, monkeypatch, capsys):
    """``hsqd convert`` of a 12-site lattice, or of its FCIDUMP, is refused
    under the memory cap (exit 3) before one 12^4 two-body tensor exists."""
    m = 12
    save_lattice(make_chain(m, v=0.6), tmp_path / "chain.json")
    write_fcidump(map_to_electronic(make_chain(m, v=0.6)), tmp_path / "chain.fcidump")
    target = "out.fcidump" if source.endswith(".json") else "out.json"
    monkeypatch.setattr(errors_mod, "MEMORY_CAP", 0)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["convert", str(tmp_path / source), str(tmp_path / target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: the integrals of {m} orbitals needs")
    assert re.search(MEMORY_REFUSAL, err)
    assert peak < 8 * m**4
    assert not (tmp_path / target).exists()
