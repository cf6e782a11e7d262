import json

import numpy as np
import pytest

from hsqd import (
    LatticeHamiltonian,
    SectorSpec,
    ValidationError,
    diagonal_energy,
    load_amplitudes,
    lucj_from_t2,
    map_to_electronic,
    mp2_doubles,
    rotate_basis,
    save_amplitudes,
    solve_mean_field,
)
from hsqd.determinants import enumerate_sector, matrix_element
from hsqd.reference import default_masks

from conftest import random_lattice


class TestMeanField:
    def test_noninteracting_diagonalizes_hopping(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(4, 4))
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(4, t, np.zeros(4), np.zeros((4, 4)))
        ints = map_to_electronic(lat)
        mf = solve_mean_field(ints, SectorSpec(4, 2, 2))
        evals = np.sort(np.linalg.eigvalsh(t))
        assert mf.converged
        assert np.allclose(mf.orbital_energies, evals, atol=1e-10)
        assert mf.hf_energy == pytest.approx(2 * evals[:2].sum(), abs=1e-10)

    def test_symmetric_dimer_energy_is_zero(self, dimer_ints):
        mf = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        assert mf.converged
        # -2|t| + U/2 for the symmetric half-filled dimer
        assert mf.hf_energy == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_hopping_keeps_site_basis(self):
        t = np.diag([0.3, -1.2, 0.7])
        lat = LatticeHamiltonian(3, t, np.zeros(3), np.zeros((3, 3)))
        mf = solve_mean_field(map_to_electronic(lat), SectorSpec(3, 1, 1))
        assert np.allclose(mf.orbital_energies, np.sort(np.diag(t)))
        assert np.allclose(np.abs(mf.orbital_coefficients), np.eye(3)[:, [1, 0, 2]])

    def test_hf_energy_matches_reference_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            lat = random_lattice(rng)
            ints = map_to_electronic(lat)
            m = lat.n_orbitals
            na = int(rng.integers(1, m + 1))
            mf = solve_mean_field(ints, SectorSpec(m, na, na))
            mo = rotate_basis(ints, mf.orbital_coefficients)
            assert mf.hf_energy == pytest.approx(
                diagonal_energy(mf.reference_determinant, mo), abs=1e-10
            )

    def test_energy_monotone_over_final_iterations(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            lat = random_lattice(rng)
            ints = map_to_electronic(lat)
            m = lat.n_orbitals
            na = int(rng.integers(1, m + 1))
            mf = solve_mean_field(ints, SectorSpec(m, na, na))
            tail = mf.energy_history[-10:]
            for a, b in zip(tail, tail[1:]):
                assert b <= a + 1e-10

    def test_open_shell_reuses_closed_shell_orbitals(self, dimer_ints):
        closed = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        open_shell = solve_mean_field(dimer_ints, SectorSpec(2, 2, 1))
        assert np.allclose(
            np.abs(closed.orbital_coefficients), np.abs(open_shell.orbital_coefficients)
        )
        assert open_shell.reference_determinant.alpha == 0b11
        assert open_shell.reference_determinant.beta == 0b01

    def test_variational_bound(self):
        from hsqd import fci_ground

        rng = np.random.default_rng(23)
        for _ in range(5):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            mf = solve_mean_field(ints, SectorSpec(4, 2, 2))
            assert mf.hf_energy >= fci_ground(SectorSpec(4, 2, 2), ints).energy - 1e-12


class TestMp2:
    def test_zero_two_body_gives_zero(self):
        t = np.diag([0.0, 1.0, 2.0]) - 0.1
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(3, t, np.zeros(3), np.zeros((3, 3)))
        ints = map_to_electronic(lat)
        spec = SectorSpec(3, 1, 1)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        t2, e2 = mp2_doubles(mf, mo, spec)
        assert not t2.any()
        assert e2 == 0.0

    def test_dimer_against_sum_over_states(self, dimer_ints):
        """Independent oracle: second-order sum over doubly-excited
        determinants with orbital-energy denominators."""
        spec = SectorSpec(2, 1, 1)
        mf = solve_mean_field(dimer_ints, spec)
        mo = rotate_basis(dimer_ints, mf.orbital_coefficients)
        t2, e2 = mp2_doubles(mf, mo, spec)

        eps = mf.orbital_energies
        ref = mf.reference_determinant
        e_oracle = 0.0
        for det in enumerate_sector(spec):
            if det == ref:
                continue
            coupling = matrix_element(det, ref, mo)
            if coupling == 0.0:
                continue
            # orbital-energy cost of the excitation
            cost = 0.0
            for word_new, word_old in ((det.alpha, ref.alpha), (det.beta, ref.beta)):
                gained = word_new & ~word_old
                lost = word_old & ~word_new
                for p in range(2):
                    if (gained >> p) & 1:
                        cost += eps[p]
                    if (lost >> p) & 1:
                        cost -= eps[p]
            if cost == 0.0:
                continue
            e_oracle += abs(coupling) ** 2 / (-cost)
        assert e2 == pytest.approx(e_oracle, abs=1e-12)
        assert e2 == pytest.approx(-1.0, abs=1e-12)  # analytic value for t=-1, U=4

    def test_degenerate_gap_raises(self):
        t = np.diag([0.0, 1.0, 1.0, 2.0])
        lat = LatticeHamiltonian(4, t, np.zeros(4), np.zeros((4, 4)))
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        with pytest.raises(ValidationError, match="degenerate"):
            mp2_doubles(mf, mo, spec)

    def test_open_shell_rejected(self, dimer_ints):
        mf = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        mo = rotate_basis(dimer_ints, mf.orbital_coefficients)
        with pytest.raises(ValidationError, match="closed-shell"):
            mp2_doubles(mf, mo, SectorSpec(2, 2, 1))


class TestLucjParameters:
    def test_zero_amplitudes_give_zero_parameters(self):
        params = lucj_from_t2(np.zeros((1, 1, 1, 1)), 2, 1)
        assert params.n_layers == 1
        assert not params.layers[0].kgen.any()
        assert not params.layers[0].j_same.any()
        assert not params.layers[0].j_opposite.any()

    def test_single_layer_default(self):
        rng = np.random.default_rng(1)
        t2 = rng.normal(size=(2, 2, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        params = lucj_from_t2(t2, 4, 2)
        assert params.n_layers == 1

    def test_requested_layer_count(self):
        rng = np.random.default_rng(2)
        t2 = rng.normal(size=(2, 2, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        assert lucj_from_t2(t2, 4, 2, layers=3).n_layers == 3

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(3)
        t2 = rng.normal(size=(3, 3, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        mask_same, mask_opposite = default_masks(5)
        params = lucj_from_t2(t2, 5, 3)
        layer = params.layers[0]
        assert np.all(layer.j_opposite[~mask_opposite] == 0.0)
        assert np.all(layer.j_same[~mask_same] == 0.0) if (~mask_same).any() else True

    def test_structural_invariants(self):
        rng = np.random.default_rng(4)
        t2 = rng.normal(size=(2, 2, 3, 3))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        for layer in lucj_from_t2(t2, 5, 2, layers=2).layers:
            assert np.abs(layer.kgen + layer.kgen.T).max() == 0.0
            assert np.abs(layer.j_same - layer.j_same.T).max() == 0.0
            assert np.abs(layer.j_opposite - layer.j_opposite.T).max() == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            lucj_from_t2(np.zeros((2, 2, 1, 1)), 4, 2)  # 2 occ + 1 virt != 4


class TestAmplitudeFiles:
    def test_zero_tensor(self, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({
            "n_orbitals": 3, "n_occ": 1,
            "t2": np.zeros((1, 1, 2, 2)).tolist(),
        }))
        t2, m, nocc = load_amplitudes(path)
        assert not t2.any() and m == 3 and nocc == 1

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        t2 = rng.normal(size=(2, 2, 2, 2))
        save_amplitudes(t2, 4, 2, tmp_path / "amp.json")
        back, m, nocc = load_amplitudes(tmp_path / "amp.json")
        assert np.array_equal(back, t2)
        assert (m, nocc) == (4, 2)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({
            "n_orbitals": 5, "n_occ": 1,
            "t2": np.zeros((1, 1, 2, 2)).tolist(),
        }))
        with pytest.raises(ValidationError, match="shape"):
            load_amplitudes(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_amplitude(self, tmp_path, bad):
        t2 = np.zeros((1, 1, 2, 2))
        t2[0, 0, 1, 0] = bad
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({"n_orbitals": 3, "n_occ": 1, "t2": t2.tolist()}))
        with pytest.raises(ValidationError, match="non-finite") as info:
            load_amplitudes(path)
        assert info.value.exit_code == 2
