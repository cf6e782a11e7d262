import json

import numpy as np
import pytest

from hsqd import (
    LatticeHamiltonian,
    SectorSpec,
    ValidationError,
    WorkflowConfig,
    compute_gap,
    fci_ground,
    run_workflow,
    save_lattice,
    sector_specs,
    single_particle_gap,
)
from hsqd.bandgap import apply_interaction_mode

from conftest import DIMER_E, make_chain, random_lattice


class TestComputeGap:
    def test_zero(self):
        assert compute_gap(0.0, 0.0, 0.0) == 0.0

    def test_dimer_values(self):
        gap = compute_gap(DIMER_E[(1, 0)], DIMER_E[(1, 1)], DIMER_E[(2, 1)])
        assert gap == pytest.approx(4 * np.sqrt(2) - 2, abs=1e-12)
        assert gap == pytest.approx(3.656854249, abs=1e-9)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=3)
        c = 17.3
        assert compute_gap(*(e + c)) == pytest.approx(compute_gap(*e), abs=1e-10)


class TestSingleParticleGap:
    def test_diagonal(self):
        lat = LatticeHamiltonian(2, np.diag([0.0, 2.0]), np.zeros(2), np.zeros((2, 2)))
        assert single_particle_gap(lat, 1) == pytest.approx(2.0)

    def test_dimer(self, dimer_lattice):
        assert single_particle_gap(dimer_lattice, 1) == pytest.approx(2.0)

    def test_degenerate_spectrum(self):
        lat = LatticeHamiltonian(2, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
        assert single_particle_gap(lat, 1) == 0.0

    def test_occupation_validated(self, dimer_lattice):
        with pytest.raises(ValidationError):
            single_particle_gap(dimer_lattice, 0)
        with pytest.raises(ValidationError):
            single_particle_gap(dimer_lattice, 2)


class TestSectorSpecs:
    def test_alpha_channel_carries_odd_electron(self):
        specs = sector_specs(4, 4)
        assert (specs["Ne-1"].n_alpha, specs["Ne-1"].n_beta) == (1, 2)
        assert (specs["Ne"].n_alpha, specs["Ne"].n_beta) == (2, 2)
        assert (specs["Ne+1"].n_alpha, specs["Ne+1"].n_beta) == (3, 2)

    def test_flip_spin(self):
        specs = sector_specs(4, 4, flip_spin=True)
        assert (specs["Ne+1"].n_alpha, specs["Ne+1"].n_beta) == (2, 3)

    def test_odd_count_rejected(self):
        with pytest.raises(ValidationError):
            sector_specs(4, 3)

    def test_spin_choice_is_energy_degenerate(self, dimer_ints):
        up = fci_ground(SectorSpec(2, 2, 1), dimer_ints).energy
        down = fci_ground(SectorSpec(2, 1, 2), dimer_ints).energy
        assert up == pytest.approx(down, abs=1e-12)


class TestInteractionModes:
    def test_tb_zeroes_everything(self):
        lat = make_chain(4, u=3.0, v=0.5)
        tb = apply_interaction_mode(lat, "TB")
        assert not tb.u_intra.any()
        assert not tb.v_inter.any()
        assert np.array_equal(tb.hopping, lat.hopping)

    def test_u_mode_equals_v_zeroed_lattice(self, tmp_path):
        """Mode zeroing must reproduce a literally-edited lattice file."""
        lat = make_chain(4, u=3.0, v=0.5)
        save_lattice(lat, tmp_path / "full.json")
        save_lattice(make_chain(4, u=3.0, v=0.0), tmp_path / "uonly.json")
        cfg_a = WorkflowConfig(lattice_path=str(tmp_path / "full.json"),
                               n_electrons=4, mode="U", solvers=("fci",))
        cfg_b = WorkflowConfig(lattice_path=str(tmp_path / "uonly.json"),
                               n_electrons=4, mode="U+V", solvers=("fci",))
        rep_a, _ = run_workflow(cfg_a)
        rep_b, _ = run_workflow(cfg_b)
        assert rep_a.sector_energies == rep_b.sector_energies
        assert rep_a.gaps == rep_b.gaps

    def test_v_mode_zeroes_u(self):
        lat = make_chain(4, u=3.0, v=0.5)
        out = apply_interaction_mode(lat, "V")
        assert not out.u_intra.any()
        assert np.array_equal(out.v_inter, lat.v_inter)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            apply_interaction_mode(make_chain(2), "UU")


class TestRunWorkflow:
    def test_dimer_fci_gap(self, tmp_path, dimer_lattice):
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"),
                                n_electrons=2, solvers=("fci",))
        report, runs = run_workflow(config)
        assert report.gaps["fci"] == pytest.approx(3.656854249, abs=1e-8)
        assert report.single_particle_gap == pytest.approx(2.0)

    def test_tb_mode_matches_single_particle_gap(self, tmp_path):
        rng = np.random.default_rng(3)
        lat = random_lattice(rng, m=4)
        save_lattice(lat, tmp_path / "r.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "r.json"),
                                n_electrons=4, mode="TB", solvers=("fci",))
        report, _ = run_workflow(config)
        assert report.gaps["fci"] == pytest.approx(report.single_particle_gap, abs=1e-10)

    def test_chain_extsqd_agrees_with_fci(self, tmp_path):
        """Saturating threshold: expansion covers the whole space, so the
        two gaps coincide to well below a micro-eV."""
        save_lattice(make_chain(4), tmp_path / "c4.json")
        config = WorkflowConfig(
            lattice_path=str(tmp_path / "c4.json"),
            n_electrons=4,
            solvers=("fci", "extsqd"),
            fractions=(0.5, 1.0),
            extsqd_threshold=0.0,
            extsqd_levels=(1,),
            shots=200_000,
            seed=5,
        )
        report, _ = run_workflow(config)
        assert abs(report.gap_deltas["fci-extsqd"]) <= 1e-6

    def test_one_sqd_sweep_per_sector(self, tmp_path, monkeypatch):
        import hsqd.bandgap

        calls = []
        sweep = hsqd.bandgap.sqd_sweep

        def counted(samples, spec, *args, **kwargs):
            calls.append(spec)
            return sweep(samples, spec, *args, **kwargs)

        monkeypatch.setattr(hsqd.bandgap, "sqd_sweep", counted)
        save_lattice(make_chain(4), tmp_path / "c4.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "c4.json"), n_electrons=4,
                                solvers=("sqd", "extsqd"), fractions=(0.25, 0.5),
                                shots=20_000, seed=5)
        report, runs = run_workflow(config)
        assert calls == list(sector_specs(4, 4).values())
        assert set(report.gaps) == {"sqd", "extsqd"}
        for sqd_run, ext_run in zip(runs["sqd"], runs["extsqd"]):
            assert ext_run.energy <= sqd_run.energy + 1e-12

    def test_fci_variance_from_residual(self, tmp_path):
        save_lattice(make_chain(4, u=2.0), tmp_path / "c4.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "c4.json"), n_electrons=4,
                                solvers=("fci",))
        _, runs = run_workflow(config)
        for run in runs["fci"]:
            for _, _, energy, residual, variance, _ in run.points:
                assert variance == (residual / energy) ** 2
                assert variance >= 0.0

    @pytest.mark.parametrize("cap", ["SECTOR_CAP", "SIGMA_BYTES_CAP"])
    def test_variance_cap_keeps_energies(self, tmp_path, dimer_lattice, monkeypatch, cap):
        import hsqd.subspace

        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"), n_electrons=2,
                                solvers=("hci", "sqd", "extsqd"), fractions=(0.5, 1.0),
                                shots=20_000, seed=3)
        want, _ = run_workflow(config)
        monkeypatch.setattr(hsqd.subspace, cap, 0)
        report, runs = run_workflow(config)
        assert report.failures == {}
        assert report.sector_energies == want.sector_energies
        assert report.gaps == want.gaps
        for sector_runs in runs.values():
            for run in sector_runs:
                assert [point[4] for point in run.points] == [None] * len(run.points)

    def test_global_diagonal_shift_leaves_gap(self, tmp_path):
        lat = make_chain(4, u=2.0)
        shift = 5.0
        shifted = LatticeHamiltonian(
            4, lat.hopping + shift * np.eye(4), lat.u_intra, lat.v_inter
        )
        save_lattice(lat, tmp_path / "a.json")
        save_lattice(shifted, tmp_path / "b.json")
        gaps = []
        for name in ("a.json", "b.json"):
            config = WorkflowConfig(lattice_path=str(tmp_path / name),
                                    n_electrons=4, solvers=("fci",))
            report, _ = run_workflow(config)
            gaps.append(report.gaps["fci"])
        # the shift adds c per electron: E[N+1] and E[N-1] move by +-c, the
        # gap is unchanged
        assert gaps[0] == pytest.approx(gaps[1], abs=1e-9)

    def test_solver_failure_isolated(self, tmp_path, dimer_lattice):
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(
            lattice_path=str(tmp_path / "dimer.json"),
            n_electrons=2,
            solvers=("fci", "sqd"),
            samples_files={"Ne": str(tmp_path / "missing.txt")},
        )
        report, runs = run_workflow(config)
        assert "fci" in report.gaps
        assert "sqd" not in report.gaps
        assert any(key.startswith("sqd/") for key in report.failures)

    def test_report_json_energies_have_nine_decimals(self, tmp_path, dimer_lattice):
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"),
                                n_electrons=2, solvers=("fci",))
        report, _ = run_workflow(config)
        doc = report.to_json_dict()
        assert doc["gaps"]["fci"] == round(doc["gaps"]["fci"], 9)
        text = json.dumps(doc)
        assert "fci" in text

    def test_sector_mean_field_flag(self, tmp_path):
        """Per-sector reference orbitals change the sampling basis but leave
        exact solver gaps untouched."""
        save_lattice(make_chain(4), tmp_path / "c4.json")
        gaps = {}
        for flag in (False, True):
            config = WorkflowConfig(
                lattice_path=str(tmp_path / "c4.json"),
                n_electrons=4,
                solvers=("fci", "sqd"),
                fractions=(1.0,),
                shots=100_000,
                seed=2,
                sector_mean_field=flag,
            )
            report, _ = run_workflow(config)
            gaps[flag] = report.gaps
        assert gaps[False]["fci"] == pytest.approx(gaps[True]["fci"], abs=1e-12)
        # full-fraction subspaces make sqd exact regardless of the reference
        assert gaps[False]["sqd"] == pytest.approx(gaps[True]["sqd"], abs=1e-8)

    def test_noninteracting_gap_equals_single_particle(self, tmp_path):
        # both spin placements of the odd electron must give the same answer
        rng = np.random.default_rng(9)
        for flip in (False, True):
            m = 4
            t = rng.normal(size=(m, m))
            t = (t + t.T) / 2
            lat = LatticeHamiltonian(m, t, np.zeros(m), np.zeros((m, m)))
            save_lattice(lat, tmp_path / "nt.json")
            config = WorkflowConfig(lattice_path=str(tmp_path / "nt.json"),
                                    n_electrons=4, solvers=("fci",), flip_spin=flip)
            report, _ = run_workflow(config)
            assert report.gaps["fci"] == pytest.approx(report.single_particle_gap, abs=1e-10)


class TestConfigValidation:
    def test_unknown_solver(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(lattice_path="x.json", n_electrons=2, solvers=("dmrg",))

    def test_unknown_sector_label(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(lattice_path="x.json", n_electrons=2,
                           samples_files={"N": "s.txt"})
