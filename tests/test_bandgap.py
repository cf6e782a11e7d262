import json
import re

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
            for _, _, res in run.rows:
                assert res.variance == (res.residual_norm / res.energy) ** 2
                assert res.variance >= 0.0

    @pytest.mark.parametrize("estimator", ["sigma_bytes"])
    def test_variance_cap_keeps_energies(self, tmp_path, dimer_lattice, monkeypatch, estimator):
        import hsqd.errors
        import hsqd.strings

        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"), n_electrons=2,
                                solvers=("hci", "sqd", "extsqd"), fractions=(0.5, 1.0),
                                shots=20_000, seed=3)
        want, uncapped = run_workflow(config)
        # every sigma is estimated over the memory cap, every other build runs
        monkeypatch.setattr(hsqd.strings, estimator, lambda *args: hsqd.errors.MEMORY_CAP + 1)
        report, runs = run_workflow(config)
        assert report.failures == {}
        assert report.sector_energies == want.sector_energies
        assert report.gaps == want.gaps
        # sqd and extsqd skip the subspace's sigma on proper subspaces and
        # take a whole sector's variance from the residual, which needs no
        # sigma; hci takes its variance from its own columns, which no
        # variance cap bounds
        whole = {"sqd": 0, "extsqd": 0}
        for solver in whole:
            for run, free in zip(runs[solver], uncapped[solver]):
                assert [(f, d, res.energy, res.residual_norm) for f, d, res in run.rows] == \
                    [(f, d, res.energy, res.residual_norm) for f, d, res in free.rows]
                n_alpha, n_beta = report.sector_specs[run.sector]
                for _, d, res in run.rows:
                    if d == SectorSpec(2, n_alpha, n_beta).dimension():
                        whole[solver] += 1
                        assert res.variance == (res.residual_norm / res.energy) ** 2
                    else:
                        assert res.variance is None
        # fraction 1.0 and every ext-SQD point cover the whole dimer sector
        assert whole == {"sqd": 3, "extsqd": 3}
        assert sum(len(run.rows) for run in runs["sqd"]) == 6
        assert all(res.variance is not None for run in runs["hci"] for *_, res in run.rows)
        assert [[res.variance for *_, res in run.rows] for run in runs["hci"]] == \
            [[res.variance for *_, res in run.rows] for run in uncapped["hci"]]

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
        """A sample file whose every sample has the wrong particle numbers
        fails SQD's postselection in that sector and leaves FCI's gap."""
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        (tmp_path / "empty_sector.txt").write_text("0000 10\n0011 5\n")
        config = WorkflowConfig(
            lattice_path=str(tmp_path / "dimer.json"),
            n_electrons=2,
            solvers=("fci", "sqd"),
            samples_files={"Ne": str(tmp_path / "empty_sector.txt")},
        )
        report, runs = run_workflow(config)
        assert "fci" in report.gaps
        assert "sqd" not in report.gaps
        assert list(report.failures) == ["sqd/Ne"]

    def test_failed_sample_file_fails_extsqd_too(self, tmp_path, dimer_lattice):
        """ext-SQD expands the sweep SQD reports, so a sample file that
        postselection empties fails both; ext-SQD used to fall back to
        simulated samples for that sector and report a gap."""
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        (tmp_path / "empty_sector.txt").write_text("0000 5\n0011 7\n")
        config = WorkflowConfig(
            lattice_path=str(tmp_path / "dimer.json"),
            n_electrons=2,
            solvers=("sqd", "extsqd"),
            fractions=(0.5, 1.0),
            seed=3,
            samples_files={"Ne": str(tmp_path / "empty_sector.txt")},
        )
        report, runs = run_workflow(config)
        message = "ValidationError: postselection discarded every sample (empty subspace)"
        assert report.failures == {"sqd/Ne": message, "extsqd/Ne": message}
        assert report.gaps == {}
        assert "Ne" not in report.samples
        assert [run.energy is None for run in runs["extsqd"]] == [False, True, False]

    def test_failed_sampling_is_tried_once(self, tmp_path, monkeypatch):
        """A sector whose sampling fails is not sampled again for the next
        solver that needs it; both fail with the same error."""
        import hsqd.bandgap
        from hsqd.errors import CapExceededError

        calls = []
        simulate = hsqd.bandgap._simulate_sector_samples

        def counted(mo_ints, mf, spec, *args):
            calls.append((spec.n_alpha, spec.n_beta))
            if spec.n_electrons == 5:
                raise CapExceededError("state too large")
            return simulate(mo_ints, mf, spec, *args)

        monkeypatch.setattr(hsqd.bandgap, "_simulate_sector_samples", counted)
        save_lattice(make_chain(4), tmp_path / "c4.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "c4.json"), n_electrons=4,
                                solvers=("sqd", "extsqd"), fractions=(0.5, 1.0),
                                shots=20_000, seed=5)
        report, _ = run_workflow(config)
        assert calls == [(1, 2), (2, 2), (3, 2)]
        assert report.failures == {"sqd/Ne+1": "CapExceededError: state too large",
                                   "extsqd/Ne+1": "CapExceededError: state too large"}

    def test_one_mean_field_per_pair_count(self, tmp_path, monkeypatch):
        """Ne+1 = (h + 1, h) has the neutral sector's h pairs, so with
        sector_mean_field only Ne-1 needs an SCF of its own."""
        import hsqd.bandgap

        pairs = []
        solve = hsqd.bandgap.solve_mean_field

        def counted(ints, spec):
            pairs.append(min(spec.n_alpha, spec.n_beta))
            return solve(ints, spec)

        monkeypatch.setattr(hsqd.bandgap, "solve_mean_field", counted)
        save_lattice(make_chain(6), tmp_path / "c6.json")
        for flag, want in ((False, [3]), (True, [2, 3])):
            pairs.clear()
            config = WorkflowConfig(lattice_path=str(tmp_path / "c6.json"), n_electrons=6,
                                    solvers=("fci",), sector_mean_field=flag)
            run_workflow(config)
            assert sorted(pairs) == want

    def test_lucj_parameters_once_per_pair_count(self, tmp_path, monkeypatch):
        """MP2 and the LUCJ seeding depend on the pair count only: one call
        each per pair count among the simulated sectors, and none when every
        sector's samples come from a file."""
        import hsqd.bandgap

        calls = []
        for name in ("mp2_doubles", "lucj_from_t2"):
            def counted(*args, _name=name, _fn=getattr(hsqd.bandgap, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(hsqd.bandgap, name, counted)
        save_lattice(make_chain(4), tmp_path / "c4.json")
        common = dict(lattice_path=str(tmp_path / "c4.json"), n_electrons=4,
                      solvers=("sqd", "extsqd"), fractions=(0.5, 1.0), shots=20_000, seed=5)
        for flag, want in ((False, 1), (True, 2)):
            calls.clear()
            report, _ = run_workflow(WorkflowConfig(sector_mean_field=flag, **common))
            assert sorted(calls) == ["lucj_from_t2"] * want + ["mp2_doubles"] * want
            assert set(report.gaps) == {"sqd", "extsqd"}
        files = {}
        for label, bits in (("Ne-1", "00110001"), ("Ne", "00110011"), ("Ne+1", "00110111")):
            files[label] = str(tmp_path / f"{label}.txt")
            (tmp_path / f"{label}.txt").write_text(f"{bits} 10\n")
        calls.clear()
        report, _ = run_workflow(WorkflowConfig(samples_files=files, **common))
        assert calls == []
        assert set(report.gaps) == {"sqd", "extsqd"}

    def test_pair_mean_field_rotates_once(self, monkeypatch):
        """The SCF rotates the integrals once, for its reference energy, and
        ``pair_mean_field`` hands that rotation on: the same values as a
        fresh ``rotate_basis``, with the reference strings' rows memoized."""
        import hsqd.bandgap
        import hsqd.reference
        from hsqd.model import map_to_electronic, rotate_basis

        calls = []

        def counted(ints, c):
            calls.append(c)
            return rotate_basis(ints, c)

        monkeypatch.setattr(hsqd.reference, "rotate_basis", counted)
        ints = map_to_electronic(make_chain(6, v=0.6))
        mf = hsqd.bandgap.pair_mean_field(ints, 3)
        mo = mf.mo_ints
        assert len(calls) == 1
        fresh = rotate_basis(ints, mf.orbital_coefficients)
        for name in ("one_body", "two_body_same_spin", "two_body_opposite_spin"):
            assert getattr(mo, name).tobytes() == getattr(fresh, name).tobytes()
        assert set(mo.one_spin_memo) == {0b111}

    def test_unreadable_sample_file_fails_before_any_solver(self, tmp_path, dimer_lattice,
                                                            monkeypatch):
        """Sample files are read once, before the mean field, so a missing
        or malformed one ends the run before any solver starts."""
        import hsqd.bandgap

        def fail(*args, **kwargs):
            raise AssertionError("solver ran")

        monkeypatch.setattr(hsqd.bandgap, "solve_mean_field", fail)
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        (tmp_path / "bad.txt").write_text("01x0 12\n")
        for name in ("missing.txt", "bad.txt"):
            config = WorkflowConfig(
                lattice_path=str(tmp_path / "dimer.json"),
                n_electrons=2,
                solvers=("fci", "sqd"),
                samples_files={"Ne": str(tmp_path / name)},
            )
            with pytest.raises(ValidationError):
                run_workflow(config)

    def test_report_json_energies_have_nine_decimals(self, tmp_path, dimer_lattice):
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"),
                                n_electrons=2, solvers=("fci",))
        report, _ = run_workflow(config)
        doc = report.to_json_dict()
        assert doc["gaps"]["fci"] == round(doc["gaps"]["fci"], 9)
        text = json.dumps(doc)
        assert "fci" in text

    def test_report_json_has_no_negative_zero(self, tmp_path, dimer_lattice):
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"),
                                n_electrons=2, solvers=("fci",))
        report, _ = run_workflow(config)
        report.gaps["fci"] = -0.0
        report.gap_deltas = {"fci-hci": -1e-12, "fci-sqd": -2e-10}
        doc = report.to_json_dict()
        assert "-0.0" not in json.dumps(doc)
        assert np.copysign(1.0, doc["gap_deltas"]["fci-hci"]) == 1.0
        assert doc["gap_deltas"]["fci-sqd"] == 0.0

    def test_no_solver_calls_matrix_element(self, tmp_path, dimer_lattice, monkeypatch):
        """Every solver builds its matrices, and ext-SQD its expansion, on the
        string engine."""
        import sys

        def fail(*args):
            raise AssertionError("per-determinant routine called")

        for name, module in list(sys.modules.items()):
            if name == "hsqd" or name.startswith("hsqd."):
                for routine in ("matrix_element", "generate_excitations"):
                    if hasattr(module, routine):
                        monkeypatch.setattr(module, routine, fail)
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"), n_electrons=2,
                                solvers=("fci", "hci", "sqd", "extsqd"), fractions=(0.5, 1.0),
                                shots=20_000, seed=3)
        report, _ = run_workflow(config)
        assert report.failures == {}
        assert set(report.gaps) == {"fci", "hci", "sqd", "extsqd"}

    def test_hci_memory_cap_is_a_failure(self, tmp_path, dimer_lattice, monkeypatch):
        import hsqd.errors
        import hsqd.selci

        # one H column is estimated over the memory cap, and FCI's build is not
        monkeypatch.setattr(hsqd.selci, "columns_bytes",
                            lambda n, *args: n * (hsqd.errors.MEMORY_CAP + 1))
        save_lattice(dimer_lattice, tmp_path / "dimer.json")
        config = WorkflowConfig(lattice_path=str(tmp_path / "dimer.json"), n_electrons=2,
                                solvers=("fci", "hci"))
        report, runs = run_workflow(config)
        assert sorted(report.failures) == ["hci/Ne", "hci/Ne+1", "hci/Ne-1"]
        assert all(v.startswith("CapExceededError") for v in report.failures.values())
        assert report.gaps["fci"] == pytest.approx(3.656854249, abs=1e-8)

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

    @pytest.mark.parametrize("key, value, message", [
        ("fractions", (1.5,), "fractions must lie in (0, 1]"),
        ("hci_epsilons", (0.1, 0.5), "epsilons must be strictly descending"),
        ("extsqd_levels", (3,), "levels must be a nonempty subset of {1, 2}"),
        ("extsqd_threshold", -1e-4, "threshold must be nonnegative"),
        ("lucj_layers", 0, "layers must be at least 1, got 0"),
        ("shots", 0, f"shots must lie in [1, {2**63 - 1}], got 0"),
        ("shots", 2**63, f"shots must lie in [1, {2**63 - 1}], got {2**63}"),
        ("seed", -1, "seed must be nonnegative, got -1"),
    ], ids=["fractions", "hci_epsilons", "extsqd_levels", "extsqd_threshold", "lucj_layers",
            "shots-0", "shots-2**63", "seed"])
    def test_out_of_range_setting(self, key, value, message):
        """Each setting is held to the rule of the routine that takes it, when
        the config is built, whichever solvers run."""
        with pytest.raises(ValidationError, match=re.escape(message)):
            WorkflowConfig(lattice_path="x.json", n_electrons=2, solvers=("fci",),
                           **{key: value})
