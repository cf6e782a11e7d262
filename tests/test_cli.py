import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import hsqd.selci
import hsqd.subspace
from hsqd import (
    LatticeHamiltonian,
    WorkflowConfig,
    load_lattice,
    read_fcidump,
    save_lattice,
)
from hsqd.cli import CONFIG_KEYS, config_from_file, main

from conftest import make_chain


def write_dimer(tmp_path):
    path = tmp_path / "dimer.json"
    save_lattice(
        LatticeHamiltonian(2, [[0.0, -1.0], [-1.0, 0.0]], [4.0, 4.0], np.zeros((2, 2))),
        path,
    )
    return path


def write_config(tmp_path, lattice, out_dir, **extra):
    lines = [
        f'lattice_path = "{lattice}"',
        "n_electrons = 2",
        'solvers = ["fci", "sqd"]',
        "fractions = [0.5, 1.0]",
        "shots = 20000",
        "seed = 3",
        f'out_dir = "{out_dir}"',
    ]
    lines = [line for line in lines if line.split(" = ")[0] not in extra]
    for key, val in extra.items():
        lines.append(f"{key} = {val}")
    path = tmp_path / "run.toml"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_chain7(tmp_path, out_dir, solvers='["fci"]'):
    """A run of the open 7-site chain at N = 6, whose sectors hold 735-1,225
    determinants."""
    lattice = tmp_path / "chain7.json"
    save_lattice(make_chain(7), lattice)
    return write_config(tmp_path, lattice, out_dir, n_electrons=6, solvers=solvers)


class TestConvert:
    def test_dimer_to_fcidump(self, tmp_path, capsys):
        src = write_dimer(tmp_path)
        dst = tmp_path / "dimer.fcidump"
        assert main(["convert", str(src), str(dst)]) == 0
        text = dst.read_text()
        lines = [l.split() for l in text.splitlines() if l and not l.startswith(("&", " O", " I"))]
        onsite = [l for l in lines if l[1:] == ["1", "1", "1", "1"]]
        hopping = [l for l in lines if l[1:] == ["2", "1", "0", "0"]]
        assert float(onsite[0][0]) == 4.0
        assert float(hopping[0][0]) == -1.0
        assert "M=2" in capsys.readouterr().out

    def test_literal_2u_flag_changes_onsite_only(self, tmp_path):
        src = write_dimer(tmp_path)
        default = tmp_path / "a.fcidump"
        literal = tmp_path / "b.fcidump"
        assert main(["convert", str(src), str(default)]) == 0
        assert main(["convert", str(src), str(literal), "--literal-2u"]) == 0
        ints_a = read_fcidump(default)
        ints_b = read_fcidump(literal)
        assert ints_b.two_body_opposite_spin[0, 0, 0, 0] == pytest.approx(8.0)
        assert ints_a.two_body_opposite_spin[0, 0, 0, 0] == pytest.approx(4.0)
        assert np.array_equal(ints_a.one_body, ints_b.one_body)

    def test_fcidump_to_lattice_round_trip(self, tmp_path):
        src = write_dimer(tmp_path)
        dump = tmp_path / "d.fcidump"
        back = tmp_path / "back.json"
        assert main(["convert", str(src), str(dump)]) == 0
        assert main(["convert", str(dump), str(back), "--to", "lattice"]) == 0
        lat = load_lattice(back)
        assert lat.hopping[0, 1] == pytest.approx(-1.0)
        assert lat.u_intra[0] == pytest.approx(4.0)

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["convert", str(bad), str(tmp_path / "out.fcidump")]) == 2
        assert "error" in capsys.readouterr().err

    def test_fcidump_zero_index_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "bad.fcidump"
        dump.write_text("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n0.5 0 2 0 0\n")
        assert main(["convert", str(dump), str(tmp_path / "out.json"), "--to", "lattice"]) == 2
        assert "'0.5 0 2 0 0'" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["convert", str(tmp_path / "nope.json"), str(tmp_path / "o.fcidump")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("n_orbitals", "two"), ("u", ["a", "b"]), ("hopping", [1, 2]), ("labels", 5),
        ("n_orbitals", 2.7), ("u", [True, True]), ("hopping", [[0.0, True], [True, 0.0]]),
        ("v", [["0", "0"], ["0", "0"]]), ("kpoint", 5),
    ], ids=["n_orbitals-two", "u-strings", "hopping-flat", "labels-5", "n_orbitals-2.7",
            "u-booleans", "hopping-boolean", "v-strings", "kpoint-5"])
    def test_mistyped_lattice_key_exits_2(self, tmp_path, capsys, key, value):
        """The first four used to end in an internal error (exit 1); the
        others were read silently, 2.7 orbitals as 2, a boolean entry as 1.0
        and a quoted "0" as 0.0."""
        src = write_dimer(tmp_path)
        doc = json.loads(src.read_text()) | {key: value}
        src.write_text(json.dumps(doc))
        assert main(["convert", str(src), str(tmp_path / "o.fcidump")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: {key}") and err.count("\n") == 1

    def test_unknown_lattice_key_exits_2(self, tmp_path, capsys):
        """A misspelt optional key used to be dropped: the dimer converted with
        exit 0 and reported its k-point as Gamma."""
        src = write_dimer(tmp_path)
        doc = json.loads(src.read_text())
        doc["kpiont"] = doc.pop("kpoint")
        src.write_text(json.dumps(doc))
        assert main(["convert", str(src), str(tmp_path / "o.fcidump")]) == 2
        assert capsys.readouterr().err == f"error: {src}: unknown lattice key(s) kpiont\n"

    def test_lattice_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        src = tmp_path / "five.json"
        src.write_text("5\n")
        assert main(["convert", str(src), str(tmp_path / "o.fcidump")]) == 2
        assert capsys.readouterr().err == f"error: {src}: expected a JSON object, got 5\n"


class TestSample:
    def test_trivial_circuit_single_line(self, tmp_path):
        # U = V = 0: zero amplitudes, the ansatz stays on the reference
        path = tmp_path / "tb.json"
        save_lattice(make_chain(3, u=0.0), path)
        out = tmp_path / "samples.txt"
        code = main(["sample", str(path), str(out),
                     "--n-alpha", "2", "--n-beta", "1", "--shots", "500"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].split()[1] == "500"

    def test_seed_reruns_byte_identical(self, tmp_path):
        path = write_dimer(tmp_path)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            code = main(["sample", str(path), str(out),
                         "--n-alpha", "1", "--n-beta", "1",
                         "--shots", "5000", "--seed", "11"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--shots", "0", f"shots must lie in [1, {2**63 - 1}], got 0"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
        ("--layers", "0", "layers must be at least 1, got 0"),
    ])
    def test_flags_checked_before_the_lattice(self, tmp_path, capsys, monkeypatch, flag, value,
                                              message):
        """Each flag used to be checked only where it was used, after the mean
        field (0.9 s for ``--layers 0`` on a 6-site chain), and the layers
        message did not name it."""
        def unreachable(path):
            raise AssertionError("the lattice was read")

        monkeypatch.setattr("hsqd.cli.load_lattice", unreachable)
        code = main(["sample", str(write_dimer(tmp_path)), str(tmp_path / "s.txt"),
                     "--n-alpha", "1", "--n-beta", "1", flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_shots_rejected(self, tmp_path):
        path = write_dimer(tmp_path)
        code = main(["sample", str(path), str(tmp_path / "s.txt"),
                     "--n-alpha", "1", "--n-beta", "1", "--shots", "0"])
        assert code == 2


class TestRun:
    def test_dimer_report(self, tmp_path):
        lattice = write_dimer(tmp_path)
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, lattice, out_dir)
        assert main(["run", str(config)]) == 0
        report = json.loads((out_dir / "gap_report.json").read_text())
        assert report["gaps"]["fci"] == pytest.approx(3.656854249, abs=1e-8)
        assert report["gaps"]["sqd"] == pytest.approx(3.656854249, abs=1e-8)
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "sweep_sqd_Ne.csv").exists()

    def test_mode_override_recorded(self, tmp_path):
        lattice = write_dimer(tmp_path)
        out_dir = tmp_path / "out_tb"
        config = write_config(tmp_path, lattice, out_dir)
        assert main(["run", str(config), "--mode", "TB", "--solver", "fci"]) == 0
        report = json.loads((out_dir / "gap_report.json").read_text())
        assert report["mode"] == "TB"
        assert report["gaps"]["fci"] == pytest.approx(report["single_particle_gap"], abs=1e-10)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "TB"

    def test_missing_lattice_exits_2(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "ghost.json", tmp_path / "o")
        assert main(["run", str(config)]) == 2

    def test_nonfinite_lattice_exits_2(self, tmp_path, capsys):
        lattice = tmp_path / "nan.json"
        lattice.write_text(json.dumps({
            "n_orbitals": 2, "hopping": [[0.0, float("nan")], [float("nan"), 0.0]],
            "u": [4.0, 4.0], "v": [[0.0, 0.0], [0.0, 0.0]],
        }))
        config = write_config(tmp_path, lattice, tmp_path / "o")
        assert main(["run", str(config)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_cap_failures_alone_exit_3(self, tmp_path, capsys):
        # every sector of a 13-site chain at N = 12 exceeds the FCI cap
        lattice = tmp_path / "c13.json"
        save_lattice(make_chain(13), lattice)
        config = write_config(tmp_path, lattice, tmp_path / "o", n_electrons=12,
                              solvers='["fci"]')
        assert main(["run", str(config)]) == 3
        assert capsys.readouterr().err.count("CapExceededError") == 3

    def test_hci_memory_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        import hsqd.errors
        import hsqd.selci

        # one H column is estimated over the memory cap, and FCI's build is not
        monkeypatch.setattr(hsqd.selci, "columns_bytes",
                            lambda n, *args: n * (hsqd.errors.MEMORY_CAP + 1))
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o",
                              solvers='["fci", "hci"]')
        assert main(["run", str(config)]) == 3
        assert capsys.readouterr().err.count("CapExceededError") == 3

    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys):
        import hsqd.cli

        def exhaust(config):
            raise MemoryError("Unable to allocate 5.4 GiB")

        monkeypatch.setattr(hsqd.cli, "run_workflow", exhaust)
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        assert main(["run", str(config)]) == 3
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 5.4 GiB\n"

    def test_linalg_error_exits_4(self, tmp_path, monkeypatch, capsys):
        import hsqd.cli

        def fail(config):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(hsqd.cli, "run_workflow", fail)
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        assert main(["run", str(config)]) == 4
        assert capsys.readouterr().err == (
            "error: linear algebra failure: Eigenvalues did not converge\n")

    def test_unexpected_exception_exits_1(self, tmp_path, monkeypatch, capsys):
        import hsqd.cli

        def fail(config):
            raise KeyError("Ne+1")

        monkeypatch.setattr(hsqd.cli, "run_workflow", fail)
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: internal error: KeyError: 'Ne+1'\n"

    def test_solver_failure_beside_a_cap_exits_4(self, tmp_path, monkeypatch):
        import hsqd.bandgap
        from hsqd import CapExceededError, ConvergenceError

        def fail(spec, ints):
            if spec.n_alpha == spec.n_beta:
                raise ConvergenceError("did not converge")
            raise CapExceededError("over the cap")

        monkeypatch.setattr(hsqd.bandgap, "fci_ground", fail)
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o",
                              solvers='["fci"]')
        assert main(["run", str(config)]) == 4

    def test_64_orbitals_exit_2_before_the_integrals(self, tmp_path, monkeypatch, capsys):
        """A 64-site chain used to run ``hci`` to a gap with a hop lost to the
        sign bit of the string words; ``run`` and ``sample`` now refuse it
        with one line, before the M^4 integrals are allocated."""
        def unreachable(*args, **kwargs):
            raise AssertionError("integrals allocated")

        monkeypatch.setattr("hsqd.bandgap.map_to_electronic", unreachable)
        monkeypatch.setattr("hsqd.cli.map_to_electronic", unreachable)
        lattice = tmp_path / "c64.json"
        save_lattice(make_chain(64), lattice)
        config = write_config(tmp_path, lattice, tmp_path / "o", n_electrons=64,
                              solvers='["hci"]')
        message = "error: 64 orbitals: a sector holds at most 63\n"
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == message
        assert main(["sample", str(lattice), str(tmp_path / "s.txt"),
                     "--n-alpha", "32", "--n-beta", "32"]) == 2
        assert capsys.readouterr().err == message

    def test_manifest_records_each_sampled_sector(self, tmp_path):
        """The manifest used to record one seed, ``seeds: [seed]``, though the
        simulated sectors sample with seed + 0, 1 and 2 and a file sector with
        none, and the discarded fraction reached no artifact."""
        lattice = write_dimer(tmp_path)
        (tmp_path / "s.txt").write_text("0101 50\n1010 25\n1110 25\n")
        out_dir = tmp_path / "out_s"
        config = write_config(tmp_path, lattice, out_dir, samples_ne='"s.txt"')
        assert main(["run", str(config), "--solver", "sqd"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "seeds" not in manifest
        assert manifest["samples"] == {
            "Ne-1": {"seed": 3, "discarded_fraction": 0.0},
            "Ne": {"file": str((tmp_path / "s.txt").resolve()), "discarded_fraction": 0.25},
            "Ne+1": {"seed": 5, "discarded_fraction": 0.0},
        }
        assert main(["run", str(config), "--solver", "fci"]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["samples"] == {}

    def test_manifest_records_each_eigensolve_matvec_count(self, tmp_path, monkeypatch):
        """Per solver and sector, the manifest lists the matvec count of each
        sweep row's eigensolve as the solve returned it (1 on the dense
        path), and a rerun lists the same counts; the FCI sectors here take
        the Lanczos path."""
        solved = []
        for module in (hsqd.subspace, hsqd.selci):
            def record(matrix, solve=module.lowest_eigenpair):
                res = solve(matrix)
                solved.append((matrix.shape[0], res.iterations))
                return res
            monkeypatch.setattr(module, "lowest_eigenpair", record)
        out_dir = tmp_path / "out_i"
        config = write_chain7(tmp_path, out_dir, solvers='["fci", "sqd"]')
        counts = []
        for _ in range(2):
            solved.clear()
            assert main(["run", str(config)]) == 0
            counts.append(json.loads((out_dir / "manifest.json").read_text())
                          ["eigensolve_iterations"])
            rows = []
            for solver in ("fci", "sqd"):
                assert list(counts[-1][solver]) == ["Ne-1", "Ne", "Ne+1"]
                for sector, iterations in counts[-1][solver].items():
                    sweep = (out_dir / f"sweep_{solver}_{sector}.csv").read_text()
                    dims = [int(row["d"]) for row in csv.DictReader(io.StringIO(sweep))]
                    rows += zip(dims, iterations, strict=True)
            assert rows == solved
        assert counts[0] == counts[1]
        assert all(rows[0] > 1 for rows in counts[0]["fci"].values())

    def test_manifest_hashes_inputs(self, tmp_path):
        lattice = write_dimer(tmp_path)
        out_dir = tmp_path / "out_h"
        config = write_config(tmp_path, lattice, out_dir)
        assert main(["run", str(config), "--solver", "fci"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        want = hashlib.sha256(lattice.read_bytes()).hexdigest()
        assert manifest["input_hashes"][str(lattice)] == want
        assert manifest["tool_version"]

    def test_manifest_records_the_resolved_config(self, tmp_path):
        """The manifest's config rebuilds the run's WorkflowConfig, and the
        config file is hashed with the other inputs; the config used to lack
        hci_epsilons, lucj_layers, material and the sample files."""
        lattice = write_dimer(tmp_path)
        (tmp_path / "s.txt").write_text("0101 60\n1010 40\n")
        out_dir = tmp_path / "out_c"
        config = write_config(tmp_path, lattice, out_dir, samples_ne='"s.txt"',
                              hci_epsilons="[0.5, 0.01]", lucj_layers=2, material='"dimer2"')
        assert main(["run", str(config), "--solver", "hci", "--solver", "sqd"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        rebuilt = WorkflowConfig(**{key: tuple(value) if isinstance(value, list) else value
                                    for key, value in manifest["config"].items()})
        assert rebuilt == config_from_file(config, {"solvers": ["hci", "sqd"]})
        assert rebuilt.samples_ne == str((tmp_path / "s.txt").resolve())
        want = hashlib.sha256(config.read_bytes()).hexdigest()
        assert manifest["input_hashes"][str(config.resolve())] == want

    def test_manifest_config_reads_back_as_a_config_file(self, tmp_path):
        """The manifest's config uses the config file's own keys, so written
        back as one it reads as the run's WorkflowConfig; it used to hold the
        sample files under samples_files, which no config key sets."""
        lattice = write_dimer(tmp_path)
        (tmp_path / "s.txt").write_text("0101 60\n1010 40\n")
        out_dir = tmp_path / "out_c"
        config = write_config(tmp_path, lattice, out_dir, samples_ne='"s.txt"',
                              hci_epsilons="[0.5, 0.01]", material='"dimer2"')
        assert main(["run", str(config), "--solver", "hci", "--solver", "sqd"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        back = tmp_path / "back" / "run.toml"
        back.parent.mkdir()
        back.write_text("".join(f"{key} = {json.dumps(value)}\n"
                                for key, value in manifest["config"].items() if value is not None))
        assert config_from_file(back) == config_from_file(config, {"solvers": ["hci", "sqd"]})

    def test_outputs_idempotent(self, tmp_path):
        lattice = write_dimer(tmp_path)
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        for out_dir in (out_a, out_b):
            config = write_config(tmp_path, lattice, out_dir)
            assert main(["run", str(config)]) == 0
        assert (out_a / "gap_report.json").read_text() == (out_b / "gap_report.json").read_text()
        for name in ("sweep_fci_Ne.csv", "sweep_sqd_Ne+1.csv"):
            assert (out_a / name).read_text() == (out_b / name).read_text()

    def test_sector_sample_files_honored(self, tmp_path):
        lattice = write_dimer(tmp_path)
        for label, fname in (("Ne-1", "sm.txt"), ("Ne", "s0.txt"), ("Ne+1", "sp.txt")):
            content = {
                "Ne-1": "0100 50\n1000 50\n",  # one beta electron, no alpha
                "Ne": "0101 60\n1010 40\n0110 20\n1001 30\n",
                "Ne+1": "0111 70\n1011 30\n",
            }[label]
            (tmp_path / fname).write_text(content)
        out_dir = tmp_path / "o_files"
        config = write_config(
            tmp_path, lattice, out_dir,
            samples_neminus1='"sm.txt"', samples_ne='"s0.txt"', samples_neplus1='"sp.txt"',
        )
        code = main(["run", str(config), "--solver", "sqd"])
        assert code == 0
        report = json.loads((out_dir / "gap_report.json").read_text())
        assert report["gaps"]["sqd"] == pytest.approx(3.656854249, abs=1e-8)


class TestConfig:
    @pytest.mark.parametrize("name", ["dimer", "chain6", "chain10uv_hci"])
    def test_shipped_configs_parse(self, name):
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.toml"
        config_from_file(config)

    @pytest.mark.parametrize("line", ['solver = ["hci"]', "fraction = [0.5]", 'samples_files = "s.txt"'])
    def test_unknown_key_exits_2(self, tmp_path, capsys, line):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        config.write_text(config.read_text() + line + "\n")
        assert main(["run", str(config)]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("n_electrons", "2.9"), ("shots", "1000.7"), ("seed", "1.5"), ("lucj_layers", "1.5"),
        ("extsqd_levels", "[1, 1.5]"), ("shots", '"20000"'), ("seed", "true"),
    ])
    def test_non_integral_integer_exits_2(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o", **{key: value})
        assert main(["run", str(config)]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("literal_2u", '"false"'), ("flip_spin", "0.5"), ("sector_mean_field", "1"),
        ("flip_spin", "[true]"),
    ])
    def test_non_boolean_flag_exits_2(self, tmp_path, capsys, key, value):
        """A quoted "false" or a number used to be cast with bool() and read
        as True."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o", **{key: value})
        assert main(["run", str(config)]) == 2
        assert f"{key} must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_boolean_flags_accepted(self, tmp_path):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o",
                              literal_2u="false", flip_spin="true", sector_mean_field="false")
        parsed = config_from_file(config)
        assert (parsed.literal_2u, parsed.flip_spin, parsed.sector_mean_field) == (False, True, False)

    @pytest.mark.parametrize("key, value", [
        ("extsqd_threshold", '"abc"'), ("extsqd_threshold", "true"), ("hci_epsilons", '["x"]'),
        ("hci_epsilons", "[0.1, false]"), ("fractions", "[true]"), ("fractions", '"0.5"'),
    ])
    def test_non_numeric_float_exits_2(self, tmp_path, capsys, key, value):
        """A string used to end the run with an internal ValueError (exit 1),
        and a boolean fraction ran silently as 1.0."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o", **{key: value})
        assert main(["run", str(config)]) == 2
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_numeric_floats_accepted(self, tmp_path):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o",
                              extsqd_threshold="1", hci_epsilons="[0.1, 1e-3]", fractions="[1]")
        parsed = config_from_file(config)
        assert (parsed.extsqd_threshold, parsed.hci_epsilons, parsed.fractions) == \
            (1.0, (0.1, 1e-3), (1.0,))
        assert all(type(x) is float for x in (parsed.extsqd_threshold, *parsed.fractions))

    def test_non_numeric_fractions_flag_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        assert main(["run", str(config), "--fractions", "0.5,abc"]) == 2
        assert "--fractions must be comma-separated numbers" in capsys.readouterr().err

    def test_empty_fractions_flag_exits_2(self, tmp_path, capsys):
        """An empty list used to run the config's own fractions and exit 0."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        for value in ("", "0.5,"):
            assert main(["run", str(config), "--fractions", value]) == 2
            assert "--fractions must be comma-separated numbers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_accepted(self, tmp_path):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o",
                              n_electrons="2.0", shots="2e4", extsqd_levels="[1.0, 2]")
        parsed = config_from_file(config)
        assert (parsed.n_electrons, parsed.shots, parsed.extsqd_levels) == (2, 20000, (1, 2))
        assert all(type(x) is int for x in (parsed.n_electrons, parsed.shots, *parsed.extsqd_levels))

    def test_hash_inside_quotes_is_not_a_comment(self, tmp_path):
        lattice_dir = tmp_path / "a#b"
        lattice_dir.mkdir()
        out_dir = tmp_path / "o#1"
        config = write_config(tmp_path, write_dimer(lattice_dir), out_dir, material="'x # y'  # comment")
        assert config_from_file(config).material == "x # y"
        assert main(["run", str(config), "--solver", "fci"]) == 0
        report = json.loads((out_dir / "gap_report.json").read_text())
        assert report["gaps"]["fci"] == pytest.approx(3.656854249, abs=1e-8)

    @pytest.mark.parametrize("key, value", [
        ("hci_epsilons", "[0.1, inf]"), ("extsqd_threshold", "nan"), ("fractions", "[0.5, -inf]"),
        pytest.param("extsqd_threshold", "1" + "0" * 400, id="extsqd_threshold-10**400"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        """An infinite epsilon used to run an HCI stage of only the reference,
        a NaN threshold failed every ext-SQD sector with a misleading message,
        and an integer past the float range ended in an OverflowError."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o", **{key: value})
        assert main(["run", str(config)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--threshold", "nan", "extsqd_threshold"), ("--fractions", "0.5,inf", "fractions"),
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flag, value, key):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        assert main(["run", str(config), flag, value]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("material", "5"), ("out_dir", "5"), ("lattice_path", "5"), ("samples_ne", "[]"),
        ("mode", "1"), ("solvers", '["fci", 5]'),
    ])
    def test_non_string_exits_2(self, tmp_path, capsys, key, value):
        """A number used to pass as its decimal string."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        lines = [line for line in config.read_text().splitlines() if not line.startswith(key)]
        config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert main(["run", str(config)]) == 2
        assert f"{key} must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["flip_spin = TRUE", "seed = 4", 'out_dir = "elsewhere'])
    def test_invalid_toml_exits_2(self, tmp_path, capsys, line):
        """An uppercase TRUE used to read as true, and a repeated key let the
        last one win."""
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        config.write_text(config.read_text() + line + "\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid TOML") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_table_header_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o")
        config.write_text(config.read_text() + "[extra]\nseed = 4\n")
        assert main(["run", str(config)]) == 2
        assert "unknown config key(s) extra" in capsys.readouterr().err

    def test_readme_config_table_lists_every_key(self):
        """The keys in README's config table are exactly the keys a config accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n\n| key |", 1)[1]
        rows = [line for line in table.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
        documented = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert documented == CONFIG_KEYS

    def test_every_key_has_a_reader_for_its_field_type(self):
        """Each key is read through the declared type of its WorkflowConfig
        field, and reads its default back; a field of a type that no reader
        takes fails here instead of being misread."""
        from hsqd.cli import CONFIG_READERS, config_reader

        assert set(CONFIG_READERS) == CONFIG_KEYS
        for field in dataclasses.fields(WorkflowConfig):
            if field.name in CONFIG_KEYS and field.default not in (dataclasses.MISSING, None):
                toml = list(field.default) if isinstance(field.default, tuple) else field.default
                assert CONFIG_READERS[field.name]("c.toml", field.name, toml) == field.default
        for tp in (dict[str, str], list[int], tuple[int, int], complex, int | str):
            with pytest.raises(TypeError, match="no config reader"):
                config_reader(tp)
        assert CONFIG_KEYS == set(get_type_hints(WorkflowConfig))


class TestInputErrors:
    @pytest.mark.parametrize("case", ["config", "lattice", "samples", "to_fcidump", "to_lattice"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, case):
        """A byte that is not UTF-8 used to end as an internal UnicodeDecodeError (exit 1)."""
        lattice = write_dimer(tmp_path)
        config = write_config(tmp_path, lattice, tmp_path / "o", samples_ne='"s.txt"')
        (tmp_path / "s.txt").write_text("0101 10\n")
        dump = tmp_path / "d.fcidump"
        assert main(["convert", str(lattice), str(dump)]) == 0
        bad = {"config": config, "lattice": lattice, "samples": tmp_path / "s.txt",
               "to_fcidump": lattice, "to_lattice": dump}[case]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = {"to_fcidump": ["convert", str(lattice), str(tmp_path / "x.fcidump")],
                "to_lattice": ["convert", str(dump), str(tmp_path / "x.json"), "--to", "lattice"],
                }.get(case, ["run", str(config)])
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text")

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be nonnegative"),
        ("--shots", "100000000000000000000", "shots must lie in"),
    ])
    def test_sample_seed_and_shots_exit_2(self, tmp_path, capsys, flag, value, message):
        """A negative seed used to end as an internal ValueError and a shot
        count past 64 bits as an OverflowError (exit 1)."""
        code = main(["sample", str(write_dimer(tmp_path)), str(tmp_path / "s.txt"),
                     "--n-alpha", "1", "--n-beta", "1", flag, value])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "-1", "seed must be nonnegative"), ("shots", "1e30", "shots must lie in"),
    ])
    def test_run_seed_and_shots_exit_2(self, tmp_path, capsys, key, value, message):
        config = write_config(tmp_path, write_dimer(tmp_path), tmp_path / "o", **{key: value})
        assert main(["run", str(config)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "-1", "seed must be nonnegative, got -1"),
        ("shots", "0", f"shots must lie in [1, {2**63 - 1}], got 0"),
        ("shots", "1e30", f"shots must lie in [1, {2**63 - 1}], got {int(1e30)}"),
    ])
    def test_seed_and_shots_rejected_before_any_work(self, tmp_path, capsys, key, value, message):
        """The shipped dimer config with every solver: a negative seed used to
        fail only the Ne-1 sampling, and zero shots every SQD and ext-SQD
        sector, after FCI and HCI had run and the report had been written."""
        shipped = Path(__file__).resolve().parents[1] / "configs" / "dimer.toml"
        lines = [line for line in shipped.read_text().splitlines()
                 if not line.startswith(("lattice_path", key))]
        config = tmp_path / "dimer.toml"
        config.write_text("\n".join(lines + [
            f'lattice_path = "{shipped.parents[1] / "lattices" / "dimer.json"}"',
            f"{key} = {value}"]) + "\n")
        out = tmp_path / "o"
        assert main(["run", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (out / "gap_report.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("fractions", "[1.5]", "fractions must lie in (0, 1]"),
        ("hci_epsilons", "[0.1, 0.5]", "epsilons must be strictly descending"),
        ("extsqd_levels", "[3]", "levels must be a nonempty subset of {1, 2}"),
        ("extsqd_threshold", "-1e-4", "threshold must be nonnegative"),
        ("lucj_layers", "0", "layers must be at least 1, got 0"),
    ], ids=["fractions", "hci_epsilons", "extsqd_levels", "extsqd_threshold", "lucj_layers"])
    def test_run_settings_rejected_before_any_work(self, tmp_path, capsys, key, value, message):
        """The shipped dimer config with every solver: each of these settings
        used to fail only the solver that takes it, after the mean field, the
        sampling and every other sector had run and the report was written."""
        shipped = Path(__file__).resolve().parents[1] / "configs" / "dimer.toml"
        lines = [line for line in shipped.read_text().splitlines()
                 if not line.startswith(("lattice_path", key))]
        config = tmp_path / "dimer.toml"
        config.write_text("\n".join(lines + [
            f'lattice_path = "{shipped.parents[1] / "lattices" / "dimer.json"}"',
            f"{key} = {value}"]) + "\n")
        out = tmp_path / "o"
        assert main(["run", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (out / "gap_report.json").exists()

    @pytest.mark.parametrize("case", ["config", "lattice", "samples", "to_fcidump",
                                      "to_lattice", "plotdata"])
    def test_non_utf8_error_names_the_file(self, tmp_path, capsys, case):
        """The one-line error names the file with the byte that is not UTF-8;
        it used to give only the codec's position, whichever input it was."""
        lattice = write_dimer(tmp_path)
        config = write_config(tmp_path, lattice, tmp_path / "o", samples_ne='"s.txt"')
        (tmp_path / "s.txt").write_text("0101 10\n")
        dump = tmp_path / "d.fcidump"
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("solver,sector,fraction,d,energy\nfci,Ne,1,4,-1.0\n")
        assert main(["convert", str(lattice), str(dump)]) == 0
        bad = {"config": config, "lattice": lattice, "samples": tmp_path / "s.txt",
               "to_fcidump": lattice, "to_lattice": dump, "plotdata": sweep}[case]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = {"to_fcidump": ["convert", str(lattice), str(tmp_path / "x.fcidump")],
                "to_lattice": ["convert", str(dump), str(tmp_path / "x.json"), "--to", "lattice"],
                "plotdata": ["plotdata", str(sweep), "--reference", "fci",
                             "--output", str(tmp_path / "long.csv")],
                }.get(case, ["run", str(config)])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input is not UTF-8 text: {bad}: ")
        assert "0xff" in err and err.count("\n") == 1


class TestPlotdata:
    def _run_dimer(self, tmp_path, solvers='["fci", "sqd", "extsqd"]'):
        lattice = write_dimer(tmp_path)
        out_dir = tmp_path / "sweeps"
        config = write_config(tmp_path, lattice, out_dir, solvers=solvers)
        assert main(["run", str(config)]) == 0
        return out_dir

    def test_self_reference_zero_error(self, tmp_path):
        out_dir = self._run_dimer(tmp_path, solvers='["fci"]')
        merged = tmp_path / "long.csv"
        csvs = sorted(str(p) for p in out_dir.glob("sweep_fci_*.csv"))
        assert main(["plotdata", *csvs, "--reference", "fci", "--output", str(merged)]) == 0
        rows = merged.read_text().splitlines()[1:]
        for row in rows:
            assert abs(float(row.split(",")[-1])) == 0.0

    def test_fci_reference_on_saturated_extsqd(self, tmp_path):
        out_dir = self._run_dimer(tmp_path)
        merged = tmp_path / "long.csv"
        csvs = sorted(str(p) for p in out_dir.glob("sweep_*.csv"))
        assert main(["plotdata", *csvs, "--reference", "fci", "--output", str(merged)]) == 0
        rows = [r.split(",") for r in merged.read_text().splitlines()[1:]]
        ext_rows = [r for r in rows if r[0] == "extsqd"]
        assert ext_rows
        for row in ext_rows:
            assert abs(float(row[-1])) <= 1e-8

    def test_missing_reference_exits_2(self, tmp_path):
        out_dir = self._run_dimer(tmp_path, solvers='["fci"]')
        csvs = sorted(str(p) for p in out_dir.glob("sweep_*.csv"))
        assert main(["plotdata", *csvs, "--reference", "hci",
                     "--output", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("sector,fraction,d,energy\nNe,1,4,-1.0\n", ": missing column(s) solver"),
        ("solver,sector,fraction,d,energy\nfci,Ne,x,4,-1.0\n", ":2: fraction must be a number, got 'x'"),
        ("solver,sector,fraction,d,energy\nfci,Ne,1,4\n", ":2: energy must be a number, got ''"),
        ("solver,sector,fraction,d,energy\nfci,Ne,1,4,nan\n", ":2: energy must be finite, got nan"),
    ], ids=["no-solver-column", "fraction-x", "short-row", "nan-energy"])
    def test_malformed_csv_exits_2(self, tmp_path, capsys, text, message):
        """A missing column used to end in an internal KeyError and a
        non-numeric fraction in an internal ValueError (exit 1)."""
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(text)
        assert main(["plotdata", str(sweep), "--reference", "fci",
                     "--output", str(tmp_path / "long.csv")]) == 2
        assert capsys.readouterr().err == f"error: {sweep}{message}\n"

    def test_mismatched_sectors_exit_2(self, tmp_path):
        out_dir = self._run_dimer(tmp_path, solvers='["fci", "sqd"]')
        csvs = sorted(str(p) for p in out_dir.glob("sweep_*.csv"))
        keep = [c for c in csvs if "sqd_Ne.csv" in c or "fci" in c]
        assert main(["plotdata", *keep, "--reference", "sqd",
                     "--output", str(tmp_path / "x.csv")]) == 2


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout


class TestImportCost:
    def test_import_does_not_load_sparse_linalg(self):
        """scipy.sparse.linalg adds about 12 ms of import time after
        ``import hsqd`` (2 vCPUs), and no part of the package uses it."""
        out = run_fresh("import sys, hsqd, hsqd.cli; print('scipy.sparse.linalg' in sys.modules)")
        assert out.strip() == "False"

    def test_run_above_the_dense_path_does_not_load_sparse_linalg(self, tmp_path):
        """Every FCI sector of the 7-site chain at N = 6 (d = 735-1,225) is
        above ``DENSE_FALLBACK_DIM``, so each takes the Lanczos path; that
        path used to import scipy.sparse.linalg for ARPACK."""
        config = write_chain7(tmp_path, tmp_path / "out")
        out = run_fresh(
            "import sys\n"
            "from hsqd.cli import main\n"
            f"code = main(['run', {str(config)!r}])\n"
            "print(code, 'scipy.sparse.linalg' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "0 False"

    def test_state_build_needs_no_matrix_functions(self, tmp_path):
        """The dimer run builds its LUCJ states without logm or expm; the
        first logm call imports scipy.special, which costs about 0.1 s and
        which nothing else in ``hsqd run`` loads."""
        config = Path(__file__).resolve().parents[1] / "configs" / "dimer.toml"
        out = run_fresh(
            "import sys, scipy.linalg\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('matrix function called')\n"
            "scipy.linalg.logm = scipy.linalg.expm = refuse\n"
            "from hsqd.cli import main\n"
            f"code = main(['run', {str(config)!r}, '--out-dir', {str(tmp_path)!r}])\n"
            "print(code, 'scipy.special' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "0 False"


class TestBenchmarkTracer:
    def test_install_finds_every_traced_name(self):
        """``benchmark/tracer.py`` looks its spans and kernel counters up by
        name on the package modules; a name that is gone fails here, not
        only in a traced benchmark run."""
        bench = str(Path(__file__).resolve().parents[1] / "benchmark")
        out = run_fresh(f"import sys; sys.path.insert(0, {bench!r})\n"
                        "from tracer import Tracer\n"
                        "Tracer().install()\n"
                        "print('installed')\n")
        assert out.strip() == "installed"

    def test_traced_run_gives_every_layer(self, tmp_path):
        """The tracer's callbacks read result attributes (``.size``,
        ``.dimension``, ``.shots``, ``.counts``, ``.iterations``, ``.nnz``)
        only while a traced run makes its calls; each per-layer figure that
        ``BENCHMARK.json`` names is then there and finite, except the
        overhead that ``benchmark/run.py`` adds itself."""
        root = Path(__file__).resolve().parents[1]
        layers = [layer["name"] for layer in
                  json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
        config = root / "configs" / "dimer.toml"
        out = run_fresh(f"import json, sys; sys.path.insert(0, {str(root / 'benchmark')!r})\n"
                        "import hsqd.cli\n"
                        "from tracer import ROOT_SPAN, Tracer\n"
                        "tracer = Tracer()\n"
                        "tracer.install()\n"
                        "run = tracer.span(ROOT_SPAN, hsqd.cli.main)\n"
                        f"code = run(['run', {str(config)!r}, '--out-dir', {str(tmp_path)!r}])\n"
                        "print(json.dumps([code, tracer.metrics()]))\n")
        code, metrics = json.loads(out.splitlines()[-1])
        assert code == 0
        for name in layers:
            if name != "trace.overhead_s":
                assert np.isfinite(metrics[name]), name
