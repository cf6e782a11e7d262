import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsqd import (
    LatticeHamiltonian,
    load_lattice,
    read_fcidump,
    save_lattice,
)
from hsqd.cli import main

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

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["convert", str(tmp_path / "nope.json"), str(tmp_path / "o.fcidump")]) == 2


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

    def test_manifest_hashes_inputs(self, tmp_path):
        import hashlib

        lattice = write_dimer(tmp_path)
        out_dir = tmp_path / "out_h"
        config = write_config(tmp_path, lattice, out_dir)
        assert main(["run", str(config), "--solver", "fci"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        want = hashlib.sha256(lattice.read_bytes()).hexdigest()
        assert manifest["input_hashes"][str(lattice)] == want
        assert manifest["tool_version"]

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

    def test_mismatched_sectors_exit_2(self, tmp_path):
        out_dir = self._run_dimer(tmp_path, solvers='["fci", "sqd"]')
        csvs = sorted(str(p) for p in out_dir.glob("sweep_*.csv"))
        keep = [c for c in csvs if "sqd_Ne.csv" in c or "fci" in c]
        assert main(["plotdata", *keep, "--reference", "sqd",
                     "--output", str(tmp_path / "x.csv")]) == 2


class TestImportCost:
    def test_import_does_not_load_sparse_linalg(self):
        """scipy.sparse.linalg costs about half a second of import time, which
        every ``hsqd`` invocation would pay before doing any work."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, hsqd, hsqd.cli; print('scipy.sparse.linalg' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"
