#!/usr/bin/env python3
"""SHA-256 digests of the artifacts ``hsqd run`` writes on a fixed set of cases.

    PYTHONPATH=src python3 scripts/artifact_digest.py

Runs the shipped configs (``configs/dimer.toml``, and ``configs/chain6.toml``
as shipped, in the non-interacting ``TB`` mode and in ``V`` mode) and the
benchmark workloads ``chain8_fci_sqd`` (seed 7) and ``chain6uv_hw`` (seeds 11
and 29), whose inputs come from ``benchmark/workloads.py``.  Everything is
written to a temporary directory.  Prints one digest per run, over
``gap_report.json`` and the sweep CSVs but not ``manifest.json`` (which holds
timings and paths), then one digest over all runs.  A change that must not
change the program's output leaves every digest as it is.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

# import the benchmark's workload module without writing bytecode into the tree
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

from hsqd.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONFIG_CASES = (
    ("dimer", "dimer", ()),
    ("chain6", "chain6", ()),
    ("chain6_TB", "chain6", ("--mode", "TB")),
    ("chain6_V", "chain6", ("--mode", "V")),
)
WORKLOAD_CASES = (("chain8_fci_sqd", 7), ("chain6uv_hw", 11), ("chain6uv_hw", 29))


def run_digest(config: Path, out_dir: Path, extra: tuple[str, ...]) -> tuple[int, str]:
    """Exit code of one ``hsqd run`` and the digest of its artifacts."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(config), "--out-dir", str(out_dir), *extra])
    h = hashlib.sha256()
    for path in [out_dir / "gap_report.json", *sorted(out_dir.glob("sweep_*.csv"))]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return code, h.hexdigest()


def digest_all() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="hsqd-artifacts-") as tmp:
        cases = [
            (name, ROOT / "configs" / f"{config}.toml", extra)
            for name, config, extra in CONFIG_CASES
        ]
        for workload, seed in WORKLOAD_CASES:
            name = f"{workload}_s{seed}"
            inputs = Path(tmp) / "inputs" / name
            inputs.mkdir(parents=True)
            cases.append((name, WORKLOADS[workload].make_inputs(ROOT, inputs, seed), ()))
        for name, config, extra in cases:
            code, digest = run_digest(config, Path(tmp) / "out" / name, extra)
            print(f"{digest}  {name} (exit {code})")
            total.update(f"{name} {code} {digest}\n".encode())
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    digest_all()
