#!/usr/bin/env python3
"""Wall time and peak memory of the scale configs, one fresh process a run.

    python3 scripts/scale_bench.py [--repeats N] [--parent DIR]
    python3 scripts/scale_bench.py --write-fci

Runs ``hsqd run`` on each of ``CONFIGS`` (from this checkout's ``configs/``)
``--repeats`` times, each run in a fresh Python process whose ``PYTHONPATH``
is this checkout's ``src``.  With ``--parent DIR`` (a git checkout, such as a
``git clone`` of the parent commit), every run is paired with one on DIR's
``src``, on the same config, the two in alternating order.

Each run records the child's wall time (interpreter start, imports and the
run), its own peak resident memory (``VmHWM``, read from
``/proc/self/status`` just before it exits), ``manifest.json``'s
``stage_seconds`` and ``eigensolve_iterations``, and the SHA-256 of
``gap_report.json``.  Every energy in ``gap_report.json`` and the sweep CSVs
must be at least E_FCI - 1e-9 eV, by ``FCI_FILE``; every run must exit 0;
and ``gap_report.json`` must have the same bytes on every run of a config.
One ``BENCH_<sha>.json`` per checkout goes to this checkout's root, named by
the checkout's 12-digit commit, with ``-dirty`` when its ``src`` differs from
that commit.  It records the commit, the SHA-256 and
line count of ``src/hsqd``, ``nproc``, the Python, NumPy and SciPy versions
and the BLAS thread variables.  Exits 1 on any failed check, after writing.

``--write-fci`` runs ``fci`` on the lattice of each config instead and
writes the three sector energies of each lattice to ``FCI_FILE``.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("chain10uv_sqd", "chain10uv_hci", "chain10uv_extsqd", "chain12uv_sqd", "chain10uv_hci3")
FCI_FILE = ROOT / "configs" / "fci_energies.json"
TOLERANCE = 1e-9  # eV
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the child: one run, then its own peak memory, written beside the artifacts
CHILD = """
import json, sys
from pathlib import Path
import hsqd
from hsqd.cli import main
config, out, extra = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
code = main(["run", config, "--out-dir", str(out), *extra])
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
result = {"exit": code, "vmhwm_kb": int(status["VmHWM"].split()[0]), "hsqd": hsqd.__file__}
(out / "child.json").write_text(json.dumps(result))
"""


def run_child(src: Path, config: Path, out: Path, extra=()) -> dict:
    """One ``hsqd run`` of ``config`` into ``out`` on the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(config), str(out), *extra],
                          env=env, cwd=out.parent, capture_output=True, text=True)
    wall = time.perf_counter() - start
    try:
        child = json.loads((out / "child.json").read_text())
    except FileNotFoundError:
        raise SystemExit(f"{config.name} on {src}: no result\n{proc.stderr}")
    if Path(child["hsqd"]).resolve().parent != (src / "hsqd").resolve():
        raise SystemExit(f"{config.name}: imported hsqd from {child['hsqd']}, not from {src}")
    return {"exit": child["exit"], "wall_s": round(wall, 3),
            "vmhwm_mb": round(child["vmhwm_kb"] / 1024, 1), "stderr": proc.stderr}


def sweep_energies(out: Path) -> list[tuple[str, str, float]]:
    """Every (solver, sector, energy) row of a run's sweep CSVs."""
    found = []
    for path in sorted(out.glob("sweep_*.csv")):
        with open(path, newline="") as fh:
            found += [(row["solver"], row["sector"], float(row["energy"])) for row in csv.DictReader(fh)]
    return found


def energies(out: Path) -> list[tuple[str, str, float]]:
    """Every (solver, sector, energy) of a run's gap report and sweep CSVs."""
    report = json.loads((out / "gap_report.json").read_text())
    return [(solver, sector, e) for sector, entry in report["sectors"].items()
            for solver, e in entry["energies"].items()] + sweep_energies(out)


def material(config: Path) -> str:
    """The lattice file stem of ``config``, which names its FCI energies."""
    return Path(tomllib.loads(config.read_text())["lattice_path"]).stem


def checkout(root: Path) -> dict:
    """Commit, source digest and size of the checkout at ``root``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    files = sorted((root / "src" / "hsqd").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"git_sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src")),
            "src_hsqd_sha256": digest.hexdigest(),
            "src_hsqd_lines": sum(len(p.read_text().splitlines()) for p in files)}


def write_fci(work: Path) -> None:
    """FCI energies of each config's lattice, from ``fci`` runs of it."""
    table = {}
    for name in CONFIGS:
        config = ROOT / "configs" / f"{name}.toml"
        if material(config) in table:
            continue
        out = work / material(config)
        out.mkdir()
        run = run_child(ROOT / "src", config, out, ("--solver", "fci"))
        if run["exit"] != 0:
            raise SystemExit(f"fci on {config.name} exited {run['exit']}\n{run['stderr']}")
        rows = {sector: e for _, sector, e in sweep_energies(out)}  # 12 decimals, not 9
        table[material(config)] = {sector: rows[sector] for sector in ("Ne-1", "Ne", "Ne+1")}
        print(f"{material(config)}: {table[material(config)]} ({run['wall_s']} s)")
    FCI_FILE.write_text(json.dumps(table, indent=1) + "\n")


def bench_run(src: Path, config: Path, out: Path, floor: dict, label: str) -> tuple[dict, list[str]]:
    """One timed run of ``config`` on ``src``, and what it failed: its exit
    code, or an energy below the sectors' FCI energies ``floor``."""
    run = run_child(src, config, out)
    if run.pop("exit") != 0:
        return run, [f"{label}: exit code not 0\n{run['stderr']}"]
    del run["stderr"]
    manifest = json.loads((out / "manifest.json").read_text())
    run["stage_seconds"] = manifest["stage_seconds"]
    run["eigensolve_iterations"] = manifest["eigensolve_iterations"]
    run["gap_report_sha256"] = hashlib.sha256((out / "gap_report.json").read_bytes()).hexdigest()
    return run, [f"{label}: {solver} {sector} energy {e} below FCI {floor[sector]}"
                 for solver, sector, e in energies(out) if e < floor[sector] - TOLERANCE]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--parent", type=Path, help="a git checkout to pair every run with")
    parser.add_argument("--write-fci", action="store_true", help=f"write {FCI_FILE.name} and stop")
    args = parser.parse_args()
    sides = [ROOT] + ([args.parent.resolve()] if args.parent else [])
    results = {side: {name: [] for name in CONFIGS} for side in sides}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        if args.write_fci:
            write_fci(Path(tmp))
            return 0
        fci = json.loads(FCI_FILE.read_text())
        for repeat in range(args.repeats):
            for name in CONFIGS:
                config = ROOT / "configs" / f"{name}.toml"
                # alternate which checkout goes first, so that drift favours neither
                for side in (sides if repeat % 2 == 0 else sides[::-1]):
                    out = Path(tmp) / f"{name}-{repeat}-{sides.index(side)}"
                    out.mkdir()
                    label = f"{name} on {side} (repeat {repeat + 1})"
                    run, failed = bench_run(side / "src", config, out, fci[material(config)], label)
                    problems += failed
                    results[side][name].append(run)
                    print(f"{label}: {run['wall_s']} s, {run['vmhwm_mb']} MB", flush=True)
    for name in CONFIGS:
        if len({run["gap_report_sha256"] for side in sides for run in results[side][name]
                if "gap_report_sha256" in run}) > 1:
            problems.append(f"{name}: gap_report.json differs between runs")
    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_env": {var: os.environ.get(var) for var in BLAS_VARS}}
    meta = {side: checkout(side) for side in sides}
    for side in sides:
        runs = results[side]
        bench = {**meta[side], **host, "repeats": args.repeats,
                 "paired_with": [meta[s]["git_sha"] for s in sides if s != side],
                 "configs": {name: {"median_wall_s": statistics.median(r["wall_s"] for r in runs[name]),
                                    "median_vmhwm_mb": statistics.median(r["vmhwm_mb"] for r in runs[name]),
                                    "runs": runs[name]} for name in CONFIGS}}
        sha = meta[side]["git_sha"][:12] + ("-dirty" if meta[side]["dirty"] else "")
        (ROOT / f"BENCH_{sha}.json").write_text(json.dumps(bench, indent=1) + "\n")
        print(f"wrote BENCH_{sha}.json")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
