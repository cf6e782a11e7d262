#!/usr/bin/env python3
"""End-to-end demo on the two-site dimer (t = -1 eV, U = 4 eV).

Runs all four solvers in the three charge sectors with the settings of
``configs/dimer.toml`` and prints the per-sector energies, the assembled
gaps, and the analytic references.

    PYTHONPATH=src python3 scripts/dimer_demo.py
"""

import time
from pathlib import Path

import numpy as np

from hsqd import run_workflow
from hsqd.cli import config_from_file

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "dimer.toml"

U, T = 4.0, -1.0
ANALYTIC = {
    "Ne-1": -abs(T),
    "Ne": (U - np.sqrt(U**2 + 16 * T**2)) / 2,
    "Ne+1": U - abs(T),
}


def main() -> None:
    config = config_from_file(CONFIG)
    t0 = time.time()
    report, _ = run_workflow(config)
    elapsed = time.time() - t0

    print(f"{'sector':<6} {'analytic':>14} " + " ".join(f"{s:>14}" for s in config.solvers))
    for label in ("Ne-1", "Ne", "Ne+1"):
        row = " ".join(f"{report.sector_energies[label][s]:14.9f}" for s in config.solvers)
        print(f"{label:<6} {ANALYTIC[label]:14.9f} {row}")
    gap_exact = ANALYTIC["Ne-1"] + ANALYTIC["Ne+1"] - 2 * ANALYTIC["Ne"]
    print(f"\ngap (analytic) = {gap_exact:.9f} eV")
    for solver, gap in report.gaps.items():
        print(f"gap ({solver:>6}) = {gap:.9f} eV   |delta| = {abs(gap - gap_exact):.2e}")
    print(f"single-particle gap = {report.single_particle_gap:.9f} eV")
    print(f"\nelapsed: {elapsed:.3f} s")


if __name__ == "__main__":
    main()
