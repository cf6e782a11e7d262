#!/usr/bin/env python3
"""Error-vs-fraction study on the six-site half-filled chain.

Simulates ansatz sampling, sweeps the subspace fraction in each charge
sector, expands the intermediate subspace by single excitations, and writes
the sweep CSVs plus a merged long-format table under out/chain6_sweep/.
"""

import sys
from pathlib import Path

from hsqd import WorkflowConfig, run_workflow
from hsqd.cli import _write_sweep_csvs, build_parser, cmd_plotdata

ROOT = Path(__file__).resolve().parent.parent
LATTICE = ROOT / "lattices" / "chain6.json"
OUT = Path("out/chain6_sweep")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    config = WorkflowConfig(
        lattice_path=str(LATTICE),
        n_electrons=6,
        solvers=("fci", "hci", "sqd", "extsqd"),
        fractions=(0.05, 0.1, 0.2, 0.4, 0.7, 1.0),
        extsqd_threshold=1e-4,
        extsqd_levels=(1,),
        shots=2_500_000,
        seed=7,
        out_dir=str(OUT),
    )
    report, runs = run_workflow(config)
    e_fci = {label: report.sector_energies[label]["fci"] for label in report.sector_energies}

    csv_paths = [str(path) for path in _write_sweep_csvs(OUT, runs)]

    parser = build_parser()
    args = parser.parse_args(
        ["plotdata", *csv_paths, "--reference", "fci", "--output", str(OUT / "error_table.csv")]
    )
    cmd_plotdata(args)

    print("\nper-sector errors vs FCI (solver @ largest point):")
    for solver, sector_runs in runs.items():
        for run in sector_runs:
            if run.error or not run.points:
                continue
            last = run.points[-1]
            print(f"  {solver:<7} {run.sector:<5} fraction={last[0]:<8.4g} "
                  f"d={last[1]:<4d} error={last[2] - e_fci[run.sector]:+.3e}")
    for solver, gap in report.gaps.items():
        print(f"gap[{solver}] = {gap:.9f} eV")


if __name__ == "__main__":
    sys.exit(main())
