"""Correctness gate on the artifacts of one ``hsqd run``.

References live in ``references.json``, one entry per workload:
``fci`` holds the seed-independent full-CI energy and ``dim`` the dimension
of each sector; ``points`` holds every sweep point, and ``gaps`` every gap,
produced at the workload's default seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from hsqd.bandgap import SECTOR_LABELS as SECTORS

TOL_EV = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def read_outputs(out_dir: Path, solvers) -> tuple[dict, dict[str, list[dict]]]:
    """The gap report and every sweep CSV of a run, keyed ``solver/sector``."""
    report = json.loads((out_dir / "gap_report.json").read_text())
    points = {}
    for solver in solvers:
        for sector in SECTORS:
            path = out_dir / f"sweep_{solver}_{sector}.csv"
            if path.exists():
                with open(path, newline="") as fh:
                    points[f"{solver}/{sector}"] = [
                        {"fraction": float(r["fraction"]), "d": int(r["d"]),
                         "energy": float(r["energy"]), "converged": int(r["converged"])}
                        for r in csv.DictReader(fh)
                    ]
    return report, points


def check_run(out_dir: Path, solvers, ref: dict, exact: bool) -> dict[str, str]:
    """Failed ``solver/sector`` runs of one output directory, with the reason.

    ``exact`` compares every sweep point and gap with the default-seed
    references; at any seed, FCI energies must match their references and
    every other energy must be variational with respect to them, and equal
    to them where the subspace is the whole sector.
    """
    if not (out_dir / "gap_report.json").exists():
        return {f"{solver}/{sector}": "no gap_report.json" for solver in solvers for sector in SECTORS}
    report, points = read_outputs(out_dir, solvers)
    failed: dict[str, str] = {}
    for solver in solvers:
        for sector in SECTORS:
            key = f"{solver}/{sector}"
            if key in report["failures"]:
                failed[key] = report["failures"][key]
                continue
            rows = points.get(key)
            if not rows:
                failed[key] = "no sweep CSV"
                continue
            e_fci = ref["fci"][sector]
            for row in rows:
                energy = row["energy"]
                if not row["converged"]:
                    failed[key] = f"unconverged at fraction {row['fraction']}"
                elif solver == "fci" and abs(energy - e_fci) > TOL_EV:
                    failed[key] = f"FCI energy {energy} != reference {e_fci}"
                elif energy < e_fci - TOL_EV:
                    failed[key] = f"energy {energy} below FCI {e_fci}"
                elif row["d"] == ref["dim"][sector] and abs(energy - e_fci) > TOL_EV:
                    failed[key] = f"full-sector energy {energy} != FCI {e_fci}"
            if exact and key not in failed:
                expected = ref["points"][key]
                got = [[r["fraction"], r["d"], r["energy"], r["converged"]] for r in rows]
                if len(got) != len(expected) or any(
                    g[1] != e[1] or g[3] != e[3] or abs(g[2] - e[2]) > TOL_EV
                    for g, e in zip(got, expected)
                ):
                    failed[key] = f"sweep {got} != reference {expected}"
    if exact:
        for solver, gap in ref["gaps"].items():
            got = report["gaps"].get(solver)
            if got is None or abs(got - gap) > TOL_EV:
                for sector in SECTORS:
                    failed.setdefault(f"{solver}/{sector}", f"gap {got} != reference {gap}")
    return failed
