"""Regenerate ``references.json`` from the program at its current commit.

    python3 benchmark/make_references.py [WORKLOAD ...]

For each workload (default: all), runs ``hsqd run`` on the inputs of its
default seed and records every sweep point and gap, then runs the FCI solver
alone on the same inputs and records each sector's energy and dimension.
Run it only when a change is meant to alter the energies, and say so.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hsqd.cli  # noqa: E402
from gate import REFERENCES, SECTORS, read_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_for(workload, work: Path) -> dict:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    config = workload.make_inputs(ROOT, inputs, workload.default_seed)
    solvers = hsqd.cli.config_from_file(config).solvers
    for out, extra in ((work / "all", []), (work / "fci", ["--solver", "fci"])):
        if hsqd.cli.main(["run", str(config), "--out-dir", str(out), *extra]) != 0:
            raise SystemExit(f"{workload.name}: hsqd run failed")
    report, points = read_outputs(work / "all", solvers)
    _, fci = read_outputs(work / "fci", ["fci"])
    return {
        "seed": workload.default_seed,
        "fci": {s: fci[f"fci/{s}"][0]["energy"] for s in SECTORS},
        "dim": {s: fci[f"fci/{s}"][0]["d"] for s in SECTORS},
        "gaps": report["gaps"],
        "points": {
            key: [[r["fraction"], r["d"], r["energy"], r["converged"]] for r in rows]
            for key, rows in points.items()
        },
    }


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    work = ROOT / ".bench_work" / "references"
    for name in names:
        shutil.rmtree(work, ignore_errors=True)
        try:
            refs[name] = reference_for(WORKLOADS[name], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(refs[name]['points'])} solver/sector runs recorded")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
