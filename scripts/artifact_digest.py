#!/usr/bin/env python3
"""SHA-256 digests of the artifacts ``hsqd run`` writes on a fixed set of cases.

    PYTHONPATH=src python3 scripts/artifact_digest.py
    PYTHONPATH=src python3 scripts/artifact_digest.py --keep DIR
    python3 scripts/artifact_digest.py --compare PARENT_DIR CHANGE_DIR

Runs the shipped configs (``configs/dimer.toml``, ``configs/chain10uv_hci.toml``,
``configs/chain10uv_sqd.toml``, and ``configs/chain6.toml`` as shipped, in the
non-interacting ``TB`` mode and in ``V`` mode) and the benchmark workloads
``chain8_fci_sqd`` (seed 7) and ``chain6uv_hw`` (seeds 11 and 29), whose inputs come from
``benchmark/workloads.py``.  Prints one digest per run, over
``gap_report.json`` and the sweep CSVs but not ``manifest.json`` (which holds
timings and paths), then one digest over all runs.  A change that must not
change the program's output leaves every digest as it is.

Everything is written to a temporary directory, or with ``--keep DIR`` to
``DIR/<case>/``, which is kept.  The package is whichever ``hsqd`` is on
``PYTHONPATH``, so one copy of this script can keep the artifacts of two
checkouts.  ``--compare`` then reads two kept directories and lists every
field that differs.  It exits 1 if any ``gap_report.json`` differs by a
byte, or if any sweep-CSV field differs other than ``residual`` and a
``variance`` below ``VARIANCE_FLOOR`` in magnitude on both sides; those two
are round-off wherever the energies agree.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_CASES = (
    ("dimer", "dimer", ()),
    ("chain6", "chain6", ()),
    ("chain6_TB", "chain6", ("--mode", "TB")),
    ("chain6_V", "chain6", ("--mode", "V")),
    ("chain10uv_hci", "chain10uv_hci", ()),
    ("chain10uv_sqd", "chain10uv_sqd", ()),
)
WORKLOAD_CASES = (("chain8_fci_sqd", 7), ("chain6uv_hw", 11), ("chain6uv_hw", 29))
VARIANCE_FLOOR = 1e-10


def run_digest(config: Path, out_dir: Path, extra: tuple[str, ...]) -> tuple[int, str]:
    """Exit code of one ``hsqd run`` and the digest of its artifacts."""
    from hsqd.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(config), "--out-dir", str(out_dir), *extra])
    h = hashlib.sha256()
    for path in [out_dir / "gap_report.json", *sorted(out_dir.glob("sweep_*.csv"))]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return code, h.hexdigest()


def digest_all(keep: Path | None) -> None:
    # import the benchmark's workload module without writing bytecode into the tree
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workloads import WORKLOADS

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="hsqd-artifacts-") as tmp:
        out = Path(tmp) / "out" if keep is None else keep
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
            code, digest = run_digest(config, out / name, extra)
            print(f"{digest}  {name} (exit {code})")
            total.update(f"{name} {code} {digest}\n".encode())
    print(f"{total.hexdigest()}  all")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tolerated(field: str, old: str, new: str) -> bool:
    if field == "residual":
        return True
    if field == "variance" and old and new:
        return max(abs(float(old)), abs(float(new))) < VARIANCE_FLOOR
    return False


def compare(parent: Path, change: Path) -> int:
    """Print every artifact field that differs between two ``--keep``
    directories; 1 if any difference is not tolerated, else 0."""
    failed = False

    def report(where: str, what: str, tolerated: bool) -> None:
        nonlocal failed
        failed |= not tolerated
        print(f"{'round-off' if tolerated else 'DIFFERS':9s}  {where}: {what}")

    cases = sorted({p.name for d in (parent, change) for p in d.iterdir() if p.is_dir()})
    for case in cases:
        a, b = parent / case, change / case
        names = sorted({p.name for d in (a, b) if d.is_dir() for p in d.iterdir()
                        if p.name == "gap_report.json" or p.name.startswith("sweep_")})
        if not names:
            report(case, "no artifacts on one side", False)
        for name in names:
            where = f"{case}/{name}"
            if not ((a / name).exists() and (b / name).exists()):
                report(where, "present on one side only", False)
            elif name == "gap_report.json":
                if (a / name).read_bytes() != (b / name).read_bytes():
                    report(where, "bytes differ", False)
            else:
                old, new = _read_csv(a / name), _read_csv(b / name)
                if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
                    report(where, f"{len(old)} rows against {len(new)}, or other columns", False)
                    continue
                for i, (row_a, row_b) in enumerate(zip(old, new)):
                    for field in row_a:
                        if row_a[field] != row_b[field]:
                            report(f"{where} row {i + 1} {field}",
                                   f"{row_a[field]!r} -> {row_b[field]!r}",
                                   _tolerated(field, row_a[field], row_b[field]))
    print("artifacts differ" if failed else "artifacts agree")
    return int(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", type=Path, metavar="DIR",
                      help="write the artifacts to DIR/<case>/ and keep them")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                      help="list the fields that differ between two --keep directories")
    args = parser.parse_args()
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        parser.error(f"--keep {args.keep}: not empty, and stale artifacts would mix in")
    if args.compare:
        return compare(*args.compare)
    digest_all(args.keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
