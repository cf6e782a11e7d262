"""Command-line front end.

Subcommands:
  convert   lattice JSON <-> FCIDUMP
  sample    build the ansatz state for a sector and write a sample file
  run       execute the full band-gap workflow from a config file
  plotdata  merge sweep CSVs into one long-format error table

Exit codes: 0 success, 2 input/validation error, 3 resource cap exceeded,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import tomllib
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .bandgap import (
    MODES,
    SOLVERS,
    WorkflowConfig,
    _simulate_sector_samples,
    run_workflow,
)
from .errors import ConvergenceError, HsqdError, ValidationError
from .fcidump import read_fcidump, write_fcidump
from .model import (
    SectorSpec,
    _boolean,
    _integer,
    _number,
    _string,
    lattice_from_electronic,
    load_lattice,
    map_to_electronic,
    read_text,
    rotate_basis,
    save_lattice,
)
from .reference import check_layers, solve_mean_field
from .statevector import check_sampling, save_samples

SWEEP_FIELDS = ("fraction", "d", "energy", "residual", "variance", "converged")
# the columns plotdata reads from each sweep CSV; a missing one exits 2
PLOT_FIELDS = ("solver", "sector", "fraction", "d", "energy")
SAMPLE_KEYS = {"Ne-1": "samples_neminus1", "Ne": "samples_ne", "Ne+1": "samples_neplus1"}
READERS = {str: _string, bool: _boolean, int: _integer, float: _number}


def config_reader(tp):
    """The reader of a config value whose ``WorkflowConfig`` field has type
    ``tp``: ``str``, ``bool``, ``int``, ``float``, ``T | None`` or
    ``tuple[T, ...]``, where a lone item stands for a list of one."""
    args = get_args(tp)
    if get_origin(tp) is tuple and args[1:] == (Ellipsis,):
        item = config_reader(args[0])
        return lambda path, key, value: tuple(
            item(path, key, x) for x in (value if isinstance(value, list) else [value]))
    if get_origin(tp) is UnionType and args[1:] == (type(None),):
        return config_reader(args[0])
    if tp not in READERS:
        raise TypeError(f"no config reader for field type {tp!r}")
    return READERS[tp]


# each config key's reader, chosen by the type of its WorkflowConfig field;
# the sample-file keys fill samples_files, which no key sets directly
CONFIG_READERS = {
    name: config_reader(tp) for name, tp in get_type_hints(WorkflowConfig).items()
    if name != "samples_files"
} | dict.fromkeys(SAMPLE_KEYS.values(), _string)
CONFIG_KEYS = set(CONFIG_READERS)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def config_from_file(path, overrides: dict | None = None) -> WorkflowConfig:
    try:
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ValidationError(f"{path}: invalid TOML: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {path}: {exc}") from exc
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    for f in fields(WorkflowConfig):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{path}: missing {f.name}")
    values = {key: CONFIG_READERS[key](path, key, value) for key, value in raw.items()}
    # input paths are relative to the config's directory
    for key in ("lattice_path", *SAMPLE_KEYS.values()):
        if key in values and not os.path.isabs(values[key]):
            values[key] = str((Path(path).parent / values[key]).resolve())
    values["samples_files"] = {label: values.pop(key) for label, key in SAMPLE_KEYS.items()
                               if key in values}
    try:
        return WorkflowConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_manifest(out_dir: Path, config: WorkflowConfig, config_path, report, runs) -> None:
    inputs = [str(Path(config_path).resolve()), config.lattice_path, *config.samples_files.values()]
    manifest = {
        "tool_version": __version__,
        "config": asdict(config),
        "input_hashes": {p: _sha256(p) for p in inputs if os.path.exists(p)},
        "samples": report.samples,
        # per solver and sector, the matvecs of each sweep row's eigensolve
        "eigensolve_iterations": {solver: {run.sector: run.iterations for run in sector_runs
                                           if run.error is None}
                                  for solver, sector_runs in runs.items()},
        "stage_seconds": report.stage_seconds,
        "created_unix": time.time(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


# ---------------------------- convert ----------------------------


def cmd_convert(args) -> int:
    src = Path(args.input)
    dst = Path(args.output)
    to_fcidump = args.to == "fcidump" if args.to else dst.suffix.lower() not in (".json",)
    if to_fcidump:
        lat = load_lattice(src)
        ints = map_to_electronic(lat, literal_2u=args.literal_2u)
        nelec = args.nelec if args.nelec is not None else 0
        write_fcidump(ints, dst, nelec=nelec)
        nnz_one = int(np.count_nonzero(ints.one_body))
        nnz_two = int(np.count_nonzero(ints.two_body_opposite_spin))
        print(f"wrote {dst}: M={ints.n_orbitals}, one-body nnz={nnz_one}, two-body nnz={nnz_two}")
    else:
        ints = read_fcidump(src)
        lat = lattice_from_electronic(ints)
        save_lattice(lat, dst)
        nnz_hop = int(np.count_nonzero(lat.hopping))
        nnz_v = int(np.count_nonzero(lat.v_inter))
        print(f"wrote {dst}: M={lat.n_orbitals}, hopping nnz={nnz_hop}, inter-site nnz={nnz_v}")
    return 0


# ---------------------------- sample ----------------------------


def cmd_sample(args) -> int:
    check_sampling(args.shots, args.seed)
    check_layers(args.layers)
    lat = load_lattice(args.lattice).to_ev()
    # the sectors are checked before the M^4 integrals are allocated
    spec = SectorSpec(lat.n_orbitals, args.n_alpha, args.n_beta)
    n_pairs = min(args.n_alpha, args.n_beta)
    neutral = SectorSpec(lat.n_orbitals, n_pairs, n_pairs)
    ints = map_to_electronic(lat)
    mf = solve_mean_field(ints, neutral)
    mo = rotate_basis(ints, mf.orbital_coefficients)
    samples = _simulate_sector_samples(mo, mf, spec, neutral, args.layers, args.shots, args.seed)
    save_samples(samples, args.output)
    print(f"wrote {args.output}: {len(samples.counts)} distinct bitstrings, {samples.shots} shots")
    return 0


# ---------------------------- run ----------------------------


def _write_sweep_csvs(out_dir: Path, runs) -> None:
    for solver, sector_runs in runs.items():
        for run in sector_runs:
            if run.error is not None or not run.points:
                continue
            path = out_dir / f"sweep_{solver}_{run.sector}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("solver", "sector") + SWEEP_FIELDS)
                for fraction, d, energy, residual, variance, converged in run.points:
                    writer.writerow([
                        solver, run.sector, f"{fraction:.12g}", d,
                        f"{energy:.12f}", f"{residual:.6e}",
                        "" if variance is None else f"{variance:.6e}",
                        int(bool(converged)),
                    ])


def cmd_run(args) -> int:
    overrides = {"mode": args.mode, "extsqd_threshold": args.threshold,
                 "out_dir": args.out_dir, "solvers": args.solver}
    if args.fractions:
        try:
            overrides["fractions"] = [float(x) for x in args.fractions.split(",")]
        except ValueError:
            raise ValidationError(f"--fractions must be comma-separated numbers, "
                                  f"got {args.fractions!r}") from None
    config = config_from_file(args.config, overrides)
    if config.out_dir is None:
        raise ValidationError("out_dir required (config key out_dir or flag --out-dir)")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, runs = run_workflow(config)
    with open(out_dir / "gap_report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
        fh.write("\n")
    _write_sweep_csvs(out_dir, runs)
    _write_manifest(out_dir, config, args.config, report, runs)
    for solver, gap in report.gaps.items():
        print(f"gap[{solver}] = {gap:.9f} eV")
    print(f"single-particle gap = {report.single_particle_gap:.9f} eV")
    # the largest code among the recorded failures and non-convergence, so
    # caps alone exit 3 and any solver failure still exits 4
    codes = [0]
    for key, msg in report.failures.items():
        print(f"FAILED {key}: {msg}", file=sys.stderr)
    for solver, sector_runs in runs.items():
        for run in sector_runs:
            if run.error is not None:
                codes.append(run.error.exit_code)
            if not all(point[5] for point in run.points):
                print(f"UNCONVERGED {solver}/{run.sector}", file=sys.stderr)
                codes.append(ConvergenceError.exit_code)
    return max(codes)


# ---------------------------- plotdata ----------------------------


def cmd_plotdata(args) -> int:
    rows = []
    for path in args.csvs:
        reader = csv.DictReader(io.StringIO(read_text(path)), restval="")
        missing = [key for key in PLOT_FIELDS if key not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            for key in ("fraction", "energy"):
                try:
                    value = float(rec[key])
                except ValueError:
                    value = rec[key]  # not a number, which _number reports
                _number(f"{path}:{reader.line_num}", key, value)
            rows.append(rec)
    if not rows:
        raise ValidationError("no sweep rows found")
    reference = args.reference
    by_solver_sector: dict[tuple[str, str], list[dict]] = {}
    for rec in rows:
        key = (rec["solver"], rec["sector"])
        by_solver_sector.setdefault(key, []).append(rec)
    ref_sectors = {sector for solver, sector in by_solver_sector if solver == reference}
    if not ref_sectors:
        raise ValidationError(f"reference solver {reference!r} not present in the sweep data")
    all_sectors = {sector for _, sector in by_solver_sector}
    if all_sectors != ref_sectors:
        raise ValidationError(
            f"sector labels {sorted(all_sectors)} do not match reference sectors {sorted(ref_sectors)}"
        )
    # reference energy per (sector, fraction); final (largest-fraction) row as fallback
    ref_at: dict[tuple[str, str], float] = {}
    ref_final: dict[str, float] = {}
    for (solver, sector), recs in by_solver_sector.items():
        if solver != reference:
            continue
        best = max(recs, key=lambda r: float(r["fraction"]))
        ref_final[sector] = float(best["energy"])
        for rec in recs:
            ref_at[(sector, rec["fraction"])] = float(rec["energy"])
    out = Path(args.output)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("solver", "sector", "fraction", "d", "energy", "reference_energy", "error"))
        for (solver, sector), recs in sorted(by_solver_sector.items()):
            for rec in sorted(recs, key=lambda r: float(r["fraction"])):
                ref_e = ref_at.get((sector, rec["fraction"]), ref_final[sector])
                energy = float(rec["energy"])
                writer.writerow([
                    solver, sector, rec["fraction"], rec["d"],
                    f"{energy:.12f}", f"{ref_e:.12f}", f"{energy - ref_e:.12e}",
                ])
    print(f"wrote {out}")
    return 0


# ---------------------------- parser ----------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsqd",
        description="Ground states and direct band gaps of extended-Hubbard "
                    "lattice Hamiltonians via sample-driven subspace diagonalization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert lattice JSON <-> FCIDUMP")
    p.add_argument("input", help="input file (lattice JSON or FCIDUMP)")
    p.add_argument("output", help="output file")
    p.add_argument("--to", choices=("fcidump", "lattice"), default=None,
                   help="output format (default: inferred from the output suffix)")
    p.add_argument("--literal-2u", action="store_true",
                   help="store the on-site coefficient as 2U (published-table convention) "
                        "instead of the operator-exact U")
    p.add_argument("--nelec", type=int, default=None, help="NELEC header value for FCIDUMP output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("sample", help="simulate ansatz sampling and write a sample file")
    p.add_argument("lattice", help="lattice JSON file")
    p.add_argument("output", help="sample file to write")
    p.add_argument("--n-alpha", type=int, required=True)
    p.add_argument("--n-beta", type=int, required=True)
    p.add_argument("--shots", type=int, default=2_500_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("run", help="run the band-gap workflow from a config file")
    p.add_argument("config", help="TOML config file (UTF-8, flat key = value table)")
    p.add_argument("--solver", action="append", choices=SOLVERS, default=None,
                   help="override the solver list (repeatable)")
    p.add_argument("--mode", choices=MODES, default=None, help="interaction mode override")
    p.add_argument("--fractions", default=None, help="comma-separated fraction list override")
    p.add_argument("--threshold", type=float, default=None, help="subspace-expansion threshold override")
    p.add_argument("--out-dir", default=None, help="output directory override")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plotdata", help="merge sweep CSVs into one long error table")
    p.add_argument("csvs", nargs="+", help="sweep CSV files")
    p.add_argument("--reference", default="hci", help="reference solver (default hci)")
    p.add_argument("--output", default="plotdata.csv", help="output CSV path")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HsqdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a cap the estimates missed: the same exit code as a CapExceededError
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        # a LAPACK solve that failed: the same exit code as a ConvergenceError
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
