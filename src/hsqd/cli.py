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
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bandgap import (
    MODES,
    SECTOR_LABELS,
    SOLVERS,
    WorkflowConfig,
    run_workflow,
    sector_specs,
)
from .errors import ConvergenceError, HsqdError, ValidationError
from .fcidump import read_fcidump, write_fcidump
from .model import (
    lattice_from_electronic,
    load_lattice,
    map_to_electronic,
    save_lattice,
)
from .reference import lucj_from_t2, mp2_doubles, solve_mean_field
from .model import SectorSpec, rotate_basis
from .statevector import build_state, load_samples, sample as draw_samples, save_samples

SWEEP_FIELDS = ("fraction", "d", "energy", "residual", "variance", "converged")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_config(path) -> dict:
    """Flat TOML-style key/value parser (strings, numbers, booleans, arrays)."""
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc

    def scalar(tok: str):
        tok = tok.strip()
        if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
            return tok[1:-1]
        if tok.startswith("'") and tok.endswith("'") and len(tok) >= 2:
            return tok[1:-1]
        low = tok.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        try:
            return int(tok)
        except ValueError:
            pass
        try:
            return float(tok)
        except ValueError:
            raise ValidationError(f"{path}: cannot parse value {tok!r}") from None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if val.startswith("[") and val.endswith("]"):
            inner = val[1:-1].strip()
            values[key] = [scalar(tok) for tok in inner.split(",") if tok.strip()] if inner else []
        else:
            values[key] = scalar(val)
    return values


def config_from_file(path, overrides: dict | None = None) -> WorkflowConfig:
    raw = _parse_config(path)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    if "lattice_path" not in raw:
        raise ValidationError(f"{path}: missing lattice_path")
    if "n_electrons" not in raw:
        raise ValidationError(f"{path}: missing n_electrons")
    lattice_path = str(raw["lattice_path"])
    if not os.path.isabs(lattice_path):
        lattice_path = str((Path(path).parent / lattice_path).resolve())
    samples_files = {}
    for label in SECTOR_LABELS:
        key = "samples_" + label.replace("+", "plus").replace("-", "minus").replace("Ne", "ne")
        if key in raw:
            sample_path = str(raw[key])
            if not os.path.isabs(sample_path):
                sample_path = str((Path(path).parent / sample_path).resolve())
            samples_files[label] = sample_path
    kwargs = {}
    for name, cast in (
        ("mode", str),
        ("extsqd_threshold", float),
        ("shots", int),
        ("seed", int),
        ("out_dir", str),
        ("material", str),
        ("literal_2u", bool),
        ("flip_spin", bool),
        ("lucj_layers", int),
        ("sector_mean_field", bool),
    ):
        if name in raw:
            kwargs[name] = cast(raw[name])
    for name in ("solvers",):
        if name in raw:
            v = raw[name]
            kwargs[name] = tuple(str(x) for x in (v if isinstance(v, list) else [v]))
    for name in ("fractions", "hci_epsilons"):
        if name in raw:
            v = raw[name]
            kwargs[name] = tuple(float(x) for x in (v if isinstance(v, list) else [v]))
    if "extsqd_levels" in raw:
        v = raw["extsqd_levels"]
        kwargs["extsqd_levels"] = tuple(int(x) for x in (v if isinstance(v, list) else [v]))
    return WorkflowConfig(
        lattice_path=lattice_path,
        n_electrons=int(raw["n_electrons"]),
        samples_files=samples_files,
        **kwargs,
    )


def _write_manifest(out_dir: Path, config_doc: dict, inputs: list[str], seeds: list[int],
                    stage_seconds: dict) -> None:
    manifest = {
        "tool_version": __version__,
        "config": config_doc,
        "input_hashes": {p: _sha256(p) for p in inputs if os.path.exists(p)},
        "seeds": seeds,
        "stage_seconds": stage_seconds,
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
    if args.shots < 1:
        raise ValidationError("shots must be at least 1")
    lat = load_lattice(args.lattice).to_ev()
    ints = map_to_electronic(lat)
    m = lat.n_orbitals
    spec = SectorSpec(m, args.n_alpha, args.n_beta)
    n_pairs = min(args.n_alpha, args.n_beta)
    neutral = SectorSpec(m, n_pairs, n_pairs)
    mf = solve_mean_field(ints, neutral)
    mo = rotate_basis(ints, mf.orbital_coefficients)
    t2, _ = mp2_doubles(mf, mo, neutral)
    params = lucj_from_t2(t2, m, n_pairs, layers=args.layers)
    state = build_state(params, mf.reference_for(spec), spec)
    samples = draw_samples(state, args.shots, seed=args.seed)
    save_samples(samples, args.output)
    print(f"wrote {args.output}: {len(samples.counts)} distinct bitstrings, {samples.shots} shots")
    return 0


# ---------------------------- run ----------------------------


def _write_sweep_csvs(out_dir: Path, runs) -> list[Path]:
    written = []
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
            written.append(path)
    return written


def cmd_run(args) -> int:
    overrides = {
        "mode": args.mode,
        "extsqd_threshold": args.threshold,
        "out_dir": args.out_dir,
    }
    if args.solver:
        overrides["solvers"] = args.solver
    if args.fractions:
        overrides["fractions"] = [float(x) for x in args.fractions.split(",")]
    config = config_from_file(args.config, overrides)
    if config.out_dir is None:
        raise ValidationError("out_dir required (config key out_dir or flag --out-dir)")
    # reject unreadable or malformed sample files before any solver runs
    lat_probe = load_lattice(config.lattice_path)
    probe_specs = sector_specs(lat_probe.n_orbitals, config.n_electrons, config.flip_spin)
    for label, sample_path in config.samples_files.items():
        load_samples(sample_path, probe_specs[label])
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, runs = run_workflow(config)
    with open(out_dir / "gap_report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
        fh.write("\n")
    _write_sweep_csvs(out_dir, runs)
    inputs = [config.lattice_path] + list(config.samples_files.values())
    _write_manifest(
        out_dir,
        config_doc=report.to_json_dict()["metadata"] | {
            "lattice_path": config.lattice_path,
            "n_electrons": config.n_electrons,
            "mode": config.mode,
            "out_dir": str(out_dir),
        },
        inputs=inputs,
        seeds=[config.seed],
        stage_seconds=report.stage_seconds,
    )
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
        try:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                for rec in reader:
                    rows.append(rec)
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
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
    p.add_argument("config", help="TOML-style key/value config file")
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


if __name__ == "__main__":
    sys.exit(main())
