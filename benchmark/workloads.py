"""Benchmark workloads and their seeded inputs.

Each workload turns a seed into the files one ``hsqd run`` reads: a config,
and where the workload needs them a lattice JSON and external sample files.
Only public ``hsqd`` calls and NumPy are used, so the program under test
receives nothing but ordinary input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hsqd
from hsqd import Determinant, LatticeHamiltonian, SampleSet
from hsqd.bandgap import SECTOR_LABELS

SAMPLE_KEYS = {"Ne-1": "samples_neminus1", "Ne": "samples_ne", "Ne+1": "samples_neplus1"}

# hardware-style sample files for chain6uv_hw
HW_SHOTS = 200_000
HW_FLIP_PROB = 0.02


def chain(m: int, t: float = -1.0, u: float = 4.0, v: float = 0.0) -> LatticeHamiltonian:
    """Open chain with nearest-neighbour hopping t and coupling v, on-site u."""
    hop = np.zeros((m, m))
    vin = np.zeros((m, m))
    for i in range(m - 1):
        hop[i, i + 1] = hop[i + 1, i] = t
        vin[i, i + 1] = vin[i + 1, i] = v
    return LatticeHamiltonian(m, hop, [u] * m, vin)


def write_config(path: Path, values: dict) -> Path:
    """Write a flat ``key = value`` config that ``hsqd run`` parses."""
    path.write_text("".join(f"{key} = {json.dumps(val)}\n" for key, val in values.items()))
    return path


def shipped_config(root: Path, name: str, dest: Path, seed: int) -> Path:
    """A shipped config under configs/, re-seeded and pointing at its lattice."""
    src = root / "configs" / f"{name}.toml"
    lines = []
    for raw in src.read_text().splitlines():
        key = raw.split("=", 1)[0].strip()
        if key == "seed":
            raw = f"seed = {seed}"
        elif key == "lattice_path":
            rel = json.loads(raw.split("=", 1)[1].split("#", 1)[0].strip())
            raw = f"lattice_path = {json.dumps(str((src.parent / rel).resolve()))}"
        elif key == "out_dir":
            continue
        lines.append(raw)
    path = dest / "config.toml"
    path.write_text("\n".join(lines) + "\n")
    return path


def noisy_samples(samples: SampleSet, rng: np.random.Generator, flip_prob: float) -> SampleSet:
    """Flip every bit of every shot independently with probability ``flip_prob``."""
    m = samples.n_orbitals
    dets = list(samples.counts)
    words = np.array([(d.beta << m) | d.alpha for d in dets], dtype=np.int64)
    shots = np.repeat(words, [samples.counts[d] for d in dets])
    flips = rng.random((shots.size, 2 * m)) < flip_prob
    shots ^= flips.astype(np.int64) @ (np.int64(1) << np.arange(2 * m, dtype=np.int64))
    values, counts = np.unique(shots, return_counts=True)
    low = (1 << m) - 1
    noisy = {
        Determinant(int(w) & low, int(w) >> m): int(c) for w, c in zip(values, counts)
    }
    return SampleSet(m, noisy, int(counts.sum()), samples.seed, "file")


def hardware_samples(lat_path: Path, n_electrons: int, dest: Path, seed: int) -> dict[str, str]:
    """Seeded LUCJ sample files with bit-flip noise, one per sector."""
    lat = hsqd.load_lattice(lat_path).to_ev()
    ints = hsqd.map_to_electronic(lat)
    specs = hsqd.sector_specs(lat.n_orbitals, n_electrons)
    neutral = specs["Ne"]
    mf = hsqd.solve_mean_field(ints, neutral)
    mo = hsqd.rotate_basis(ints, mf.orbital_coefficients)
    t2, _ = hsqd.mp2_doubles(mf, mo, neutral)
    params = hsqd.lucj_from_t2(t2, lat.n_orbitals, neutral.n_alpha)
    files = {}
    for index, label in enumerate(SECTOR_LABELS):
        rng = np.random.default_rng([seed, index])
        state = hsqd.build_state(params, mf.reference_for(specs[label]), specs[label])
        clean = hsqd.sample(state, HW_SHOTS, seed=int(rng.integers(2**31)))
        path = dest / f"samples_{index}.txt"
        hsqd.save_samples(noisy_samples(clean, rng, HW_FLIP_PROB), path)
        files[SAMPLE_KEYS[label]] = str(path)
    return files


def _chain6_all(root: Path, dest: Path, seed: int) -> Path:
    return shipped_config(root, "chain6", dest, seed)


def _dimer(root: Path, dest: Path, seed: int) -> Path:
    return shipped_config(root, "dimer", dest, seed)


def _chain8_fci_sqd(root: Path, dest: Path, seed: int) -> Path:
    lattice = dest / "chain8.json"
    hsqd.save_lattice(chain(8), lattice)
    return write_config(dest / "config.toml", {
        "lattice_path": str(lattice),
        "n_electrons": 8,
        "mode": "U",
        "solvers": ["fci", "sqd"],
        "fractions": [0.15],
        "seed": seed,
    })


def _chain6uv_hw(root: Path, dest: Path, seed: int) -> Path:
    lattice = dest / "chain6_uv.json"
    hsqd.save_lattice(chain(6, v=0.6), lattice)
    return write_config(dest / "config.toml", {
        "lattice_path": str(lattice),
        "n_electrons": 6,
        "mode": "U+V",
        "solvers": ["hci", "sqd", "extsqd"],
        "fractions": [0.1, 0.3],
        "extsqd_levels": [1, 2],
        "seed": seed,
        **hardware_samples(lattice, 6, dest, seed),
    })


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make_inputs: Callable[[Path, Path, int], Path]  # (repo root, dest dir, seed) -> config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain8_fci_sqd", 7, _chain8_fci_sqd),
        Workload("chain6uv_hw", 11, _chain6uv_hw),
        # runnable but not in BENCHMARK.json: every layer it exercises is
        # measured on the two above, and dropping it buys longer, steadier runs
        Workload("chain6_all", 7, _chain6_all),
        # smoke check only: milliseconds of work, so it measures interpreter overhead
        Workload("dimer", 3, _dimer),
    )
}
