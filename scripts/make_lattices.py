#!/usr/bin/env python3
"""Regenerate the small example lattice files under lattices/."""

from pathlib import Path

import numpy as np

from hsqd import LatticeHamiltonian, save_lattice

OUT = Path(__file__).resolve().parent.parent / "lattices"


def chain(m: int, t: float = -1.0, u: float = 4.0, v: float = 0.0) -> LatticeHamiltonian:
    hop = np.zeros((m, m))
    vin = np.zeros((m, m))
    for i in range(m - 1):
        hop[i, i + 1] = hop[i + 1, i] = t
        vin[i, i + 1] = vin[i + 1, i] = v
    return LatticeHamiltonian(m, hop, [u] * m, vin)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    dimer = LatticeHamiltonian(
        2, [[0.0, -1.0], [-1.0, 0.0]], [4.0, 4.0], np.zeros((2, 2)),
        orbital_labels=("site 0", "site 1"),
    )
    save_lattice(dimer, OUT / "dimer.json")
    save_lattice(chain(4), OUT / "chain4.json")
    save_lattice(chain(6), OUT / "chain6.json")
    save_lattice(chain(4, v=0.6), OUT / "chain4_uv.json")
    save_lattice(chain(10, v=0.6), OUT / "chain10_uv.json")
    save_lattice(chain(12, v=0.6), OUT / "chain12_uv.json")
    print(f"wrote 6 lattice files to {OUT}")


if __name__ == "__main__":
    main()
