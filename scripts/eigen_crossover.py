#!/usr/bin/env python3
"""Median times of the dense and the Lanczos lowest eigenpair against d.

    PYTHONPATH=src python3 scripts/eigen_crossover.py [--repeats N]

For d = 96, 128, ..., 512 it builds the Hamiltonian of a product subspace of
the half-filled 8-site U+V chain (U = 4, V = 0.6, t = 1; 16 beta strings
times d / 16 alpha strings), once in the mean-field orbitals (a rotated
basis, where H is nearly dense) and once in the site basis (where H is
sparse), and times ``hsqd.davidson``'s two paths on the same matrix:
``_dense_lowest`` and ``_lanczos_lowest`` at ``DEFAULT_TOL``.  Prints one
line per d with the median of each, their ratio and the Lanczos matvecs.
``DENSE_FALLBACK_DIM`` belongs near the largest d where dense still wins on
the rotated basis, the one that the SQD and HCI solves of the pipeline use.
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from hsqd import (LatticeHamiltonian, SectorSpec, SubspaceBasis, map_to_electronic,
                  project_hamiltonian, rotate_basis, solve_mean_field)
from hsqd.davidson import DEFAULT_TOL, DENSE_FALLBACK_DIM, _dense_lowest, _lanczos_lowest
from hsqd.determinants import half_strings

M, N_PAIRS, BETA = 8, 4, 16
DIMS = range(96, 513, 32)


def chain(m: int, u: float = 4.0, v: float = 0.6) -> LatticeHamiltonian:
    hop = np.zeros((m, m))
    near = np.zeros((m, m))
    for i in range(m - 1):
        hop[i, i + 1] = hop[i + 1, i] = -1.0
        near[i, i + 1] = near[i + 1, i] = v
    return LatticeHamiltonian(m, hop, [u] * m, near)


def median_seconds(fn, repeats: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(repeats):
        start = perf_counter()
        out = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed solves per path and d")
    args = parser.parse_args()
    spec = SectorSpec(M, N_PAIRS, N_PAIRS)
    site = map_to_electronic(chain(M))
    rotated = rotate_basis(site, solve_mean_field(site, spec).orbital_coefficients)
    strings = half_strings(M, N_PAIRS)
    print(f"DENSE_FALLBACK_DIM = {DENSE_FALLBACK_DIM}; medians of {args.repeats} solves")
    print(f"{'basis':8} {'d':>4} {'dense ms':>9} {'lanczos ms':>11} {'dense/lanczos':>14} {'matvecs':>8}")
    for name, ints in (("rotated", rotated), ("site", site)):
        for d in DIMS:
            basis = SubspaceBasis(spec, tuple(strings[:d // BETA]), tuple(strings[:BETA]))
            mat = project_hamiltonian(basis, ints)
            dense, _ = median_seconds(lambda: _dense_lowest(mat), args.repeats)
            lanczos, res = median_seconds(lambda: _lanczos_lowest(mat, DEFAULT_TOL), args.repeats)
            print(f"{name:8} {d:4d} {1e3 * dense:9.2f} {1e3 * lanczos:11.2f} "
                  f"{dense / lanczos:14.2f} {res.iterations:8d}")


if __name__ == "__main__":
    main()
