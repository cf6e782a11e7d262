#!/usr/bin/env python3
"""SHA-256 digests of what the string engine returns on a fixed set of cases.

    PYTHONPATH=src python3 scripts/engine_digest.py

Hashes the CSR arrays of ``product_hamiltonian`` (product subsets of
ascending strings), the result of ``sigma`` (a random vector over the full
sector) and the words of every row and the CSR arrays of
``hamiltonian_columns`` (shuffled determinant lists), for M = 2..8 orbitals in a site and a rotated
basis, with real and complex integrals, over sectors that include empty and
full channels.  Each integrals object serves its requests three times, so
the one-spin memo is cold on the first pass and warm on the others.  A change
to the engine that must not change its output leaves the digests as they are.
One digest is printed per function, so a change that may move one of them
shows which, followed by the total over every array of those cases.

The mean field, which defines the orbitals every rotated run works in, gets
its own digest: the orbitals, ``hf_energy`` and ``energy_history`` of
``solve_mean_field`` on the site-basis integrals, real and complex, for every
number of electron pairs.  It is not part of the total.

The memory estimates that cap those calls get one more digest, also outside
the total: ``product_bytes``, ``sigma_bytes`` and ``columns_bytes`` on the
same requests.  A change that must leave the estimates as they are keeps it.

The LUCJ ansatz gets a digest of its own, outside the total as well: on the
real site-basis integrals, for every number of electron pairs, the layers
(``rotation``, ``j_same``, ``j_opposite``) that ``lucj_from_t2`` seeds from
the MP2 doubles at 1, 2 and 3 layers, and the amplitudes that
``build_state`` makes from each in the sectors of one electron fewer, the
same number and one more, from the mean field's aufbau determinant.
"""

import hashlib

import numpy as np

from hsqd import (LatticeHamiltonian, SectorSpec, build_state, lucj_from_t2, map_to_electronic,
                  mp2_doubles, rotate_basis, solve_mean_field)
from hsqd.determinants import half_strings
from hsqd.strings import (columns_bytes, hamiltonian_columns, product_bytes, product_hamiltonian,
                          sigma, sigma_bytes)

SEED = 20240601
PASSES = 3
# a cap on the product subsets and determinant lists, so that M = 8 stays quick
MAX_PRODUCT = 1200
MAX_LIST = 80
LUCJ_LAYERS = (1, 2, 3)


def random_integrals(rng, m: int, complex_ints: bool, rotated: bool):
    hop = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if complex_ints else 0)
    hop = (hop + hop.conj().T) / 2
    v = rng.uniform(0.0, 1.0, size=(m, m))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 0.0)
    ints = map_to_electronic(LatticeHamiltonian(m, hop, rng.uniform(1.0, 5.0, size=m), v))
    if rotated:
        z = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if complex_ints else 0)
        ints = rotate_basis(ints, np.linalg.qr(z)[0])
    return ints


def sectors(rng, m: int) -> list[tuple[int, int]]:
    """An empty and a full channel, and two random sectors."""
    return [(0, int(rng.integers(0, m + 1))), (m, int(rng.integers(0, m + 1))),
            tuple(int(x) for x in rng.integers(0, m + 1, size=2)),
            tuple(int(x) for x in rng.integers(0, m + 1, size=2))]


def requests(rng, m: int, n_alpha: int, n_beta: int, complex_ints: bool):
    """Product subset strings, full channels with a vector over them, and a
    shuffled determinant list of the sector."""
    wa, wb = half_strings(m, n_alpha), half_strings(m, n_beta)
    na = int(rng.integers(1, len(wa) + 1))
    nb = int(rng.integers(1, max(1, min(len(wb), MAX_PRODUCT // na)) + 1))
    alpha = np.sort(rng.choice(wa, size=na, replace=False))
    beta = np.sort(rng.choice(wb, size=nb, replace=False))
    c = rng.normal(size=(len(wb), len(wa)))
    if complex_ints:
        c = c + 1j * rng.normal(size=c.shape)
    size = int(rng.integers(1, min(len(wa) * len(wb), MAX_LIST) + 1))
    pick = rng.permutation(len(wa) * len(wb))[:size]
    return alpha, beta, wa, wb, c, wa[pick % len(wa)], wb[pick // len(wa)]


def update(h, *arrays) -> None:
    for x in arrays:
        x = np.ascontiguousarray(x)
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes())


def update_lucj(h, ints, mf, pairs: int) -> None:
    """The LUCJ layers seeded from the MP2 doubles of ``pairs`` electron
    pairs, and the states they build in the sectors next to that filling."""
    m = ints.n_orbitals
    spec = SectorSpec(m, pairs, pairs)
    t2, _ = mp2_doubles(mf, rotate_basis(ints, mf.orbital_coefficients), spec)
    for layers in LUCJ_LAYERS:
        params = lucj_from_t2(t2, m, pairs, layers)
        for layer in params.layers:
            update(h, layer.rotation, layer.j_same, layer.j_opposite)
        for n_alpha in range(max(pairs - 1, 0), min(pairs + 1, m) + 1):
            sector = SectorSpec(m, n_alpha, pairs)
            update(h, build_state(params, mf.reference_for(sector), sector).amplitudes)


def main() -> None:
    rng = np.random.default_rng(SEED)
    h = hashlib.sha256()
    per = {}  # function name -> its own digest
    scf = hashlib.sha256()
    estimates = hashlib.sha256()
    lucj = hashlib.sha256()
    cases = 0
    for m in range(2, 9):
        for rotated in (False, True):
            for complex_ints in (False, True):
                ints = random_integrals(rng, m, complex_ints, rotated)
                reqs = [(SectorSpec(m, na, nb), requests(rng, m, na, nb, complex_ints))
                        for na, nb in sectors(rng, m)]
                if not rotated:
                    for pairs in range(m + 1):
                        mf = solve_mean_field(ints, SectorSpec(m, pairs, pairs))
                        update(scf, mf.orbital_coefficients, np.array(mf.hf_energy),
                               np.array(mf.energy_history))
                        if not complex_ints:
                            update_lucj(lucj, ints, mf, pairs)
                for _ in range(PASSES):
                    for spec, (alpha, beta, wa, wb, c, dets_a, dets_b) in reqs:
                        mat = product_hamiltonian(ints, alpha, beta)
                        out_a, out_b, cols = hamiltonian_columns(ints, dets_a, dets_b)
                        arrays = {
                            "product_hamiltonian": (mat.indptr, mat.indices, mat.data),
                            "sigma": sigma(c, ints, wa, wb)[:1],
                            "hamiltonian_columns": (out_a, out_b, cols.indptr, cols.indices,
                                                    cols.data),
                        }
                        for name, xs in arrays.items():
                            update(h, *xs)
                            update(per.setdefault(name, hashlib.sha256()), *xs)
                        update(estimates, np.array([product_bytes(spec, ints, alpha, beta),
                                                    sigma_bytes(spec, ints, len(wa), len(wb)),
                                                    columns_bytes(len(dets_a), spec, ints)]))
                        cases += 1
    for name, digest in per.items():
        print(f"{digest.hexdigest()}  {name}")
    print(f"{scf.hexdigest()}  solve_mean_field")
    print(f"{estimates.hexdigest()}  estimates (not in the total)")
    print(f"{lucj.hexdigest()}  lucj (not in the total)")
    print(f"{h.hexdigest()}  total ({cases} cases)")


if __name__ == "__main__":
    main()
