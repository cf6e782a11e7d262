import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqd import (
    CapExceededError,
    Determinant,
    SectorSpec,
    ValidationError,
    diagonal_energy,
    enumerate_sector,
    generate_excitations,
    map_to_electronic,
    matrix_element,
)
from hsqd import LatticeHamiltonian
from hsqd.determinants import excitation_rank

from conftest import random_lattice
from oracles import (
    Excitation,
    apply_excitation,
    dense_fock_hamiltonian,
    excitation_between,
    fock_index,
    random_general_integrals,
)


class TestEnumerateSector:
    def test_two_site_half_filling(self):
        dets = enumerate_sector(SectorSpec(2, 1, 1))
        assert len(dets) == 4
        assert dets == [
            Determinant(0b01, 0b01), Determinant(0b10, 0b01),
            Determinant(0b01, 0b10), Determinant(0b10, 0b10),
        ]

    def test_vacuum(self):
        assert enumerate_sector(SectorSpec(2, 0, 0)) == [Determinant(0, 0)]

    def test_four_site_counts(self):
        assert len(enumerate_sector(SectorSpec(4, 2, 2))) == 36

    def test_canonical_order_is_beta_major(self):
        dets = enumerate_sector(SectorSpec(3, 1, 2))
        keys = [d.sort_key() for d in dets]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        dets = enumerate_sector(SectorSpec(5, 2, 3))
        assert len(set(dets)) == len(dets)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_sector(SectorSpec(20, 10, 10))


class TestDiagonalEnergy:
    def test_double_occupancy(self, dimer_ints):
        assert diagonal_energy(Determinant(0b01, 0b01), dimer_ints) == pytest.approx(4.0)

    def test_intersite_pair(self):
        v = np.array([[0.0, 0.64], [0.64, 0.0]])
        lat = LatticeHamiltonian(2, np.zeros((2, 2)), np.zeros(2), v)
        ints = map_to_electronic(lat)
        # alpha on 0, beta on 1: both ordered (p,q) spin pairs contribute
        assert diagonal_energy(Determinant(0b01, 0b10), ints) == pytest.approx(1.28, abs=1e-14)

    def test_empty_determinant_is_core(self):
        from hsqd import ElectronicIntegrals

        ints = ElectronicIntegrals(
            2, np.zeros((2, 2)), np.zeros((2,) * 4), np.zeros((2,) * 4), core_energy=1.5
        )
        assert diagonal_energy(Determinant(0, 0), ints) == 1.5


class TestMatrixElement:
    def test_pure_hopping(self, dimer_ints):
        val = matrix_element(Determinant(0b01, 0), Determinant(0b10, 0), dimer_ints)
        assert val == pytest.approx(-1.0)

    def test_triple_excitation_vanishes(self):
        rng = np.random.default_rng(1)
        ints = random_general_integrals(rng, 4)
        d1 = Determinant(0b0011, 0b0001)
        d3 = Determinant(0b1100, 0b1000)  # double alpha hop plus a beta hop
        assert excitation_rank(d1, d3) == 3
        assert matrix_element(d1, d3, ints) == 0.0

    def test_density_density_double_vanishes(self, dimer_ints):
        d1 = Determinant(0b01, 0b01)
        d2 = Determinant(0b10, 0b10)
        assert excitation_rank(d1, d2) == 2
        assert matrix_element(d1, d2, dimer_ints) == 0.0

    def test_matches_dense_fock_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            m = int(rng.integers(2, 5))
            ints = random_general_integrals(rng, m)
            dense = dense_fock_hamiltonian(ints).toarray()
            spec = SectorSpec(m, int(rng.integers(1, m + 1)), int(rng.integers(0, m + 1)))
            dets = enumerate_sector(spec)
            for ket in dets:
                for bra in dets:
                    want = dense[fock_index(bra, m), fock_index(ket, m)]
                    got = matrix_element(bra, ket, ints)
                    assert abs(want - got) <= 1e-12

    def test_full_sector_matrix_hermitian(self):
        rng = np.random.default_rng(9)
        ints = random_general_integrals(rng, 4)
        dets = enumerate_sector(SectorSpec(4, 2, 1))
        mat = np.array([[matrix_element(a, b, ints) for b in dets] for a in dets])
        assert np.abs(mat - mat.conj().T).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng, m=4, complex_hopping=True)
        ints = map_to_electronic(lat)
        dets = enumerate_sector(SectorSpec(4, 2, 2))
        idx = rng.integers(0, len(dets), size=(8, 2))
        for i, j in idx:
            assert matrix_element(dets[i], dets[j], ints) == pytest.approx(
                np.conj(matrix_element(dets[j], dets[i], ints)), abs=1e-13
            )


class TestExcitations:
    def test_dimer_singles(self):
        det = Determinant(0b01, 0b01)
        out = generate_excitations(det, 2, {1})
        assert set(out) == {Determinant(0b10, 0b01), Determinant(0b01, 0b10)}

    def test_blocked_channel(self):
        det = Determinant(0b1111, 0b0011)
        out = generate_excitations(det, 4, {1})
        assert all(d.alpha == det.alpha for d in out)

    def test_singles_doubles_match_rank_classification(self):
        spec = SectorSpec(4, 2, 2)
        hf = Determinant(0b0011, 0b0011)
        got = set(generate_excitations(hf, 4, {1, 2}))
        want = {
            d for d in enumerate_sector(spec)
            if excitation_rank(hf, d) in (1, 2)
        }
        assert got == want

    def test_levels_validated(self):
        with pytest.raises(ValidationError):
            generate_excitations(Determinant(1, 1), 2, set())
        with pytest.raises(ValidationError):
            generate_excitations(Determinant(1, 1), 2, {3})

    def test_particle_numbers_preserved(self):
        det = Determinant(0b0101, 0b0011)
        for d in generate_excitations(det, 4, {1, 2}):
            assert bin(d.alpha).count("1") == 2
            assert bin(d.beta).count("1") == 2


class TestExcitationSigns:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 2**31 - 1))
    def test_round_trip_sign_property(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        m = 10
        det = Determinant(alpha, beta)
        occ = [i for i in range(m) if (alpha >> i) & 1]
        virt = [i for i in range(m) if not (alpha >> i) & 1]
        if not occ or not virt:
            return
        k = min(len(occ), len(virt), int(rng.integers(1, 3)))
        holes = tuple(sorted(rng.choice(occ, size=k, replace=False).tolist()))
        parts = tuple(sorted(rng.choice(virt, size=k, replace=False).tolist()))
        exc = Excitation("alpha", holes, parts)
        mid, s1 = apply_excitation(det, exc)
        back, s2 = apply_excitation(mid, exc.inverse())
        assert back == det
        assert s1 * s2 == 1

    def test_round_trip_sign_is_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = 6
            alpha = int(rng.integers(0, 1 << m))
            beta = int(rng.integers(0, 1 << m))
            det = Determinant(alpha, beta)
            occ = [i for i in range(m) if (alpha >> i) & 1]
            virt = [i for i in range(m) if not (alpha >> i) & 1]
            if not occ or not virt:
                continue
            k = min(len(occ), len(virt), int(rng.integers(1, 3)))
            holes = tuple(sorted(rng.choice(occ, size=k, replace=False).tolist()))
            parts = tuple(sorted(rng.choice(virt, size=k, replace=False).tolist()))
            exc = Excitation("alpha", holes, parts)
            mid, s1 = apply_excitation(det, exc)
            back, s2 = apply_excitation(mid, exc.inverse())
            assert back == det
            assert s1 * s2 == 1

    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            Excitation("alpha", (0,), (0,))

    def test_between_signs_match_hopping_element(self):
        lat3 = LatticeHamiltonian(
            3,
            [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            np.zeros(3),
            np.zeros((3, 3)),
        )
        ints = map_to_electronic(lat3)
        d1 = Determinant(0b011, 0b010)
        d2 = Determinant(0b110, 0b010)
        (exc,) = excitation_between(d1, d2)
        assert exc.spin == "alpha"
        assert exc.annihilated == (0,)
        assert exc.created == (2,)
        # sign -1 from crossing the occupied orbital 1; element = sign * t_20
        assert exc.sign == -1
        assert matrix_element(d2, d1, ints) == pytest.approx(exc.sign * -1.0)

    def test_sign_matches_matrix_element(self, dimer_ints):
        # alpha hop across an occupied orbital picks up a fermionic minus
        lat3 = LatticeHamiltonian(
            3,
            [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            np.zeros(3),
            np.zeros((3, 3)),
        )
        ints = map_to_electronic(lat3)
        d1 = Determinant(0b011, 0)  # orbitals 0,1
        d2 = Determinant(0b110, 0)  # orbitals 1,2
        # 0 -> 2 hop crosses occupied orbital 1
        assert matrix_element(d2, d1, ints) == pytest.approx(+1.0)
