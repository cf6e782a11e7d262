import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsqd.determinants
import oracles
from hsqd import (
    Determinant,
    SectorSpec,
    ValidationError,
    map_to_electronic,
    rotate_basis,
)
from hsqd import LatticeHamiltonian
from hsqd.determinants import excitation_rank, half_strings

from conftest import random_lattice
from oracles import (
    Excitation,
    apply_excitation,
    dense_fock_hamiltonian,
    enumerate_sector,
    excitation_between,
    fock_index,
    random_general_integrals,
)

# the public routines on the string engine, and the Slater-Condon oracle;
# each test of a routine checks both
ROUTINES = (hsqd.determinants, oracles)


def sector_order(spec):
    """The canonical order of a sector from the package's channel strings:
    beta-major over ``half_strings`` of each channel."""
    alphas = half_strings(spec.n_orbitals, spec.n_alpha).tolist()
    return [Determinant(a, b) for b in half_strings(spec.n_orbitals, spec.n_beta).tolist()
            for a in alphas]


class TestEnumerateSector:
    """The package enumerates a sector only as its two channels'
    ``half_strings``; ``oracles.enumerate_sector`` is the reference."""

    def test_two_site_half_filling(self):
        dets = sector_order(SectorSpec(2, 1, 1))
        assert dets == [
            Determinant(0b01, 0b01), Determinant(0b10, 0b01),
            Determinant(0b01, 0b10), Determinant(0b10, 0b10),
        ]
        assert enumerate_sector(SectorSpec(2, 1, 1)) == dets

    def test_vacuum(self):
        assert sector_order(SectorSpec(2, 0, 0)) == [Determinant(0, 0)]
        assert enumerate_sector(SectorSpec(2, 0, 0)) == [Determinant(0, 0)]

    def test_four_site_counts(self):
        assert len(sector_order(SectorSpec(4, 2, 2))) == 36 == SectorSpec(4, 2, 2).dimension()

    def test_canonical_order_is_beta_major(self):
        for spec in (SectorSpec(3, 1, 2), SectorSpec(5, 2, 3), SectorSpec(4, 4, 0)):
            dets = sector_order(spec)
            keys = [(d.beta, d.alpha) for d in dets]
            assert keys == sorted(keys)
            assert dets == enumerate_sector(spec)

    def test_no_duplicates(self):
        dets = sector_order(SectorSpec(5, 2, 3))
        assert len(set(dets)) == len(dets)

    def test_half_strings_are_the_combinations(self):
        for m in range(0, 11):
            for n in range(m + 1):
                want = sorted(sum(1 << p for p in occ) for occ in combinations(range(m), n))
                got = half_strings(m, n)
                assert got.dtype == np.int64
                assert got.tolist() == want == oracles.channel_strings(m, n)

    def test_half_strings_at_the_edges(self):
        """The empty channel, and one electron, one hole and a full channel
        of 63 orbitals, where the full word is 2^63 - 1, int64's largest."""
        full = (1 << 63) - 1
        cases = {(0, 0): [0], (63, 1): [1 << p for p in range(63)],
                 (63, 62): sorted(full ^ (1 << p) for p in range(63)), (63, 63): [full]}
        for (m, n), want in cases.items():
            got = half_strings(m, n)
            assert got.dtype == np.int64
            assert got.tolist() == want

    def test_half_strings_are_shared_and_read_only(self):
        words = half_strings(7, 3)
        assert half_strings(7, 3) is words
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0] = 0


class TestDiagonalEnergy:
    def test_double_occupancy(self, dimer_ints):
        for impl in ROUTINES:
            assert impl.diagonal_energy(Determinant(0b01, 0b01), dimer_ints) == pytest.approx(4.0)

    def test_intersite_pair(self):
        v = np.array([[0.0, 0.64], [0.64, 0.0]])
        lat = LatticeHamiltonian(2, np.zeros((2, 2)), np.zeros(2), v)
        ints = map_to_electronic(lat)
        # alpha on 0, beta on 1: both ordered (p,q) spin pairs contribute
        for impl in ROUTINES:
            assert impl.diagonal_energy(Determinant(0b01, 0b10), ints) == pytest.approx(
                1.28, abs=1e-14)

    def test_empty_determinant_is_core(self):
        from hsqd import ElectronicIntegrals

        ints = ElectronicIntegrals(
            2, np.zeros((2, 2)), np.zeros((2,) * 4), np.zeros((2,) * 4), core_energy=1.5
        )
        for impl in ROUTINES:
            assert impl.diagonal_energy(Determinant(0, 0), ints) == 1.5


class TestMatrixElement:
    def test_pure_hopping(self, dimer_ints):
        for impl in ROUTINES:
            val = impl.matrix_element(Determinant(0b01, 0), Determinant(0b10, 0), dimer_ints)
            assert val == pytest.approx(-1.0)

    def test_zero_diagonal_of_a_coupled_determinant(self):
        """A determinant whose own diagonal is exactly zero has no row in its
        H column, which still holds the hop it couples to."""
        from hsqd import ElectronicIntegrals

        h = np.array([[0.0, 0.7], [0.7, 0.0]])
        ints = ElectronicIntegrals(2, h, np.zeros((2,) * 4), np.zeros((2,) * 4))
        det = Determinant(0b01, 0)
        for impl in ROUTINES:
            assert impl.matrix_element(det, det, ints) == 0.0
            assert impl.diagonal_energy(det, ints) == 0.0
            assert impl.matrix_element(Determinant(0b10, 0), det, ints) == pytest.approx(0.7)

    def test_triple_excitation_vanishes(self):
        rng = np.random.default_rng(1)
        ints = random_general_integrals(rng, 4)
        d1 = Determinant(0b0011, 0b0001)
        d3 = Determinant(0b1100, 0b1000)  # double alpha hop plus a beta hop
        assert excitation_rank(d1, d3) == 3
        for impl in ROUTINES:
            assert impl.matrix_element(d1, d3, ints) == 0.0

    def test_density_density_double_vanishes(self, dimer_ints):
        d1 = Determinant(0b01, 0b01)
        d2 = Determinant(0b10, 0b10)
        assert excitation_rank(d1, d2) == 2
        for impl in ROUTINES:
            assert impl.matrix_element(d1, d2, dimer_ints) == 0.0

    def test_matches_dense_fock_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            m = int(rng.integers(2, 5))
            ints = random_general_integrals(rng, m)
            dense = dense_fock_hamiltonian(ints).toarray()
            spec = SectorSpec(m, int(rng.integers(1, m + 1)), int(rng.integers(0, m + 1)))
            dets = enumerate_sector(spec)
            for impl in ROUTINES:
                for ket in dets:
                    for bra in dets:
                        want = dense[fock_index(bra, m), fock_index(ket, m)]
                        got = impl.matrix_element(bra, ket, ints)
                        assert abs(want - got) <= 1e-12

    def test_full_sector_matrix_hermitian(self):
        rng = np.random.default_rng(9)
        ints = random_general_integrals(rng, 4)
        dets = enumerate_sector(SectorSpec(4, 2, 1))
        for impl in ROUTINES:
            mat = np.array([[impl.matrix_element(a, b, ints) for b in dets] for a in dets])
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng, m=4, complex_hopping=True)
        ints = map_to_electronic(lat)
        dets = enumerate_sector(SectorSpec(4, 2, 2))
        idx = rng.integers(0, len(dets), size=(8, 2))
        for impl in ROUTINES:
            for i, j in idx:
                assert impl.matrix_element(dets[i], dets[j], ints) == pytest.approx(
                    np.conj(impl.matrix_element(dets[j], dets[i], ints)), abs=1e-13
                )


class TestExcitations:
    def test_dimer_singles(self):
        det = Determinant(0b01, 0b01)
        for impl in ROUTINES:
            out = impl.generate_excitations(det, 2, {1})
            assert set(out) == {Determinant(0b10, 0b01), Determinant(0b01, 0b10)}

    def test_blocked_channel(self):
        det = Determinant(0b1111, 0b0011)
        for impl in ROUTINES:
            out = impl.generate_excitations(det, 4, {1})
            assert out and all(d.alpha == det.alpha for d in out)

    def test_singles_doubles_match_rank_classification(self):
        spec = SectorSpec(4, 2, 2)
        hf = Determinant(0b0011, 0b0011)
        want = {
            d for d in enumerate_sector(spec)
            if excitation_rank(hf, d) in (1, 2)
        }
        for impl in ROUTINES:
            assert set(impl.generate_excitations(hf, 4, {1, 2})) == want

    def test_levels_validated(self):
        for impl in ROUTINES:
            with pytest.raises(ValidationError):
                impl.generate_excitations(Determinant(1, 1), 2, set())
            with pytest.raises(ValidationError):
                impl.generate_excitations(Determinant(1, 1), 2, {3})

    def test_particle_numbers_preserved(self):
        det = Determinant(0b0101, 0b0011)
        for impl in ROUTINES:
            for d in impl.generate_excitations(det, 4, {1, 2}):
                assert bin(d.alpha).count("1") == 2
                assert bin(d.beta).count("1") == 2


class TestEngineAgainstSlaterCondon:
    """The public routines on the string engine against the Slater-Condon
    oracle, on random real and complex integrals."""

    @staticmethod
    def integrals(rng, m, complex_):
        ints = random_general_integrals(rng, m)
        if not complex_:
            return ints
        u = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        return rotate_basis(ints, u)

    # (M, n_alpha, n_beta): twelve sectors over M = 2..6, with empty and full channels
    SECTORS = ((2, 1, 1), (3, 1, 2), (3, 2, 2), (4, 2, 2), (4, 3, 1), (4, 1, 0),
               (5, 2, 3), (5, 4, 2), (5, 5, 1), (6, 3, 3), (6, 2, 4), (6, 0, 3))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matrix_elements(self, complex_):
        """Two kets per sector, each against itself, up to 20 of the
        determinants the oracle couples it to, and four random others."""
        rng = np.random.default_rng(31 + complex_)
        for m, n_alpha, n_beta in self.SECTORS:
            ints = self.integrals(rng, m, complex_)
            assert ints.is_complex == complex_
            dets = enumerate_sector(SectorSpec(m, n_alpha, n_beta))
            for k in rng.choice(len(dets), size=min(2, len(dets)), replace=False):
                ket = dets[k]
                coupled = oracles.generate_excitations(ket, m, {1, 2})
                picks = rng.choice(len(coupled), size=min(20, len(coupled)), replace=False)
                others = [dets[i] for i in rng.choice(len(dets), size=4)]
                for bra in [ket] + [coupled[i] for i in picks] + others:
                    want = oracles.matrix_element(bra, ket, ints)
                    assert abs(hsqd.determinants.matrix_element(bra, ket, ints) - want) <= 1e-12
                assert hsqd.determinants.diagonal_energy(ket, ints) == pytest.approx(
                    oracles.diagonal_energy(ket, ints), abs=1e-12)

    def test_other_sector_is_zero(self):
        """A bra of another sector couples to nothing, though its words differ
        from the ket's in two orbitals (rank 1 by the bit count alone)."""
        rng = np.random.default_rng(5)
        ints = random_general_integrals(rng, 4)
        ket = Determinant(0b0011, 0b0001)
        for bra in (Determinant(0b0111, 0b0001), Determinant(0b0001, 0b0011),
                    Determinant(0b0011, 0b0000)):
            assert hsqd.determinants.matrix_element(bra, ket, ints) == 0.0

    def test_excitation_lists(self):
        """The same excitations in the same (beta, alpha) order for every
        level set, including empty and full channels."""
        for m, spec in ((2, SectorSpec(2, 1, 1)), (4, SectorSpec(4, 2, 2)),
                        (5, SectorSpec(5, 3, 0)), (5, SectorSpec(5, 5, 2)),
                        (6, SectorSpec(6, 2, 4))):
            dets = enumerate_sector(spec)
            for det in dets[::max(1, len(dets) // 5)]:
                for levels in ({1}, {2}, {1, 2}):
                    got = hsqd.determinants.generate_excitations(det, m, levels)
                    assert got == oracles.generate_excitations(det, m, levels)


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
        for impl in ROUTINES:
            assert impl.matrix_element(d2, d1, ints) == pytest.approx(exc.sign * -1.0)

    def test_sign_matches_matrix_element(self):
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
        for impl in ROUTINES:
            assert impl.matrix_element(d2, d1, ints) == pytest.approx(+1.0)


def _names_determinant(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "Determinant"
               or isinstance(n, ast.Attribute) and n.attr == "Determinant"
               or isinstance(n, (ast.alias, ast.ClassDef)) and n.name == "Determinant"
               for n in ast.walk(node))


def test_determinant_objects_stay_in_the_sample_io():
    """From the mean field to the last HCI stage a determinant is a pair of
    words: only ``determinants.py``, the package's exports and the
    ``SampleSet`` I/O of ``statevector.py`` (its import, ``SampleSet``,
    ``sample`` and ``load_samples``) name ``Determinant``."""
    package = Path(hsqd.determinants.__file__).parent
    naming = {path.name: [node for node in ast.parse(path.read_text()).body
                          if _names_determinant(node)]
              for path in sorted(package.glob("*.py"))}
    assert {name for name, nodes in naming.items() if nodes} == {
        "determinants.py", "statevector.py", "__init__.py"}
    assert {getattr(node, "name", "import") for node in naming["statevector.py"]} == {
        "import", "SampleSet", "sample", "load_samples"}
