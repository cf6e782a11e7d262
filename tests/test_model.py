import json

import numpy as np
import pytest

from hsqd import (
    ElectronicIntegrals,
    LatticeHamiltonian,
    SectorSpec,
    ValidationError,
    lattice_from_electronic,
    load_lattice,
    map_to_electronic,
    rotate_basis,
    save_lattice,
)
from hsqd.model import HARTREE_TO_EV

from conftest import random_lattice
from oracles import diagonal_energy, enumerate_sector, lattice_apply, matrix_element


class TestSectorSpec:
    def test_more_orbitals_than_a_word_holds_refused(self):
        """A string word is an int64, so orbital 63 would be its sign bit: at
        M = 64 a hop onto that orbital was lost, and the run still reported
        a gap."""
        with pytest.raises(ValidationError, match="^64 orbitals: a sector holds at most 63$"):
            SectorSpec(64, 32, 32)
        assert SectorSpec(63, 1, 62).dimension() == 63 * 63

    def test_holds_checks_each_word(self):
        spec = SectorSpec(63, 2, 1)
        words = [0b11, 1 << 62 | 1, 1 << 62, -1, 0b111]
        assert spec.holds(words, "alpha").tolist() == [True, True, False, False, False]
        assert spec.holds(words, "beta").tolist() == [False, False, True, False, False]


def write_lattice_json(path, **overrides):
    doc = {
        "n_orbitals": 2,
        "unit": "eV",
        "kpoint": "Gamma",
        "hopping": [[0.0, -1.0], [-1.0, 0.0]],
        "u": [4.0, 4.0],
        "v": [[0.0, 0.0], [0.0, 0.0]],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestLoadLattice:
    def test_minimal_dimer(self, tmp_path):
        lat = load_lattice(write_lattice_json(tmp_path / "d.json"))
        assert lat.n_orbitals == 2
        assert lat.hopping[0, 1] == -1.0
        assert lat.kpoint_label == "Gamma"

    def test_material_values_stored_verbatim(self, tmp_path):
        path = write_lattice_json(
            tmp_path / "m.json",
            u=[3.13, 0.0],
            v=[[0.0, 0.64], [0.64, 0.0]],
            labels=["Zr 4d", "O 2p"],
        )
        lat = load_lattice(path)
        assert lat.u_intra[0] == 3.13
        assert lat.v_inter[0, 1] == 0.64
        assert lat.orbital_labels == ("Zr 4d", "O 2p")

    def test_non_hermitian_hopping_rejected(self, tmp_path):
        path = write_lattice_json(tmp_path / "bad.json", hopping=[[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError, match="non-Hermitian hopping"):
            load_lattice(path)

    @pytest.mark.parametrize("field", ["hopping", "u_intra", "v_inter"])
    def test_nonfinite_values_rejected(self, field):
        values = {"hopping": np.zeros((2, 2)), "u_intra": np.zeros(2),
                  "v_inter": np.zeros((2, 2))}
        values[field] = values[field].copy()
        values[field].flat[0] = np.nan if field != "u_intra" else np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            LatticeHamiltonian(2, **values)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = write_lattice_json(tmp_path / "bad.json", u=[4.0])
        with pytest.raises(ValidationError):
            load_lattice(path)

    def test_parse_failure_reports_path(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="junk.json"):
            load_lattice(path)

    def test_complex_hopping_round_trip(self, tmp_path):
        t = np.array([[0.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
        lat = LatticeHamiltonian(2, t, [1.0, 1.0], np.zeros((2, 2)))
        save_lattice(lat, tmp_path / "c.json")
        back = load_lattice(tmp_path / "c.json")
        assert np.allclose(back.hopping, t, atol=1e-15)

    def test_hartree_unit_converts(self, tmp_path):
        path = write_lattice_json(tmp_path / "h.json", unit="hartree")
        lat = load_lattice(path).to_ev()
        assert lat.hopping[0, 1] == -1.0 * HARTREE_TO_EV


class TestMapToElectronic:
    def test_noninteracting_limit(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 3))
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(3, t, np.zeros(3), np.zeros((3, 3)))
        ints = map_to_electronic(lat)
        assert np.array_equal(ints.one_body, t)
        assert not ints.two_body_same_spin.any()
        assert not ints.two_body_opposite_spin.any()

    def test_intersite_coefficient_is_2v(self):
        v = np.array([[0.0, 0.64], [0.64, 0.0]])
        lat = LatticeHamiltonian(2, np.zeros((2, 2)), np.zeros(2), v)
        ints = map_to_electronic(lat)
        assert ints.two_body_same_spin[0, 0, 1, 1] == pytest.approx(1.28)
        assert ints.two_body_opposite_spin[0, 0, 1, 1] == pytest.approx(1.28)

    def test_onsite_double_occupancy_energy(self, dimer_lattice, dimer_ints):
        from hsqd import Determinant

        both_on_site0 = Determinant(0b01, 0b01)
        assert diagonal_energy(both_on_site0, dimer_ints) == pytest.approx(4.0, abs=1e-12)
        # against the direct operator expansion
        direct = lattice_apply(both_on_site0, dimer_lattice)[(0b01, 0b01)]
        assert direct == pytest.approx(4.0, abs=1e-12)

    def test_literal_2u_doubles_onsite_only(self, dimer_lattice):
        default = map_to_electronic(dimer_lattice)
        literal = map_to_electronic(dimer_lattice, literal_2u=True)
        assert literal.two_body_opposite_spin[0, 0, 0, 0] == pytest.approx(8.0)
        assert default.two_body_opposite_spin[0, 0, 0, 0] == pytest.approx(4.0)
        off_lit = literal.two_body_opposite_spin.copy()
        off_def = default.two_body_opposite_spin.copy()
        for p in range(2):
            off_lit[p, p, p, p] = off_def[p, p, p, p] = 0.0
        assert np.array_equal(off_lit, off_def)

    def test_mapping_operator_equivalence_random(self):
        """Keystone: every sector matrix element from mapped integrals equals
        the direct lattice-operator evaluation."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            lat = random_lattice(rng)
            m = lat.n_orbitals
            ints = map_to_electronic(lat)
            spec = SectorSpec(m, int(rng.integers(0, m + 1)), int(rng.integers(0, m + 1)))
            dets = enumerate_sector(spec)
            for ket in dets:
                column = lattice_apply(ket, lat)
                for bra in dets:
                    want = column.get((bra.alpha, bra.beta), 0.0)
                    got = matrix_element(bra, ket, ints)
                    assert abs(want - got) <= 1e-12


class TestRotateBasis:
    def test_identity_unchanged(self, dimer_ints):
        rot = rotate_basis(dimer_ints, np.eye(2))
        assert np.array_equal(rot.one_body, dimer_ints.one_body)
        assert np.array_equal(rot.two_body_same_spin, dimer_ints.two_body_same_spin)
        assert np.array_equal(rot.two_body_opposite_spin, dimer_ints.two_body_opposite_spin)

    def test_swap_permutation_relabels(self):
        lat = LatticeHamiltonian(2, [[0.5, -1.0], [-1.0, 0.25]], [4.0, 2.0], np.zeros((2, 2)))
        ints = map_to_electronic(lat)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rot = rotate_basis(ints, swap)
        assert rot.one_body[0, 1] == pytest.approx(-1.0)
        assert rot.two_body_opposite_spin[0, 0, 0, 0] == pytest.approx(2.0)
        assert rot.two_body_opposite_spin[1, 1, 1, 1] == pytest.approx(4.0)

    def test_non_unitary_rejected(self, dimer_ints):
        with pytest.raises(ValidationError, match="unitary"):
            rotate_basis(dimer_ints, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_dimer_eigenbasis_preserves_fci_energy(self, dimer_ints):
        from hsqd import fci_ground

        c = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rotated = rotate_basis(dimer_ints, c)
        spec = SectorSpec(2, 1, 1)
        assert fci_ground(spec, rotated).energy == pytest.approx(
            fci_ground(spec, dimer_ints).energy, abs=1e-10
        )

    def test_random_rotation_preserves_fci_energy(self):
        from hsqd import fci_ground

        rng = np.random.default_rng(3)
        for _ in range(4):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = rotate_basis(ints, q)
            spec = SectorSpec(4, 2, 1)
            assert fci_ground(spec, rotated).energy == pytest.approx(
                fci_ground(spec, ints).energy, abs=1e-10
            )

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(8)
        lat = random_lattice(rng, m=3)
        ints = map_to_electronic(lat)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = rotate_basis(ints, q)  # constructor re-validates all invariants
        assert np.abs(rot.one_body - rot.one_body.conj().T).max() <= 1e-12


class TestLatticeRoundTrip:
    def test_json_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(21)
        lat = random_lattice(rng, m=4)
        save_lattice(lat, tmp_path / "x.json")
        back = load_lattice(tmp_path / "x.json")
        assert np.abs(back.hopping - lat.hopping).max() <= 1e-12
        assert np.abs(back.u_intra - lat.u_intra).max() <= 1e-12
        assert np.abs(back.v_inter - lat.v_inter).max() <= 1e-12

    def test_electronic_inverse_mapping(self, dimer_lattice, dimer_ints):
        back = lattice_from_electronic(dimer_ints)
        assert np.allclose(back.hopping, dimer_lattice.hopping)
        assert np.allclose(back.u_intra, dimer_lattice.u_intra)
        assert np.allclose(back.v_inter, dimer_lattice.v_inter)

    def test_inverse_mapping_of_permuted_basis(self):
        """A permutation keeps the integrals density-density, so the inverse
        mapping recovers the relabelled t, U and V."""
        rng = np.random.default_rng(13)
        lat = random_lattice(rng, m=5)
        perm = rng.permutation(5)
        back = lattice_from_electronic(rotate_basis(map_to_electronic(lat), np.eye(5)[:, perm]))
        assert np.abs(back.hopping - lat.hopping[np.ix_(perm, perm)]).max() <= 1e-12
        assert np.abs(back.u_intra - lat.u_intra[perm]).max() <= 1e-12
        assert np.abs(back.v_inter - lat.v_inter[np.ix_(perm, perm)]).max() <= 1e-12

    def test_inverse_mapping_rejects_general_tensors(self):
        from oracles import random_general_integrals

        rng = np.random.default_rng(2)
        ints = random_general_integrals(rng, 2, core=0.0)
        with pytest.raises(ValidationError):
            lattice_from_electronic(ints)


class TestFcidump:
    def test_value_line_definition(self, tmp_path):
        from hsqd import read_fcidump

        path = tmp_path / "f.dump"
        path.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"
            "-1.0 1 2 0 0\n"
            "0.5 0 0 0 0\n"
        )
        ints = read_fcidump(path)
        assert ints.one_body[0][1] == -1.0
        assert ints.one_body[1][0] == -1.0
        assert ints.core_energy == 0.5

    def test_dimer_round_trip_operator_identity(self, tmp_path, dimer_ints):
        from hsqd import read_fcidump, write_fcidump

        write_fcidump(dimer_ints, tmp_path / "d.dump", nelec=2)
        back = read_fcidump(tmp_path / "d.dump")
        dets = enumerate_sector(SectorSpec(2, 1, 1))
        for a in dets:
            for b in dets:
                assert matrix_element(a, b, back) == pytest.approx(
                    matrix_element(a, b, dimer_ints), abs=1e-12
                )

    def test_spin_free_read_write_read_identity(self, tmp_path, dimer_ints):
        from hsqd import read_fcidump, write_fcidump

        write_fcidump(dimer_ints, tmp_path / "a.dump")
        ints = read_fcidump(tmp_path / "a.dump")
        write_fcidump(ints, tmp_path / "b.dump")
        again = read_fcidump(tmp_path / "b.dump")
        assert np.abs(again.one_body - ints.one_body).max() <= 1e-12
        assert np.abs(again.two_body_same_spin - ints.two_body_same_spin).max() <= 1e-12
        assert np.abs(
            again.two_body_opposite_spin - ints.two_body_opposite_spin
        ).max() <= 1e-12

    def test_onsite_convention_line(self, tmp_path):
        """Material-style on-site repulsion lands on the 1 1 1 1 line."""
        from hsqd import write_fcidump

        lat = LatticeHamiltonian(2, np.zeros((2, 2)), [3.13, 0.0], np.zeros((2, 2)))
        write_fcidump(map_to_electronic(lat), tmp_path / "m.dump")
        lines = [l.split() for l in (tmp_path / "m.dump").read_text().splitlines()]
        onsite = [l for l in lines if l[1:] == ["1", "1", "1", "1"]]
        assert float(onsite[0][0]) == pytest.approx(3.13)

    def test_lossy_collapse_warns(self, tmp_path):
        import warnings as w

        from hsqd import ElectronicIntegrals, write_fcidump

        gss = np.zeros((2,) * 4)
        gos = np.zeros((2,) * 4)
        gss[0, 0, 1, 1] = gss[1, 1, 0, 0] = 1.0  # differs from gos off-site
        ints = ElectronicIntegrals(2, np.zeros((2, 2)), gss, gos)
        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            write_fcidump(ints, tmp_path / "lossy.dump")
        assert any("lossy" in str(c.message) for c in caught)

    def test_malformed_header_rejected(self, tmp_path):
        from hsqd import read_fcidump

        path = tmp_path / "bad.dump"
        path.write_text("NORB=2\n-1.0 1 2 0 0\n")
        with pytest.raises(ValidationError, match="header"):
            read_fcidump(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected(self, tmp_path, value):
        from hsqd import read_fcidump

        path = tmp_path / "bad.dump"
        path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n{value} 1 2 0 0\n")
        with pytest.raises(ValidationError, match="non-finite"):
            read_fcidump(path)

    def test_index_out_of_range_rejected(self, tmp_path):
        from hsqd import read_fcidump

        path = tmp_path / "bad.dump"
        path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n-1.0 1 3 0 0\n")
        with pytest.raises(ValidationError, match="range"):
            read_fcidump(path)

    @pytest.mark.parametrize("line", ["0.5 0 2 0 0", "0.5 2 0 0 0"])
    def test_one_body_zero_index_rejected(self, tmp_path, line):
        """A one-body line with one zero index was stored through index -1:
        ``0.5 0 2 0 0`` landed at h[2, 1] and h[1, 2] of a 3-orbital file.
        The error names the line counted from the top of the file, not from
        the header's terminator, also under ``write_fcidump``'s four-line
        header."""
        from hsqd import read_fcidump, write_fcidump

        write_fcidump(map_to_electronic(random_lattice(np.random.default_rng(2), m=3)),
                      tmp_path / "m.dump")
        written = (tmp_path / "m.dump").read_text()
        assert written.count("\n", 0, written.index("&END")) == 3
        path = tmp_path / "bad.dump"
        for text, lineno in [("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n-1.0 1 2 0 0\n", 4),
                             (written, written.count("\n") + 1)]:
            path.write_text(f"{text}{line}\n")
            with pytest.raises(ValidationError,
                               match=f"mixed zero/nonzero indices on line {lineno}: '{line}'"):
                read_fcidump(path)


class TestIntegralInvariants:
    def test_constructor_rejects_nonhermitian_one_body(self):
        with pytest.raises(ValidationError):
            ElectronicIntegrals(
                2, np.array([[0.0, 1.0], [0.5, 0.0]]),
                np.zeros((2,) * 4), np.zeros((2,) * 4),
            )

    @pytest.mark.parametrize("field, value", [
        ("one_body", np.nan),
        ("two_body_same_spin", np.inf),
        ("two_body_opposite_spin", -np.inf),
        ("core_energy", np.nan),
    ])
    def test_constructor_rejects_nonfinite_values(self, field, value):
        values = {"one_body": np.zeros((2, 2)), "two_body_same_spin": np.zeros((2,) * 4),
                  "two_body_opposite_spin": np.zeros((2,) * 4), "core_energy": 0.0}
        if field == "core_energy":
            values[field] = value
        else:
            # a symmetric placement, so only finiteness can reject it
            values[field] = values[field].copy()
            values[field].flat[0] = value
            values[field].flat[-1] = value
        with pytest.raises(ValidationError, match=f"{field} contains non-finite"):
            ElectronicIntegrals(2, **values)
