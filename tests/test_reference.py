import hashlib

import numpy as np
import pytest
import scipy.linalg

from hsqd import (
    Determinant,
    LatticeHamiltonian,
    LucjLayer,
    LucjParameters,
    SampleSet,
    SectorSpec,
    SelectionSchedule,
    ValidationError,
    build_state,
    hci_ground,
    lucj_from_t2,
    map_to_electronic,
    mp2_doubles,
    rotate_basis,
    solve_mean_field,
    sqd_sweep,
)
import hsqd.reference

from conftest import make_chain, random_lattice
from oracles import (
    diagonal_energy,
    enumerate_sector,
    matrix_element,
    random_general_integrals,
    scf_energy_reference,
    scf_fock_reference,
)


def _scf_integrals(rng, m, kind):
    """Real general integrals, lattice integrals with complex hopping (real
    g), or those rotated by a random unitary (complex g)."""
    if kind == "real":
        return random_general_integrals(rng, m)
    ints = map_to_electronic(random_lattice(rng, m=m, complex_hopping=True))
    if kind == "complex":
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        ints = rotate_basis(ints, np.linalg.qr(z)[0])
    return ints


class TestScfContractionsAgainstEinsum:
    """``_fock`` and ``_electronic_energy`` make the matmul calls that the
    planned-path einsum made (``scf_fock_reference``, ``scf_energy_reference``),
    so every bit of the Fock matrix and the energy is the same."""

    @pytest.mark.parametrize("kind", ["real", "complex hopping", "complex"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_bytes_equal(self, m, kind):
        rng = np.random.default_rng(100 * m + len(kind))
        ints = _scf_integrals(rng, m, kind)
        pair_g = hsqd.reference._pair_matrices(ints)
        for n_pairs in range(m + 1):
            z = rng.normal(size=(m, m))
            if kind != "real":
                z = z + 1j * rng.normal(size=(m, m))
            c = np.linalg.qr(z)[0]
            p = c[:, :n_pairs] @ c[:, :n_pairs].conj().T if n_pairs else np.zeros((m, m))
            fock, want = hsqd.reference._fock(ints, p, pair_g), scf_fock_reference(ints, p)
            assert (fock.dtype, fock.shape) == (want.dtype, want.shape)
            assert fock.tobytes() == want.tobytes()
            assert (hsqd.reference._electronic_energy(ints, p, pair_g).hex()
                    == scf_energy_reference(ints, p).hex())


def _from_reference(step, reference):
    """What ``build_state``, ``sqd_sweep`` or ``hci_ground`` make from the
    reference words ``reference`` in the (2, 1) sector of a 4-site U+V
    chain, as a list of arrays."""
    spec = SectorSpec(4, 2, 1)
    ints = map_to_electronic(make_chain(4, v=0.6))
    if step == "build_state":
        rng = np.random.default_rng(5)
        k, j = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        layer = LucjLayer(scipy.linalg.expm(k - k.T), j + j.T, j + j.T)
        return [build_state(LucjParameters(4, (layer,)), reference, spec).amplitudes]
    if step == "sqd_sweep":
        counts = {Determinant(0b0011, 0b0100): 5, Determinant(0b0101, 0b0001): 3}
        points = sqd_sweep(SampleSet(4, counts, 8, None, "file"), spec, ints, [0.25, 1.0],
                           reference=reference)
        return [x for p in points for x in (p.basis.alpha_strings, p.basis.beta_strings,
                                             p.result.ci_vector, np.array(p.result.energy))]
    stages = hci_ground(spec, ints, SelectionSchedule(epsilons=(0.5, 1e-3)), reference=reference)
    return [x for s in stages for x in (s.alpha, s.beta, s.result.ci_vector,
                                        np.array(s.result.energy))]


@pytest.mark.parametrize("step", ["build_state", "sqd_sweep", "hci_ground"])
def test_reference_words(step):
    """Each step that takes a reference takes its (alpha, beta) words: the
    same bytes out for Python ints and ``np.int64`` words, and one
    ``ValidationError`` message for a reference outside the sector (a wrong
    electron count, an orbital above M, a negative word)."""
    ref = (0b0110, 0b0010)  # not the aufbau determinant, so the reference matters
    plain = _from_reference(step, ref)
    numpy_words = _from_reference(step, (np.int64(ref[0]), np.int64(ref[1])))
    assert len(plain) == len(numpy_words)
    for got, want in zip(numpy_words, plain):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for bad in ((0b0111, 0b0010), (0b0110, 0b0011), (0b10100, 0b0010), (-1, 0b0010)):
        with pytest.raises(ValidationError) as info:
            _from_reference(step, bad)
        assert str(info.value) == "reference determinant outside the sector"
        assert info.value.exit_code == 2


class TestMeanField:
    def test_noninteracting_diagonalizes_hopping(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(4, 4))
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(4, t, np.zeros(4), np.zeros((4, 4)))
        ints = map_to_electronic(lat)
        mf = solve_mean_field(ints, SectorSpec(4, 2, 2))
        evals = np.sort(np.linalg.eigvalsh(t))
        assert mf.converged
        assert np.allclose(mf.orbital_energies, evals, atol=1e-10)
        assert mf.hf_energy == pytest.approx(2 * evals[:2].sum(), abs=1e-10)

    @pytest.mark.parametrize("m, v, pairs, iterations, orbitals, hf_energy, history, calls", [
        (6, 0.6, 3, 20, "713bd9316e223968", "0x1.8f2a6e8ad1b0fp+1", "a41d2edbb6add141", 59),
        (6, 0.6, 2, 22, "de15a3f40820e5cb", "-0x1.bc6ba3d973754p+0", "7c2d3cdc0387e307", 65),
        (8, 0.0, 4, 1, "7b4a721d561f4226", "-0x1.847d90948b470p+0", "448d8035041ad9f2", 2),
    ])
    def test_each_energy_evaluated_once(self, monkeypatch, m, v, pairs, iterations, orbitals,
                                        hf_energy, history, calls):
        """The open U+V and U chains give the orbitals, ``hf_energy`` and
        ``energy_history`` (SHA-256 prefixes of their bytes) that the SCF gave
        when it evaluated E(p) again at the top of every iteration, which
        took 77 and 85 energy calls on the U+V chain; now E(p) is carried
        over from the step that accepted p, so after the one energy of the
        starting density no iteration makes more than three.  ``hf_energy``
        is the engine's diagonal element in these orbitals, so it pins the
        engine's round-off too."""
        events = []
        energy, eigh = hsqd.reference._electronic_energy, scipy.linalg.eigh

        def counted_energy(*args):
            events.append("E")
            return energy(*args)

        def marked_eigh(*args, **kwargs):
            events.append("|")  # the core guess, one Fock matrix per iteration, the final one
            return eigh(*args, **kwargs)

        monkeypatch.setattr(hsqd.reference, "_electronic_energy", counted_energy)
        monkeypatch.setattr(scipy.linalg, "eigh", marked_eigh)
        mf = solve_mean_field(map_to_electronic(make_chain(m, v=v)), SectorSpec(m, pairs, pairs))

        def digest(values):
            return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]

        assert (mf.converged, mf.iterations) == (True, iterations)
        assert digest(mf.orbital_coefficients) == orbitals
        assert mf.hf_energy.hex() == hf_energy
        assert digest(np.array(mf.energy_history)) == history
        segments = [len(seg) for seg in "".join(events).split("|")[1:]]
        assert len(segments) == iterations + 2
        assert segments[0] == 1 and max(segments[1:]) <= 3
        assert sum(segments) == calls

    def test_symmetric_dimer_energy_is_zero(self, dimer_ints):
        mf = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        assert mf.converged
        # -2|t| + U/2 for the symmetric half-filled dimer
        assert mf.hf_energy == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_hopping_keeps_site_basis(self):
        t = np.diag([0.3, -1.2, 0.7])
        lat = LatticeHamiltonian(3, t, np.zeros(3), np.zeros((3, 3)))
        mf = solve_mean_field(map_to_electronic(lat), SectorSpec(3, 1, 1))
        assert np.allclose(mf.orbital_energies, np.sort(np.diag(t)))
        assert np.allclose(np.abs(mf.orbital_coefficients), np.eye(3)[:, [1, 0, 2]])

    def test_hf_energy_matches_reference_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            lat = random_lattice(rng)
            ints = map_to_electronic(lat)
            m = lat.n_orbitals
            na = int(rng.integers(1, m + 1))
            spec = SectorSpec(m, na, na)
            mf = solve_mean_field(ints, spec)
            mo = rotate_basis(ints, mf.orbital_coefficients)
            assert mf.hf_energy == pytest.approx(
                diagonal_energy(Determinant(*mf.reference_for(spec)), mo), abs=1e-10
            )

    def test_energy_monotone_over_final_iterations(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            lat = random_lattice(rng)
            ints = map_to_electronic(lat)
            m = lat.n_orbitals
            na = int(rng.integers(1, m + 1))
            mf = solve_mean_field(ints, SectorSpec(m, na, na))
            tail = mf.energy_history[-10:]
            for a, b in zip(tail, tail[1:]):
                assert b <= a + 1e-10

    def test_open_shell_reuses_closed_shell_orbitals(self, dimer_ints):
        closed = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        open_shell = solve_mean_field(dimer_ints, SectorSpec(2, 2, 1))
        assert np.allclose(
            np.abs(closed.orbital_coefficients), np.abs(open_shell.orbital_coefficients)
        )
        assert open_shell.reference_for(SectorSpec(2, 2, 1)) == (0b11, 0b01)

    def test_variational_bound(self):
        from hsqd import fci_ground

        rng = np.random.default_rng(23)
        for _ in range(5):
            lat = random_lattice(rng, m=4)
            ints = map_to_electronic(lat)
            mf = solve_mean_field(ints, SectorSpec(4, 2, 2))
            assert mf.hf_energy >= fci_ground(SectorSpec(4, 2, 2), ints).energy - 1e-12


class TestMp2:
    def test_zero_two_body_gives_zero(self):
        t = np.diag([0.0, 1.0, 2.0]) - 0.1
        t = (t + t.T) / 2
        lat = LatticeHamiltonian(3, t, np.zeros(3), np.zeros((3, 3)))
        ints = map_to_electronic(lat)
        spec = SectorSpec(3, 1, 1)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        t2, e2 = mp2_doubles(mf, mo, spec)
        assert not t2.any()
        assert e2 == 0.0

    def test_dimer_against_sum_over_states(self, dimer_ints):
        """Independent oracle: second-order sum over doubly-excited
        determinants with orbital-energy denominators."""
        spec = SectorSpec(2, 1, 1)
        mf = solve_mean_field(dimer_ints, spec)
        mo = rotate_basis(dimer_ints, mf.orbital_coefficients)
        t2, e2 = mp2_doubles(mf, mo, spec)

        eps = mf.orbital_energies
        ref = Determinant(*mf.reference_for(spec))
        e_oracle = 0.0
        for det in enumerate_sector(spec):
            if det == ref:
                continue
            coupling = matrix_element(det, ref, mo)
            if coupling == 0.0:
                continue
            # orbital-energy cost of the excitation
            cost = 0.0
            for word_new, word_old in ((det.alpha, ref.alpha), (det.beta, ref.beta)):
                gained = word_new & ~word_old
                lost = word_old & ~word_new
                for p in range(2):
                    if (gained >> p) & 1:
                        cost += eps[p]
                    if (lost >> p) & 1:
                        cost -= eps[p]
            if cost == 0.0:
                continue
            e_oracle += abs(coupling) ** 2 / (-cost)
        assert e2 == pytest.approx(e_oracle, abs=1e-12)
        assert e2 == pytest.approx(-1.0, abs=1e-12)  # analytic value for t=-1, U=4

    def test_degenerate_gap_raises(self):
        t = np.diag([0.0, 1.0, 1.0, 2.0])
        lat = LatticeHamiltonian(4, t, np.zeros(4), np.zeros((4, 4)))
        ints = map_to_electronic(lat)
        spec = SectorSpec(4, 2, 2)
        mf = solve_mean_field(ints, spec)
        mo = rotate_basis(ints, mf.orbital_coefficients)
        with pytest.raises(ValidationError, match="degenerate"):
            mp2_doubles(mf, mo, spec)

    def test_open_shell_rejected(self, dimer_ints):
        mf = solve_mean_field(dimer_ints, SectorSpec(2, 1, 1))
        mo = rotate_basis(dimer_ints, mf.orbital_coefficients)
        with pytest.raises(ValidationError, match="closed-shell"):
            mp2_doubles(mf, mo, SectorSpec(2, 2, 1))


class TestLucjParameters:
    def test_zero_amplitudes_give_zero_parameters(self):
        params = lucj_from_t2(np.zeros((1, 1, 1, 1)), 2, 1)
        assert len(params.layers) == 1
        assert np.array_equal(params.layers[0].rotation, np.eye(2))
        assert not params.layers[0].j_same.any()
        assert not params.layers[0].j_opposite.any()

    def test_single_layer_default(self):
        rng = np.random.default_rng(1)
        t2 = rng.normal(size=(2, 2, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        params = lucj_from_t2(t2, 4, 2)
        assert len(params.layers) == 1

    def test_requested_layer_count(self):
        rng = np.random.default_rng(2)
        t2 = rng.normal(size=(2, 2, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        assert len(lucj_from_t2(t2, 4, 2, layers=3).layers) == 3

    def test_masked_entries_exactly_zero(self):
        """Opposite-spin couplings only between index-adjacent orbitals,
        |p - q| <= 1; same-spin couplings between every pair."""
        rng = np.random.default_rng(3)
        t2 = rng.normal(size=(3, 3, 2, 2))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        layer = lucj_from_t2(t2, 5, 3).layers[0]
        p, q = np.indices((5, 5))
        band = np.abs(p - q) <= 1
        assert np.all(layer.j_opposite[~band] == 0.0)
        assert np.array_equal(layer.j_opposite[band], layer.j_same[band])
        assert np.count_nonzero(layer.j_same[~band])

    def test_structural_invariants(self):
        rng = np.random.default_rng(4)
        t2 = rng.normal(size=(2, 2, 3, 3))
        t2 = (t2 + t2.transpose(1, 0, 3, 2)) / 2
        for layer in lucj_from_t2(t2, 5, 2, layers=2).layers:
            assert np.abs(layer.rotation.T @ layer.rotation - np.eye(5)).max() <= 1e-12
            assert np.abs(layer.j_same - layer.j_same.T).max() == 0.0
            assert np.abs(layer.j_opposite - layer.j_opposite.T).max() == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            lucj_from_t2(np.zeros((2, 2, 1, 1)), 4, 2)  # 2 occ + 1 virt != 4
